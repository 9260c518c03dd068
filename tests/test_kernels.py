"""Known answers of the exact kernels."""

from fractions import Fraction

from nearfeas import backend


def test_pivot_normalizes_column():
    t = [[Fraction(2), Fraction(4)], [Fraction(3), Fraction(5)]]
    backend.pivot_update(t, 0, 0)
    assert t[0] == [Fraction(1), Fraction(2)]
    assert t[1] == [Fraction(0), Fraction(-1)]


def test_bareiss_known_ranks():
    assert backend.bareiss_rank([[1, 0], [0, 1]]) == 2
    assert backend.bareiss_rank([[1, 2], [2, 4]]) == 1
    assert backend.bareiss_rank([[0, 0], [0, 0]]) == 0
