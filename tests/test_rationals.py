import math

import pytest
from hypothesis import given, strategies as st

from nearfeas.rationals import Rat, as_rat, format_rat, integer_row, is_integral, parse_rat


def test_parse_basic():
    assert parse_rat("3/4") == Rat(3, 4)
    assert parse_rat("-3/4") == Rat(-3, 4)
    assert parse_rat("+5") == Rat(5)
    assert parse_rat("0") == Rat(0)


def test_parse_sign_only_on_numerator():
    with pytest.raises(ValueError):
        parse_rat("3/-4")
    with pytest.raises(ValueError):
        parse_rat("3/+4")
    with pytest.raises(ValueError):
        parse_rat("1.5")
    with pytest.raises(ValueError):
        parse_rat("3/0")


def test_format_lowest_terms():
    assert format_rat(Rat(6, 4)) == "3/2"
    assert format_rat(Rat(8, 4)) == "2"
    assert format_rat(Rat(-1, 2)) == "-1/2"


def test_roundtrip():
    for text in ["3/2", "-7/5", "0", "12"]:
        assert format_rat(parse_rat(text)) == text


def test_as_rat_rejects_floats():
    with pytest.raises(TypeError):
        as_rat(0.5)


def test_as_rat_rejects_booleans():
    for value in (True, False):
        with pytest.raises(TypeError, match="boolean values are not allowed"):
            as_rat(value)


def test_as_rat_returns_a_rat_unchanged():
    r = Rat(-6, 4)
    assert as_rat(r) is r
    assert as_rat(3) == Rat(3) and as_rat("-3/2") == r


def test_integer_row_examples():
    assert integer_row([]) == (1, [])
    assert integer_row([3, -2, Rat(0)]) == (1, [3, -2, 0])
    # the lcm, not the largest denominator, with mixed signs
    assert integer_row([5, Rat(-1, 4), Rat(-5, 6), Rat(7, 9)]) == (36, [180, -9, -30, 28])


@given(st.lists(st.fractions(max_denominator=10**6), max_size=8))
def test_scaled_by_the_common_denominator_is_exact(values):
    L, ints = integer_row(values)
    assert L >= 1
    assert len(ints) == len(values)
    for v, a in zip(values, ints):
        assert type(a) is int
        assert a == v * L
    # least: no proper divisor L // p of L makes every value integral
    for p in range(2, min(L, 1000) + 1):
        if L % p == 0:
            assert any((v * (L // p)).denominator != 1 for v in values)


@given(st.lists(st.one_of(st.fractions(max_denominator=10**4), st.integers(-50, 50)), max_size=8))
def test_integer_row_is_the_common_denominator_and_the_scaled_values(values):
    L, ints = integer_row(values)
    assert L == math.lcm(*(Rat(v).denominator for v in values))
    assert ints == [v * L for v in values]
    assert all(type(a) is int for a in ints)


@pytest.mark.parametrize(
    "values, message",
    [
        ([0.1, True], "floating-point values are not allowed"),
        ([Rat(1, 2), 1.0], "floating-point values are not allowed"),
        ([3, True], "boolean values are not allowed"),
        ([False], "boolean values are not allowed"),
        ([1, "1/2"], "expected a rational, got '1/2'"),
        ([None], "expected a rational, got None"),
    ],
)
def test_integer_row_rejects_floats_and_booleans(values, message):
    with pytest.raises(TypeError, match=message):
        integer_row(values)


def test_is_integral():
    assert is_integral(Rat(4, 2))
    assert not is_integral(Rat(1, 3))
