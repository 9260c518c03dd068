import gc
import itertools
import math
import operator
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfeas.errors import EnumerationCapExceeded, InvalidInstanceError
from nearfeas.generate import gen_general
from nearfeas.instances import GeneralIP, NFoldConfigInstance, NFoldNonnegInstance
from nearfeas.oracle import brute_force, brute_force_config, brute_force_general, brute_force_nfold
from nearfeas.rationals import Rat


def test_general_examples():
    inst = GeneralIP.build([[2, 3, 5]], [10], [1, 1, 1], [0, 0, 0], [3, 3, 2])
    res = brute_force_general(inst)
    assert res.feasible and res.optimum == 2

    inst2 = GeneralIP.build([[2]], [3], [1], [0], [5])
    assert not brute_force_general(inst2).feasible

    inst3 = GeneralIP.build([[2, 3]], [8], [Rat(1, 2), 1], [1, 2], [1, 2])
    res3 = brute_force_general(inst3)
    assert res3.feasible and res3.optimum == Rat(5, 2)  # l = u fixed point


def test_general_witness_is_lex_smallest():
    # two optima with equal objective: (0,2) and (2,0) for x1+x2 with H=[[1,1]], b=2
    inst = GeneralIP.build([[1, 1]], [2], [1, 1], [0, 0], [2, 2])
    res = brute_force_general(inst)
    assert res.witness == (0, 2)


def test_block_witnesses_follow_enumeration_order():
    # every pick of the config instance costs 2: the first in index order wins
    config = NFoldConfigInstance.build(
        [([[1]], [(0,), (1,), (2,)], [1]), ([[1]], [(2,), (1,), (0,)], [1])], [2]
    )
    assert brute_force_config(config).witness == ((0,), (2,))
    # each block solves x1 + x2 = 1 two ways at equal cost
    block = ([[1, 1]], [[1, 1]], [1], [1, 1], [1, 1])
    nfold = NFoldNonnegInstance.build([block, block], [2])
    assert brute_force_nfold(nfold).witness == ((0, 1), (0, 1))


def test_the_search_leaves_no_reference_cycle():
    """Each oracle call is freed by reference counting alone."""
    block = ([[1, 1]], [[1, 1]], [1], [1, 1], [1, 1])
    cases = [
        GeneralIP.build([[2, 3, 5]], [10], [1, 1, 1], [0, 0, 0], [3, 3, 2]),
        NFoldConfigInstance.build([([[1]], [(0,), (1,)], [1]), ([[1]], [(0,), (1,)], [5])], [1]),
        NFoldNonnegInstance.build([block, block], [2]),
    ]
    for inst in cases:
        assert brute_force(inst).feasible
        gc.collect()
        gc.disable()
        try:
            brute_force(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_config_examples():
    inst = NFoldConfigInstance.build(
        [([[1]], [(0,), (1,)], [1]), ([[1]], [(0,), (1,)], [5])], [1]
    )
    res = brute_force_config(inst)
    assert res.feasible and res.optimum == 1

    single = NFoldConfigInstance.build([([[2]], [(3,)], [1])], [6])
    res2 = brute_force_config(single)
    assert res2.feasible and res2.optimum == 3

    miss = NFoldConfigInstance.build([([[2]], [(3,)], [1])], [5])
    assert not brute_force_config(miss).feasible


def test_nfold_examples():
    inst = NFoldNonnegInstance.build(
        [([[1]], [[1]], [1], [5], [1]), ([[1]], [[1]], [1], [5], [1])], [2]
    )
    res = brute_force_nfold(inst)
    assert res.feasible and res.optimum == 2

    zero = NFoldNonnegInstance.build([([[1]], [[1]], [0], [0], [1])], [0])
    res2 = brute_force_nfold(zero)
    assert res2.feasible and res2.optimum == 0

    bad = NFoldNonnegInstance.build([([[1]], [[1]], [0], [0], [1])], [3])
    assert not brute_force_nfold(bad).feasible


def test_cap_is_loud():
    inst = GeneralIP.build([[1, 1, 1]], [2], [1, 1, 1], [0, 0, 0], [9, 9, 9])
    with pytest.raises(EnumerationCapExceeded):
        brute_force_general(inst, cap=100)


def test_cap_boundary_per_kind():
    """A box of exactly cap points is searched; one point more fails up front,
    before an empty configuration set could decide infeasibility."""
    digits = ([[1]], [(0,), (1,), (2,)], [1])
    nfold_blocks = [
        ([[1, 1]], [[1, 0]], [1], [2, 1], [1, 1]),
        ([[1, 1]], [[1, 1]], [1], [3, 0], [2, 1]),
    ]
    cases = [  # (instance, points in its box, oracle kind, feasible)
        (GeneralIP.build([[1, 1, 1]], [2], [1, 2, 1], [-1, 0, 0], [1, 1, 3]), 24, "general", True),
        (NFoldConfigInstance.build([digits, ([[1]], [(0,), (1,)], [1])], [2]), 6, "config", True),
        (NFoldConfigInstance.build([digits, ([[1]], [], [1])], [2]), 3, "config", False),
        (NFoldNonnegInstance.build(nfold_blocks, [2]), 24, "nfold", True),
    ]
    for inst, points, kind, feasible in cases:
        assert brute_force(inst, cap=points).feasible is feasible
        message = f"{kind} oracle: {points} points exceeds cap {points - 1}"
        with pytest.raises(EnumerationCapExceeded, match=re.escape(message)):
            brute_force(inst, cap=points - 1)


def test_malformed_instances_are_rejected():
    # b has one entry for two rows: the first row alone would admit (0, 2)
    general = GeneralIP.build([[1, 1], [1, -1]], [2], [1, 1], [0, 0], [3, 3])
    with pytest.raises(InvalidInstanceError, match="dimension mismatch: b"):
        brute_force_general(general)
    config = NFoldConfigInstance.build([([[1], [1]], [(1,)], [1])], [1])
    with pytest.raises(InvalidInstanceError, match="dimension mismatch: b0"):
        brute_force_config(config)
    nfold = NFoldNonnegInstance.build([([[1]], [[-1]], [1], [2], [1])], [-1])
    with pytest.raises(InvalidInstanceError, match="negative entry in block 0"):
        brute_force_nfold(nfold)
    for cap in (0, -5):
        with pytest.raises(InvalidInstanceError, match="cap must be positive"):
            brute_force(GeneralIP.build([[1]], [1], [1], [0], [1]), cap=cap)


# ---------------------------------------------------------------------------
# The three oracles against a plain itertools.product search


def _dot(a, b):
    return sum(map(operator.mul, a, b), Fraction(0))


def _first_optimum(candidates):
    """(feasible, optimum, witness) of the first (cost, witness) of least cost."""
    best = None
    for cost, witness in candidates:
        if best is None or cost < best[0]:
            best = (cost, witness)
    return (False, None, None) if best is None else (True, *best)


def _rows(mat):
    return [mat.row(i) for i in range(mat.rows)]


def _general_reference(inst):
    return _first_optimum(
        (_dot(inst.w, x), x)
        for x in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(inst.l, inst.u)))
        if [_dot(row, x) for row in _rows(inst.H)] == list(inst.b)
    )


def _coupling(blocks, xs):
    return [sum(col, Fraction(0)) for col in zip(*(blk.D.matvec(x) for blk, x in zip(blocks, xs)))]


def _config_reference(inst):
    return _first_optimum(
        (sum((_dot(blk.weights, x) for blk, x in zip(inst.blocks, pick)), Fraction(0)), pick)
        for pick in itertools.product(*(blk.configs for blk in inst.blocks))
        if _coupling(inst.blocks, pick) == list(inst.b0)
    )


def _nfold_reference(inst):
    boxes = [itertools.product(*(range(hi + 1) for hi in blk.u)) for blk in inst.blocks]
    return _first_optimum(
        (sum((_dot(blk.w, x) for blk, x in zip(inst.blocks, pick)), Fraction(0)), pick)
        for pick in itertools.product(*map(list, boxes))
        if _coupling(inst.blocks, pick) == list(inst.b0)
        and all(blk.A.matvec(x) == blk.bi for blk, x in zip(inst.blocks, pick))
    )


_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# few distinct entries, so that distinct picks often reach the same target
_SIGNED = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1)])
_NONNEG = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
# few distinct costs, so that equal-cost optima and the witness tie-break are common
_WEIGHT = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-3, 2)])


def _vector(draw, values, size):
    return [draw(values) for _ in range(size)]


def _block_weights(draw, size):
    """Half the time all zero: every feasible pick of the block then ties."""
    return _vector(draw, _WEIGHT, size) if draw(st.booleans()) else [Fraction(0)] * size


def _target(draw, make, size):
    """Mostly the image of a drawn point, so that most draws are feasible."""
    return make() if draw(st.integers(0, 3)) else _vector(draw, _RATIONAL, size)


@st.composite
def _general(draw, n_max=3, width_max=2):
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, n_max))
    H = [_vector(draw, _RATIONAL, n) for _ in range(m)]
    lower = _vector(draw, st.integers(-2, 1), n)
    upper = [lo + draw(st.integers(0, width_max)) for lo in lower]
    x = [draw(st.integers(lo, hi)) for lo, hi in zip(lower, upper)]
    b = _target(draw, lambda: [_dot(row, x) for row in H], m)
    w = _vector(draw, _WEIGHT, n)
    return GeneralIP.build(H, b, w, lower, upper)


@st.composite
def _config(draw, blocks_max=3):
    n, s, t = draw(st.integers(1, blocks_max)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    blocks = []
    for _ in range(n):
        configs = draw(st.lists(st.tuples(*[st.integers(0, 2)] * t), min_size=1, max_size=3))
        configs = configs if draw(st.integers(0, 9)) else []
        D = [_vector(draw, _SIGNED, t) for _ in range(s)]
        blocks.append((D, configs, _block_weights(draw, t)))
    built = NFoldConfigInstance.build(blocks, [0] * s)
    pick = [draw(st.sampled_from(blk.configs)) if blk.configs else (0,) * t for blk in built.blocks]
    b0 = _target(draw, lambda: _coupling(built.blocks, pick), s)
    return NFoldConfigInstance.build(blocks, b0)


@st.composite
def _nfold(draw):
    n, sa, sd = (draw(st.integers(1, 2)) for _ in range(3))
    t = draw(st.integers(1, 3))
    blocks, pick = [], []
    for _ in range(n):
        A = [_vector(draw, _NONNEG, t) for _ in range(sa)]
        D = [_vector(draw, _NONNEG, t) for _ in range(sd)]
        u = _vector(draw, st.integers(0, 2), t)
        x = tuple(draw(st.integers(0, hi)) for hi in u)
        bi = [_dot(row, x) for row in A] if draw(st.integers(0, 3)) else _vector(draw, _NONNEG, sa)
        blocks.append((A, D, bi, u, _block_weights(draw, t)))
        pick.append(x)
    built = NFoldNonnegInstance.build(blocks, [0] * sd)
    b0 = _target(draw, lambda: _coupling(built.blocks, pick), sd)
    return NFoldNonnegInstance.build(blocks, b0)


def _assert_matches(result, reference):
    assert (result.feasible, result.optimum, result.witness) == reference
    assert result.optimum is None or isinstance(result.optimum, Fraction)


@settings(max_examples=300, deadline=None)
@given(_general())
def test_general_oracle_matches_product_search(inst):
    _assert_matches(brute_force_general(inst), _general_reference(inst))


@settings(max_examples=200, deadline=None)
@given(_config())
def test_config_oracle_matches_product_search(inst):
    _assert_matches(brute_force_config(inst), _config_reference(inst))


@settings(max_examples=200, deadline=None)
@given(_nfold())
def test_nfold_oracle_matches_product_search(inst):
    _assert_matches(brute_force_nfold(inst), _nfold_reference(inst))


# Wider boxes: up to 4096 points for a general instance and 729 picks for a
# configuration instance, so that the search splits at several points and
# joins its halves; the references still enumerate them.


@settings(max_examples=100, deadline=None)
@given(_general(n_max=6, width_max=3))
def test_wide_general_oracle_matches_product_search(inst):
    _assert_matches(brute_force_general(inst), _general_reference(inst))


@settings(max_examples=100, deadline=None)
@given(_config(blocks_max=6))
def test_wide_config_oracle_matches_product_search(inst):
    _assert_matches(brute_force_config(inst), _config_reference(inst))


# Boxes far beyond what a product search enumerates quickly, each solved in
# well under the 2 s and 5 MB asserted here.


def _measured(inst):
    """The oracle's result, its CPU seconds and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        start = time.process_time()
        result = brute_force_general(inst)
        return result, time.process_time() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_row_of_distinct_prefix_sums_at_scale():
    """One row with coefficients 4^j and values 0..3: every pick has its own
    sum (base-4 digits), so the box of 4^11 points has exactly one solution."""
    n = 11
    digits = tuple(j % 4 for j in range(n))
    b = sum(d * 4**j for j, d in enumerate(digits))
    inst = GeneralIP.build([[4**j for j in range(n)]], [b], [1] * n, [0] * n, [3] * n)
    result, seconds, peak = _measured(inst)
    assert (result.feasible, result.optimum, result.witness) == (True, sum(digits), digits)
    assert seconds < 2 and peak < 5 * 10**6


def test_a_generated_box_of_ten_million_points():
    """Optimum and witness as the exhaustive product search over the 9.6
    million points of this box found them."""
    inst = gen_general(random.Random(1), m=3, n=14, bound_max=4, box_cap=10**7)
    assert math.prod(hi - lo + 1 for lo, hi in zip(inst.l, inst.u)) == 9_600_000
    result, seconds, peak = _measured(inst)
    witness = (0, 3, 1, 2, -3, 2, 2, -4, 2, -1, 3, 1, 1, 1)
    assert (result.feasible, result.optimum, result.witness) == (True, -12, witness)
    assert seconds < 2 and peak < 5 * 10**6
