import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfeas.errors import InstanceFormatError
from nearfeas.generate import gen_config, gen_general, gen_nonneg, gen_scheduling
from nearfeas.instances import (
    ADDITIVE,
    MULTIPLICATIVE,
    ApproxParams,
    GeneralIP,
    NFoldConfigInstance,
    NFoldNonnegInstance,
    SchedulingInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    validate,
    validate_config,
    validate_general,
    validate_nonneg,
    validate_scheduling,
    violation_report,
)
from nearfeas.errors import InvalidInstanceError
from nearfeas.rationals import Rat


def test_validate_general_ok():
    inst = GeneralIP.build([[2]], [3], [1], [0], [5])
    problems, delta = validate_general(inst)
    assert problems == []
    assert delta == 2


def test_validate_bounds_crossed():
    inst = GeneralIP.build([[2]], [3], [1], [3], [1])
    problems, _ = validate_general(inst)
    assert any("bounds crossed" in p for p in problems)


def test_validate_dimension_mismatch():
    inst = GeneralIP.build([[1, 2, 3], [4, 5, 6]], [1, 2], [1, 1], [0, 0, 0], [1, 1, 1])
    problems, _ = validate_general(inst)
    assert any("dimension mismatch" in p for p in problems)


def test_violation_report_examples():
    inst = GeneralIP.build([[2, 3, 5]], [10], [1, 1, 1], [0, 0, 0], [3, 3, 2])
    r1 = violation_report(inst, (1, 1, 1), ADDITIVE, Rat(0))
    assert r1.residual == (Rat(0),)
    assert r1.within_bound

    r2 = violation_report(inst, (0, 0, 2), ADDITIVE, Rat(1))
    assert r2.residual == (Rat(0),)
    assert r2.within_bound

    r3 = violation_report(inst, (0, 3, 0), ADDITIVE, Rat(1))
    assert r3.residual == (Rat(-1),)
    assert r3.max_abs_residual == 1
    assert r3.within_bound


def test_violation_report_multiplicative():
    inst = NFoldNonnegInstance.build([([[1]], [[2]], [2], [4], [1])], [4])
    rep = violation_report(inst, ((2,),), MULTIPLICATIVE, Rat(1, 2))
    assert rep.within_bound  # D x = 4 = b0 exactly, A x = 2 = b1 exactly
    rep2 = violation_report(inst, ((4,),), MULTIPLICATIVE, Rat(1, 2))
    assert not rep2.within_bound  # A x = 4 > (3/2) * 2


def test_violation_report_deterministic_exact():
    inst = GeneralIP.build([[2, 3, 5]], [10], [1, 1, 1], [0, 0, 0], [3, 3, 2])
    a = violation_report(inst, (1, 1, 1), ADDITIVE, Rat(1))
    b = violation_report(inst, (1, 1, 1), ADDITIVE, Rat(1))
    assert a == b


# rationals with mixed denominators, negative entries and zeros
_RATS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5]))


def _fraction_rows(mat):
    return [mat.row(i) for i in range(mat.rows)]


def _fraction_product(rows, x):
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows]


def _reference_report(inst, x, mode, bound):
    """Residuals, max |residual|, the window test and w.x, each computed
    with plain Fraction arithmetic on the unrelaxed constraints."""
    if isinstance(inst, GeneralIP):
        attained = _fraction_product(_fraction_rows(inst.H), x)
        reference = list(inst.b)
        pairs = list(zip(inst.w, x))
    else:
        weights = [blk.weights if isinstance(inst, NFoldConfigInstance) else blk.w for blk in inst.blocks]
        attained = [Fraction(0)] * len(inst.b0)
        for blk, xi in zip(inst.blocks, x):
            attained = [a + c for a, c in zip(attained, _fraction_product(_fraction_rows(blk.D), xi))]
        reference = list(inst.b0)
        if isinstance(inst, NFoldNonnegInstance):
            for blk, xi in zip(inst.blocks, x):
                attained += _fraction_product(_fraction_rows(blk.A), xi)
                reference += list(blk.bi)
        pairs = [(w, v) for ws, xi in zip(weights, x) for w, v in zip(ws, xi)]
    residual = tuple(a - r for a, r in zip(attained, reference))
    top = max((abs(r) for r in residual), default=Fraction(0))
    if mode == ADDITIVE:
        within = top <= bound
    else:
        within = all((1 - bound) * r <= a <= (1 + bound) * r for a, r in zip(attained, reference))
    return residual, top, within, sum((w * v for w, v in pairs), Fraction(0))


_FACTORS = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(4, 5), Fraction(6, 5), Fraction(2)]


@st.composite
def _instances_and_candidates(draw):
    """An instance of any kind with rational data (negative entries allowed:
    the report does not validate), an integer candidate, and targets near
    the candidate's row values, so that both window outcomes occur."""
    kind = draw(st.sampled_from(["general", "nfold_config", "nfold_nonneg"]))
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))

    def vec(k):
        return draw(st.lists(_RATS, min_size=k, max_size=k))

    def mat(r):
        return [vec(cols) for _ in range(r)]

    def ints(k):
        return draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))

    def near(values):
        # each target is a value times a factor near 1, or (unless every
        # target must be near) any small rational
        close = draw(st.booleans())
        out = []
        for v in values:
            if close or draw(st.booleans()):
                out.append(v * draw(st.sampled_from(_FACTORS)))
            else:
                out.append(draw(_RATS))
        return out

    if kind == "general":
        H = mat(rows)
        x = ints(cols)
        inst = GeneralIP.build(H, near(_fraction_product(H, x)), vec(cols), [-3] * cols, [3] * cols)
    else:
        blocks = []
        x = []
        coupling = [Fraction(0)] * rows
        for _ in range(draw(st.integers(1, 3))):
            D = mat(rows)
            xi = ints(cols)
            x.append(tuple(xi))
            coupling = [a + c for a, c in zip(coupling, _fraction_product(D, xi))]
            if kind == "nfold_config":
                blocks.append((D, [tuple(xi)], vec(cols)))
            else:
                A = mat(rows)
                blocks.append((A, D, near(_fraction_product(A, xi)), [3] * cols, vec(cols)))
        cls = NFoldConfigInstance if kind == "nfold_config" else NFoldNonnegInstance
        inst = cls.build(blocks, near(coupling))
        x = tuple(x)
    mode = draw(st.sampled_from([ADDITIVE, MULTIPLICATIVE]))
    bound = draw(st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2, 3, 5])))
    return inst, x, mode, bound


@settings(max_examples=300, deadline=None)
@given(_instances_and_candidates())
def test_violation_report_matches_a_fraction_reference(case):
    inst, x, mode, bound = case
    report = violation_report(inst, x, mode, bound)
    residual, top, within, objective = _reference_report(inst, x, mode, bound)
    assert report.mode == mode and report.bound == bound
    assert report.residual == residual
    assert report.max_abs_residual == top
    assert report.within_bound == within
    assert report.objective == objective
    # the validator's Delta reads the same integer rows
    mats = [inst.H] if isinstance(inst, GeneralIP) else [blk.D for blk in inst.blocks]
    entries = [abs(a) for mat in mats for row in _fraction_rows(mat) for a in row]
    assert validate(inst)[1] == max(entries)


def test_params_epsilon_range():
    with pytest.raises(InvalidInstanceError):
        ApproxParams.build(Rat(0))
    with pytest.raises(InvalidInstanceError):
        ApproxParams.build(Rat(3, 2))
    p = ApproxParams.build(1)
    assert p.epsilon == 1


def test_params_reject_limits_that_admit_no_search():
    # node and refinement limits are also checked through the CLI
    for delta in (0, "-1/2"):
        with pytest.raises(InvalidInstanceError, match="delta_override must be positive"):
            ApproxParams.build(Rat(1, 2), delta_override=delta)
    p = ApproxParams.build(Rat(1, 2), node_limit=1, refinement_limit=0)
    assert (p.node_limit, p.refinement_limit) == (1, 0)


def test_params_reject_limits_that_are_not_integers():
    # the rule of the instance files' integer codec: no bools, floats or strings
    for name in ("refinement_limit", "node_limit"):
        for value in (True, 1.5, 3.0, "3"):
            with pytest.raises(InvalidInstanceError, match=f"^{name} must be an integer$"):
                ApproxParams.build(Rat(1, 2), **{name: value})


def test_params_reject_widths_that_are_not_exact_rationals():
    # the rule of the instance files' rational codec: no floats, bools, None
    # or malformed strings, each classified and naming its parameter
    for value, why in ((0.5, "floating-point values are not allowed"),
                       (True, "boolean values are not allowed"),
                       (None, "expected a rational, got None"),
                       ("1/x", "malformed rational '1/x'"),
                       ("1/0", "zero denominator in '1/0'")):
        with pytest.raises(InvalidInstanceError) as exc:
            ApproxParams.build(value)
        assert exc.value.problems == [f"epsilon must be an exact rational: {why}"]
        if value is not None:  # a None width means none was given
            with pytest.raises(InvalidInstanceError) as exc:
                ApproxParams.build(Rat(1, 2), delta_override=value)
            assert exc.value.problems == [f"delta_override must be an exact rational: {why}"]
    assert ApproxParams.build("1/2", delta_override="1/4").delta_override == Rat(1, 4)


def _roundtrip(inst):
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))


def test_json_roundtrip_general():
    inst = GeneralIP.build([["1/2", -3]], ["5/3"], [1, "2/7"], [0, -1], [2, 4])
    again = _roundtrip(inst)
    assert again == inst


def test_json_roundtrip_config():
    inst = NFoldConfigInstance.build(
        [([[1, 0], [0, "1/2"]], [(0, 1), (1, 1)], [1, "3/2"])], ["2", "1/2"]
    )
    assert _roundtrip(inst) == inst


def test_json_roundtrip_nonneg():
    inst = NFoldNonnegInstance.build(
        [([["1/2", 1]], [[2, 0]], [1], [3, 2], [0, "5/2"])], [4]
    )
    assert _roundtrip(inst) == inst


def test_json_roundtrip_every_kind(tmp_path):
    rng = random.Random(1)
    insts = [
        gen_general(rng),
        gen_config(rng),
        gen_nonneg(rng),
        instance_from_dict(gen_scheduling(rng)),
        SchedulingInstance.build([[1, "3/2"], [2, 1]], "5/2", [[0, 1], [1, "1/3"]]),
    ]
    for k, inst in enumerate(insts):
        assert instance_from_dict(instance_to_dict(inst)) == inst
        assert _roundtrip(inst) == inst
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(instance_to_dict(inst), indent=2), encoding="utf-8")
        assert load_instance(path) == inst


def test_format_field_required():
    data = instance_to_dict(GeneralIP.build([[1]], [1], [1], [0], [1]))
    for fmt in (None, True, 1.0, 2, "1"):
        data["format"] = fmt
        with pytest.raises(InstanceFormatError, match=r"\$\.format"):
            instance_from_dict(data)
    del data["format"]
    with pytest.raises(InstanceFormatError, match=r"\$\.format"):
        instance_from_dict(data)


def test_parse_error_names_path():
    data = instance_to_dict(GeneralIP.build([[1]], [1], [1], [0], [1]))
    data["H"][0][0] = "not-a-rational"
    with pytest.raises(InstanceFormatError, match=r"\$\.H\[0\]\[0\]"):
        instance_from_dict(data)
    data2 = instance_to_dict(
        NFoldConfigInstance.build([([[1]], [(1,)], [1])], [1])
    )
    data2["blocks"][0]["weights"] = ["1/0"]
    with pytest.raises(InstanceFormatError, match=r"\$\.blocks\[0\]\.weights\[0\]"):
        instance_from_dict(data2)
    # a JSON boolean is no rational, in a rational field of any kind
    data["H"][0][0] = True
    data3 = instance_to_dict(NFoldNonnegInstance.build([([[1]], [[1]], [1], [2], [1])], [1]))
    data3["blocks"][0]["w"][0] = False
    data2["blocks"][0]["weights"] = [True]
    for bad, path in ((data, r"\$\.H\[0\]\[0\]"), (data2, r"\$\.blocks\[0\]\.weights\[0\]"),
                      (data3, r"\$\.blocks\[0\]\.w\[0\]")):
        with pytest.raises(InstanceFormatError, match=path + ": boolean values are not allowed"):
            instance_from_dict(bad)


def test_int_fields_reject_strings():
    data = instance_to_dict(GeneralIP.build([[1]], [1], [1], [0], [1]))
    data["l"] = ["0"]
    with pytest.raises(InstanceFormatError, match=r"\$\.l\[0\]"):
        instance_from_dict(data)


def test_validate_config_and_nonneg():
    cfg = NFoldConfigInstance.build([([[1]], [(1,)], [1])], [1])
    problems, delta = validate_config(cfg)
    assert problems == [] and delta == 1

    bad = NFoldNonnegInstance.build([([[-1]], [[1]], [1], [2], [1])], [1])
    problems, delta = validate_nonneg(bad)
    assert any("negative" in p for p in problems) and delta == 1


def test_scheduling_kind_parses_and_validates():
    data = {"format": 1, "kind": "scheduling", "jobs": [[1, "3/2"], [2, 1]], "cmax": "5/2",
            "costs": [[0, 1], [1, 0]]}
    inst = instance_from_dict(data)
    assert inst == SchedulingInstance.build([[1, Rat(3, 2)], [2, 1]], Rat(5, 2), [[0, 1], [1, 0]])
    # Delta is the largest processing time; validate picks the kind's validator
    assert validate(inst) == validate_scheduling(inst) == ([], 2)
    general = GeneralIP.build([[2]], [3], [1], [3], [1])
    assert validate(general) == validate_general(general)
    data["costs"] = None
    assert instance_from_dict(data).costs is None
    del data["costs"]
    assert instance_from_dict(data).costs is None
    data["jobs"] = []
    assert validate(instance_from_dict(data)) == ([], 0)


def test_scheduling_format_errors_name_their_path():
    base = {"format": 1, "kind": "scheduling", "jobs": [[1, 2]], "cmax": 2}
    for change, path in (
        ({"jobs": [[1, None]]}, r"\$\.jobs\[0\]\[1\]"),
        ({"jobs": [3]}, r"\$\.jobs\[0\]"),
        ({"cmax": [[1]]}, r"\$\.cmax"),
        ({"cmax": True}, r"\$\.cmax: boolean values are not allowed"),
        ({"costs": {"a": 1}}, r"\$\.costs"),
        ({"costs": [["x", 1]]}, r"\$\.costs\[0\]\[0\]"),
    ):
        with pytest.raises(InstanceFormatError, match=path):
            instance_from_dict({**base, **change})
    del base["cmax"]
    with pytest.raises(InstanceFormatError, match=r"\$\.cmax: missing field"):
        instance_from_dict(base)


def test_build_rejects_non_integer_integer_fields():
    # build once truncated these with int(): 0, 2, 1, 3 and 1
    for bad in (Rat(1, 2), 2.7, True, "3"):
        for field, bounds in (("l", ([bad], [2])), ("u", ([0], [bad]))):
            with pytest.raises(InstanceFormatError, match=rf"^\$\.{field}\[0\]: expected an integer$"):
                GeneralIP.build([[1]], [1], [1], *bounds)
    config_entry = r"^\$\.blocks\[0\]\.configs\[0\]\[0\]: expected an integer$"
    with pytest.raises(InstanceFormatError, match=config_entry):
        NFoldConfigInstance.build([([[1]], [(1.9,)], [1])], [1])
    with pytest.raises(InstanceFormatError, match=r"^\$\.blocks\[0\]\.u\[0\]: expected an integer$"):
        NFoldNonnegInstance.build([([[1]], [[1]], [1], [True], [1])], [1])


def test_build_accepts_what_a_file_accepts():
    # tuples, a Matrix, and ints, Rats or "p/q" strings in rational fields;
    # a bad rational is named by its path, as in a file
    inst = GeneralIP.build(((1, "1/2"),), (Rat(3, 2),), [1, 1], (0, 0), [1, 1])
    assert inst == instance_from_dict(instance_to_dict(inst))
    assert GeneralIP.build(inst.H, inst.b, inst.w, inst.l, inst.u) == inst
    with pytest.raises(InstanceFormatError, match=r"^\$\.w\[1\]: floating-point values"):
        GeneralIP.build([[1, 2]], [1], [1, 0.5], [0, 0], [1, 1])
    with pytest.raises(InstanceFormatError, match=r"^\$\.H: dimension mismatch: ragged rows$"):
        GeneralIP.build([[1, 2], [3]], [1, 1], [1, 1], [0, 0], [1, 1])


def test_blocks_must_be_non_empty():
    for kind in ("nfold_config", "nfold_nonneg"):
        with pytest.raises(InstanceFormatError, match=r"^\$\.blocks: expected a non-empty list$"):
            instance_from_dict({"format": 1, "kind": kind, "blocks": [], "b0": ["1"]})
    for cls in (NFoldConfigInstance, NFoldNonnegInstance):
        with pytest.raises(InstanceFormatError, match=r"^\$\.blocks: expected a non-empty list$"):
            cls.build([], [1])


def test_dump_leaves_absent_costs_out():
    inst = SchedulingInstance.build([[1, 2]], 2)
    assert inst.costs is None
    assert instance_to_dict(inst) == {
        "format": 1, "kind": "scheduling", "jobs": [["1", "2"]], "cmax": "2"
    }
