"""The four instance kinds (general IP, the two n-fold kinds, scheduling),
their validation, exact violation reports against the original (unrelaxed)
constraints, and the JSON wire format ("format": 1).  Each kind has one
validator returning ``(problems, Delta)``; ``validate`` picks it by type.

All variable bounds are required finite so branch-and-bound and the oracle
enumerations stay bounded; Delta values are always computed from the data,
never supplied by the caller.
"""

import json
from dataclasses import dataclass

from .errors import InstanceFormatError, InvalidInstanceError
from .linalg import Matrix
from .rationals import ONE, ZERO, as_rat, format_rat


@dataclass(frozen=True)
class GeneralIP:
    """min w.x  s.t.  H.x = b, l <= x <= u, x integer."""

    H: Matrix
    b: tuple
    w: tuple
    l: tuple
    u: tuple

    @classmethod
    def build(cls, H, b, w, l, u):
        return cls(
            Matrix.from_rows(H) if not isinstance(H, Matrix) else H,
            tuple(as_rat(v) for v in b),
            tuple(as_rat(v) for v in w),
            tuple(int(v) for v in l),
            tuple(int(v) for v in u),
        )


@dataclass(frozen=True)
class ConfigBlock:
    D: Matrix
    configs: tuple  # tuple of integer vectors, each of length t
    weights: tuple  # length t


@dataclass(frozen=True)
class NFoldConfigInstance:
    """min sum_i w^i.x^i  s.t.  sum_i D^i x^i = b0, x^i in configs^i."""

    blocks: tuple
    b0: tuple

    @classmethod
    def build(cls, blocks, b0):
        built = []
        for D, configs, weights in blocks:
            built.append(
                ConfigBlock(
                    Matrix.from_rows(D) if not isinstance(D, Matrix) else D,
                    tuple(tuple(int(v) for v in cfg) for cfg in configs),
                    tuple(as_rat(v) for v in weights),
                )
            )
        return cls(tuple(built), tuple(as_rat(v) for v in b0))

    def kappa(self):
        k = 0
        for blk in self.blocks:
            for cfg in blk.configs:
                for v in cfg:
                    k = max(k, abs(v))
        return k


@dataclass(frozen=True)
class NonnegBlock:
    A: Matrix
    D: Matrix
    bi: tuple
    u: tuple
    w: tuple


@dataclass(frozen=True)
class NFoldNonnegInstance:
    """min sum_i w^i.x^i  s.t.  sum_i D^i x^i = b0, A^i x^i = b^i, 0 <= x <= u."""

    blocks: tuple
    b0: tuple

    @classmethod
    def build(cls, blocks, b0):
        built = []
        for A, D, bi, u, w in blocks:
            built.append(
                NonnegBlock(
                    Matrix.from_rows(A) if not isinstance(A, Matrix) else A,
                    Matrix.from_rows(D) if not isinstance(D, Matrix) else D,
                    tuple(as_rat(v) for v in bi),
                    tuple(int(v) for v in u),
                    tuple(as_rat(v) for v in w),
                )
            )
        return cls(tuple(built), tuple(as_rat(v) for v in b0))


@dataclass(frozen=True)
class SchedulingInstance:
    """Makespan at most cmax on unrelated machines: job i takes jobs[i][h] on
    machine h; costs, when given, has the same shape and is the objective."""

    jobs: tuple  # one row of processing times per job
    cmax: object
    costs: object = None  # None, or one row of costs per job

    @classmethod
    def build(cls, jobs, cmax, costs=None):
        def rows(table):
            return tuple(tuple(as_rat(v) for v in row) for row in table)

        return cls(rows(jobs), as_rat(cmax), None if costs is None else rows(costs))

    def max_time(self):
        """The largest processing time; zero without jobs."""
        return max((v for row in self.jobs for v in row), default=ZERO)


@dataclass(frozen=True)
class ApproxParams:
    epsilon: object
    delta_override: object = None
    refinement_limit: int = 12
    node_limit: int = 10**6
    config_cap: int = 200_000

    @classmethod
    def build(cls, epsilon, **kw):
        eps = as_rat(epsilon)
        if not ZERO < eps <= ONE:
            raise InvalidInstanceError(["epsilon must lie in (0, 1]"])
        if kw.get("delta_override") is not None:
            kw["delta_override"] = as_rat(kw["delta_override"])
        params = cls(eps, **kw)
        problems = []
        if params.refinement_limit < 0:
            problems.append("refinement_limit must be nonnegative")
        if params.node_limit < 1:
            problems.append("node_limit must be positive")
        if params.config_cap < 1:
            problems.append("config_cap must be positive")
        if params.delta_override is not None and params.delta_override <= 0:
            problems.append("delta_override must be positive")
        if problems:
            raise InvalidInstanceError(problems)
        return params


ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class ViolationReport:
    """Exact residuals of a candidate against the unrelaxed constraints.

    additive mode: within_bound iff max |residual| <= bound.
    multiplicative mode: bound holds epsilon; within_bound iff every attained
    value lies in [(1-eps)*ref, (1+eps)*ref] componentwise.
    """

    mode: str
    residual: tuple
    max_abs_residual: object
    bound: object
    within_bound: bool
    objective: object


def _report(mode, attained, reference, bound, objective):
    residual = tuple(a - r for a, r in zip(attained, reference))
    max_abs = max((abs(r) for r in residual), default=ZERO)
    if mode == ADDITIVE:
        within = max_abs <= bound
    else:
        eps = bound
        within = all(
            (1 - eps) * r <= a <= (1 + eps) * r for a, r in zip(attained, reference)
        )
    return ViolationReport(mode, residual, max_abs, bound, within, objective)


def validate_general(inst):
    """Returns (problems, Delta); problems empty iff the instance is valid."""
    problems = []
    m, n = inst.H.rows, inst.H.cols
    if m < 1 or n < 1:
        problems.append("dimension mismatch: H must be at least 1x1")
    if len(inst.b) != m:
        problems.append("dimension mismatch: b")
    if len(inst.w) != n:
        problems.append("dimension mismatch: w")
    if len(inst.l) != n or len(inst.u) != n:
        problems.append("dimension mismatch: bounds")
    else:
        for lo, hi in zip(inst.l, inst.u):
            if lo > hi:
                problems.append("bounds crossed")
                break
    return problems, inst.H.inf_norm()


def validate_config(inst):
    """Returns (problems, Delta), Delta = max_i ||D^i||_inf."""
    problems = []
    if not inst.blocks:
        problems.append("dimension mismatch: no blocks")
        return problems, ZERO
    s = inst.blocks[0].D.rows
    t = inst.blocks[0].D.cols
    if s < 1 or t < 1:
        problems.append("dimension mismatch: blocks must be at least 1x1")
    delta = ZERO
    for i, blk in enumerate(inst.blocks):
        if blk.D.rows != s or blk.D.cols != t:
            problems.append(f"dimension mismatch: block {i} shape")
        delta = max(delta, blk.D.inf_norm())
        if len(blk.weights) != t:
            problems.append(f"dimension mismatch: block {i} weights")
        for cfg in blk.configs:
            if len(cfg) != t:
                problems.append(f"dimension mismatch: block {i} config length")
                break
    if len(inst.b0) != s:
        problems.append("dimension mismatch: b0")
    return problems, delta


def validate_nonneg(inst):
    """Returns (problems, Delta), Delta = max_i ||D^i||_inf."""
    problems = []
    if not inst.blocks:
        problems.append("dimension mismatch: no blocks")
        return problems, ZERO
    sa = inst.blocks[0].A.rows
    sd = inst.blocks[0].D.rows
    t = inst.blocks[0].A.cols
    if sa < 1 or sd < 1 or t < 1:
        problems.append("dimension mismatch: blocks must be at least 1x1")
    delta = ZERO
    for i, blk in enumerate(inst.blocks):
        delta = max(delta, blk.D.inf_norm())
        if blk.A.rows != sa or blk.D.rows != sd or blk.A.cols != t or blk.D.cols != t:
            problems.append(f"dimension mismatch: block {i} shape")
            continue
        if any(e < 0 for e in blk.A.entries) or any(e < 0 for e in blk.D.entries):
            problems.append(f"negative entry in block {i}")
        if len(blk.bi) != sa or len(blk.u) != t or len(blk.w) != t:
            problems.append(f"dimension mismatch: block {i} vectors")
        if any(v < 0 for v in blk.u):
            problems.append(f"negative upper bound in block {i}")
    if len(inst.b0) != sd:
        problems.append("dimension mismatch: b0")
    return problems, delta


def validate_scheduling(inst):
    """Returns (problems, Delta), Delta the largest processing time: the unit
    of the additive makespan bound cmax + epsilon * Delta."""
    problems = []
    m = len(inst.jobs[0]) if inst.jobs else 1
    if m < 1:
        problems.append("dimension mismatch: no machines")
    if any(len(row) != m for row in inst.jobs):
        problems.append("dimension mismatch: processing times")
    if any(v < 0 for row in inst.jobs for v in row) or inst.cmax < 0:
        problems.append("scheduling data must be nonnegative")
    if inst.costs is not None and (
        len(inst.costs) != len(inst.jobs) or any(len(row) != m for row in inst.costs)
    ):
        problems.append("dimension mismatch: costs")
    return problems, inst.max_time()


_VALIDATORS = {
    GeneralIP: validate_general,
    NFoldConfigInstance: validate_config,
    NFoldNonnegInstance: validate_nonneg,
    SchedulingInstance: validate_scheduling,
}


def validate(inst):
    """(problems, Delta) from the validator of the instance's kind."""
    return _VALIDATORS[type(inst)](inst)


def violation_report(inst, x, mode, bound, objective=None):
    """Exact residual report for a candidate solution.

    For GeneralIP, x is a flat integer vector; for the n-fold kinds it is a
    tuple of per-block vectors.  mode is ADDITIVE (bound = permitted
    infinity-norm) or MULTIPLICATIVE (bound = epsilon).
    """
    if isinstance(inst, GeneralIP):
        if len(x) != inst.H.cols:
            raise ValueError("dimension mismatch: solution length")
        attained = inst.H.matvec(x)
        reference = inst.b
        if objective is None:
            objective = sum((wv * xv for wv, xv in zip(inst.w, x)), ZERO)
    elif isinstance(inst, NFoldConfigInstance):
        if len(x) != len(inst.blocks):
            raise ValueError("dimension mismatch: block count")
        total = [ZERO] * len(inst.b0)
        obj = ZERO
        for blk, xi in zip(inst.blocks, x):
            contrib = blk.D.matvec(xi)
            total = [a + c for a, c in zip(total, contrib)]
            obj = obj + sum((wv * xv for wv, xv in zip(blk.weights, xi)), ZERO)
        attained, reference = tuple(total), inst.b0
        if objective is None:
            objective = obj
    elif isinstance(inst, NFoldNonnegInstance):
        if len(x) != len(inst.blocks):
            raise ValueError("dimension mismatch: block count")
        total = [ZERO] * len(inst.b0)
        attained = []
        reference = []
        obj = ZERO
        for blk, xi in zip(inst.blocks, x):
            contrib = blk.D.matvec(xi)
            total = [a + c for a, c in zip(total, contrib)]
            attained.extend(blk.A.matvec(xi))
            reference.extend(blk.bi)
            obj = obj + sum((wv * xv for wv, xv in zip(blk.w, xi)), ZERO)
        attained = tuple(total) + tuple(attained)
        reference = tuple(inst.b0) + tuple(reference)
        if objective is None:
            objective = obj
    else:
        raise TypeError(f"unsupported instance type {type(inst)!r}")
    return _report(mode, attained, reference, bound, objective)


# ---------------------------------------------------------------------------
# JSON wire format


def _need(obj, key, path):
    if key not in obj:
        raise InstanceFormatError(f"{path}.{key}", "missing field")
    return obj[key]


def _rat(value, path):
    try:
        return as_rat(value)
    except (ValueError, TypeError) as exc:
        raise InstanceFormatError(path, str(exc)) from exc


def _rat_list(values, path):
    if not isinstance(values, list):
        raise InstanceFormatError(path, "expected a list")
    return [_rat(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _int_list(values, path):
    if not isinstance(values, list):
        raise InstanceFormatError(path, "expected a list")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int):
            raise InstanceFormatError(f"{path}[{i}]", "expected an integer")
        out.append(v)
    return out


def _rat_rows(rows, path):
    if not isinstance(rows, list):
        raise InstanceFormatError(path, "expected a list of rows")
    return [_rat_list(row, f"{path}[{i}]") for i, row in enumerate(rows)]


def _rat_matrix(rows, path):
    if not isinstance(rows, list) or not rows:
        raise InstanceFormatError(path, "expected a non-empty list of rows")
    try:
        return Matrix.from_rows(_rat_rows(rows, path))
    except ValueError as exc:
        raise InstanceFormatError(path, str(exc)) from exc


def _nfold(data, path, parse_block):
    """The blocks and b0 of an n-fold kind, each block parsed by parse_block."""
    blocks = _need(data, "blocks", path)
    if not isinstance(blocks, list) or not blocks:
        raise InstanceFormatError(f"{path}.blocks", "expected a non-empty list")
    built = []
    for i, blk in enumerate(blocks):
        bp = f"{path}.blocks[{i}]"
        if not isinstance(blk, dict):
            raise InstanceFormatError(bp, "expected an object")
        built.append(parse_block(blk, bp))
    return built, _rat_list(_need(data, "b0", path), f"{path}.b0")


def _config_block(blk, bp):
    configs = _need(blk, "configs", bp)
    if not isinstance(configs, list):
        raise InstanceFormatError(f"{bp}.configs", "expected a list")
    return (
        _rat_matrix(_need(blk, "D", bp), f"{bp}.D"),
        [_int_list(cfg, f"{bp}.configs[{k}]") for k, cfg in enumerate(configs)],
        _rat_list(_need(blk, "weights", bp), f"{bp}.weights"),
    )


def _nonneg_block(blk, bp):
    return (
        _rat_matrix(_need(blk, "A", bp), f"{bp}.A"),
        _rat_matrix(_need(blk, "D", bp), f"{bp}.D"),
        _rat_list(_need(blk, "bi", bp), f"{bp}.bi"),
        _int_list(_need(blk, "u", bp), f"{bp}.u"),
        _rat_list(_need(blk, "w", bp), f"{bp}.w"),
    )


def instance_from_dict(data, path="$"):
    if not isinstance(data, dict):
        raise InstanceFormatError(path, "expected an object")
    fmt = data.get("format")
    if type(fmt) is not int or fmt != 1:
        raise InstanceFormatError(f"{path}.format", "missing or unsupported format (need 1)")
    kind = _need(data, "kind", path)
    if kind == "general":
        return GeneralIP.build(
            _rat_matrix(_need(data, "H", path), f"{path}.H"),
            _rat_list(_need(data, "b", path), f"{path}.b"),
            _rat_list(_need(data, "w", path), f"{path}.w"),
            _int_list(_need(data, "l", path), f"{path}.l"),
            _int_list(_need(data, "u", path), f"{path}.u"),
        )
    if kind == "nfold_config":
        return NFoldConfigInstance.build(*_nfold(data, path, _config_block))
    if kind == "nfold_nonneg":
        return NFoldNonnegInstance.build(*_nfold(data, path, _nonneg_block))
    if kind == "scheduling":
        costs = data.get("costs")  # optional; null means none
        return SchedulingInstance.build(
            _rat_rows(_need(data, "jobs", path), f"{path}.jobs"),
            _rat(_need(data, "cmax", path), f"{path}.cmax"),
            None if costs is None else _rat_rows(costs, f"{path}.costs"),
        )
    raise InstanceFormatError(f"{path}.kind", f"unknown kind {kind!r}")


def _rows_json(rows):
    return [[format_rat(v) for v in row] for row in rows]


def _matrix_json(mat):
    return _rows_json(mat.row(i) for i in range(mat.rows))


def instance_to_dict(inst):
    if isinstance(inst, GeneralIP):
        return {
            "format": 1,
            "kind": "general",
            "H": _matrix_json(inst.H),
            "b": [format_rat(v) for v in inst.b],
            "w": [format_rat(v) for v in inst.w],
            "l": list(inst.l),
            "u": list(inst.u),
        }
    if isinstance(inst, NFoldConfigInstance):
        return {
            "format": 1,
            "kind": "nfold_config",
            "blocks": [
                {
                    "D": _matrix_json(blk.D),
                    "configs": [list(cfg) for cfg in blk.configs],
                    "weights": [format_rat(v) for v in blk.weights],
                }
                for blk in inst.blocks
            ],
            "b0": [format_rat(v) for v in inst.b0],
        }
    if isinstance(inst, NFoldNonnegInstance):
        return {
            "format": 1,
            "kind": "nfold_nonneg",
            "blocks": [
                {
                    "A": _matrix_json(blk.A),
                    "D": _matrix_json(blk.D),
                    "bi": [format_rat(v) for v in blk.bi],
                    "u": list(blk.u),
                    "w": [format_rat(v) for v in blk.w],
                }
                for blk in inst.blocks
            ],
            "b0": [format_rat(v) for v in inst.b0],
        }
    if isinstance(inst, SchedulingInstance):
        data = {
            "format": 1,
            "kind": "scheduling",
            "jobs": _rows_json(inst.jobs),
            "cmax": format_rat(inst.cmax),
        }
        if inst.costs is not None:
            data["costs"] = _rows_json(inst.costs)
        return data
    raise TypeError(f"unsupported instance type {type(inst)!r}")


def load_instance(path):
    """The instance an instance file holds; invalid JSON is a format error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise InstanceFormatError("$", f"invalid JSON: {exc}") from exc
    return instance_from_dict(data)


def dump_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")
