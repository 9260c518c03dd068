"""The four instance kinds (general IP, the two n-fold kinds, scheduling),
their validation, exact violation reports against the original (unrelaxed)
constraints, and the JSON wire format ("format": 1).  Each kind has one
validator returning ``(problems, Delta)``; ``validate`` picks it by type.

Every field of a kind, and of an n-fold block, declares its wire codec once,
in its dataclass field: a pair of a parse function ``(value, json_path)``
that checks and coerces one value, raising ``InstanceFormatError`` at its
path, and a dump function that writes the value back as JSON.  One loop parses the fields in
declaration order, so the first bad field is the one reported; it reads a
JSON object, and ``build`` runs the same loop on its Python arguments, so a
value is accepted from Python exactly when a file may hold it.  One loop
writes the fields back, and ``KINDS`` maps each ``"kind"`` to its class.

All variable bounds are required finite so branch-and-bound and the oracle
enumerations stay bounded; Delta values are always computed from the data,
never supplied by the caller.
"""

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from typing import ClassVar

from .backend import dot
from .errors import InstanceFormatError, InvalidInstanceError
from .linalg import Matrix
from .rationals import ONE, ZERO, Rat, as_rat, format_rat, integer_row

# ---------------------------------------------------------------------------
# Field codecs


def _wire(codec, **kw):
    """A dataclass field that carries its codec, a (parse, dump) pair."""
    return field(metadata={"codec": codec}, **kw)


def _parse_rat(value, path):
    try:
        return as_rat(value)
    except (ValueError, TypeError) as exc:
        raise InstanceFormatError(path, str(exc)) from exc


def _parse_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(path, "expected an integer")
    return value


def _seq(item, expected="a list", nonempty=False):
    """A JSON list (from Python, also a tuple) of ``item`` values, parsed to
    a tuple.  Items are parsed at path None, which names nothing; only once
    one fails are they parsed again at their own paths, to name the first."""
    parse_item, dump_item = item

    def parse(values, path):
        if not isinstance(values, (list, tuple)) or (nonempty and not values):
            raise InstanceFormatError(path, f"expected {expected}")
        try:
            return tuple([parse_item(v, None) for v in values])
        except InstanceFormatError:
            if path is None:
                raise
            for i, v in enumerate(values):
                parse_item(v, f"{path}[{i}]")
            raise

    return parse, lambda values: [dump_item(v) for v in values]


_RAT = (_parse_rat, format_rat)
_RATS = _seq(_RAT)
_INTS = _seq((_parse_int, int))
parse_ints, _ = _INTS  # (values, path): a tuple of ints, or an error at its path
parse_int_table, _ = _seq(_INTS, "a list of rows")
_ROWS = _seq(_RATS, "a list of rows")
_parse_rows, _dump_rows = _seq(_RATS, "a non-empty list of rows", nonempty=True)


def _parse_matrix(value, path):
    """A Matrix passes as it is; rows must be rectangular."""
    if isinstance(value, Matrix):
        return value
    rows = _parse_rows(value, path)
    cols = len(rows[0])
    if any(len(row) != cols for row in rows):
        raise InstanceFormatError(path, "dimension mismatch: ragged rows")
    return Matrix.from_rows(rows)


_MATRIX = (_parse_matrix, lambda mat: _dump_rows(map(mat.row, range(mat.rows))))


def _records(cls):
    """A non-empty list of ``cls`` records: JSON objects, or from Python
    also tuples of field values in declaration order."""

    def parse(value, path):
        if isinstance(value, tuple):
            value = vars(cls(*value))
        elif not isinstance(value, dict):
            raise InstanceFormatError(path, "expected an object")
        return _parse_fields(cls, value, path)

    return _seq((parse, _dump_fields), "a non-empty list", nonempty=True)


@cache
def _codecs(cls):
    """(name, parse, dump, required) of each field of ``cls``, in declaration
    order."""
    return tuple((f.name, *f.metadata["codec"], f.default is MISSING) for f in fields(cls))


def _parse_fields(cls, data, path):
    """``cls`` from the dict ``data``: each field is parsed before the next
    is looked at.  A field without a default is required, and its value is
    parsed even when it is null; a field with one reads null as absent."""
    values = {}
    for name, parse, _, required in _codecs(cls):
        if name not in data:
            if required:
                raise InstanceFormatError(f"{path}.{name}", "missing field")
        elif required or data[name] is not None:
            values[name] = parse(data[name], path and f"{path}.{name}")
    return cls(**values)


def _dump_fields(record):
    """The record's fields as JSON values; a field that is None is left out."""
    data = {}
    for name, _, dump, _ in _codecs(type(record)):
        value = getattr(record, name)
        if value is not None:
            data[name] = dump(value)
    return data


class _Record:
    """A dataclass whose fields declare their codecs."""

    @classmethod
    def build(cls, *args, **kwargs):
        """The record from Python values: the dataclass's own arguments bind
        them, then each field's codec checks and coerces its value as from a
        file, so a bad value raises InstanceFormatError at its ``$.`` path.
        Lists or tuples, a Matrix, and ints, Rats or "p/q" strings in
        rational fields are accepted; integer fields take ints only."""
        return _parse_fields(cls, vars(cls(*args, **kwargs)), "$")


# ---------------------------------------------------------------------------
# Instance kinds


@dataclass(frozen=True)
class GeneralIP(_Record):
    """min w.x  s.t.  H.x = b, l <= x <= u, x integer."""

    kind: ClassVar[str] = "general"

    H: Matrix = _wire(_MATRIX)
    b: tuple = _wire(_RATS)
    w: tuple = _wire(_RATS)
    l: tuple = _wire(_INTS)
    u: tuple = _wire(_INTS)


@dataclass(frozen=True)
class ConfigBlock(_Record):
    D: Matrix = _wire(_MATRIX)
    configs: tuple = _wire(_seq(_INTS))  # tuple of integer vectors, each of length t
    weights: tuple = _wire(_RATS)  # length t


@dataclass(frozen=True)
class NFoldConfigInstance(_Record):
    """min sum_i w^i.x^i  s.t.  sum_i D^i x^i = b0, x^i in configs^i."""

    kind: ClassVar[str] = "nfold_config"

    blocks: tuple = _wire(_records(ConfigBlock))
    b0: tuple = _wire(_RATS)

    def kappa(self):
        k = 0
        for blk in self.blocks:
            for cfg in blk.configs:
                for v in cfg:
                    k = max(k, abs(v))
        return k


@dataclass(frozen=True)
class NonnegBlock(_Record):
    A: Matrix = _wire(_MATRIX)
    D: Matrix = _wire(_MATRIX)
    bi: tuple = _wire(_RATS)
    u: tuple = _wire(_INTS)
    w: tuple = _wire(_RATS)


@dataclass(frozen=True)
class NFoldNonnegInstance(_Record):
    """min sum_i w^i.x^i  s.t.  sum_i D^i x^i = b0, A^i x^i = b^i, 0 <= x <= u."""

    kind: ClassVar[str] = "nfold_nonneg"

    blocks: tuple = _wire(_records(NonnegBlock))
    b0: tuple = _wire(_RATS)


@dataclass(frozen=True)
class SchedulingInstance(_Record):
    """Makespan at most cmax on unrelated machines: job i takes jobs[i][h] on
    machine h; costs, when given, has the same shape and is the objective."""

    kind: ClassVar[str] = "scheduling"

    jobs: tuple = _wire(_ROWS)  # one row of processing times per job
    cmax: object = _wire(_RAT)
    costs: object = _wire(_ROWS, default=None)  # None, or one cost row per job

    def max_time(self):
        """The largest processing time; zero without jobs."""
        return max((v for row in self.jobs for v in row), default=ZERO)


KINDS = {
    cls.kind: cls
    for cls in (GeneralIP, NFoldConfigInstance, NFoldNonnegInstance, SchedulingInstance)
}


def _param_rat(name, value):
    """``as_rat(value)``, or an InvalidInstanceError naming the parameter."""
    try:
        return as_rat(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError([f"{name} must be an exact rational: {exc}"]) from exc


@dataclass(frozen=True)
class ApproxParams:
    epsilon: object
    delta_override: object = None
    refinement_limit: int = 12
    node_limit: int = 10**6

    @classmethod
    def build(cls, epsilon, **kw):
        eps = _param_rat("epsilon", epsilon)
        if not ZERO < eps <= ONE:
            raise InvalidInstanceError(["epsilon must lie in (0, 1]"])
        if kw.get("delta_override") is not None:
            kw["delta_override"] = _param_rat("delta_override", kw["delta_override"])
        params = cls(eps, **kw)
        for name in ("refinement_limit", "node_limit"):
            value = getattr(params, name)
            if isinstance(value, bool) or not isinstance(value, int):  # as ``_parse_int``
                raise InvalidInstanceError([f"{name} must be an integer"])
        problems = []
        if params.refinement_limit < 0:
            problems.append("refinement_limit must be nonnegative")
        if params.node_limit < 1:
            problems.append("node_limit must be positive")
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
    """Row values attained, as integer pairs (n, d) with d > 0, against the
    reference: the window tests are integer; Rats are built for the fields."""
    residual = []
    top, top_den = 0, 1
    within = True
    if mode == MULTIPLICATIVE:
        p, e = bound.numerator, bound.denominator
    for (n, d), ref in zip(attained, reference):
        q, r = ref.denominator, ref.numerator
        num = n * q - r * d  # the residual times d * q
        den = d * q
        residual.append(Rat(num, den))
        if abs(num) * top_den > top * den:
            top, top_den = abs(num), den
        if mode == MULTIPLICATIVE and within:
            # (1 - eps) * ref <= n / d <= (1 + eps) * ref, times e * q * d
            within = (e - p) * r * d <= e * n * q <= (e + p) * r * d
    if mode == ADDITIVE:
        within = top * bound.denominator <= bound.numerator * top_den
    return ViolationReport(mode, tuple(residual), Rat(top, top_den), bound, within, objective)


def _row_sums(mats, xs):
    """Per row, sum_i mats[i] xs[i] as an integer pair (n, d), d > 0, the
    lcm of the terms' row scales."""
    if any(len(x) != m.cols for m, x in zip(mats, xs)):
        raise ValueError("dimension mismatch in matrix-vector product")
    out = []
    for r in range(mats[0].rows):
        terms = [(dot(m.nonzeros[r], x), m.scales[r]) for m, x in zip(mats, xs)]
        d = math.lcm(*(s for _, s in terms))
        out.append((sum(n * (d // s) for n, s in terms), d))
    return out


def _cost(weights, x):
    unit, w = integer_row(weights)
    return Rat(sum(a * v for a, v in zip(w, x) if v), unit)


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
    """Returns (problems, Delta), Delta = max_i ||D^i||_inf; blocks are never empty."""
    problems = []
    s = inst.blocks[0].D.rows
    t = inst.blocks[0].D.cols
    if s < 1 or t < 1:
        problems.append("dimension mismatch: blocks must be at least 1x1")
    for i, blk in enumerate(inst.blocks):
        if blk.D.rows != s or blk.D.cols != t:
            problems.append(f"dimension mismatch: block {i} shape")
        if len(blk.weights) != t:
            problems.append(f"dimension mismatch: block {i} weights")
        for cfg in blk.configs:
            if len(cfg) != t:
                problems.append(f"dimension mismatch: block {i} config length")
                break
    if len(inst.b0) != s:
        problems.append("dimension mismatch: b0")
    return problems, max(blk.D.inf_norm() for blk in inst.blocks)


def validate_nonneg(inst):
    """Returns (problems, Delta), Delta = max_i ||D^i||_inf; blocks are never empty."""
    problems = []
    sa = inst.blocks[0].A.rows
    sd = inst.blocks[0].D.rows
    t = inst.blocks[0].A.cols
    if sa < 1 or sd < 1 or t < 1:
        problems.append("dimension mismatch: blocks must be at least 1x1")
    for i, blk in enumerate(inst.blocks):
        if blk.A.rows != sa or blk.D.rows != sd or blk.A.cols != t or blk.D.cols != t:
            problems.append(f"dimension mismatch: block {i} shape")
            continue
        if any(a < 0 for mat in (blk.A, blk.D) for nz in mat.nonzeros for _, a in nz):
            problems.append(f"negative entry in block {i}")
        if len(blk.bi) != sa or len(blk.u) != t or len(blk.w) != t:
            problems.append(f"dimension mismatch: block {i} vectors")
        if any(v < 0 for v in blk.u):
            problems.append(f"negative upper bound in block {i}")
    if len(inst.b0) != sd:
        problems.append("dimension mismatch: b0")
    return problems, max(blk.D.inf_norm() for blk in inst.blocks)


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


def violation_report(inst, x, mode, bound):
    """Exact residual report and objective w . x of a candidate solution.

    For GeneralIP, x is a flat integer vector; for the n-fold kinds it is a
    tuple of per-block vectors.  mode is ADDITIVE (bound = permitted
    infinity-norm) or MULTIPLICATIVE (bound = epsilon).
    """
    if isinstance(inst, GeneralIP):
        if len(x) != inst.H.cols:
            raise ValueError("dimension mismatch: solution length")
        attained = _row_sums([inst.H], [x])
        reference = inst.b
        weights, flat = inst.w, x
    elif isinstance(inst, (NFoldConfigInstance, NFoldNonnegInstance)):
        if len(x) != len(inst.blocks):
            raise ValueError("dimension mismatch: block count")
        attained = _row_sums([blk.D for blk in inst.blocks], x)
        reference = inst.b0
        flat = [v for xi in x for v in xi]
        if isinstance(inst, NFoldConfigInstance):
            weights = [w for blk in inst.blocks for w in blk.weights]
        else:
            weights = [w for blk in inst.blocks for w in blk.w]
            reference = [*reference, *(v for blk in inst.blocks for v in blk.bi)]
            for blk, xi in zip(inst.blocks, x):
                attained.extend(_row_sums([blk.A], [xi]))
    else:
        raise TypeError(f"unsupported instance type {type(inst)!r}")
    return _report(mode, attained, reference, bound, _cost(weights, flat))


# ---------------------------------------------------------------------------
# JSON wire format


def instance_from_dict(data):
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "expected an object")
    fmt = data.get("format")
    if type(fmt) is not int or fmt != 1:
        raise InstanceFormatError("$.format", "missing or unsupported format (need 1)")
    if "kind" not in data:
        raise InstanceFormatError("$.kind", "missing field")
    kind = data["kind"]
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InstanceFormatError("$.kind", f"unknown kind {kind!r}")
    return _parse_fields(cls, data, "$")


def instance_to_dict(inst):
    if type(inst) not in KINDS.values():
        raise TypeError(f"unsupported instance type {type(inst)!r}")
    return {"format": 1, "kind": inst.kind, **_dump_fields(inst)}


def load_instance(path):
    """The instance an instance file holds; invalid JSON, which includes an
    integer literal past the interpreter's digit limit, is a format error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            reason = exc
            # the digit limit is the one plain ValueError the parse raises;
            # its own text advises a call that a command-line user cannot make
            if type(exc) is ValueError:
                reason = (
                    f"an integer literal has more than {sys.get_int_max_str_digits()} "
                    "digits, the limit that the PYTHONINTMAXSTRDIGITS environment "
                    "variable sets"
                )
            raise InstanceFormatError("$", f"invalid JSON: {reason}") from exc
    return instance_from_dict(data)

