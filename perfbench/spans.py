"""Per-layer spans recorded from outside the program.

Each hook names a function of one layer.  While a ``Tracer`` is installed,
that function is replaced by a timing wrapper in every ``nearfeas`` module
that holds it (so ``solve_lp_vertex`` is wrapped in ``simplex``,
``branch_bound``, ``rounding`` and the three ``solver_*`` modules alike).
Spans nest on one stack: a layer's self time is its span minus the spans of
traced layers it called.  A hook whose target no longer exists is recorded as
missing, and every metric built on it reads ``None``, never zero.
"""

import importlib
import sys
from collections import defaultdict


def _tableau_cells(stat, args, result):
    rows = args[0]
    stat.n["cells"] += len(rows) * len(rows[0])


def _simplex(stat, args, result):
    lp = args[0]
    r, c = lp.matrix.rows, lp.matrix.cols
    stat.n["cells"] += (r + 1) * (c + r + 1)
    stat.n["pivots"] += result.pivots
    stat.n["infeasible"] += result.status.value == "infeasible"


def _mip(stat, args, result):
    stat.n["nodes"] += result.nodes
    stat.n["pivots"] += result.lp_pivots


def _accepted(stat, args, result):
    stat.n["ok"] += result.status.value == "ok"


def _configs(stat, args, result):
    stat.n["configs"] += len(result)


def _groups(stat, args, result):
    stat.n["groups"] += len(result.groups)


def _type_groups(stat, args, result):
    stat.n["groups"] += len(result.type_groups)


def _tu_vars(stat, args, result):
    stat.n["vars"] += len(args[0].keys)


# (hook, module, attribute, observer): the attribute may be "Class.method";
# the observer counts the work of one call from its arguments and result.
HOOKS = (
    ("kernel.pivot_update", "nearfeas.backend", "pivot_update", _tableau_cells),
    ("kernel.dot", "nearfeas.backend", "dot", None),
    ("simplex", "nearfeas.simplex", "solve_lp_vertex", _simplex),
    ("branch_bound", "nearfeas.branch_bound", "solve_mip", _mip),
    ("solver_general", "nearfeas.solver_general", "solve_general", _accepted),
    ("solver_general.build_mip1", "nearfeas.solver_general", "build_mip1", None),
    ("solver_general.restrict_lp2", "nearfeas.solver_general", "restrict_lp2", None),
    ("solver_config", "nearfeas.solver_config", "solve_config_core", _accepted),
    ("solver_config.attempt", "nearfeas.solver_config", "_attempt", None),
    ("solver_config.build_mip4", "nearfeas.solver_config", "build_mip4", None),
    ("solver_config.fix_counts_lp", "nearfeas.solver_config", "fix_counts_lp", None),
    ("solver_nfold.build_mip6", "nearfeas.solver_nfold", "build_mip6", None),
    ("solver_nfold.enumerate_configs", "nearfeas.solver_nfold", "enumerate_major_configs", _configs),
    ("boxes.partition_columns", "nearfeas.boxes", "partition_columns", _groups),
    ("boxes.partition_config_columns", "nearfeas.boxes", "partition_config_columns", _type_groups),
    ("rounding.group_plan", "nearfeas.rounding", "GroupRoundingPlan.build", None),
    ("rounding.greedy", "nearfeas.rounding", "greedy_group_round", None),
    ("rounding.tu_round", "nearfeas.rounding", "tu_round", _tu_vars),
    ("instances.parse", "nearfeas.instances", "instance_from_dict", None),
    ("instances.verify", "nearfeas.instances", "violation_report", None),
    ("oracle.brute_force", "nearfeas.oracle", "brute_force", None),
    ("apps.scheduling_to_config", "nearfeas.apps", "scheduling_to_config", None),
    ("cli", "nearfeas.cli", "main", None),
)


class Stat:
    def __init__(self, observe):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.n = defaultdict(int)
        self.observe = observe


class Tracer:
    """Context manager that installs the hooks and restores them on exit."""

    def __init__(self, clock):
        self.clock = clock  # the time spans are measured with
        self.stats = {}
        self.missing = []
        self._stack = []
        self._undo = []

    def _wrap(self, stat, fn):
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
            if stat.observe is not None:
                stat.observe(stat, args, result)
            return result

        return wrapper

    def _install(self, hook, module_name, attr, observe):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(name) if owner is not None else None
        if raw is None:
            return False
        stat = self.stats[hook] = Stat(observe)
        if isinstance(raw, classmethod):
            self._undo.append((owner, name, raw))
            setattr(owner, name, classmethod(self._wrap(stat, raw.__func__)))
            return True
        wrapped = self._wrap(stat, raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nearfeas" or mod_name.startswith("nearfeas.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)
        return True

    def __enter__(self):
        for hook, module_name, attr, observe in HOOKS:
            if not self._install(hook, module_name, attr, observe):
                self.missing.append(hook)
        return self

    def __exit__(self, *exc):
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()
        return False


def _ratio(num, den):
    """A ratio whose base is 0 reads 0; the base is reported next to it."""
    return num / den if den else 0.0


# (metric, unit, better, per_pass, value from the stats); per_pass values are
# divided by the number of traced passes, so counts repeat exactly per seed.
LAYER_METRICS = (
    ("kernel.pivot_update.calls", "count", "lower", True, lambda S: S["kernel.pivot_update"].calls),
    ("kernel.pivot_update.self_s", "s", "lower", True, lambda S: S["kernel.pivot_update"].self_s),
    ("kernel.pivot_update.cells", "count", "lower", True, lambda S: S["kernel.pivot_update"].n["cells"]),
    ("kernel.pivot_update.ns_per_cell", "ns", "lower", False,
     lambda S: 1e9 * _ratio(S["kernel.pivot_update"].self_s, S["kernel.pivot_update"].n["cells"])),
    ("kernel.dot.calls", "count", "lower", True, lambda S: S["kernel.dot"].calls),
    ("kernel.dot.self_s", "s", "lower", True, lambda S: S["kernel.dot"].self_s),
    ("simplex.lps", "count", "lower", True, lambda S: S["simplex"].calls),
    ("simplex.pivots", "count", "lower", True, lambda S: S["simplex"].n["pivots"]),
    ("simplex.pivots_per_lp", "count", "lower", False,
     lambda S: _ratio(S["simplex"].n["pivots"], S["simplex"].calls)),
    ("simplex.self_s", "s", "lower", True, lambda S: S["simplex"].self_s),
    ("simplex.tableau_cells_mean", "count", "lower", False,
     lambda S: _ratio(S["simplex"].n["cells"], S["simplex"].calls)),
    ("simplex.infeasible_ratio", "ratio", "lower", False,
     lambda S: _ratio(S["simplex"].n["infeasible"], S["simplex"].calls)),
    ("branch_bound.solves", "count", "lower", True, lambda S: S["branch_bound"].calls),
    ("branch_bound.nodes", "count", "lower", True, lambda S: S["branch_bound"].n["nodes"]),
    ("branch_bound.nodes_per_solve", "count", "lower", False,
     lambda S: _ratio(S["branch_bound"].n["nodes"], S["branch_bound"].calls)),
    ("branch_bound.pivots_per_node", "count", "lower", False,
     lambda S: _ratio(S["branch_bound"].n["pivots"], S["branch_bound"].n["nodes"])),
    ("branch_bound.self_s", "s", "lower", True, lambda S: S["branch_bound"].self_s),
    ("solver_general.attempts", "count", "lower", True, lambda S: S["solver_general.build_mip1"].calls),
    ("solver_general.accept_ratio", "ratio", "higher", False,
     lambda S: _ratio(S["solver_general"].n["ok"], S["solver_general.build_mip1"].calls)),
    ("solver_general.build_mip1_s", "s", "lower", True, lambda S: S["solver_general.build_mip1"].self_s),
    ("solver_general.restrict_lp2_s", "s", "lower", True, lambda S: S["solver_general.restrict_lp2"].self_s),
    ("solver_config.attempts", "count", "lower", True, lambda S: S["solver_config.attempt"].calls),
    ("solver_config.accept_ratio", "ratio", "higher", False,
     lambda S: _ratio(S["solver_config"].n["ok"], S["solver_config.attempt"].calls)),
    ("solver_config.build_mip4_s", "s", "lower", True, lambda S: S["solver_config.build_mip4"].self_s),
    ("solver_config.fix_counts_lp_s", "s", "lower", True, lambda S: S["solver_config.fix_counts_lp"].self_s),
    ("solver_nfold.attempts", "count", "lower", True, lambda S: S["solver_nfold.build_mip6"].calls),
    ("solver_nfold.build_mip6_s", "s", "lower", True, lambda S: S["solver_nfold.build_mip6"].self_s),
    ("solver_nfold.enumerate_configs_s", "s", "lower", True,
     lambda S: S["solver_nfold.enumerate_configs"].self_s),
    ("solver_nfold.configs", "count", "lower", True, lambda S: S["solver_nfold.enumerate_configs"].n["configs"]),
    ("boxes.partition_s", "s", "lower", True,
     lambda S: S["boxes.partition_columns"].self_s + S["boxes.partition_config_columns"].self_s),
    ("boxes.groups", "count", "lower", True,
     lambda S: S["boxes.partition_columns"].n["groups"] + S["boxes.partition_config_columns"].n["groups"]),
    ("rounding.greedy_s", "s", "lower", True,
     lambda S: S["rounding.group_plan"].self_s + S["rounding.greedy"].self_s),
    ("rounding.tu_round_s", "s", "lower", True, lambda S: S["rounding.tu_round"].self_s),
    ("rounding.tu_vars", "count", "lower", True, lambda S: S["rounding.tu_round"].n["vars"]),
    ("instances.parse_s", "s", "lower", True, lambda S: S["instances.parse"].self_s),
    ("instances.verify_s", "s", "lower", True, lambda S: S["instances.verify"].self_s),
    ("oracle.brute_force_s", "s", "lower", True, lambda S: S["oracle.brute_force"].self_s),
    ("apps.scheduling_to_config_s", "s", "lower", True, lambda S: S["apps.scheduling_to_config"].self_s),
    ("cli.self_s", "s", "lower", True, lambda S: S["cli"].self_s),
    ("trace.kernel_simplex_share", "ratio", "lower", False,
     lambda S: _ratio(S["kernel.pivot_update"].self_s + S["kernel.dot"].self_s + S["simplex"].self_s,
                      S["cli"].total_s)),
)


def layer_metrics(tracer, passes, scale, traced_s, untraced_s):
    """Per-layer metrics of a traced run of whole passes, plus the trace's
    own cost: ``traced_s`` and ``untraced_s`` time the same solves.  Span
    times are multiplied by ``scale``, the host-speed factor of the traced
    passes."""
    S = tracer.stats
    out = {}
    for name, unit, _better, per_pass, value in LAYER_METRICS:
        try:
            v = value(S)
        except KeyError:
            v = None
        if v is not None and per_pass:
            v /= passes
        if v is not None and unit in ("s", "ns"):
            v *= scale
        out[name] = (v, unit)
    out["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s), "ratio")
    return out
