#!/usr/bin/env python3
"""Mutation table: small deliberate faults and the tests that must catch them.

Usage, from the root of a checkout::

    python3 tools/mutants.py [NAME ...]

With no names it runs every row; with names, only those rows, after the
baseline run of their tests.  ``-h`` or ``--help`` prints this text, and an
unknown name exits 2 and names it; neither starts a test run.

Each row of ``MUTANTS`` names a file, an exact snippet in it, the snippet's
replacement, the test ids that must fail once the replacement is made and,
for a mutant that changes no behaviour, the reason it is equivalent.  The
tool first runs every named test on an unmutated copy of the checkout, so a
failure can only come from a mutant.  Then, for each row, it copies the
checkout to a temporary directory, applies the mutant there, runs the row's
tests with pytest under ``TIMEOUT`` seconds and prints one line:

- ``killed``: a named test failed;
- ``survived``: every named test passed;
- ``stale``: the snippet does not occur exactly once in its file, or
  pytest could not run the named tests;
- ``timeout``: the tests ran past the timeout.

A row with an ``equivalent`` reason prints it after its outcome.  The exit
status is 0 when every row is killed, or survives if it is marked
equivalent; 1 otherwise, and 2 when the tests fail unmutated or a name is
unknown.
``tests/test_mutants.py`` checks that every snippet occurs exactly once, so
a change that rewrites mutated code updates its rows.  Standard library
only; the checkout is never modified.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 300  # seconds per mutant; the unmutated run gets twice as long
_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-work", ".benchmarks"
)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    snippet: str
    replacement: str
    tests: tuple  # pytest ids, relative to the root
    equivalent: str | None = None


_RATIONALS = "src/nearfeas/rationals.py"
_LINALG = "src/nearfeas/linalg.py"
_SIMPLEX = "src/nearfeas/simplex.py"
_BACKEND = "src/nearfeas/backend.py"
_BOXES = "src/nearfeas/boxes.py"
_NFOLD = "src/nearfeas/solver_nfold.py"
_BB = "src/nearfeas/branch_bound.py"
_ORACLE = "src/nearfeas/oracle.py"
_INSTANCES = "src/nearfeas/instances.py"
_PARSE_OUTCOMES = "tests/test_cli.py::test_single_fault_parse_outcomes_are_pinned"
_GENERAL = "src/nearfeas/solver_general.py"
_CONFIG = "src/nearfeas/solver_config.py"
_RESULTS = "src/nearfeas/results.py"
_DIGESTS = "tests/test_report_digests.py::test_reports_match_the_pinned_digests"
_INT_ROWS = "tests/test_linalg.py::test_integer_rows_match_a_fraction_reference"
_REPORT = "tests/test_instances.py::test_violation_report_matches_a_fraction_reference"
_GROUPS = "tests/test_solver_general.py::test_integer_group_rounding_matches_a_fraction_reference"
_LIMITS = "tests/test_solver_general.py::test_the_refinement_limit_is_reached_in_every_pipeline"
_PSI_EXHAUSTED = (
    "tests/test_solver_nfold.py::test_a_psi_refinement_that_leaves_a_block_no_majors_is_infeasible"
)
_WINDOW = "tests/test_solver_nfold.py::test_enumeration_window_matches_a_fraction_reference"
_ORACLE_TESTS = ("tests/test_oracle.py",)
_WARM = (  # the pinned test first, so that -x stops at its quick failure
    "tests/test_branch_bound.py::test_warm_children_of_pinned_degenerate_lps",
    "tests/test_branch_bound.py::test_warm_child_matches_cold_solve",
)
_COLD = ("tests/test_simplex.py::test_random_lps_match_enumeration",)
_COLD_CERTIFIED = "tests/test_simplex.py::test_every_cold_infeasible_lp_is_certified"
_FARKAS = "tests/test_branch_bound.py::test_dual_farkas_multipliers_come_from_the_phase_1_basis"
_EAGER = "tests/test_branch_bound.py::test_per_row_denominators_match_the_eager_tableau"
_CRASH = "tests/test_simplex.py::test_the_crash_start_keeps_every_basic_value_within_its_bounds"
_CRASH_PINNED = "tests/test_simplex.py::test_the_crash_start_matches_the_reference_on_pinned_lps"
_CUTOFF = "tests/test_branch_bound.py::test_a_cutoff_stops_only_a_child_that_cannot_beat_it"
_LAYOUTS = "tests/test_model_layouts.py::test_pinned_model_layouts"
_KERNELS = (
    "tests/test_kernels.py::test_pivot_normalizes_column",
    "tests/test_kernels.py::test_rows_with_a_zero_in_the_pivot_column_keep_their_denominator",
    "tests/test_kernels.py::test_the_pivot_is_the_old_d_times_its_true_value",
    "tests/test_kernels.py::test_a_row_the_pivot_row_allows_keeps_its_denominator",
    "tests/test_kernels.py::test_integer_pivots_match_fraction_gauss_jordan",
    "tests/test_simplex.py::test_every_pivot_keeps_rows_integral_over_d_and_d_the_basis_determinant",
)
_PARTITIONS = (
    "tests/test_boxes.py::test_box_index_examples",
    "tests/test_boxes.py::test_canonical_vector_examples",
    "tests/test_boxes.py::test_column_at_minus_scale_clamps_into_range",
    "tests/test_boxes.py::test_cell_edge_lands_in_the_lower_cell",
    "tests/test_boxes.py::test_partitions_match_the_per_column_box_index",
)

MUTANTS = (
    # the exact-rational boundary
    Mutant(
        "scaled-off-by-one",
        _RATIONALS,
        "    return L, [n * (L // d) for n, d in pairs]\n",
        "    return L, [n * (L // d) + 1 for n, d in pairs]\n",
        (
            "tests/test_rationals.py::test_integer_row_examples",
            "tests/test_rationals.py::test_scaled_by_the_common_denominator_is_exact",
        ),
    ),
    Mutant(
        "common-denominator-max",
        _RATIONALS,
        "    L = math.lcm(*[d for _, d in pairs])\n",
        "    L = max([d for _, d in pairs], default=1)\n",
        (
            "tests/test_rationals.py::test_integer_row_examples",
            "tests/test_rationals.py::test_scaled_by_the_common_denominator_is_exact",
        ),
    ),
    Mutant(
        "integer-row-accepts-floats-and-booleans",
        _RATIONALS,
        "        pairs = [_exact(v).as_integer_ratio() for v in values]\n",
        "        pairs = [v.as_integer_ratio() for v in values]\n",
        (
            "tests/test_rationals.py::test_integer_row_rejects_floats_and_booleans",
            "tests/test_simplex.py::test_a_float_or_a_bool_in_the_lp_raises",
        ),
    ),
    Mutant(
        "booleans-accepted",
        _RATIONALS,
        '    if isinstance(value, bool):\n        raise TypeError("boolean values are not allowed")\n',
        "",
        (
            "tests/test_rationals.py::test_as_rat_rejects_booleans",
            "tests/test_instances.py::test_parse_error_names_path",
            "tests/test_cli.py::test_parse_error_names_path",
        ),
    ),
    Mutant(
        "format-accepts-true-and-float",
        _INSTANCES,
        "    if type(fmt) is not int or fmt != 1:\n",
        "    if fmt != 1:\n",
        (
            "tests/test_instances.py::test_format_field_required",
            "tests/test_cli.py::test_parse_error_names_path",
        ),
    ),
    Mutant(
        "float-approximation-unguarded",
        _RATIONALS,
        "    try:\n        return int(value.numerator) / int(value.denominator)\n"
        "    except OverflowError:\n        return None\n",
        "    return int(value.numerator) / int(value.denominator)\n",
        ("tests/test_cli.py::test_a_value_outside_the_float_range_approximates_to_null",),
    ),
    Mutant(
        "format-rat-under-the-digit-limit",
        _RATIONALS,
        "        sys.set_int_max_str_digits(0)\n",
        "",
        ("tests/test_cli.py::test_a_report_value_past_the_digit_limit_is_printed_exactly",),
    ),
    Mutant(
        "load-instance-json-errors-only",
        _INSTANCES,
        "        except (ValueError, RecursionError) as exc:\n",
        "        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:\n",
        (
            "tests/test_cli.py::test_an_integer_literal_past_the_digit_limit_is_a_usage_error",
            "tests/test_cli.py::test_mutated_instance_files_are_classified",
        ),
    ),
    Mutant(
        "params-widths-unclassified",
        _INSTANCES,
        '        eps = _param_rat("epsilon", epsilon)\n',
        "        eps = as_rat(epsilon)\n",
        ("tests/test_instances.py::test_params_reject_widths_that_are_not_exact_rationals",),
    ),
    # the instance field codecs
    Mutant(
        "int-codec-accepts-bool",
        _INSTANCES,
        "    if isinstance(value, bool) or not isinstance(value, int):\n",
        "    if not isinstance(value, int):\n",
        (
            "tests/test_instances.py::test_build_rejects_non_integer_integer_fields",
            _PARSE_OUTCOMES,
        ),
    ),
    Mutant(
        "required-null-read-as-absent",
        _INSTANCES,
        "        elif required or data[name] is not None:\n",
        "        elif data[name] is not None:\n",
        (_PARSE_OUTCOMES,),
    ),
    Mutant(
        "costs-required",
        _INSTANCES,
        "    costs: object = _wire(_ROWS, default=None)",
        "    costs: object = _wire(_ROWS)",
        (
            "tests/test_instances.py::test_scheduling_kind_parses_and_validates",
            "tests/test_instances.py::test_dump_leaves_absent_costs_out",
        ),
    ),
    Mutant(
        "dump-writes-costs-null",
        _INSTANCES,
        "        if value is not None:\n            data[name] = dump(value)\n",
        "        data[name] = None if value is None else dump(value)\n",
        ("tests/test_instances.py::test_dump_leaves_absent_costs_out",),
    ),
    Mutant(
        "kind-lookup-before-str-check",
        _INSTANCES,
        "    cls = KINDS.get(kind) if isinstance(kind, str) else None\n",
        "    cls = KINDS.get(kind)\n",
        (_PARSE_OUTCOMES,),
    ),
    Mutant(
        "blocks-accept-an-empty-list",
        _INSTANCES,
        '"a non-empty list", nonempty=True)',
        '"a non-empty list", nonempty=False)',
        ("tests/test_instances.py::test_blocks_must_be_non_empty",),
    ),
    Mutant(
        "item-parsed-again-at-its-list-path",
        _INSTANCES,
        '                parse_item(v, f"{path}[{i}]")\n',
        "                parse_item(v, path)\n",
        (_PARSE_OUTCOMES,),
    ),
    Mutant(
        "knapsack-capacities-truncated",
        "src/nearfeas/apps.py",
        'caps = list(parse_ints(capacities, "$.capacities"))',
        "caps = [int(v) for v in capacities]",
        ("tests/test_apps.py::test_knapsack_integer_data_passes_the_integer_codec",),
    ),
    Mutant(
        "scheduling-slack-stops-below-cmax",
        "src/nearfeas/apps.py",
        "for k in range(cmax_i + 1))",
        "for k in range(cmax_i))",
        ("tests/test_apps.py::test_scheduling_core_equals_the_core_built_through_the_codecs",),
    ),
    Mutant(
        "scheduling-times-of-the-first-job",
        "src/nearfeas/apps.py",
        "        diag = times[i * m : i * m + m]\n",
        "        diag = times[:m]\n",
        ("tests/test_apps.py::test_scheduling_core_equals_the_core_built_through_the_codecs",),
    ),
    # integer rows, reports and roundings
    Mutant(
        "inf-norm-compares-numerators-only",
        _LINALG,
        "            if a * den > top * s:\n",
        "            if a > top:\n",
        (_INT_ROWS, _REPORT),
    ),
    Mutant(
        "residual-sign-flipped",
        _INSTANCES,
        "        num = n * q - r * d  # the residual times d * q\n",
        "        num = r * d - n * q  # the residual times d * q\n",
        (_REPORT, "tests/test_instances.py::test_violation_report_examples"),
    ),
    Mutant(
        "multiplicative-top-without-the-row-scale",
        _INSTANCES,
        "e * n * q <= (e + p) * r * d",
        "e * n * q <= (e + p) * r",
        (_REPORT,),
    ),
    Mutant(
        "report-objective-off-by-one",
        _INSTANCES,
        "bound, _cost(weights, flat))",
        "bound, _cost(weights, flat) + 1)",
        (_REPORT,),
    ),
    Mutant(
        "group-mass-not-checked",
        "src/nearfeas/rounding.py",
        "        gamma, rest = divmod(sum(e[3] for e in fractional), den)\n",
        "        gamma, rest = sum(e[3] for e in fractional) // den, 0\n",
        ("tests/test_rounding.py::test_greedy_nonintegral_gamma_is_loud", _GROUPS),
    ),
    Mutant(
        "tu-round-counts-no-phases",
        "src/nearfeas/rounding.py",
        "        stats.count_cold_solve(tab)\n",
        "        stats.lp_pivots += tab.pivots\n",
        ("tests/test_solver_config.py::test_the_tu_re_solve_is_counted_by_phase",),
    ),
    Mutant(
        "group-sum-compared-without-den",
        _GENERAL,
        "!= den * sum(x[j] for j in members):",
        "!= sum(x[j] for j in members):",
        (_GROUPS,),
    ),
    Mutant(
        "group-objective-chain-without-den",
        _GENERAL,
        "    if cost * den > sum(w * v for w, v in zip(weights, vertex)):\n",
        "    if cost > sum(w * v for w, v in zip(weights, vertex)):\n",
        (_GROUPS,),
    ),
    Mutant(
        "selection-objective-chain-without-den",
        _CONFIG,
        "    if cost * den > sum(w * v for w, v in zip(weights, values) if v):\n",
        "    if cost > sum(w * v for w, v in zip(weights, values) if v):\n",
        (_DIGESTS,),
    ),
    Mutant(
        "window-top-rounded-up",
        _NFOLD,
        "highs = [hi.numerator * s // hi.denominator for s in A.scales]",
        "highs = [-(-hi.numerator * s // hi.denominator) for s in A.scales]",
        (_WINDOW,),
    ),
    Mutant(
        "window-bottom-rounded-down",
        _NFOLD,
        "lows = [-(-lo.numerator * s // lo.denominator) for s in A.scales]",
        "lows = [lo.numerator * s // lo.denominator for s in A.scales]",
        (_WINDOW,),
    ),
    Mutant(
        "value-columns-over-unit-scales",
        _CONFIG,
        "    return Matrix(D.rows, len(vectors), nonzeros, D.scales), costs\n",
        "    return Matrix(D.rows, len(vectors), nonzeros, [1] * D.rows), costs\n",
        ("tests/test_solver_config.py::test_value_matrix_columns",),
    ),
    Mutant(
        "normalize-ignores-the-rhs-denominator",
        _NFOLD,
        "[[(j, a * bh.denominator) for j, a in nz] for nz, _, bh in kept]",
        "[[(j, a) for j, a in nz] for nz, _, bh in kept]",
        ("tests/test_solver_nfold.py::test_normalize_divides_each_row_by_its_rational_right_hand_side",),
    ),
    Mutant(
        "lambda-rounded-down",
        _NFOLD,
        "lam = -(-P * den // (Q * top))",
        "lam = P * den // (Q * top)",
        ("tests/test_solver_nfold.py::test_classify_small_and_big",),
    ),
    Mutant(
        "minor-rows-not-lifted",
        _NFOLD,
        "[[(k, a * (L[r] // D.scales[r]))",
        "[[(k, a)",
        (_LAYOUTS,),
    ),
    Mutant(
        "marginals-read-the-rounded-copy-twice",
        _CONFIG,
        "before = sum(values[model.z[i][phi]] for i in members)",
        "before = sum(selected[model.z[i][phi]] for i in members)",
        ("tests/test_solver_config.py::test_a_rounding_that_moves_type_mass_is_rejected",),
    ),
    # the simplex and its kernel
    Mutant(
        "phase-2-skipped",
        _SIMPLEX,
        "        return self._iterate()\n",
        "        return LPStatus.OPTIMAL\n",
        (
            "tests/test_simplex.py::test_random_lps_match_enumeration",
            "tests/test_report_digests.py::test_reports_match_the_pinned_digests",
        ),
    ),
    Mutant(
        "phase-2-row-not-swapped-in",
        _SIMPLEX,
        "        T[r] = T.pop()\n        dens[r] = dens.pop()\n",
        "",
        _COLD + _WARM,
    ),
    Mutant(
        "phase-1-infeasibility-ignored",
        _SIMPLEX,
        "        if T[r][n]:\n",
        "        if False:\n",
        (
            "tests/test_simplex.py::test_trivial_infeasible",
            "tests/test_simplex.py::test_random_lps_match_enumeration",
        ),
    ),
    Mutant(
        "phase-1-certificate-skipped",
        _SIMPLEX,
        "            self._certify_infeasible(y)\n",
        "",
        (_COLD_CERTIFIED,),
    ),
    Mutant(
        "phase-1-certificate-unweighted",
        _SIMPLEX,
        "y = [si * (k1 // s) * dens[r] - a for",
        "y = [si * dens[r] - a for",
        (_COLD_CERTIFIED,),
    ),
    Mutant(
        "phase-1-unweighted",
        _SIMPLEX,
        "                w = k1 // s if ri > 0 else -(k1 // s)\n",
        "                w = 1 if ri > 0 else -1\n",
        ("tests/test_simplex.py::test_rational_entry_lps_match",),
    ),
    Mutant(
        "phase-1-certificate-sign-flipped",
        _SIMPLEX,
        "sigma = [(hi > 0) - (lo < 0) for",
        "sigma = [(lo < 0) - (hi > 0) for",
        (_COLD_CERTIFIED,),
    ),
    Mutant(
        "tableau-bound-slices-shifted",
        _SIMPLEX,
        "ints[:c], ints[c : 2 * c], ints[2 * c :]",
        "ints[:c], ints[c + 1 : 2 * c + 1], ints[2 * c + 1 :]",
        (*_COLD, "tests/test_simplex.py::test_pinned_pivot_paths"),
    ),
    Mutant(
        "tableau-rhs-accepts-a-bool",
        _SIMPLEX,
        "integer_row([*lp.lower, *lp.upper, *lp.rhs])",
        "integer_row([*lp.lower, *lp.upper, *(b * 1 for b in lp.rhs)])",
        ("tests/test_simplex.py::test_a_float_or_a_bool_in_the_lp_raises",),
    ),
    Mutant(
        "tableau-rhs-unscaled",
        _SIMPLEX,
        "self.rhs = tuple(v * s for v, s in zip(bs, scales))",
        "self.rhs = tuple(v for v, s in zip(bs, scales))",
        ("tests/test_simplex.py::test_a_fresh_tableau_is_the_lps_own_integer_rows", *_COLD),
    ),
    Mutant(
        "ratio-ties-to-larger-index",
        _SIMPLEX,
        "(gap * la == lg * a and bi < basis[leave])",
        "(gap * la == lg * a and bi > basis[leave])",
        ("tests/test_simplex.py::test_pinned_pivot_paths",),
    ),
    Mutant(
        "copy-shares-dens",
        _SIMPLEX,
        "        new.dens = self.dens[:]\n",
        "",
        (_EAGER, "tests/test_branch_bound.py::test_a_mutated_copy_leaves_its_parent_unchanged"),
    ),
    Mutant(
        "primal-ratio-test-reads-d",
        _SIMPLEX,
        "                di = dens[i]\n                pos = di > 0\n",
        "                di = self.d\n                pos = di > 0\n",
        ("tests/test_simplex.py::test_pinned_pivot_paths", _EAGER),
    ),
    Mutant(
        "dual-leaving-scan-reads-d",
        _SIMPLEX,
        "                di = dens[i]\n                lo_d = di * lower[bi]\n",
        "                di = self.d\n                lo_d = di * lower[bi]\n",
        (_EAGER,),
    ),
    Mutant(
        "dual-entering-sign-reads-d",
        _SIMPLEX,
        "            di = dens[leave]\n            pos = di > 0\n",
        "            di = dens[leave]\n            pos = self.d > 0\n",
        (_EAGER,),
    ),
    Mutant(
        "vertex-without-rescale",
        _SIMPLEX,
        "                values[b] = row[n] * e // di\n",
        "                values[b] = row[n]\n",
        (_EAGER,),
    ),
    Mutant(
        "primal-entering-sign-reads-d",
        _SIMPLEX,
        "            pos = dens[self.r] > 0\n",
        "            pos = self.d > 0\n",
        (_EAGER,),
    ),
    Mutant(
        "kernel-keeps-old-dens",
        _BACKEND,
        "zip(row, prow)]\n                dens[i] = piv\n",
        "zip(row, prow)]\n",
        _KERNELS,
    ),
    Mutant(
        "kernel-leaves-stale-pivot-row",
        _BACKEND,
        "    if dp != d:\n        prow[:] = [p * d // dp if p else 0 for p in prow]\n",
        "",
        _KERNELS,
    ),
    Mutant(
        "kernel-sparse-without-divisibility-test",
        _BACKEND,
        "            if f % h:\n",
        "            if dens[i] != d:\n",
        _KERNELS,
    ),
    Mutant(
        "kernel-gcd-without-pivot-column",
        _BACKEND,
        "    g = math.gcd(*prow)\n",
        "    g = math.gcd(*prow[:pc], *prow[pc + 1 :])\n",
        _KERNELS,
    ),
    # the crash start of a cold solve
    Mutant(
        "crash-checks-only-the-entering-bounds",
        _SIMPLEX,
        "            if f and t is not row:\n",
        "            if False:\n",
        (_CRASH_PINNED, _CRASH) + _COLD,
    ),
    Mutant(
        "crash-ignores-the-artificial-ranges",
        _SIMPLEX,
        "            if f and t is not row:\n",
        "            if f and t is not row and b < self.c:\n",
        (_CRASH_PINNED, _CRASH),
    ),
    Mutant(
        "crash-own-move-width-unchecked",
        _SIMPLEX,
        "                    if abs(v) > (upper[j] - lower[j]) * abs(a):\n                        continue\n",
        "",
        (_CRASH_PINNED, _CRASH),
    ),
    Mutant(
        "crash-zero-value-shortcut-on-a-nonzero-row",
        _SIMPLEX,
        "                if v:\n",
        "                if v > 0:\n",
        (_CRASH_PINNED, _CRASH),
    ),
    Mutant(
        "crash-artificial-leaves-at-its-far-bound",
        _SIMPLEX,
        "self._pivot(i, j, _LOW if lower[c + i] == 0 else _UP)",
        "self._pivot(i, j, _UP if lower[c + i] == 0 else _LOW)",
        (_CRASH_PINNED, _CRASH),
    ),
    # the warm-started dual simplex and the branch-and-bound search
    Mutant(
        "snapshot-aliases-the-live-tableau",
        _BB,
        "stack.append((tab.copy(), branch_var, fl + 1, None, depth + 1))",
        "stack.append((tab, branch_var, fl + 1, None, depth + 1))",
        ("tests/test_branch_bound.py::test_up_child_after_deep_down_subtree",),
    ),
    Mutant(
        "bb-pruned-not-counted",
        _BB,
        "            run.bb_pruned += 1\n",
        "            run.bb_pruned += 0\n",
        ("tests/test_branch_bound.py::test_branch_and_bound_counters",),
    ),
    Mutant(
        "cutoff-counted-as-infeasible",
        _BB,
        "        if status == LPStatus.INFEASIBLE:\n            run.bb_infeasible += 1\n",
        "        if status != LPStatus.OPTIMAL:\n            run.bb_infeasible += 1\n",
        ("tests/test_branch_bound.py::test_branch_and_bound_counters",),
    ),
    Mutant(
        "dual-pivots-not-counted",
        _BB,
        "            run.lp_dual_pivots += tab.pivots\n",
        "",
        ("tests/test_branch_bound.py::test_branch_and_bound_counters",),
    ),
    Mutant(
        "node-limit-counts-earlier-searches",
        _BB,
        "        if run.bb_nodes - nodes0 >= node_limit:\n",
        "        if run.bb_nodes >= node_limit:\n",
        ("tests/test_branch_bound.py::test_branch_and_bound_counters",),
    ),
    Mutant(
        "solution-pivots-count-earlier-searches",
        _BB,
        "    counts = (run.bb_nodes - nodes0, run.lp_pivots - pivots0)\n",
        "    counts = (run.bb_nodes - nodes0, run.lp_pivots)\n",
        ("tests/test_branch_bound.py::test_branch_and_bound_counters",),
    ),
    Mutant(
        "cutoff-ignores-a-negative-cost-row-denominator",
        _SIMPLEX,
        "            zr = -cost_row[n] if dens[r] > 0 else cost_row[n]\n            if zr * cost_den",
        "            zr = -cost_row[n]\n            if zr * cost_den",
        (_CUTOFF,),
    ),
    Mutant(
        "lookahead-ignores-a-negative-cost-row-denominator",
        _SIMPLEX,
        "                zr = -cost_row[n] if dens[r] > 0 else cost_row[n]\n                if (zr",
        "                zr = -cost_row[n]\n                if (zr",
        (_CUTOFF,),
    ),
    Mutant(
        "lookahead-step-to-the-other-bound",
        _SIMPLEX,
        "step = abs(v - di * (lower[lv] if to_low else upper[lv]))",
        "step = abs(v - di * (upper[lv] if to_low else lower[lv]))",
        (_CUTOFF,),
    ),
    Mutant(
        "lookahead-without-the-step",
        _SIMPLEX,
        "if (zr * qa + qc * step) * cost_den",
        "if zr * qa * cost_den",
        (_CUTOFF,),
    ),
    Mutant(
        "lookahead-strict",
        _SIMPLEX,
        ">= cost * abs(dens[r]) * kL * qa:",
        "> cost * abs(dens[r]) * kL * qa:",
        (_CUTOFF,),
    ),
    Mutant(
        "dual-eligibility-sign-flipped",
        _SIMPLEX,
        "(sk == _LOW) != (((a > 0) == pos) != to_low)",
        "(sk == _LOW) == (((a > 0) == pos) != to_low)",
        _WARM,
    ),
    Mutant(
        "dual-ratio-largest",
        _SIMPLEX,
        "(q < 0 or ck * qa < qc * a)",
        "(q < 0 or ck * qa > qc * a)",
        _WARM,
    ),
    Mutant(
        "fixed-column-enters-dual-ratio-test",
        _SIMPLEX,
        "(q < 0 or ck * qa < qc * a) and lower[k] != upper[k]:",
        "(q < 0 or ck * qa < qc * a):",
        ("tests/test_branch_bound.py::test_fixed_column_never_enters_the_dual_ratio_test",),
    ),
    Mutant(
        "dual-leaving-status-swapped",
        _SIMPLEX,
        "self._pivot(leave, q, _LOW if to_low else _UP)",
        "self._pivot(leave, q, _UP if to_low else _LOW)",
        _WARM,
    ),
    Mutant(
        "rational-bound-accepted",
        _SIMPLEX,
        "        if not all(v is None or type(v) is int for v in (lo, hi)):\n",
        "        if False:\n",
        ("tests/test_simplex.py::test_a_bound_that_is_not_an_int_raises",),
    ),
    Mutant(
        "crossed-bound-accepted",
        _SIMPLEX,
        '            raise PipelineInvariantError("bound change crosses the other bound")\n',
        "            pass\n",
        ("tests/test_simplex.py::test_a_bound_that_is_not_an_int_raises",),
    ),
    Mutant(
        "infeasibility-certificate-inverted",
        _SIMPLEX,
        "        if least <= rhs <= most:\n",
        "        if not least <= rhs <= most:\n",
        _WARM,
    ),
    Mutant(
        "farkas-unscaled",
        _SIMPLEX,
        "y[i] += b * (a * d0 // s)",
        "y[i] += b * a",
        (_FARKAS, *_WARM),
    ),
    Mutant(
        "farkas-reads-the-current-basis",
        _SIMPLEX,
        "for t, s, p in zip(block, dens0, at):",
        "for t, s, p in zip(block, dens0, self.basis):",
        (_FARKAS, *_WARM),
    ),
    Mutant(
        "basic-artificial-columns-dropped",
        _SIMPLEX,
        "keep = [j for j in self.basis if j >= c]",
        "keep = []",
        (_FARKAS, *_WARM),
    ),
    Mutant(
        "artificial-block-taken-after-the-cut",
        _SIMPLEX,
        "        block = [t[c : c + r] for t in T[:r]]\n"
        "        cols = [c + r] + keep\n"
        "        for t in T:\n"
        "            t[c:] = [t[j] for j in cols]\n",
        "        cols = [c + r] + keep\n"
        "        for t in T:\n"
        "            t[c:] = [t[j] for j in cols]\n"
        "        block = [t[c : c + r] for t in T[:r]]\n",
        (_FARKAS, *_WARM),
    ),
    Mutant(
        "entering-value-from-the-other-bound",
        _SIMPLEX,
        "self._shift(q, self.lower[q] if stat[q] == _LOW else self.upper[q])",
        "self._shift(q, self.upper[q] if stat[q] == _LOW else self.lower[q])",
        _COLD + _WARM,
    ),
    Mutant(
        "vertex-bounds-unchecked",
        _SIMPLEX,
        '            raise PipelineInvariantError("vertex violates bounds")\n',
        "            pass\n",
        ("tests/test_simplex.py::test_verify_vertex_rejects_one_violation",),
    ),
    Mutant(
        "vertex-equations-unchecked",
        _SIMPLEX,
        '            raise PipelineInvariantError("vertex violates equations")\n',
        "            pass\n",
        ("tests/test_simplex.py::test_verify_vertex_rejects_one_violation",),
    ),
    # the integer box grid
    Mutant(
        "grid-floor-for-ceiling",
        _BOXES,
        "cell = tuple(max(-(-a // top), least) for a in nums)",
        "cell = tuple(max(a // top, least) for a in nums)",
        _PARTITIONS,
    ),
    Mutant(
        "grid-no-clamp",
        _BOXES,
        "cell = tuple(max(-(-a // top), least) for a in nums)",
        "cell = tuple(-(-a // top) for a in nums)",
        _PARTITIONS,
    ),
    Mutant(
        "grid-corner-at-lam",
        _BOXES,
        "tuple((lam - 1) * top for lam in cell)",
        "tuple(lam * top for lam in cell)",
        _PARTITIONS,
    ),
    Mutant(
        "grid-lifts-by-den",
        _BOXES,
        "        lifted = [(dict(nz), den // s * cells) for nz, s in zip(mat.nonzeros, mat.scales)]\n",
        "        lifted = [(dict(nz), den * cells) for nz, s in zip(mat.nonzeros, mat.scales)]\n",
        _PARTITIONS,
    ),
    Mutant(
        "grid-scale-fixed",
        _BOXES,
        "    top = max((abs(a) * (den // s) for m in mats for nz, s in zip(m.nonzeros, m.scales)\n"
        "               for _, a in nz), default=0) or den\n",
        "    top = den\n",
        ("tests/test_scale_covariance.py::test_config_scale_covariance",),
    ),
    Mutant(
        "config-slack-bounds-capped",
        _CONFIG,
        "    bound = params.epsilon * delta_inf\n",
        "    bound = min(params.epsilon * delta_inf, 1)\n",
        ("tests/test_scale_covariance.py::test_config_scale_covariance",),
    ),
    # the mixed model's integer rows
    Mutant(
        "matrix-rows-not-reduced",
        _LINALG,
        "            g = math.gcd(s, *[a for _, a in nz]) if s != 1 else 1\n",
        "            g = 1\n",
        (_INT_ROWS, "tests/test_model_layouts.py::test_model_rows_are_least_integer_rows"),
    ),
    Mutant(
        "coupling-slack-positive",
        _BOXES,
        "), (s0 + r, -U)]",
        "), (s0 + r, U)]",
        (_LAYOUTS,),
    ),
    Mutant(
        "linking-row-without-count",
        _BOXES,
        "nonzeros.append([*((z[i][phi], 1) for i in members), (j, -1)])",
        "nonzeros.append([(z[i][phi], 1) for i in members])",
        (_LAYOUTS,),
    ),
    # the nonnegative n-fold pipeline
    Mutant(
        "scale1-first-block-only",
        _NFOLD,
        "scale1 = max(m.inf_norm() for m in majors[0])",
        "scale1 = majors[0][0].inf_norm()",
        ("tests/test_report_digests.py::test_reports_match_the_pinned_digests",),
    ),
    Mutant(
        "majors-kept-after-psi-refinement",
        _NFOLD,
        "\n            majors = major_values(sblocks, splits, config_lists)\n",
        "\n",
        ("tests/test_solver_nfold.py::test_a_clamped_rejection_halves_psi_and_rebuilds_the_majors",),
    ),
    Mutant(
        "recombine-never-clamps",
        _NFOLD,
        "            if v > u[j]:\n",
        "            if False:\n",
        ("tests/test_solver_nfold.py::test_clamp_repair_fires_and_passes",),
    ),
    Mutant(
        "major-search-closes-over-itself",
        _NFOLD,
        "    def rec(rec, j, acc):",
        "    def rec(_, j, acc):",
        ("tests/test_solver_nfold.py::test_enumeration_leaves_no_reference_cycle",),
    ),
    Mutant(
        "psi-exhaustion-not-checked",
        _NFOLD,
        """            if config_lists is None:
                return ApproxResult(
                    SolveStatus.INFEASIBLE, delta_used=delta1, stats=stats,
                    notes=("case2", "no major configurations after psi refinement"),
                )
""",
        "",
        (_PSI_EXHAUSTED,),
    ),
    # the verify-and-refine driver
    Mutant(
        "refine-halves-twice-per-step",
        _RESULTS,
        "        delta = delta / 2\n",
        "        delta = delta / 4\n",
        (_LIMITS, _DIGESTS),
    ),
    Mutant(
        "refine-one-attempt-too-few",
        _RESULTS,
        "    for refinements in range(limit + 1):\n",
        "    for refinements in range(limit):\n",
        (_LIMITS,),
    ),
    Mutant(
        "refinements-stamped-off-by-one",
        _RESULTS,
        "            result.refinements = refinements\n",
        "            result.refinements = refinements + 1\n",
        (_LIMITS,),
    ),
    Mutant(
        "general-attempt-closes-over-itself",
        _GENERAL,
        "        return None\n\n    delta = params.delta_override",
        "        return None if attempt else None\n\n    delta = params.delta_override",
        ("tests/test_solver_general.py::test_a_refining_solve_leaves_no_cyclic_garbage",),
    ),
    Mutant(
        "params-limits-accept-booleans",
        _INSTANCES,
        "            if isinstance(value, bool) or not isinstance(value, int):",
        "            if not isinstance(value, int):",
        ("tests/test_instances.py::test_params_reject_limits_that_are_not_integers",),
    ),
    # the brute-force oracles
    Mutant(
        "oracle-entries-reversed",
        _ORACLE,
        "for v in range(lo, hi + 1)]",
        "for v in range(hi, lo - 1, -1)]",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle-half-keeps-later-equal-cost",
        _ORACLE,
        "if old is None or key < old:",
        "if old is None or key[0] <= old[0]:",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle-join-keeps-later-equal-cost",
        _ORACLE,
        "best = min(joins, default=None)",
        "best = min(joins, key=lambda j: (j[0], [-k for k in j[1]]), default=None)",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle-target-not-in-row-scale",
        _ORACLE,
        "math.lcm(t.denominator, *(m.scales[r] for m in mats))",
        "math.lcm(*(m.scales[r] for m in mats))",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle-costs-not-scaled",
        _ORACLE,
        "    unit, w = integer_row(inst.w)\n",
        "    unit, w = 1, [v.numerator for v in inst.w]\n",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle-config-weights-of-the-first-block",
        _ORACLE,
        "sum(map(mul, w[i * t : i * t + t], cfg))",
        "sum(map(mul, w[:t], cfg))",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle-nfold-weights-of-the-first-block",
        _ORACLE,
        "local = _variables(a_rows + D, w[i * t : i * t + t],",
        "local = _variables(a_rows + D, w[:t],",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle-back-half-appends",
        _ORACLE,
        "(k, *picks) if prepend else (*picks, k)",
        "(*picks, k)",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle-back-window-from-the-wrong-half",
        _ORACLE,
        "prefix[h:n][::-1]",
        "suffix[h:n][::-1]",
        _ORACLE_TESTS,
    ),
)


def occurrences(mutant, root=ROOT):
    """How often the mutant's snippet occurs in its file."""
    with open(os.path.join(root, mutant.file), encoding="utf-8") as fh:
        return fh.read().count(mutant.snippet)


def _copy(workdir):
    tree = os.path.join(workdir, "tree")
    shutil.copytree(ROOT, tree, ignore=_IGNORED)
    return tree


def _pytest(tree, tests, timeout):
    """pytest's exit code for ``tests`` run in ``tree``, or None on timeout."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            argv, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def run(mutant):
    """The mutant's outcome: killed, survived, stale or timeout."""
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as workdir:
        tree = _copy(workdir)
        path = os.path.join(tree, mutant.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.snippet, mutant.replacement))
        code = _pytest(tree, mutant.tests, TIMEOUT)
    if code is None:
        return "timeout"
    return {0: "survived", 1: "killed"}.get(code, "stale")


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    if "-h" in names or "--help" in names:
        print(__doc__)
        return 0
    rows = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in rows]
    if unknown:
        print("unknown mutant: " + ", ".join(unknown), file=sys.stderr)
        return 2
    chosen = [rows[name] for name in names] if names else MUTANTS

    tests = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory() as workdir:
        code = _pytest(_copy(workdir), tests, TIMEOUT * 2)
    if code != 0:
        print(f"baseline: the named tests do not pass unmutated (pytest exit {code})")
        return 2

    failed = 0
    for mutant in chosen:
        outcome = run(mutant)
        line = f"{outcome:9} {mutant.name}"
        if mutant.equivalent:
            line += f" (equivalent: {mutant.equivalent})"
        if outcome != ("survived" if mutant.equivalent else "killed"):
            failed += 1
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
