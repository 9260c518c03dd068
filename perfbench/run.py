#!/usr/bin/env python3
"""Solve benchmark: ``nearfeas solve`` latency and throughput, end to end.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--catalog C]

Run it from the root of a checkout; the program is imported from ``src``.

Load model: a closed loop with one caller, one process and one thread.  Each
call is ``nearfeas.cli.main(["solve", ...])`` in process, on instance files
written during set-up; the program sees only those files.  The loop solves
the whole catalog, in the order ``--seed`` sets, pass after pass, for the
whole number of passes that ends nearest to ``--seconds``, so every run
measures the same instance mix.

Workloads (each a frozen catalog):

- ``general-few-rows``: 60 ``gen_general`` instances, m in [1, 3],
  n in [2, 12], ``box_cap`` 30 000, epsilon cycling 1, 1/2, 1/5; every fifth
  is also solved with ``--delta 1 --refine-limit 16 --epsilon 1/5``.  Many
  small LPs (per pass of 72 calls: 850 LPs of 12.7 pivots, 10 nodes per
  mixed solve), and refinement and group rounding run.  A change that only
  helps large tableaux shows its cost here.
- ``config-deep``: 10 ``gen_config`` instances with 4 to 8 blocks, s = t = 2,
  epsilon 1/5, plus 2 ``gen_scheduling`` instances with 5 jobs on 2
  machines.  Few large LPs in deep trees (per pass: 410 LPs of 52 pivots,
  33 nodes per solve), 82% of the time in ``pivot_update``; the scheduling
  reduction adds wide LPs (each slack block has cmax + 1 configurations).
  Simplex and branch-and-bound changes must show here.
- ``desk-cli``: 120 tiny instances, cycling general (m <= 2, n <= 6),
  nfold-config (<= 4 blocks) and nonnegative n-fold (<= 4 blocks,
  ``small_bias`` 0.5, so both case 1 and case 2 run), solved with
  ``--oracle-check``.  Fixed-cost layers (parse, validation, enumeration,
  model build, rounding, verify, oracle, report) weigh more here than
  elsewhere, though kernel plus simplex still take 91% of its solve time
  (99% on config-deep): its small nfold-config instances are LP-bound.  So
  it is not the bypass workload for LP changes it was meant to be: an LP
  change moves it too, by less.
  No workload reaches ``tu_round``: no fractional selection survives.

Why frozen catalogs: the cost of exact branch-and-bound on a random instance
is heavy-tailed (log standard deviation 1.8 on general-few-rows, single
config-deep instances of 30 s), so drawing fresh instances per seed gave a
run-to-run quartile spread of 0.15 to 0.35 even at 800 instances per run
(simulated from measured per-instance times).
The catalog is generated from ``--catalog`` (default 1); ``--seed`` sets the
order of the calls within every pass.  A later claim must also hold on the
second catalog, ``--catalog 2``.

Times are at nominal host speed: on a shared two-core virtual machine the
same work ran up to 35% slower from one run to the next, so every measured
interval is scaled by a calibration kernel timed alongside it (see
``calibration.py``); the wall time is printed next to the result.

End-to-end metrics (``--trace 0``), over the timed loop only:

- ``solve_ms_p50`` (ms): median time of one solve call; the number of
  calls and passes is printed with it.
- ``solve_ms_tail`` (ms): a fixed percentile per workload, the highest with
  at least ten distinct calls of the catalog beyond it: p86 on
  general-few-rows (72 calls per pass), p91 on desk-cli (120).
  config-deep has only 12 calls per pass, so it reports p75 (3 beyond).
  The number of samples beyond it is printed.
- ``solves_per_s`` (1/s): certified solves per second of solve time.
- ``certified_ratio`` (ratio): share of attempted solves that exited 0
  with status ok and passed every check below; 1 - failed_ratio, kept
  non-zero so that its regressions are measurable.
- ``setup_s`` (s): the median of five fresh imports of the program, plus
  the median of at least three set-ups (and at least 2 s of them), each
  generating the catalog, writing its files and computing the brute-force
  optimum of every instance.
- ``peak_rss_mb`` (MB): peak resident memory of the benchmark process.

Correctness gate, outside the timed region, for every call: exit 0 and
status ok; the residual recomputed from the report's ``x`` with
``instances.violation_report`` within a bound recomputed from the instance
and equal to the reported one; objective equal to w.x and at most the
brute-force optimum; nfold-config selections members of their
configuration sets.  Every repeat of a call must be byte-identical to its
first report (with ``--trace 1``, traced and untraced ones alike).  Every
miss counts as failed.

Per-layer metrics (``--trace 1``): the traced passes are replayed untraced
to measure the trace's own cost; every count and time is per pass, so
counts repeat exactly for one seed.  Times are self times (span minus the
traced layers it called).  Layer -> end-to-end metric it should move:

- ``kernel.pivot_update.{calls,self_s,cells,ns_per_cell}``,
  ``kernel.dot.{calls,self_s}`` -> ``solves_per_s`` and ``solve_ms_tail``
  on config-deep.  ``ns_per_cell`` is the in-situ kernel microbenchmark;
  ``bareiss_rank`` is on no solve path and has no metric.
- ``simplex.{lps,pivots,pivots_per_lp,self_s,tableau_cells_mean,
  infeasible_ratio}`` -> the same on config-deep, and ``solve_ms_p50`` on
  general-few-rows.
- ``branch_bound.{solves,nodes,nodes_per_solve,pivots_per_node,self_s}``
  (``self_s`` is ``solve_mip``'s own time: rebuilding each node's model
  and choosing the branch) -> ``solves_per_s`` on config-deep.
- ``solver_general.{attempts,accept_ratio,build_mip1_s,restrict_lp2_s}``,
  ``solver_config.{attempts,accept_ratio,build_mip4_s,fix_counts_lp_s}``,
  ``solver_nfold.{attempts,build_mip6_s,enumerate_configs_s,configs}``,
  ``boxes.{partition_s,groups}``, ``rounding.{greedy_s,tu_round_s,
  tu_vars}``, ``instances.{parse_s,verify_s}``, ``oracle.brute_force_s``,
  ``apps.scheduling_to_config_s``, ``cli.self_s`` -> ``solve_ms_p50`` on
  desk-cli; ``oracle.brute_force_s`` also shows what ``setup_s`` pays on
  the other two workloads.
- ``trace.kernel_simplex_share``: kernel plus simplex self time over traced
  solve time; ``trace.overhead_ratio``: traced over untraced time of the
  same solves (untraced over traced ``solves_per_s``).

A ratio whose base is 0 reads 0 (the count beside it shows the base is 0);
a metric whose hook target no longer exists reads null and is named on
stderr.  Each result is printed with the kernel and scalar backends, the
Python version, ``nproc``, the git commit when there is one and a digest of
the program's source.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

from calibration import HostClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The highest percentile with at least ten distinct calls beyond it (repeats
# of one call are not independent samples); config-deep has only 12 calls.
TAIL_PCT = {"general-few-rows": 86, "config-deep": 75, "desk-cli": 91}
IMPORT_REPEATS = 5
SETUP_REPEATS = 3  # and at least SETUP_SECONDS of set-ups
SETUP_SECONDS = 2.0


def _percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "nearfeas")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _environment():
    import nearfeas

    return {
        "kernel_backend": nearfeas.KERNEL_BACKEND,
        "rat_backend": nearfeas.RAT_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _passes(calls, cli, seconds=None, passes=None):
    """Solve the catalog pass after pass: the whole number of passes whose
    end comes nearest to `seconds` (at least one), or exactly `passes`.
    Returns the per-call records (call index, start, end, exit code, stdout,
    stderr) and the number of passes."""
    records = []
    clock = time.perf_counter
    start = clock()
    done = 0
    while True:
        for k, call in enumerate(calls):
            out = io.StringIO()
            err = io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(call.argv))
                except Exception as exc:  # a crash counts as a failed solve
                    code = f"{type(exc).__name__}: {exc}"
            records.append((k, t, clock(), code, out.getvalue(), err.getvalue()))
        done += 1
        if passes is not None and done >= passes:
            break
        elapsed = clock() - start
        if seconds is not None and elapsed + elapsed / (2 * done) >= seconds:
            break
    return records, done


def _gate(calls, records, certify):
    """Failed record count and the first failure reasons."""
    first = {}
    verdict = {}
    failed = 0
    reasons = []
    for k, _, _, code, text, err in records:
        if k not in first:
            first[k] = text
            try:
                verdict[k] = certify(calls[k], code, text)
            except (ValueError, KeyError, TypeError) as exc:
                verdict[k] = f"unreadable report: {exc!r}"
            if verdict[k] is not None and err:
                verdict[k] += f" ({err.strip()})"
            reason = verdict[k]
        elif text != first[k]:
            reason = "report differs from the first solve of this call"
        else:
            reason = verdict[k]
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{' '.join(calls[k].argv[1:])}: {reason}")
    return failed, reasons


def _import_program(host):
    """Import the program afresh IMPORT_REPEATS times; returns the `cli`
    module and the median import time at nominal host speed."""
    sys.path.insert(0, SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "nearfeas" or m.startswith("nearfeas.")]:
            del sys.modules[name]
        t = time.perf_counter()
        cli = importlib.import_module("nearfeas.cli")
        times.append(host.nominal(t, time.perf_counter()))
    return cli, statistics.median(times)


def _measure(args, host):
    """Set up, run the timed loop and check it.  Returns (attempted, failed,
    failure reasons, metrics), or None when the program cannot be imported."""
    try:
        cli, import_s = _import_program(host)
        from checks import certify
        from spans import Tracer, layer_metrics
        from workloads import build
    except ImportError as exc:
        sys.stderr.write(f"cannot import the program from {SRC}: {exc}\n")
        return None
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"nearfeas was imported from {cli.__file__}, not {SRC}\n")
        return None

    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            t = time.perf_counter()
            calls = build(args.workload, args.catalog, workdir)
            setups.append(host.nominal(t, time.perf_counter()))
        random.Random(args.seed).shuffle(calls)
        gc.collect()
        gc.freeze()  # the catalog's ground truth is not the program's heap

        print(f"workload {args.workload}  seed {args.seed}  catalog {args.catalog}  "
              f"calls per pass {len(calls)}  trace {args.trace}")
        print("env " + json.dumps(_environment(), sort_keys=True))

        if args.trace:
            t = time.perf_counter()
            with Tracer(host.work_time) as tracer:
                records, passes = _passes(calls, cli, seconds=args.seconds)
            scale = host.factor(t, time.perf_counter())
            replay, _ = _passes(calls, cli, passes=passes)
            traced_s = sum(host.nominal(r[1], r[2]) for r in records)
            untraced_s = sum(host.nominal(r[1], r[2]) for r in replay)
            failed, reasons = _gate(calls, records + replay, certify)
            metrics = layer_metrics(tracer, passes, scale, traced_s, untraced_s)
            if tracer.missing:
                sys.stderr.write("trace: missing hooks " + ", ".join(tracer.missing) + "\n")
            print(f"{passes} passes traced, then replayed untraced: {traced_s:.3f} s and "
                  f"{untraced_s:.3f} s at nominal host speed")
            return len(records) + len(replay), failed, reasons, metrics

        records, passes = _passes(calls, cli, seconds=args.seconds)
        failed, reasons = _gate(calls, records, certify)
        attempted = len(records)
        times = [host.nominal(r[1], r[2]) for r in records]
        wall = sum(r[2] - r[1] for r in records)
        pct = TAIL_PCT[args.workload]
        tail = _percentile(times, pct)
        print(f"{attempted} solves in {passes} passes: {wall:.3f} s wall, {sum(times):.3f} s "
              f"at nominal host speed; tail is p{pct} with "
              f"{sum(1 for v in times if v > tail)} samples beyond it; set-up {len(setups)} times")
        return attempted, failed, reasons, {
            "solve_ms_p50": (1000 * statistics.median(times), "ms"),
            "solve_ms_tail": (1000 * tail, "ms"),
            "solves_per_s": ((attempted - failed) / sum(times), "1/s"),
            "certified_ratio": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def main(argv=None):
    parser = argparse.ArgumentParser(description="nearfeas solve benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["general-few-rows", "config-deep", "desk-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--catalog", type=int, default=1)
    args = parser.parse_args(argv)

    with HostClock() as host:
        measured = _measure(args, host)
    if measured is None:
        return 2
    attempted, failed, reasons, metrics = measured

    for reason in reasons:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        shown = "null (missing hook)" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
