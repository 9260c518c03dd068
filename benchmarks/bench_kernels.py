#!/usr/bin/env python3
"""Benchmark the compiled kernels against their pure-Python twins.

Runs the hot loops (simplex pivoting, fraction-free rank, dot products) on
synthetic data of pipeline-typical shapes, then times a full solver run per
backend in a subprocess (backend choice is an import-time decision).

Usage: python benchmarks/bench_kernels.py [--pipeline]
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from nearfeas import _kernels_py  # noqa: E402

try:
    from nearfeas import _kernels_cy
except ImportError:
    _kernels_cy = None


def _tableau(rng, rows, cols):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
        for _ in range(rows)
    ]


def bench_pivots(mod, seed=1, rows=40, cols=90, pivots=60, reps=3):
    times = []
    for _ in range(reps):
        rng = random.Random(seed)
        t = _tableau(rng, rows, cols)
        start = time.perf_counter()
        for k in range(pivots):
            pr = k % rows
            pc = (3 * k) % cols
            if t[pr][pc] == 0:
                t[pr][pc] = Fraction(1)
            mod.pivot_update(t, pr, pc)
        times.append(time.perf_counter() - start)
    return min(times), t[0][0]


def bench_rank(mod, seed=2, size=60, reps=3):
    times = []
    out = None
    for _ in range(reps):
        rng = random.Random(seed)
        m = [[rng.randint(-50, 50) for _ in range(size)] for _ in range(size)]
        start = time.perf_counter()
        out = mod.bareiss_rank(m)
        times.append(time.perf_counter() - start)
    return min(times), out

def bench_dot(mod, seed=3, n=2000, reps=5):
    rng = random.Random(seed)
    a = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
    b = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
    times = []
    out = None
    for _ in range(reps):
        start = time.perf_counter()
        out = mod.dot(a, b, Fraction(0))
        times.append(time.perf_counter() - start)
    return min(times), out


def bench_pipeline(backend):
    """Wall time of a fixed solver workload under the given kernel backend."""
    code = (
        "import random, time\n"
        "from nearfeas.generate import gen_config\n"
        "from nearfeas.instances import ApproxParams\n"
        "from nearfeas.rationals import Rat\n"
        "from nearfeas.solver_config import solve_nfold_config\n"
        "import nearfeas\n"
        "rng = random.Random(12)\n"
        "start = time.perf_counter()\n"
        "for _ in range(12):\n"
        "    inst = gen_config(rng, n_blocks=6, s=2, t=2, kappa=2, max_configs=4)\n"
        "    solve_nfold_config(inst, ApproxParams.build(Rat(1, 5)))\n"
        "print(nearfeas.KERNEL_BACKEND, time.perf_counter() - start)\n"
    )
    # the subprocess imports the same source tree as this script
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, NEARFEAS_KERNELS=backend, PYTHONPATH=path)
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    if res.returncode != 0:
        raise RuntimeError(res.stderr)
    name, seconds = res.stdout.split()
    return name, float(seconds)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pipeline", action="store_true", help="also time a full solver workload"
    )
    args = parser.parse_args()

    if _kernels_cy is None:
        print("compiled extension not built; showing pure-Python numbers only")
    mods = [("pure", _kernels_py)] + ([("compiled", _kernels_cy)] if _kernels_cy else [])

    print(f"{'kernel':<12}{'backend':<10}{'best time':>12}")
    baselines = {}
    for bench, name in ((bench_pivots, "pivots"), (bench_rank, "rank"), (bench_dot, "dot")):
        results = {}
        for label, mod in mods:
            t, out = bench(mod)
            results[label] = (t, out)
            speedup = ""
            if label == "compiled":
                speedup = f"  ({results['pure'][0] / t:.2f}x vs pure)"
            print(f"{name:<12}{label:<10}{t * 1000:>10.2f}ms{speedup}")
        if len(results) == 2 and results["pure"][1] != results["compiled"][1]:
            raise AssertionError(f"{name}: backends disagree")

    if args.pipeline:
        print()
        print(f"{'pipeline':<12}{'backend':<10}{'wall time':>12}")
        pure_t = None
        for label in [m[0] for m in mods]:
            name, seconds = bench_pipeline(label)
            assert name == label
            speedup = ""
            if label == "compiled" and pure_t:
                speedup = f"  ({pure_t / seconds:.2f}x vs pure)"
            if label == "pure":
                pure_t = seconds
            print(f"{'config':<12}{label:<10}{seconds:>10.2f}s {speedup}")


if __name__ == "__main__":
    main()
