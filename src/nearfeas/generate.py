"""Seeded random instance generators.

Used by the CLI's gen subcommand and the acceptance suite.  Instances that a
guarantee is asserted against are feasible by construction: a random integer
point is drawn first and the right-hand sides are computed from it, so the
brute-force oracle always finds an optimum.
"""

from .instances import GeneralIP, NFoldConfigInstance, NFoldNonnegInstance
from .rationals import Rat


def _rat_entry(rng, max_abs):
    num = rng.randint(-max_abs, max_abs)
    if rng.random() < 0.3:
        return Rat(2 * num + rng.choice((-1, 1)), 2)
    return Rat(num)


def _nonneg_entry(rng, max_abs, allow_halves=True):
    num = rng.randint(0, max_abs)
    if allow_halves and num and rng.random() < 0.3:
        return Rat(2 * num - 1, 2)
    return Rat(num)


def gen_general(rng, m=2, n=6, delta_max=5, bound_max=3, box_cap=100_000, feasible=True):
    """Random GeneralIP; with feasible=True the rhs comes from a random point."""
    while True:
        H = [[_rat_entry(rng, delta_max) for _ in range(n)] for _ in range(m)]
        if any(any(v for v in row) for row in H):
            break
    l = []
    u = []
    box = 1
    for _ in range(n):
        lo = rng.randint(-bound_max, bound_max - 1)
        width = rng.randint(0, bound_max)
        while box * (width + 1) > box_cap and width:
            width -= 1
        hi = lo + width
        box *= width + 1
        l.append(lo)
        u.append(hi)
    w = [_rat_entry(rng, 3) for _ in range(n)]
    if feasible:
        x0 = [rng.randint(lo, hi) for lo, hi in zip(l, u)]
        b = [sum((row[j] * x0[j] for j in range(n)), Rat(0)) for row in H]
    else:
        b = [_rat_entry(rng, delta_max * 2) for _ in range(m)]
    return GeneralIP.build(H, b, w, l, u)


def gen_config(rng, n_blocks=4, s=2, t=2, kappa=2, max_configs=4, feasible=True):
    """Random NFoldConfigInstance with an oracle-feasible b0 by construction."""
    blocks = []
    choices = []
    for _ in range(n_blocks):
        D = [[_rat_entry(rng, 2) for _ in range(t)] for _ in range(s)]
        count = rng.randint(1, max_configs)
        configs = []
        for _ in range(count):
            configs.append(tuple(rng.randint(-kappa, kappa) for _ in range(t)))
        weights = [_rat_entry(rng, 3) for _ in range(t)]
        blocks.append((D, configs, weights))
        choices.append(rng.randrange(count))
    inst = NFoldConfigInstance.build(blocks, [0] * s)
    if not feasible:
        b0 = [_rat_entry(rng, 4) for _ in range(s)]
        return NFoldConfigInstance.build(blocks, b0)
    b0 = [Rat(0)] * s
    for blk, k in zip(inst.blocks, choices):
        contrib = blk.D.matvec(blk.configs[k])
        b0 = [a + c for a, c in zip(b0, contrib)]
    return NFoldConfigInstance.build(blocks, b0)


def gen_nonneg(rng, n_blocks=3, s_a=2, s_d=2, t=2, u_max=3, feasible=True, small_bias=0.0):
    """Random NFoldNonnegInstance, feasible by construction, nonnegative
    weights, and no all-zero local columns.

    small_bias is the per-block probability of shrinking one local column so
    the big/small split and the minor-variable machinery get exercised.
    """
    blocks = []
    points = []
    for _ in range(n_blocks):
        while True:
            A = [[_nonneg_entry(rng, 3) for _ in range(t)] for _ in range(s_a)]
            if all(any(A[h][j] for h in range(s_a)) for j in range(t)):
                break
        if small_bias and rng.random() < small_bias:
            j = rng.randrange(t)
            shrink = Rat(1, rng.randint(6, 16))
            for h in range(s_a):
                if A[h][j]:
                    A[h][j] = A[h][j] * shrink
        D = [[_nonneg_entry(rng, 3) for _ in range(t)] for _ in range(s_d)]
        u = [rng.randint(0, u_max) for _ in range(t)]
        w = [_nonneg_entry(rng, 3, allow_halves=False) for _ in range(t)]
        x0 = tuple(rng.randint(0, u[j]) for j in range(t))
        bi = [sum((A[h][j] * x0[j] for j in range(t)), Rat(0)) for h in range(s_a)]
        blocks.append((A, D, bi, u, w))
        points.append(x0)
    inst = NFoldNonnegInstance.build(blocks, [0] * s_d)
    b0 = [Rat(0)] * s_d
    for blk, x0 in zip(inst.blocks, points):
        contrib = blk.D.matvec(x0)
        b0 = [a + c for a, c in zip(b0, contrib)]
    if not feasible:
        b0 = [v + rng.randint(0, 3) for v in b0]
    return NFoldNonnegInstance.build(blocks, b0)


def gen_scheduling(rng, n_jobs=4, m_machines=2, with_costs=False):
    """Random unrelated-machines instance with a feasible makespan target:
    cmax is the max load of a random assignment."""
    p = [[rng.randint(1, 5) for _ in range(m_machines)] for _ in range(n_jobs)]
    loads = [0] * m_machines
    for i in range(n_jobs):
        h = rng.randrange(m_machines)
        loads[h] += p[i][h]
    cmax = max(max(loads), 1)
    data = {"format": 1, "kind": "scheduling", "jobs": p, "cmax": cmax}
    if with_costs:
        data["costs"] = [
            [rng.randint(0, 4) for _ in range(m_machines)] for _ in range(n_jobs)
        ]
    return data
