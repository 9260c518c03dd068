"""Reference checks on the structure of an optimal vertex.

The rounding stages rest on three facts about the mixed optimum they round:
few of its entries are fractional (at most 2m grouped entries, at most
s(2 tau + 1) selections), the columns strictly inside their bounds are
linearly independent, and each type's assignment submatrix over its
fractional selections has rank at most 2 tau.  The functions here check
them the naive way, by Gaussian elimination over ``Fraction``.  They use the
standard library only, so they share no code with the solver; an LP or a
model is read through its attributes alone.
"""

from fractions import Fraction


def rank(rows):
    """Rank of a list of equally long rational rows, by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def nonintegral_support(values):
    """Indices of the entries of ``values`` that are not integers."""
    return frozenset(j for j, v in enumerate(values) if Fraction(v).denominator != 1)


def strictly_between_independent(lp, values, cols):
    """True iff the columns among ``cols`` whose value is strictly inside its
    bounds are linearly independent over all rows of ``lp``."""
    between = [j for j in cols if lp.lower[j] < values[j] < lp.upper[j]]
    rows = []
    for nz, s in zip(lp.matrix.nonzeros, lp.matrix.scales):
        row = dict(nz)
        rows.append([Fraction(row.get(j, 0), s) for j in between])
    return rank(rows) == len(between)


def type_submatrices(model, values):
    """Per type of a block model (``model.config_part.type_groups``) with a
    fractional selection in ``values``: the dense rows of its assignment
    constraints, one per member block and one per column, restricted to the
    type's fractional selection entries."""
    support = nonintegral_support(values)
    out = []
    for members in model.config_part.type_groups.values():
        frac = [(i, phi) for i in members for phi, j in enumerate(model.z[i]) if j in support]
        if frac:
            width = len(model.z[members[0]])
            rows = [[int(i == k) for k, _ in frac] for i in members]
            rows += [[int(phi == p) for _, p in frac] for phi in range(width)]
            out.append(rows)
    return out
