"""Hot kernels: integer-preserving simplex pivots and exact dot products.

These loops dominate runtime.  They run as plain Python over Python ints
(``dot``, summing from the int 0, also sums exact rationals).
"""

import math

KERNEL_BACKEND = "pure"


def pivot_update(rows, pr, pc, dens, d):
    """Integer-preserving Gauss-Jordan pivot on rows[pr][pc], in place.

    Rows are lists of Python ints, row i over its own denominator
    ``dens[i]``: the determinant of the basis at the last pivot that rewrote
    that row in full (Edmonds 1967), while `d` is the determinant of the
    current basis.  A row's values as rationals are ``rows[i] / dens[i]``,
    and ``rows[i] * d / dens[i]`` is integral: it is the row Edmonds' scheme
    would hold over `d`.

    The pivot row is first brought over `d` (``p * d // dens[pr]``) if it is
    stale, and its entry in column `pc` is the pivot, the new determinant.
    With ``g`` the gcd of the pivot row, its values are ``(p // g) / h`` for
    ``h = piv // g``, their least denominator.  Rows with a zero in column
    `pc`, including any objective row the caller appended, do not change.  A
    row whose entry ``f`` in column `pc` is a multiple of ``h`` keeps its
    denominator and changes only where the pivot row is nonzero: it loses
    ``(f // h) * (p // g)``, which is ``f * p / piv`` exactly.  Every other
    row becomes ``(a * piv - f * p) // dens[i]`` over ``dens[i] = piv``: that
    is the Edmonds update of the row brought over `d`, so by Cramer's rule
    each division is exact.  The pivot row stays as it is over `d`, now over
    the pivot.  Returns the pivot, the new determinant.
    """
    prow = rows[pr]
    dp = dens[pr]
    if dp != d:
        prow[:] = [p * d // dp if p else 0 for p in prow]
    piv = dens[pr] = prow[pc]
    g = math.gcd(*prow)
    h = piv // g
    nz = [(j, p // g) for j, p in enumerate(prow) if p]
    for i, row in enumerate(rows):
        f = row[pc]
        if f and i != pr:
            if f % h:
                di = dens[i]
                row[:] = [(a * piv - f * p) // di for a, p in zip(row, prow)]
                dens[i] = piv
            else:
                q = f // h
                for j, p in nz:
                    row[j] -= q * p
    return piv


def dot(row, x):
    """Exact dot product of a sparse row, its nonzeros as (column, value)
    pairs (as in a ``linalg.Matrix``), with the dense vector x."""
    acc = 0
    for j, a in row:
        v = x[j]
        if v:
            acc += a * v
    return acc
