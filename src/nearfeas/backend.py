"""Hot kernels: simplex pivoting, fraction-free elimination, exact dot products.

These loops dominate runtime.  They run as plain Python over Python ints
(``dot`` also sums exact rationals when its vector holds them).
"""

KERNEL_BACKEND = "pure"


def pivot_update(rows, pr, pc, dens, d):
    """Integer-preserving Gauss-Jordan pivot on rows[pr][pc], in place.

    Rows are lists of Python ints, row i over its own denominator
    ``dens[i]``: the determinant of the basis at the last pivot that changed
    that row (Edmonds 1967), while `d` is the determinant of the current
    basis.  A row's values as rationals are ``rows[i] / dens[i]``, so a row
    over a stale denominator still reads the current tableau, and
    ``rows[i] * d / dens[i]`` is integral: it is the row Edmonds' scheme
    would hold over `d`.

    The pivot row is first brought over `d` (``p * d // dens[pr]``) if it is
    stale, and its entry in column `pc` is the pivot, the new determinant.
    Rows with a zero in column `pc`, including any objective row the caller
    appended, do not change and keep their denominators.  Every other row
    becomes ``(a * piv - f * p) // dens[i]`` over ``dens[i] = piv``: that is
    the Edmonds update of the row brought over `d`, so by Cramer's rule each
    division is exact.  The pivot row stays as it is over `d`, now over the
    pivot.  Returns the pivot, the new determinant.
    """
    prow = rows[pr]
    dp = dens[pr]
    if dp != d:
        prow[:] = [p * d // dp if p else 0 for p in prow]
    piv = dens[pr] = prow[pc]
    if piv == d:
        # a row over d becomes (a * d - f * p) / d = a - f * p / d: it
        # changes only where p != 0 (f * p / d is exact since a and the
        # result are), and stays over d
        nz = [(j, p) for j, p in enumerate(prow) if p]
        for i in range(len(rows)):
            row = rows[i]
            f = row[pc]
            if f and i != pr:
                di = dens[i]
                if di == d:
                    for j, p in nz:
                        row[j] -= f * p // d
                else:
                    row[:] = [(a * piv - f * p) // di for a, p in zip(row, prow)]
                    dens[i] = piv
        return piv
    for i in range(len(rows)):
        row = rows[i]
        f = row[pc]
        if f and i != pr:
            di = dens[i]
            row[:] = [(a * piv - f * p) // di for a, p in zip(row, prow)]
            dens[i] = piv
    return piv


def bareiss_rank(m):
    """Rank of an integer matrix via fraction-free (Bareiss) elimination.

    `m` is a list of lists of Python ints and is consumed (mutated).
    Intermediate entries stay integral: each 2x2-determinant step divides
    exactly by the previous pivot.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    row = 0
    prev = 1
    for col in range(ncols):
        piv = -1
        for i in range(row, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        rr = m[row]
        p = rr[col]
        for i in range(row + 1, nrows):
            ri = m[i]
            f = ri[col]
            if f:
                for j in range(col + 1, ncols):
                    ri[j] = (p * ri[j] - f * rr[j]) // prev
                ri[col] = 0
            elif prev != 1 or p != 1:
                for j in range(col + 1, ncols):
                    ri[j] = (p * ri[j]) // prev
        prev = p
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def dot(row, x, zero):
    """Exact dot product of a sparse row, its nonzeros as (column, value)
    pairs (as in ``linalg.IntRows``), with the dense vector x."""
    acc = zero
    for j, a in row:
        v = x[j]
        if v:
            acc += a * v
    return acc
