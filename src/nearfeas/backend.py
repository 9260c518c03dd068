"""Hot kernels: simplex pivoting, fraction-free elimination, exact dot products.

These loops dominate runtime.  They run as plain Python: the pivot and rank
kernels over Python ints, ``dot`` over exact rationals.
"""

KERNEL_BACKEND = "pure"


def pivot_update(rows, pr, pc, d):
    """Integer-preserving Gauss-Jordan pivot on rows[pr][pc], in place.

    Rows are lists of Python ints over the common denominator `d`, the
    determinant of the current basis (Edmonds 1967).  Every other row,
    including any objective row the caller appended, becomes
    ``(a * piv - f * p) // d``; by Cramer's rule each division is exact.  The
    pivot row is left unchanged.  Returns the pivot, the new common
    denominator.
    """
    prow = rows[pr]
    piv = prow[pc]
    if piv == d:
        # (a * d - f * p) / d = a - f * p / d: only rows with f != 0 change,
        # and only where p != 0 (f * p / d is exact since a and the result are)
        nz = [(j, p) for j, p in enumerate(prow) if p]
        for i in range(len(rows)):
            row = rows[i]
            f = row[pc]
            if f and i != pr:
                for j, p in nz:
                    row[j] -= f * p // d
        return piv
    for i in range(len(rows)):
        if i == pr:
            continue
        row = rows[i]
        f = row[pc]
        if f:
            row[:] = [(a * piv - f * p) // d for a, p in zip(row, prow)]
        else:
            row[:] = [a * piv // d if a else 0 for a in row]
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


def dot(a, b, zero):
    """Exact dot product of two equal-length sequences."""
    acc = zero
    for i in range(len(a)):
        ai = a[i]
        if ai:
            bi = b[i]
            if bi:
                acc = acc + ai * bi
    return acc
