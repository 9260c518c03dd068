"""Hot kernels: simplex pivoting, fraction-free elimination, exact dot products.

These loops dominate runtime.  They run as plain Python over exact scalars.
"""

KERNEL_BACKEND = "pure"


def pivot_update(rows, pr, pc):
    """Gauss-Jordan pivot on rows[pr][pc], in place, over exact scalars.

    Every row in `rows` participates, including any objective row the caller
    appended.  Rows are plain lists; entries are exact rationals.
    """
    prow = rows[pr]
    n = len(prow)
    piv = prow[pc]
    if piv != 1:
        for j in range(n):
            if prow[j]:
                prow[j] = prow[j] / piv
    for i in range(len(rows)):
        if i == pr:
            continue
        row = rows[i]
        f = row[pc]
        if f:
            for j in range(n):
                pj = prow[j]
                if pj:
                    row[j] = row[j] - f * pj
    prow[pc] = piv / piv  # exact 1 in the scalar's own type


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
