"""Dense ``Fraction`` linear algebra: the oracle for the sparse readouts of
``elliptica.linalg``.

A vector is a tuple of ``Fraction``, a matrix a list of rows.  Everything
here is plain Gauss-Jordan elimination over ``Fraction``, independent of
the fraction-free sparse echelon form it checks.  ``sparse`` and ``dense``
convert between a dense vector and a ``linalg.SparseVector``.
"""
from fractions import Fraction

from elliptica.linalg import QMatrix

_ZERO = Fraction(0)


def sparse(v):
    """The dense vector v as a sparse one, in ascending index order."""
    return {i: Fraction(x) for i, x in enumerate(v) if x}


def dense(v, dim):
    """The sparse vector v as a dense one of length dim."""
    out = [_ZERO] * dim
    for i, x in v.items():
        out[i] = Fraction(x)
    return tuple(out)


def is_sparse(v):
    """Whether v is a sparse vector: nonzero Fractions, ascending indices."""
    return (isinstance(v, dict) and list(v) == sorted(v)
            and all(isinstance(x, Fraction) and x for x in v.values()))


def from_rows(rows):
    """The QMatrix with these dense rows."""
    ncols = len(rows[0]) if rows else 0
    return QMatrix(len(rows), ncols, {(r, c): v for r, row in enumerate(rows)
                                      for c, v in enumerate(row)})


def rref(rows, ncols):
    """Plain Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    rows = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rank(rows):
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def kernel(rows, ncols):
    """The basis of the kernel read off the reduced row echelon form: one
    vector per free column, in column order."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [_ZERO] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][free]
        basis.append(tuple(v))
    return basis


def solve(rows, ncols, rhs):
    """The solution with every free variable 0, or None if inconsistent."""
    reduced, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)],
                           ncols + 1)
    if ncols in pivots:
        return None
    x = [_ZERO] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i][ncols]
    return tuple(x)


def greedy(vectors, start=()):
    """Vectors that raise the rank of ``start`` plus those kept before them:
    the independent columns, and with the boundaries as ``start`` the
    quotient representatives."""
    kept, base = [], list(start)
    for v in vectors:
        if rank(base + kept + [v]) > rank(base + kept):
            kept.append(tuple(v))
    return kept


def express(accepted, v, dim):
    """The coefficients of v over the accepted vectors, or None."""
    cols = [[b[j] for b in accepted] for j in range(dim)]
    return solve(cols, len(accepted), v)


def apply(rows, v):
    """The product of the matrix with these rows and the vector v."""
    return tuple(sum((Fraction(a) * x for a, x in zip(row, v)), _ZERO)
                 for row in rows)
