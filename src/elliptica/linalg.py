"""Exact rational linear algebra.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator, no rounding anywhere).  A matrix is an integer matrix over one
positive denominator, ``den``: its sparse integer entries, stored by
(row, col) so the layouts produced from canonical bases are
bit-reproducible, divided by ``den``.  Entries and ``den`` are kept in
lowest terms, so two equal matrices have equal entries and denominators.
The differentials are assembled in this form, and products of matrices
multiply integers.  A vector is dense, a tuple of ``Fraction`` (a solution,
a coordinate vector of the public readouts), or sparse, a dict from index
to nonzero ``Fraction`` in ascending index order (``SparseVector``).  The
(co)homology of a graded complex runs on sparse vectors from the echelon
form to its representatives, so its cost follows the nonzero entries, not
the dimension of the degree; ``Span``, ``quotient_vectors``,
``QMatrix.from_columns`` and ``QMatrix.apply`` take either kind.

All elimination runs on one routine, ``_Echelon``: sparse integer rows,
reduced fraction-free by their leading column and kept primitive.  A
matrix's rows enter it as they are stored (the common denominator does not
change a row's span), and so do its columns in ``independent_columns``,
which gives the boundaries; a rational vector has its denominators cleared
once on entry.  ``rank``, ``kernel_basis``, ``solve``, ``Span``,
``independent_columns`` and ``quotient_representatives`` are thin readouts
of it; results go back to ``Fraction`` only on the way out, and
``independent_columns`` converts only the columns it keeps.
``kernel_vectors``, ``independent_column_vectors`` and ``quotient_vectors``
give sparse vectors; ``kernel_basis``, ``independent_columns`` and
``quotient_representatives`` are their dense forms.  Each readout
is a canonical object of exact linear algebra (the reduced row echelon
form, the greedy independent subset in input order, coordinates over
independent vectors), so it does not depend on how the elimination got
there.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import NotASubspace

Vector = tuple[Fraction, ...]
SparseVector = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vector_items(v) -> Iterable[tuple[int, Fraction]]:
    """The (index, coefficient) pairs of a dense or sparse vector; a dense
    vector's zeros included."""
    return v.items() if isinstance(v, dict) else enumerate(v)


def dense(v: SparseVector, dim: int) -> Vector:
    """The sparse vector v as a dense vector of length dim."""
    out = [_ZERO] * dim
    for i, x in v.items():
        out[i] = x
    return tuple(out)


class QMatrix:
    """Immutable sparse matrix over Q with fixed dimensions: the integer
    ``entries`` over the positive denominator ``den``, in lowest terms (the
    gcd of ``den`` and every entry is 1)."""

    __slots__ = ("rows", "cols", "entries", "den")

    def __init__(self, rows: int, cols: int, entries=None, den: int = 1):
        """The matrix with entry ``entries[(r, c)] / den`` at (r, c).  The
        entries may be any rationals; they are brought to integers over one
        denominator once, here."""
        self.rows = rows
        self.cols = cols
        clean = {}
        l = 1
        for (r, c), v in (entries or {}).items():
            if v:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
                if v.__class__ is not int:
                    v = Fraction(v)
                    if v.denominator == 1:
                        v = v.numerator
                    else:
                        l = lcm(l, v.denominator)
                clean[(r, c)] = v
        if l != 1:
            clean = {k: int(v * l) for k, v in clean.items()}
            den *= l
        if den != 1:
            g = gcd(den, *clean.values())
            if g != 1:
                clean = {k: v // g for k, v in clean.items()}
                den //= g
        self.entries = clean
        self.den = den

    @classmethod
    def from_rows(cls, rowdata: Sequence[Sequence]) -> "QMatrix":
        rows = len(rowdata)
        cols = len(rowdata[0]) if rows else 0
        return cls(rows, cols, {(r, c): v for r, row in enumerate(rowdata)
                                for c, v in enumerate(row)})

    @classmethod
    def from_columns(cls, columns: Sequence, nrows: int) -> "QMatrix":
        """The matrix of the dense or sparse column vectors."""
        return cls(nrows, len(columns), {(r, c): v
                                         for c, col in enumerate(columns)
                                         for r, v in vector_items(col)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def column(self, c: int) -> Vector:
        e, den = self.entries, self.den
        return tuple(Fraction(e[(r, c)], den) if (r, c) in e else _ZERO
                     for r in range(self.rows))

    def columns(self) -> list[Vector]:
        return [self.column(c) for c in range(self.cols)]

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        by_row: dict[int, dict[int, int]] = {}
        for (r, k), v in self.entries.items():
            by_row.setdefault(r, {})[k] = v
        by_k: dict[int, dict[int, int]] = {}
        for (k, c), v in other.entries.items():
            by_k.setdefault(k, {})[c] = v
        ent: dict[tuple[int, int], int] = {}
        for r, krow in by_row.items():
            acc: dict[int, int] = {}
            for k, v in krow.items():
                for c, w in by_k.get(k, {}).items():
                    acc[c] = acc.get(c, 0) + v * w
            for c, x in acc.items():
                if x:
                    ent[(r, c)] = x
        return QMatrix(self.rows, other.cols, ent, self.den * other.den)

    def apply(self, v) -> Vector:
        """m.v as a dense vector; v dense or sparse."""
        if not isinstance(v, dict):
            v = dict(enumerate(v))
        out = [_ZERO] * self.rows
        for (r, c), a in self.entries.items():
            x = v.get(c)
            if x:
                out[r] += a * x
        if self.den != 1:
            return tuple(x / self.den for x in out)
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.entries == other.entries)

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


Row = dict[int, int]   # sparse integer row: column -> nonzero entry


def _int_row(v) -> tuple[Row, int]:
    """(row, l): the sparse integer row l * v of the dense or sparse
    rational vector v, l the least common denominator."""
    ent = [(c, x) for c, x in vector_items(v) if x]
    l = lcm(*(x.denominator for _, x in ent))
    return {c: x.numerator * (l // x.denominator) for c, x in ent}, l


def _clear(row: Row, piv: Row, c: int) -> int:
    """Replace ``row``, in place, by a * row - f * piv, the smallest integer
    combination without column c (both rows nonzero there); returns a."""
    a, f = piv[c], row[c]
    g = gcd(a, f)
    a //= g
    f //= g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in piv.items():
        w = row.get(k, 0) - f * v
        if w:
            row[k] = w
        else:
            del row[k]
    return a


def _primitive(row: Row) -> Row:
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g != 1 else row


class _Echelon:
    """Sparse integer row echelon form, grown one row at a time.

    Every stored row is primitive and vanishes left of its pivot, its
    smallest column; no two rows share a pivot.  Columns >= ``limit`` are
    riders: they take part in every row operation but never become pivots
    (``Span`` keeps its coordinate bookkeeping there).
    """

    __slots__ = ("rows", "limit")

    def __init__(self, limit: float = float("inf")):
        self.rows: dict[int, Row] = {}     # pivot column -> row
        self.limit = limit

    def reduce(self, row: Row, scale: int = 1) -> tuple[Row, int, int | None]:
        """(row', scale', lead): row' = scale'/scale * row minus a combination
        of stored rows, reduced until its smallest column ``lead`` is no
        pivot; ``lead`` is None when no column below ``limit`` is left.
        The argument is not modified."""
        rows = self.rows
        row = dict(row)
        while row:
            c = min(row)
            if c >= self.limit:
                break
            piv = rows.get(c)
            if piv is None:
                return row, scale, c
            scale *= _clear(row, piv, c)
        return row, scale, None

    def add(self, row: Row) -> bool:
        """Insert what is left of ``row`` after reduction; False if nothing
        below ``limit`` is left, i.e. the row is in the span already."""
        row, _, lead = self.reduce(row)
        if lead is None:
            return False
        self.rows[lead] = _primitive(row)
        return True

    def reduced(self) -> list[tuple[int, Row]]:
        """(pivot, row) in ascending pivot order, every row cleared at every
        other pivot column: the reduced row echelon form, up to row scale."""
        done: dict[int, Row] = {}
        for p in sorted(self.rows, reverse=True):
            row = dict(self.rows[p])
            for q in [k for k in row if k in done]:
                _clear(row, done[q], q)
            done[p] = _primitive(row)
        return sorted(done.items())


def _echelon_of_rows(m: QMatrix) -> _Echelon:
    """The echelon form of m's integer rows, which span what m's rows do."""
    by_row: dict[int, Row] = {}
    for (r, c), v in m.entries.items():
        by_row.setdefault(r, {})[c] = v
    ech = _Echelon()
    for r in sorted(by_row):
        ech.add(by_row[r])
    return ech


def rank(m: QMatrix) -> int:
    """Rank over Q."""
    return len(_echelon_of_rows(m).rows)


def kernel_vectors(m: QMatrix) -> list[SparseVector]:
    """Basis of ker(m), sparse; len == cols - rank, vectors satisfy m.v = 0.

    One vector per non-pivot column ``f`` of the reduced row echelon form R,
    in column order: -R[i][f] at the pivot of each row i, all left of
    ``f``, and 1 at ``f``."""
    rref = _echelon_of_rows(m).reduced()
    pivots = {p for p, _ in rref}
    basis = {f: {} for f in range(m.cols) if f not in pivots}
    for p, row in rref:
        a = row[p]
        for f, v in row.items():
            if f != p:
                basis[f][p] = Fraction(-v, a)
    for f, v in basis.items():
        v[f] = _ONE
    return list(basis.values())


def kernel_basis(m: QMatrix) -> list[Vector]:
    """``kernel_vectors`` as dense vectors."""
    return [dense(v, m.cols) for v in kernel_vectors(m)]


def solve(m: QMatrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of m.x = rhs, or None if inconsistent: the free
    variables are 0 and each pivot variable reads off the reduced row
    echelon form of [m | rhs], i.e. of [den * m | den * rhs]."""
    n = m.cols
    ech = _echelon_of_rows(QMatrix(m.rows, n + 1, {
        **m.entries, **{(r, n): m.den * rhs[r] for r in range(m.rows)}}))
    if n in ech.rows:  # a row [0 ... 0 | b], b != 0
        return None
    x = [_ZERO] * n
    for p, row in ech.reduced():
        if n in row:
            x[p] = Fraction(row[n], row[p])
    return tuple(x)


class Span:
    """Incremental span of vectors, with coordinate tracking.

    ``add`` accepts a dense or sparse vector and reports whether it
    enlarged the span; the accepted vectors form the span's basis.  ``express`` writes a vector as
    a combination of the accepted basis vectors (None if outside the span).

    The j-th accepted vector b_j enters the elimination as the row
    (b_j | e_j), its coordinates riding in column ``dim + j``; every stored
    row (x | y) then satisfies x = sum_j y_j b_j.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._echelon = _Echelon(limit=dim)
        self.basis_count = 0

    def add(self, v) -> bool:
        row, l = _int_row(v)
        row[self.dim + self.basis_count] = l
        if not self._echelon.add(row):
            return False
        self.basis_count += 1
        return True

    def contains(self, v) -> bool:
        row, _, lead = self._echelon.reduce(_int_row(v)[0])
        return lead is None

    def express(self, v) -> Vector | None:
        """Coefficients over the accepted basis, or None if v is outside."""
        row, l = _int_row(v)
        # s * v - (stored rows) = (0 | y), so v = sum_j (-y_j / s) b_j
        row, s, lead = self._echelon.reduce(row, l)
        if lead is not None:
            return None
        coeffs = [_ZERO] * self.basis_count
        for c, y in row.items():
            coeffs[c - self.dim] = Fraction(-y, s)
        return tuple(coeffs)

    @property
    def rank(self) -> int:
        return self.basis_count


def independent_column_vectors(m: QMatrix) -> list[SparseVector]:
    """The greedy maximal independent subset of m's columns, in column
    order (deterministic), sparse.  The stored integer columns enter the
    elimination as they are; only the kept ones become Fraction vectors."""
    by_col: dict[int, Row] = {}
    for (r, c), v in m.entries.items():
        by_col.setdefault(c, {})[r] = v
    ech = _Echelon()
    return [{r: Fraction(v, m.den) for r, v in sorted(by_col[c].items())}
            for c in sorted(by_col) if ech.add(by_col[c])]


def independent_columns(m: QMatrix) -> list[Vector]:
    """``independent_column_vectors`` as dense vectors."""
    return [dense(v, m.rows) for v in independent_column_vectors(m)]


def quotient_vectors(cycles: Sequence, boundaries: Sequence) -> list:
    """The cycles complementing span(boundaries) inside span(cycles): the
    greedy subset, in order and as given, of dense or sparse vectors."""
    rows = [_int_row(z)[0] for z in cycles]
    cycle_span = _Echelon()
    for row in rows:
        cycle_span.add(row)
    span = _Echelon()
    for b in boundaries:
        row = _int_row(b)[0]
        if cycle_span.reduce(row)[2] is not None:
            raise NotASubspace("boundary vector outside span of cycles")
        span.add(row)
    return [z for z, row in zip(cycles, rows) if span.add(row)]


def quotient_representatives(cycles: Sequence[Sequence[Fraction]],
                             boundaries: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """``quotient_vectors`` of dense vectors, as tuples."""
    return [tuple(z) for z in quotient_vectors(cycles, boundaries)]
