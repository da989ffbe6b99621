"""Exact rational linear algebra.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator, no rounding anywhere).  A matrix is an integer matrix over one
positive denominator, ``den``: its sparse integer entries, stored by
(row, col) so the layouts produced from canonical bases are
bit-reproducible, divided by ``den``.  Entries and ``den`` are kept in
lowest terms, so two equal matrices have equal entries and denominators.
The differentials are assembled in this form, and products of matrices
multiply integers.  A vector is sparse, a dict from index to nonzero
``Fraction`` (``SparseVector``), in and out of every function here; the
readouts give theirs in ascending index order.  So the cost of the
(co)homology, from the echelon form to the representatives and the class
coordinates, follows the nonzero entries, not the dimension of a degree.

All elimination runs on one routine, ``_Echelon``: sparse integer rows,
reduced fraction-free by their leading column and kept primitive.  A
matrix's rows enter it as they are stored (the common denominator does not
change a row's span), and so do its columns when they are a ``Span``'s
untracked base; a rational vector has its denominators cleared once on
entry.  ``rank``, ``kernel_basis``, ``solve`` and ``Span`` are thin
readouts of it; results go back to ``Fraction`` only on the way out.
``relations`` (a kernel) and ``complement`` read integer rows and columns
and return integers.  Each readout is a canonical object of exact linear
algebra (the reduced row echelon form, the greedy independent subset in
input order, coordinates over independent vectors), so it does not depend
on how the elimination got there.  A (co)homology degree is read off one
elimination per matrix: ``rank`` hands its echelon form on to
``kernel_basis``, and one ``Span`` takes the columns of d into the degree,
untracked, then the cycles; it accepts the representatives, and
``express`` gives class coordinates over them.

A zero map costs nothing: a matrix with no entries is answered from its
shape by ``rank`` (0), ``kernel_basis`` (the unit vectors) and ``solve``
(0 for a zero right-hand side, else None), and a product with such a
factor is the zero matrix of its shape; no ``_Echelon`` is built and no
entry is visited.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

SparseVector = dict[int, Fraction]

_ONE = Fraction(1)


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
        if not entries:
            self.entries, self.den = {}, 1
            return
        clean = {}
        l = 1
        for (r, c), v in entries.items():
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
    def from_columns(cls, columns: Sequence[SparseVector],
                     nrows: int) -> "QMatrix":
        """The matrix of the column vectors."""
        return cls(nrows, len(columns), {(r, c): v
                                         for c, col in enumerate(columns)
                                         for r, v in col.items()})

    def columns(self) -> list[SparseVector]:
        """The column vectors, in column order."""
        cols = [{} for _ in range(self.cols)]
        for (r, c), v in sorted(self.entries.items()):
            cols[c][r] = Fraction(v, self.den)
        return cols

    def matmul(self, other: "QMatrix") -> "QMatrix":
        """The product; the zero matrix of its shape, read from the shapes
        alone, when either factor has no entries."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        if not (self.entries and other.entries):
            return QMatrix(self.rows, other.cols)
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

    def apply(self, v: SparseVector) -> SparseVector:
        """m.v, summed in integers over the one denominator."""
        row, l = _int_row(v)
        acc: dict[int, int] = {}
        for (r, c), a in self.entries.items():
            x = row.get(c)
            if x:
                acc[r] = acc.get(r, 0) + a * x
        den = l * self.den
        return {r: Fraction(x, den) for r, x in sorted(acc.items()) if x}

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.entries == other.entries)

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


Row = dict[int, int]   # sparse integer row: column -> nonzero entry


def _int_row(v: SparseVector) -> tuple[Row, int]:
    """(row, l): the sparse integer row l * v, l the least common
    denominator of v."""
    l = lcm(*(x.denominator for x in v.values()))
    return {c: x.numerator * (l // x.denominator) for c, x in v.items()
            if x}, l


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


def _echelon_of_rows(m: QMatrix, ech: _Echelon | None = None) -> _Echelon:
    """The echelon form of m's integer rows, which span what m's rows do,
    built in ``ech`` when given."""
    by_row: dict[int, Row] = {}
    for (r, c), v in m.entries.items():
        by_row.setdefault(r, {})[c] = v
    ech = _Echelon() if ech is None else ech
    for r in sorted(by_row):
        ech.add(by_row[r])
    return ech


def rank(m: QMatrix, echelon: _Echelon | None = None) -> int:
    """Rank over Q.  An empty ``echelon``, when given, receives the echelon
    form of m's rows, which ``kernel_basis`` can read again."""
    return len(_echelon_of_rows(m, echelon).rows) if m.entries else 0


def kernel_basis(m: QMatrix, echelon: _Echelon | None = None
                 ) -> list[SparseVector]:
    """Basis of ker(m); len == cols - rank, vectors satisfy m.v = 0.

    One vector per non-pivot column ``f`` of the reduced row echelon form R,
    in column order: -R[i][f] at the pivot of each row i, all left of
    ``f``, and 1 at ``f``: the unit vectors when m has no entries.  R is
    read off ``echelon``, when given: the echelon form ``rank`` built."""
    if not m.entries:
        return [{f: _ONE} for f in range(m.cols)]
    rref = (_echelon_of_rows(m) if echelon is None else echelon).reduced()
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


def solve(m: QMatrix, rhs: SparseVector) -> SparseVector | None:
    """One solution of m.x = rhs, or None if inconsistent: the free
    variables are 0 and each pivot variable reads off the reduced row
    echelon form of [m | rhs], i.e. of [den * m | den * rhs].  When m has
    no entries, x = 0 solves exactly the zero right-hand side."""
    if not m.entries:
        return None if any(rhs.values()) else {}
    n = m.cols
    ech = _echelon_of_rows(QMatrix(m.rows, n + 1, {
        **m.entries, **{(r, n): m.den * x for r, x in rhs.items()}}))
    if n in ech.rows:  # a row [0 ... 0 | b], b != 0
        return None
    return {p: Fraction(row[n], row[p]) for p, row in ech.reduced()
            if n in row}


class Span:
    """Incremental span of vectors, with coordinate tracking.

    ``add`` reports whether a vector enlarged the span; the accepted vectors
    form the span's basis, and ``rank`` counts them.  ``express`` writes a
    vector as a combination of the accepted basis vectors (None if outside
    the span).

    The columns of ``base``, when given, enter first and untracked: ``add``
    then accepts the greedy complement of the base, and ``express`` gives
    coordinates modulo the base.

    The j-th accepted vector b_j enters the elimination as the row
    (b_j | e_j), its coordinates riding in column ``dim + j``; every stored
    row (x | y) then satisfies x = sum_j y_j b_j modulo the base.
    """

    def __init__(self, dim: int, base: QMatrix | None = None):
        self.dim = dim
        self._echelon = _Echelon(limit=dim)
        self.rank = 0
        by_col: dict[int, Row] = {}     # the base's stored integer columns
        for (r, c), v in (base.entries if base is not None else {}).items():
            by_col.setdefault(c, {})[r] = v
        for c in sorted(by_col):
            self._echelon.add(by_col[c])

    def add(self, v: SparseVector) -> bool:
        row, l = _int_row(v)
        row[self.dim + self.rank] = l
        if not self._echelon.add(row):
            return False
        self.rank += 1
        return True

    def contains(self, v: SparseVector) -> bool:
        row, _, lead = self._echelon.reduce(_int_row(v)[0])
        return lead is None

    def express(self, v: SparseVector) -> SparseVector | None:
        """Coefficients over the accepted basis, or None if v is outside."""
        row, l = _int_row(v)
        # s * v - (stored rows) = (0 | y), so v = sum_j (-y_j / s) b_j
        row, s, lead = self._echelon.reduce(row, l)
        if lead is not None:
            return None
        return {c - self.dim: Fraction(-y, s) for c, y in sorted(row.items())}


def relations(columns: Sequence[Row], nrows: int) -> list[Row]:
    """A basis of the kernel of the integer matrix with these sparse
    columns, each of length ``nrows``: one primitive integer relation for
    each column that depends on the columns before it, nonzero there and
    at none after it.  Column n enters the elimination as the row
    (column | e_n), its index riding in column nrows + n as in ``Span``; a
    row whose column part reduces to zero is a relation, read off its
    riders.  With no rows every column is zero, and the relations are the
    unit vectors, read with no elimination."""
    if not nrows:
        return [{n: 1} for n in range(len(columns))]
    ech = _Echelon(limit=nrows)
    out = []
    for n, col in enumerate(columns):
        row, _, lead = ech.reduce({**col, nrows + n: 1})
        if lead is None:
            out.append(_primitive({c - nrows: v for c, v in row.items()}))
        else:
            ech.rows[lead] = _primitive(row)
    return out


def complement(span: Sequence[Row], rows: Sequence[Row]
               ) -> tuple[int, list[Row]]:
    """(r, kept): r the rank of the integer rows ``span``, and kept the
    ``rows``, in order, each independent of ``span`` and of the rows kept
    before it."""
    ech = _Echelon()
    r = sum(map(ech.add, span))
    return r, [row for row in rows if ech.add(row)]

