from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from dense_oracle import dense, from_rows, is_sparse, sparse
from elliptica import linalg
from elliptica.linalg import QMatrix, Span
from full_path_oracle import (NotASubspace, independent_columns,
                              quotient_representatives)


# Sparse-ish rational matrices of any shape, empty and all-zero rows included.
entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                  st.integers(-3, 3).map(Fraction),
                  st.fractions(min_value=-8, max_value=8, max_denominator=6))
shaped_matrix = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: st.tuples(st.just(shape), st.lists(
        st.lists(entry, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0])))


def qmatrix(shape, rows):
    return QMatrix(shape[0], shape[1], {(r, c): v for r, row in enumerate(rows)
                                        for c, v in enumerate(row)})


small_matrix = st.integers(1, 6).flatmap(
    lambda nc: st.lists(
        st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6),
                 min_size=nc, max_size=nc),
        min_size=1, max_size=6))


def test_rank_known_cases():
    assert linalg.rank(QMatrix(4, 4, {(i, i): 1 for i in range(4)})) == 4
    assert linalg.rank(QMatrix(3, 5)) == 0
    m = from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(m) == 2


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_rank_matches_naive_elimination(rows):
    m = from_rows(rows)
    assert linalg.rank(m) == oracle.rank(rows)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_kernel_basis_is_a_kernel_basis(rows):
    m = from_rows(rows)
    basis = linalg.kernel_basis(m)
    assert len(basis) == m.cols - linalg.rank(m)
    for v in basis:
        assert not m.apply(v)
    # independence
    assert linalg.rank(QMatrix.from_columns(basis, m.cols)) == len(basis)


int_matrix = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 6]),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]).map(
        lambda rows: (shape, rows)))


@settings(max_examples=100, deadline=None)
@given(int_matrix)
def test_relations_are_a_primitive_integer_kernel_basis(shaped):
    # one relation per column that depends on the columns before it,
    # nonzero there and at none after it
    (nrows, ncols), rows = shaped
    columns = [{r: rows[r][c] for r in range(nrows) if rows[r][c]}
               for c in range(ncols)]
    m = QMatrix(nrows, ncols, {(r, c): v for c, col in enumerate(columns)
                               for r, v in col.items()})
    found = linalg.relations(columns, nrows)
    assert len(found) == ncols - linalg.rank(m)
    dependent = [c for c in range(ncols) if linalg.rank(QMatrix.from_columns(
        [dict(col) for col in columns[:c + 1]], nrows)) == linalg.rank(
        QMatrix.from_columns([dict(col) for col in columns[:c]], nrows))]
    assert [max(v) for v in found] == dependent
    for v in found:
        assert all(x.__class__ is int and x for x in v.values())
        assert gcd(*v.values()) == 1
        assert not m.apply({c: Fraction(x) for c, x in v.items()})
    assert linalg.rank(QMatrix.from_columns(found, ncols)) == len(found)


@settings(max_examples=100, deadline=None)
@given(int_matrix, int_matrix)
def test_complement_keeps_the_rows_that_enlarge_the_span(first, second):
    def rows_of(shaped, ncols):
        (_, nc), rows = shaped
        return [{c: row[c] for c in range(min(nc, ncols)) if row[c]}
                for row in rows]

    def rank(rows):
        return linalg.rank(QMatrix(len(rows), 6, {
            (r, c): v for r, row in enumerate(rows) for c, v in row.items()}))

    span, rows = rows_of(first, 6), rows_of(second, 6)
    r, kept = linalg.complement(span, rows)
    assert r == rank(span)
    assert r + len(kept) == rank(span + rows)
    # greedy in order: each row is kept exactly when it enlarges the span
    assert kept == [row for k, row in enumerate(rows)
                    if rank(span + rows[:k + 1]) > rank(span + rows[:k])]


@settings(max_examples=100, deadline=None)
@given(small_matrix, st.data())
def test_solve_recovers_consistent_systems(rows, data):
    m = from_rows(rows)
    x = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols,
                           max_size=m.cols))
    rhs = m.apply(sparse(x))
    sol = linalg.solve(m, rhs)
    assert sol is not None
    assert m.apply(sol) == rhs


def test_solve_detects_inconsistency():
    m = from_rows([[1, 0], [1, 0]])
    assert linalg.solve(m, sparse([1, 2])) is None


def test_span_express_reconstructs():
    span = Span(3)
    v1 = (Fraction(1), Fraction(2), Fraction(0))
    v2 = (Fraction(0), Fraction(1), Fraction(1))
    assert span.add(sparse(v1)) and span.add(sparse(v2))
    assert not span.add(sparse((1, 3, 1)))
    target = tuple(2 * a - 3 * b for a, b in zip(v1, v2))
    coeffs = span.express(sparse(target))
    assert coeffs == sparse((2, -3))
    assert span.express(sparse((0, 0, 1))) is None


@settings(max_examples=80, deadline=None)
@given(small_matrix)
def test_span_rank_agrees_with_rank(rows):
    span = Span(len(rows[0]))
    for r in rows:
        span.add(sparse(r))
    assert span.rank == linalg.rank(from_rows(rows))


def test_independent_columns_keeps_input_order():
    cols = [sparse(c) for c in [(1, 0), (2, 0), (0, 1)]]
    out = independent_columns(QMatrix.from_columns(cols, 2))
    assert out == [sparse((1, 0)), sparse((0, 1))]


def test_quotient_representatives_counts():
    cycles = [sparse(z) for z in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    boundaries = [sparse((1, 1, 0))]
    reps = quotient_representatives(cycles, boundaries)
    assert len(reps) == 2


def test_quotient_representatives_rejects_non_subspace():
    with pytest.raises(NotASubspace):
        quotient_representatives([sparse((1, 0))], [sparse((0, 1))])


@settings(max_examples=150, deadline=None)
@given(shaped_matrix)
def test_rank_matches_dense_oracle_on_any_shape(m):
    shape, rows = m
    assert linalg.rank(qmatrix(shape, rows)) == oracle.rank(rows)


@settings(max_examples=150, deadline=None)
@given(shaped_matrix)
def test_kernel_basis_equals_dense_rref_basis(m):
    shape, rows = m
    assert [dense(v, shape[1]) for v in linalg.kernel_basis(
        qmatrix(shape, rows))] == oracle.kernel(rows, shape[1])


@settings(max_examples=150, deadline=None)
@given(shaped_matrix, st.data())
def test_solve_equals_dense_rref_solution(m, data):
    shape, rows = m
    rhs = data.draw(st.lists(entry, min_size=shape[0], max_size=shape[0]))
    # half the draws are consistent by construction
    if data.draw(st.booleans()):
        x = data.draw(st.lists(entry, min_size=shape[1], max_size=shape[1]))
        rhs = oracle.apply(rows, x)
    sol = linalg.solve(qmatrix(shape, rows), sparse(rhs))
    want = oracle.solve(rows, shape[1], rhs)
    assert (sol if sol is None else dense(sol, shape[1])) == want


@settings(max_examples=150, deadline=None)
@given(shaped_matrix)
def test_independent_columns_picks_the_dense_greedy_vectors(m):
    shape, rows = m
    cols = QMatrix.from_columns([sparse(r) for r in rows], shape[1])
    assert [dense(v, shape[1]) for v in independent_columns(cols)] \
        == oracle.greedy(rows)


@settings(max_examples=150, deadline=None)
@given(shaped_matrix, st.data())
def test_quotient_representatives_pick_the_dense_greedy_vectors(m, data):
    shape, cycles = m
    # boundaries: combinations of the cycles, so they lie in their span
    k = len(cycles)
    boundaries = []
    for _ in range(data.draw(st.integers(0, 4))):
        coeffs = data.draw(st.lists(entry, min_size=k, max_size=k))
        boundaries.append(tuple(
            sum((a * z[j] for a, z in zip(coeffs, cycles)), Fraction(0))
            for j in range(shape[1])))
    got = quotient_representatives(
        [sparse(z) for z in cycles], [sparse(b) for b in boundaries])
    assert [dense(v, shape[1]) for v in got] == \
        oracle.greedy(cycles, oracle.greedy(boundaries))


@settings(max_examples=150, deadline=None)
@given(shaped_matrix, st.data())
def test_span_express_equals_dense_solve_over_accepted_vectors(m, data):
    shape, rows = m
    span = Span(shape[1])
    accepted = [tuple(r) for r in rows if span.add(sparse(r))]
    assert accepted == oracle.greedy(rows)
    v = data.draw(st.lists(entry, min_size=shape[1], max_size=shape[1]))
    if data.draw(st.booleans()) and accepted:
        coeffs = data.draw(st.lists(entry, min_size=len(accepted),
                                    max_size=len(accepted)))
        v = [sum((a * b[j] for a, b in zip(coeffs, accepted)), Fraction(0))
             for j in range(shape[1])]
    want = oracle.express(accepted, v, shape[1])
    got = span.express(sparse(v))
    assert (got if got is None else dense(got, len(accepted))) == want
    assert span.contains(sparse(v)) == (want is not None)


def test_solve_on_empty_shapes():
    assert linalg.solve(QMatrix(0, 3), {}) == sparse((0, 0, 0))
    assert linalg.solve(QMatrix(2, 0), {}) == {}
    assert linalg.solve(QMatrix(2, 0), sparse((0, Fraction(1, 2)))) is None


@settings(max_examples=150, deadline=None)
@given(shaped_matrix, st.integers(1, 12))
def test_integer_entries_over_one_denominator_equal_the_fractions(m, den):
    # the same matrix given as rationals and as integers over den: equal,
    # in lowest terms, with identical Fraction columns
    shape, rows = m
    scaled = [[v * den for v in row] for row in rows]
    lcd = lcm(*(v.denominator for row in scaled for v in row))
    ints = {(r, c): int(v * lcd) for r, row in enumerate(scaled)
            for c, v in enumerate(row)}
    a = qmatrix(shape, rows)
    b = QMatrix(shape[0], shape[1], ints, den * lcd)
    assert a == b and a.den == b.den
    assert all(type(v) is int for v in b.entries.values())
    assert gcd(b.den, *b.entries.values()) == 1
    assert a.columns() == b.columns() == [
        sparse(rows[r][c] for r in range(shape[0])) for c in range(shape[1])]
    assert all(is_sparse(col) for col in b.columns())


@settings(max_examples=100, deadline=None)
@given(shaped_matrix, st.data())
def test_integer_product_equals_the_rational_product(m, data):
    # matmul multiplies integers and denominators; the entries, read as
    # rationals, are the row-by-column sums of the rational entries
    (r, k), rows = m
    n = data.draw(st.integers(0, 5))
    other = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=k, max_size=k))
    got = qmatrix((r, k), rows).matmul(qmatrix((k, n), other))
    want = [[sum((rows[i][j] * other[j][c] for j in range(k)), Fraction(0))
             for c in range(n)] for i in range(r)]
    assert got == qmatrix((r, n), want)
    assert got.columns() == [sparse(want[i][c] for i in range(r))
                             for c in range(n)]


@settings(max_examples=150, deadline=None)
@given(shaped_matrix, st.data())
def test_sparse_readouts_are_the_dense_ones_without_zeros(m, data):
    # every readout holds the dense oracle's coefficients without its zeros,
    # in ascending index order: kernel, independent columns, apply, solve,
    # quotient and express
    shape, rows = m
    a = qmatrix(shape, rows)
    kernel = linalg.kernel_basis(a)
    assert all(is_sparse(v) for v in kernel)
    assert kernel == [sparse(v) for v in oracle.kernel(rows, shape[1])]
    cols = QMatrix.from_columns([sparse(r) for r in rows], shape[1])
    kept = independent_columns(cols)
    assert all(is_sparse(v) for v in kept)
    assert kept == [sparse(v) for v in oracle.greedy(rows)]
    v = data.draw(st.lists(entry, min_size=shape[1], max_size=shape[1]))
    image = a.apply(sparse(v))
    assert is_sparse(image) and image == sparse(oracle.apply(rows, v))
    sol = linalg.solve(a, image)
    assert is_sparse(sol)
    assert sol == sparse(oracle.solve(rows, shape[1], oracle.apply(rows, v)))
    # cycles: the rows; boundaries: the kept ones among some of them
    k = data.draw(st.integers(0, len(rows)))
    boundaries = oracle.greedy(rows[:k])
    assert quotient_representatives(
        [sparse(z) for z in rows], [sparse(b) for b in boundaries]) == \
        [sparse(z) for z in oracle.greedy(rows, boundaries)]
    span = Span(shape[1])
    accepted = [tuple(z) for z in rows if span.add(sparse(z))]
    coeffs = span.express(sparse(v))
    want = oracle.express(accepted, v, shape[1])
    assert (coeffs is None) == (want is None)
    if coeffs is not None:
        assert is_sparse(coeffs) and coeffs == sparse(want)
    assert span.contains(sparse(v)) == (want is not None)


# --- one elimination per (co)homology degree -------------------------------------

@settings(max_examples=150, deadline=None)
@given(shaped_matrix, st.data())
def test_a_span_over_a_base_accepts_the_quotient_representatives(m, data):
    # the base's columns enter untracked: add accepts the greedy complement
    # of the base, and express reads the coordinates over the accepted
    # vectors modulo the base; with the base inside the span of the
    # vectors, as the boundaries lie in the cycles', the accepted ones are
    # the quotient representatives over the base's independent columns
    shape, rows = m
    dim = shape[1]
    vector = st.lists(entry, min_size=dim, max_size=dim)

    def combination(parts):
        coeffs = data.draw(st.lists(entry, min_size=len(parts),
                                    max_size=len(parts)))
        return [sum((a * p[j] for a, p in zip(coeffs, parts)), Fraction(0))
                for j in range(dim)]

    inside = data.draw(st.booleans())
    base = [combination(rows) if inside else data.draw(vector)
            for _ in range(data.draw(st.integers(0, 4)))]
    base_m = QMatrix.from_columns([sparse(b) for b in base], dim)
    span = Span(dim, base_m)
    got = [tuple(z) for z in rows if span.add(sparse(z))]
    assert got == oracle.greedy(rows, oracle.greedy(base))
    assert span.rank == len(got)
    if inside:
        assert [sparse(z) for z in got] == quotient_representatives(
            [sparse(z) for z in rows], independent_columns(base_m))
    # half the draws lie in the span
    v = combination([*rows, *base]) if data.draw(st.booleans()) else \
        data.draw(vector)
    want = oracle.express([*got, *oracle.greedy(base)], v, dim)
    coords = span.express(sparse(v))
    assert (coords is None) == (want is None)
    if want is not None:
        assert is_sparse(coords) and coords == sparse(want[:len(got)])


@settings(max_examples=150, deadline=None)
@given(shaped_matrix)
def test_kernel_basis_reads_the_echelon_that_rank_built(m):
    shape, rows = m
    a = qmatrix(shape, rows)
    ech = linalg._Echelon()
    assert linalg.rank(a, ech) == oracle.rank(rows)
    assert len(ech.rows) == (oracle.rank(rows) if a.entries else 0)
    assert linalg.kernel_basis(a, ech) == linalg.kernel_basis(a)


def test_rank_and_kernel_basis_share_one_elimination(monkeypatch):
    built = []

    class CountingEchelon(linalg._Echelon):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    a = from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    ech = linalg._Echelon()
    monkeypatch.setattr(linalg, "_Echelon", CountingEchelon)
    assert linalg.rank(a, ech) == 2
    assert linalg.kernel_basis(a, ech) == [sparse((-1, -1, 1))]
    assert built == []
    linalg.kernel_basis(a)
    assert len(built) == 1


# --- a zero map costs nothing ----------------------------------------------------

shape = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(shape, st.data())
def test_readouts_of_a_matrix_with_no_entries_equal_the_dense_oracle(s, data):
    # every shape up to 6 x 6, 0 rows and 0 columns included; explicit zero
    # entries are dropped, so the matrix has no entries either way
    r, c = s
    rows = [[Fraction(0)] * c for _ in range(r)]
    z = qmatrix(s, rows)
    assert z.is_zero() and z.den == 1
    assert linalg.rank(z) == oracle.rank(rows) == 0
    assert [dense(v, c) for v in linalg.kernel_basis(z)] == \
        oracle.kernel(rows, c)
    assert [dense(v, r) for v in independent_columns(z)] == \
        oracle.greedy([[row[j] for row in rows] for j in range(c)]) == []
    rhs = data.draw(st.lists(entry, min_size=r, max_size=r))
    sol = linalg.solve(z, sparse(rhs))
    assert (sol if sol is None else dense(sol, c)) == \
        oracle.solve(rows, c, rhs)
    # a product with a zero factor on either side: the zero matrix of its
    # shape, as the row-by-column sums give it
    n = data.draw(st.integers(0, 6))
    right = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=c, max_size=c))
    left = data.draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                              min_size=n, max_size=n))
    for a, b, (p, k, q) in [(rows, right, (r, c, n)), (left, rows, (n, r, c))]:
        got = qmatrix((p, k), a).matmul(qmatrix((k, q), b))
        want = [[sum((a[i][j] * b[j][l] for j in range(k)), Fraction(0))
                 for l in range(q)] for i in range(p)]
        assert got == qmatrix((p, q), want) == QMatrix(p, q)


def test_a_matrix_with_no_entries_has_denominator_one():
    # the denominator of no entries is 1, whatever was passed, so that equal
    # matrices stay equal
    for m in (QMatrix(2, 3), QMatrix(2, 3, {}, 5),
              QMatrix(2, 3, {(0, 0): 0, (1, 2): Fraction(0)}, 7)):
        assert (m.rows, m.cols, m.entries, m.den) == (2, 3, {}, 1)
        assert m == QMatrix(2, 3) and m.is_zero()


def test_no_elimination_runs_on_a_matrix_with_no_entries(monkeypatch):
    built = []

    class CountingEchelon(linalg._Echelon):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linalg, "_Echelon", CountingEchelon)
    for r, c in [(0, 0), (0, 4), (3, 0), (5, 5), (2, 6)]:
        z = QMatrix(r, c, {(i, j): 0 for i in range(r) for j in range(c)})
        linalg.rank(z)
        linalg.kernel_basis(z)
        independent_columns(z)
        linalg.solve(z, {})
        linalg.solve(z, {0: Fraction(1)} if r else {})
        z.matmul(from_rows([[1] * 2] * c) if c else QMatrix(0, 2))
        QMatrix(2, r, {(0, 0): 1} if r else {}).matmul(z)
    assert built == []
    # the counter sees an elimination when there is one
    linalg.rank(from_rows([[1, 2]]))
    assert len(built) == 1
