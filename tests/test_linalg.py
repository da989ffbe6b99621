from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptica import linalg
from elliptica.errors import NotASubspace
from elliptica.linalg import QMatrix, Span


def naive_rank(rows):
    """Plain Gaussian elimination over Fraction, as an independent oracle."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_rref(rows, ncols):
    """Plain Gauss-Jordan over Fraction, as an independent oracle: (reduced
    rows, pivot columns)."""
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


def dense_kernel(rows, ncols):
    rref, pivots = dense_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rref[i][free]
        basis.append(tuple(v))
    return basis


def dense_solve(rows, ncols, rhs):
    rref, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)],
                              ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = rref[i][ncols]
    return tuple(x)


def dense_greedy(vectors, start=()):
    """Vectors that raise the rank of ``start`` plus those kept before them."""
    kept, base = [], list(start)
    for v in vectors:
        if naive_rank(base + kept + [v]) > naive_rank(base + kept):
            kept.append(tuple(v))
    return kept


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
    assert linalg.rank(QMatrix.identity(4)) == 4
    assert linalg.rank(QMatrix.zero(3, 5)) == 0
    m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(m) == 2


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_rank_matches_naive_elimination(rows):
    m = QMatrix.from_rows(rows)
    assert linalg.rank(m) == naive_rank(rows)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_kernel_basis_is_a_kernel_basis(rows):
    m = QMatrix.from_rows(rows)
    basis = linalg.kernel_basis(m)
    assert len(basis) == m.cols - linalg.rank(m)
    for v in basis:
        assert not any(m.apply(v))
    # independence
    assert linalg.rank(QMatrix.from_columns(basis, m.cols)) == len(basis)


@settings(max_examples=100, deadline=None)
@given(small_matrix, st.data())
def test_solve_recovers_consistent_systems(rows, data):
    m = QMatrix.from_rows(rows)
    x = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols,
                           max_size=m.cols))
    rhs = m.apply([Fraction(v) for v in x])
    sol = linalg.solve(m, rhs)
    assert sol is not None
    assert m.apply(sol) == rhs


def test_solve_detects_inconsistency():
    m = QMatrix.from_rows([[1, 0], [1, 0]])
    assert linalg.solve(m, [Fraction(1), Fraction(2)]) is None


def test_span_express_reconstructs():
    span = Span(3)
    v1 = (Fraction(1), Fraction(2), Fraction(0))
    v2 = (Fraction(0), Fraction(1), Fraction(1))
    assert span.add(v1) and span.add(v2)
    assert not span.add((Fraction(1), Fraction(3), Fraction(1)))
    target = tuple(2 * a - 3 * b for a, b in zip(v1, v2))
    coeffs = span.express(target)
    assert coeffs == (Fraction(2), Fraction(-3))
    assert span.express((Fraction(0), Fraction(0), Fraction(1))) is None


@settings(max_examples=80, deadline=None)
@given(small_matrix)
def test_span_rank_agrees_with_rank(rows):
    span = Span(len(rows[0]))
    for r in rows:
        span.add([Fraction(v) for v in r])
    assert span.rank == linalg.rank(QMatrix.from_rows(rows))


def test_independent_columns_keeps_input_order():
    cols = [(1, 0), (2, 0), (0, 1)]
    out = linalg.independent_columns(QMatrix.from_columns(cols, 2))
    assert out == [(1, 0), (0, 1)]


def test_quotient_representatives_counts():
    cycles = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    boundaries = [(1, 1, 0)]
    reps = linalg.quotient_representatives(cycles, boundaries)
    assert len(reps) == 2


def test_quotient_representatives_rejects_non_subspace():
    with pytest.raises(NotASubspace):
        linalg.quotient_representatives([(1, 0)], [(0, 1)])


@settings(max_examples=150, deadline=None)
@given(shaped_matrix)
def test_rank_matches_dense_oracle_on_any_shape(m):
    shape, rows = m
    assert linalg.rank(qmatrix(shape, rows)) == naive_rank(rows)


@settings(max_examples=150, deadline=None)
@given(shaped_matrix)
def test_kernel_basis_equals_dense_rref_basis(m):
    shape, rows = m
    assert linalg.kernel_basis(qmatrix(shape, rows)) == \
        dense_kernel(rows, shape[1])


@settings(max_examples=150, deadline=None)
@given(shaped_matrix, st.data())
def test_solve_equals_dense_rref_solution(m, data):
    shape, rows = m
    rhs = data.draw(st.lists(entry, min_size=shape[0], max_size=shape[0]))
    # half the draws are consistent by construction
    if data.draw(st.booleans()):
        x = data.draw(st.lists(entry, min_size=shape[1], max_size=shape[1]))
        rhs = list(qmatrix(shape, rows).apply(x))
    assert linalg.solve(qmatrix(shape, rows), rhs) == \
        dense_solve(rows, shape[1], rhs)


@settings(max_examples=150, deadline=None)
@given(shaped_matrix)
def test_independent_columns_picks_the_dense_greedy_vectors(m):
    shape, rows = m
    assert linalg.independent_columns(QMatrix.from_columns(rows, shape[1])) \
        == dense_greedy(rows)


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
    assert linalg.quotient_representatives(cycles, boundaries) == \
        dense_greedy(cycles, dense_greedy(boundaries))


@settings(max_examples=150, deadline=None)
@given(shaped_matrix, st.data())
def test_span_express_equals_dense_solve_over_accepted_vectors(m, data):
    shape, rows = m
    span = Span(shape[1])
    accepted = [tuple(r) for r in rows if span.add(r)]
    assert accepted == dense_greedy(rows)
    v = data.draw(st.lists(entry, min_size=shape[1], max_size=shape[1]))
    if data.draw(st.booleans()) and accepted:
        coeffs = data.draw(st.lists(entry, min_size=len(accepted),
                                    max_size=len(accepted)))
        v = [sum((a * b[j] for a, b in zip(coeffs, accepted)), Fraction(0))
             for j in range(shape[1])]
    cols = [[b[j] for b in accepted] for j in range(shape[1])]
    want = dense_solve(cols, len(accepted), v)
    assert span.express(v) == want
    assert span.contains(v) == (want is not None)


def test_solve_on_empty_shapes():
    assert linalg.solve(QMatrix.zero(0, 3), []) == (Fraction(0),) * 3
    assert linalg.solve(QMatrix.zero(2, 0), [0, 0]) == ()
    assert linalg.solve(QMatrix.zero(2, 0), [0, Fraction(1, 2)]) is None


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
        tuple(Fraction(rows[r][c]) for r in range(shape[0]))
        for c in range(shape[1])]
    assert all(type(v) is Fraction for col in b.columns() for v in col)


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
    assert got.columns() == [tuple(want[i][c] for i in range(r))
                             for c in range(n)]


def sparse(v):
    return {i: Fraction(x) for i, x in enumerate(v) if x}


def is_sparse(v):
    return (isinstance(v, dict) and list(v) == sorted(v)
            and all(isinstance(x, Fraction) and x for x in v.values()))


@settings(max_examples=150, deadline=None)
@given(shaped_matrix, st.data())
def test_sparse_readouts_are_the_dense_ones_without_zeros(m, data):
    # the sparse vectors the (co)homology runs on hold the same coefficients
    # as the dense readouts, in ascending index order
    shape, rows = m
    kernel = linalg.kernel_vectors(qmatrix(shape, rows))
    assert all(is_sparse(v) for v in kernel)
    assert kernel == [sparse(v) for v in linalg.kernel_basis(
        qmatrix(shape, rows))]
    cols = QMatrix.from_columns(rows, shape[1])
    kept = linalg.independent_column_vectors(cols)
    assert all(is_sparse(v) for v in kept)
    assert kept == [sparse(v) for v in linalg.independent_columns(cols)]
    assert QMatrix.from_columns(kept, shape[1]) == \
        QMatrix.from_columns(linalg.independent_columns(cols), shape[1])
    v = data.draw(st.lists(entry, min_size=shape[1], max_size=shape[1]))
    assert qmatrix(shape, rows).apply(sparse(v)) == \
        qmatrix(shape, rows).apply(v)
    # cycles: the rows; boundaries: the kept ones among some of them
    k = data.draw(st.integers(0, len(rows)))
    boundaries = dense_greedy(rows[:k])
    assert linalg.quotient_vectors([sparse(z) for z in rows],
                                   [sparse(b) for b in boundaries]) == \
        [sparse(z) for z in linalg.quotient_representatives(rows, boundaries)]
    span, dense_span = Span(shape[1]), Span(shape[1])
    assert [span.add(sparse(z)) for z in rows] == \
        [dense_span.add(z) for z in rows]
    assert span.express(sparse(v)) == dense_span.express(v)
    assert span.contains(sparse(v)) == dense_span.contains(v)
