import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptica import linalg
from elliptica.errors import InternalInconsistency
from elliptica.lie import FreeLie, LieElement, LieGenerator

from tensor_oracle import Tensor, TensorRoute, basis_elements

GEN_SETS = [
    [("w", 1)],
    [("w", 2)],
    [("u", 1), ("v", 1)],
    [("u", 1), ("v", 2)],
    [("u", 2), ("v", 3)],
    [("a", 1), ("b", 2), ("c", 3)],
]


def make_lie(spec):
    return FreeLie([LieGenerator(n, d, i) for i, (n, d) in enumerate(spec)])


def all_bracketings_rank(lie, degree):
    """Rank of the span of *all* fully parenthesized brackets of the degree.

    Independent of the Lyndon basis: this recursion builds every bracketing
    shape in the tensor algebra.
    """
    route = TensorRoute(lie)
    memo = {}

    def elems(d):
        if d in memo:
            return memo[d]
        out = [route.gen(g.name) for g in lie.generators if g.degree == d]
        for i in range(1, d):
            for a in elems(i):
                for b in elems(d - i):
                    e = route.bracket(a, b)
                    if not e.is_zero():
                        out.append(e)
        memo[d] = out
        return out

    span = linalg.Span(len(route.words(degree)))
    for e in elems(degree):
        span.add(route.to_coords(degree, e))
    return span.rank


@pytest.mark.parametrize("spec", GEN_SETS)
@pytest.mark.parametrize("degree", range(1, 7))
def test_lie_basis_matches_all_bracketings_oracle(spec, degree):
    lie = make_lie(spec)
    assert len(lie.basis(degree)) == all_bracketings_rank(lie, degree)


def test_one_odd_generator_dimensions():
    # odd |w|: basis is {w, [w,w]}; [w,[w,w]] vanishes by the graded Jacobi
    lie = make_lie([("w", 1)])
    assert [len(lie.basis(d)) for d in range(1, 6)] == [1, 1, 0, 0, 0]


def test_one_even_generator_dimensions():
    # even |w|: [w,w] = 0, so only w itself survives
    lie = make_lie([("w", 2)])
    assert [len(lie.basis(d)) for d in range(1, 7)] == [0, 1, 0, 0, 0, 0]


def random_homogeneous(lie, rng, max_degree=6):
    degrees = [d for d in range(1, max_degree + 1) if lie.basis(d)]
    d = rng.choice(degrees)
    basis = basis_elements(lie, d)
    picks = rng.sample(basis, min(2, len(basis)))
    return sum((b.scale(rng.randint(-3, 3)) for b in picks),
               LieElement.zero()), d


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEN_SETS), st.integers(0, 10 ** 9))
def test_graded_antisymmetry(spec, seed):
    lie = make_lie(spec)
    rng = random.Random(seed)
    a, da = random_homogeneous(lie, rng)
    b, db = random_homogeneous(lie, rng)
    lhs = lie.bracket(a, b)
    rhs = lie.bracket(b, a).scale(-((-1) ** (da * db)))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEN_SETS), st.integers(0, 10 ** 9))
def test_graded_jacobi(spec, seed):
    lie = make_lie(spec)
    rng = random.Random(seed)
    a, da = random_homogeneous(lie, rng, 4)
    b, db = random_homogeneous(lie, rng, 4)
    c, _ = random_homogeneous(lie, rng, 4)
    lhs = lie.bracket(a, lie.bracket(b, c))
    rhs = lie.bracket(lie.bracket(a, b), c) + \
        lie.bracket(b, lie.bracket(a, c)).scale((-1) ** (da * db))
    assert lhs == rhs


def _series_mul(a, b, top):
    out = [0] * (top + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:top + 1 - i]):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize(
    "spec", GEN_SETS + [[("w1", 1), ("w3", 3), ("w5", 5), ("w7", 7)]])
def test_pbw_hilbert_series(spec):
    # U(L(W)) = T(W): prod_(n even) (1 - t^n)^(-dim L_n)
    # * prod_(n odd) (1 + t^n)^(dim L_n) = 1 / (1 - sum_g t^|g|)
    top = 10
    lie = make_lie(spec)
    lhs = [1] + [0] * top
    for n in range(1, top + 1):
        a = len(lie.basis(n))
        factor = [0] * (top + 1)
        for k in range(top // n + 1):
            factor[n * k] = comb(a, k) if n % 2 else \
                (comb(a + k - 1, k) if k else 1)
        lhs = _series_mul(lhs, factor, top)
    rhs = [1] + [0] * top
    for m in range(1, top + 1):
        rhs[m] = sum(rhs[m - d] for _, d in spec if d <= m)
    assert lhs == rhs


@pytest.mark.parametrize("spec", GEN_SETS)
def test_lie_coords_roundtrip(spec):
    lie = make_lie(spec)
    for d in range(1, 7):
        basis = basis_elements(lie, d)
        for j, b in enumerate(basis):
            coords = lie.lie_coords(d, b)
            assert coords == tuple(int(i == j) for i in range(len(basis)))
            assert lie.combination(d, coords) == b
        combo = [Fraction(j + 1, 3) for j in range(len(basis))]
        e = lie.combination(d, combo)
        assert lie.lie_coords(d, e) == tuple(combo)


@pytest.mark.parametrize("spec", GEN_SETS)
def test_lie_coords_rejects_non_lie_tensor(spec):
    # g(x)g(x)g lies in L(W) for no generator g: L has nothing in that
    # multidegree, as [g,g] = 0 for even g and [g,[g,g]] = 0 for odd g;
    # for even g not even g(x)g does.  So its word is no basis key, and the
    # tensor route finds the tensor outside L(W) too
    lie = make_lie(spec)
    route = TensorRoute(lie)
    g = lie.generators[0]
    powers = (2, 3) if g.degree % 2 == 0 else (3,)
    for p in powers:
        w = (g.index,) * p
        e, t = LieElement({w: Fraction(1)}), Tensor({w: Fraction(1)})
        assert lie.lie_coords(p * g.degree, e) is None
        assert route.peel(p * g.degree, t) is None and not route.is_lie(t)
        for b in basis_elements(lie, p * g.degree):
            assert lie.lie_coords(p * g.degree, e + b) is None
            assert route.peel(p * g.degree, t + route.expand(b)) is None


def test_derivation_leibniz_for_bracket():
    # D[a, b] = [D a, b] + (-1)^|a| [a, D b] for any images of degree
    # |g| - 1 in L(W), square-zero or not
    rng = random.Random(11)
    for spec in GEN_SETS:
        lie = make_lie(spec)
        images = {}
        for g in lie.generators:
            basis = basis_elements(lie, g.degree - 1)
            images[g.index] = sum(
                (b.scale(rng.choice([-3, -1, 1, 2, 5])) for b in basis),
                LieElement.zero())
        delta = lie.derivation(images)
        for _ in range(20):
            a, da = random_homogeneous(lie, rng, 5)
            b, _ = random_homogeneous(lie, rng, 5)
            lhs = delta(lie.bracket(a, b))
            rhs = lie.bracket(delta(a), b) + \
                lie.bracket(a, delta(b)).scale((-1) ** da)
            assert lhs == rhs, spec


def test_derivation_squares_to_zero_on_model_generators():
    lie = make_lie([("w1", 1), ("w3", 3), ("w5", 5)])
    d = lie.derivation({
        1: lie.bracket(lie.gen("w1"), lie.gen("w1")).scale(Fraction(1, 2)),
        2: lie.bracket(lie.gen("w1"), lie.gen("w3")),
    })
    for name in ("w1", "w3", "w5"):
        assert d(d(lie.gen(name))).is_zero()


def test_non_triangular_basis_element_raises():
    lie = make_lie([("u", 1), ("v", 1)])
    route = TensorRoute(lie)
    # b(uuv) must have uuv as its smallest word; plant one that does not
    route.expansion[(0, 0, 1)] = Tensor({(0, 1, 1): Fraction(1)})
    with pytest.raises(InternalInconsistency):
        [route.key_element(w) for w in lie.basis(3)]


# --- Lyndon coordinates against the tensor route -----------------------------

ORACLE_DEGREE = 10


def tensor_bracket_coords(route, p, q):
    """[B_p, B_q] by the tensor route: bracket the expansions, then peel."""
    degree = route.lie.key_degree(p) + route.lie.key_degree(q)
    return route.peel(degree, route.bracket(route.key_element(p),
                                            route.key_element(q)))


@pytest.mark.parametrize("spec", GEN_SETS)
def test_structure_constants_match_the_tensor_route(spec):
    lie = make_lie(spec)
    route = TensorRoute(lie)
    for dp in range(1, ORACLE_DEGREE):
        for dq in range(1, ORACLE_DEGREE + 1 - dp):
            for p in lie.basis(dp):
                for q in lie.basis(dq):
                    assert lie.key_bracket(p, q) == \
                        tensor_bracket_coords(route, p, q), (spec, p, q)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GEN_SETS), st.integers(0, 10 ** 9))
def test_delta_columns_match_the_tensor_route(spec, seed):
    # images are random combinations of basis elements of degree |g| - 1,
    # which need not square to zero; each basis element's image by the
    # Leibniz rule must equal the tensor route: delta applied word by word
    # to its expansion, then peeled
    rng = random.Random(seed)
    lie = make_lie(spec)
    route = TensorRoute(lie)
    images = {}
    for g in lie.generators:
        images[g.index] = sum(
            (b.scale(rng.randint(-3, 3))
             for b in basis_elements(lie, g.degree - 1)), LieElement.zero())
    delta = lie.derivation(images)
    tensor_images = {i: route.expand(e) for i, e in images.items()}
    for degree in range(1, ORACLE_DEGREE + 1):
        for w in lie.basis(degree):
            want = route.peel(degree - 1, route.apply(
                tensor_images, route.key_element(w))) if degree > 1 else {}
            assert delta.key_image(w) == want, (spec, w)


@pytest.mark.parametrize("spec", GEN_SETS)
def test_odd_square_bracket_base_case(spec):
    # [b(u), [b(u), b(u)]] = 0 for odd u by the graded Jacobi identity; the
    # rewriting must know it, else it would rewrite the bracket into itself
    lie = make_lie(spec)
    route = TensorRoute(lie)
    odd = [u for d in (1, 3) for u in lie.basis(d)]    # all Lyndon words
    assert odd or spec == [("w", 2)]
    for u in odd:
        uu = u + u
        assert lie.key_bracket(u, u) == {uu: 1}
        assert lie.key_bracket(u, uu) == {} == lie.key_bracket(uu, u)
        assert tensor_bracket_coords(route, u, uu) == {}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GEN_SETS), st.data())
def test_is_key_agrees_with_the_enumerated_basis(spec, data):
    # a random word of degree <= 8, or the square uu of a Lyndon word u of
    # either parity: a key exactly when it is in its degree's basis table,
    # and a Lyndon key splits into its standard factorization
    lie = make_lie(spec)
    letters = data.draw(st.lists(st.integers(0, len(spec) - 1), min_size=1,
                                 max_size=8))
    w = ()
    for i in letters:
        if lie.key_degree(w + (i,)) > 8:
            break
        w += (i,)
    if data.draw(st.booleans()):
        lyndon = [u for d in range(1, 5) for u in lie._lyndon(d)]
        u = data.draw(st.sampled_from(lyndon))
        w = u + u
    assert lie.is_key(w) == (w in lie.table(lie.key_degree(w)).index), w
    if lie.is_key(w) and len(w) > 1 and w[:len(w) // 2] * 2 != w:
        fresh = make_lie(spec)      # no enumeration: split reads the word
        u, v = fresh.split(w)
        fu = fresh.split(u)
        assert (u, v) == lie.split(w)   # the enumeration's factorization
        assert u + v == w and u < v and lie.is_key(u) and lie.is_key(v)
        assert fu is None or fu[1] >= v
