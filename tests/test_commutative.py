import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptica.commutative import Algebra, Element, Generator
from elliptica.errors import DegreeMismatch

GEN_SETS = [
    [("x", 2)],
    [("x", 3)],
    [("x", 2), ("y", 3)],
    [("x", 2), ("y", 2), ("z", 5)],
    [("a", 2), ("b", 3), ("c", 4), ("d", 7)],
    # odd generators of degree |g| + 1 make the Koszul signs of a derivation
    # nontrivial: d(a) = c gives c*b = -b*c, d(d) = b gives c*b again
    [("a", 2), ("b", 3), ("c", 3), ("d", 2)],
]


def make_algebra(spec):
    return Algebra([Generator(n, d, i) for i, (n, d) in enumerate(spec)])


def poincare_series_counts(spec, top):
    """Coefficients of prod (1+t^d)[odd] * 1/(1-t^d)[even] via sympy."""
    t = sympy.symbols("t")
    f = sympy.Integer(1)
    for _, d in spec:
        f *= (1 + t ** d) if d % 2 else 1 / (1 - t ** d)
    series = sympy.series(f, t, 0, top + 1).removeO()
    poly = sympy.Poly(series, t)
    return [int(poly.coeff_monomial(t ** k)) for k in range(top + 1)]


@pytest.mark.parametrize("spec", GEN_SETS)
def test_basis_counts_match_generating_function(spec):
    alg = make_algebra(spec)
    expected = poincare_series_counts(spec, 14)
    for k in range(15):
        assert len(alg.basis(k)) == expected[k], f"degree {k}"


def random_homogeneous(alg, rng, max_degree=8):
    degrees = [d for d in range(1, max_degree + 1) if alg.basis(d)]
    d = rng.choice(degrees)
    basis = alg.basis(d)
    return Element({m: Fraction(rng.randint(-4, 4))
                    for m in rng.sample(basis, min(3, len(basis)))}), d


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEN_SETS), st.integers(0, 10 ** 9))
def test_koszul_commutation_law(spec, seed):
    alg = make_algebra(spec)
    rng = random.Random(seed)
    a, da = random_homogeneous(alg, rng)
    b, db = random_homogeneous(alg, rng)
    lhs = alg.multiply(a, b)
    rhs = alg.multiply(b, a).scale((-1) ** (da * db))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEN_SETS), st.integers(0, 10 ** 9))
def test_multiplication_associative(spec, seed):
    alg = make_algebra(spec)
    rng = random.Random(seed)
    a, _ = random_homogeneous(alg, rng, 6)
    b, _ = random_homogeneous(alg, rng, 6)
    c, _ = random_homogeneous(alg, rng, 6)
    assert alg.multiply(alg.multiply(a, b), c) == \
        alg.multiply(a, alg.multiply(b, c))


def test_odd_square_vanishes_in_product():
    alg = make_algebra([("x", 3)])
    x = alg.gen("x")
    assert alg.multiply(x, x).is_zero()


def test_odd_square_monomial_rejected():
    alg = make_algebra([("x", 3)])
    with pytest.raises(DegreeMismatch):
        alg.monomial([(0, 2)])


def test_unit_is_neutral():
    alg = make_algebra([("x", 2), ("y", 3)])
    e, _ = random_homogeneous(alg, random.Random(1))
    assert alg.multiply(alg.unit(), e) == e
    assert alg.multiply(e, alg.unit()) == e


def test_degree_of_mixed_element_raises():
    alg = make_algebra([("x", 2), ("y", 3)])
    with pytest.raises(DegreeMismatch):
        alg.degree(alg.gen("x") + alg.gen("y"))


def random_images(alg, rng):
    """A random image of degree |g| + 1 for each generator g: every basis
    element of that degree with a nonzero coefficient, so odd factors
    appear wherever the degree has any."""
    images = {}
    for g in alg.generators:
        basis = alg.basis(g.degree + 1)
        images[g.index] = Element({m: Fraction(rng.choice([-3, -1, 1, 2, 5]))
                                   for m in basis})
    return images


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEN_SETS), st.integers(0, 10 ** 9))
def test_derivation_satisfies_graded_leibniz(spec, seed):
    # D(ab) = D(a) b + (-1)^|a| a D(b) holds for any images of the right
    # degree, square-zero or not
    alg = make_algebra(spec)
    rng = random.Random(seed)
    D = alg.derivation(random_images(alg, rng))
    a, da = random_homogeneous(alg, rng, 7)
    b, _ = random_homogeneous(alg, rng, 7)
    lhs = D(alg.multiply(a, b))
    rhs = alg.multiply(D(a), b) + alg.multiply(a, D(b)).scale((-1) ** da)
    assert lhs == rhs


def test_derivation_rejects_wrong_degree_image():
    alg = make_algebra([("x", 2), ("y", 3)])
    with pytest.raises(DegreeMismatch):
        alg.derivation({1: alg.gen("x")})  # needs degree 4, got 2
