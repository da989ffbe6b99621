import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elliptica.commutative import Algebra, Element, Generator
from elliptica.errors import DegreeMismatch

from leibniz_oracle import d_monomial

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


def brute_force_basis(gens, n):
    """Every exponent vector of degree n with odd exponents <= 1, sorted
    lexicographically by declaration index, as monomials."""
    ranges = [range(2 if g.degree % 2 else max(n, 0) // g.degree + 1)
              for g in gens]
    vecs = sorted(v for v in itertools.product(*ranges)
                  if sum(e * g.degree for e, g in zip(v, gens)) == n)
    return [tuple((g.index, e) for g, e in zip(gens, v) if e) for v in vecs]


# (degree, gap to the previous index) per generator, in declaration order
generator_lists = st.lists(st.tuples(st.integers(1, 7), st.integers(1, 3)),
                           max_size=5)


@settings(max_examples=150, deadline=None)
@given(generator_lists, st.integers(-1, 14))
@example([(3, 1), (5, 1), (3, 1)], 11)             # odd only
@example([(2, 1), (4, 1), (2, 1)], 12)             # even only
@example([(2, 1), (2, 1), (2, 1)], 8)              # repeated degrees
@example([(2, 1), (3, 4), (2, 5), (5, 2)], 12)     # index gaps
@example([(2, 1), (3, 1)], 0)
@example([(2, 1), (3, 1)], -1)
def test_enumeration_equals_the_sorted_exponent_vectors(spec, n):
    gens = spaced_generators(spec)
    assert Algebra(gens)._enumerate(n) == brute_force_basis(gens, n)


def spaced_generators(spec):
    gens, index = [], -1
    for j, (degree, gap) in enumerate(spec):
        index += gap
        gens.append(Generator(f"g{j}", degree, index))
    return gens


@settings(max_examples=100, deadline=None)
@given(generator_lists, st.permutations(range(-1, 13)))
def test_enumeration_in_any_degree_order_equals_ascending_reads(spec, order):
    # the suffix tables, filled bottom-up and kept, give every degree the
    # same basis whichever degree is read first
    gens = spaced_generators(spec)
    alg, ascending = Algebra(gens), Algebra(gens)
    got = {n: alg._enumerate(n) for n in order}
    for n in range(-1, 13):
        assert got[n] == ascending._enumerate(n) == brute_force_basis(gens, n)


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEN_SETS), st.integers(0, 10 ** 9))
def test_key_image_matches_the_per_factor_rule(spec, seed):
    # images over every monomial of their degree with fractional
    # coefficients, square-zero or not: den * D of each basis monomial
    # through degree 12, over den, is the per-factor Leibniz rule of
    # tests/leibniz_oracle.py, Koszul signs included
    alg = make_algebra(spec)
    rng = random.Random(seed)
    images = {i: img.scale(rng.choice([Fraction(1, 2), Fraction(-2, 3), 1,
                                       Fraction(7, 4)]))
              for i, img in random_images(alg, rng).items()}
    D = alg.derivation(images)
    for degree in range(13):
        for m in alg.basis(degree):
            got = {k: Fraction(v, D.den) for k, v in D.key_image(m).items()}
            assert got == d_monomial(alg, images, m), m


def test_derivation_rejects_wrong_degree_image():
    alg = make_algebra([("x", 2), ("y", 3)])
    with pytest.raises(DegreeMismatch):
        alg.derivation({1: alg.gen("x")})  # needs degree 4, got 2
