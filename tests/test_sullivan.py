import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptica import dsl, invariants, randmodels, sullivan
from elliptica.commutative import Element, Generator
from elliptica.errors import (CompositionNotZero, NotInAlgebra,
                              TruncationNotClosed, ValidationError)
from elliptica.sullivan import SullivanModel, tensor_product

import full_path_oracle
from conftest import CATALOG_SULLIVAN_SPECS
from leibniz_oracle import d_monomial


def truncated_polynomial_betti(a, m, top):
    """Betti oracle for Lambda(x:2a, y:2am-1), dy = x^m: the cohomology is
    Q[x]/(x^m), so dimension 1 exactly at 0, 2a, ..., 2a(m-1)."""
    hits = {2 * a * k for k in range(m)}
    return [1 if i in hits else 0 for i in range(top + 1)]


@pytest.mark.parametrize("a,m", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
                                 (3, 2)])
def test_cohomology_matches_truncated_polynomial_oracle(a, m):
    x = Generator("x", 2 * a, 0)
    y = Generator("y", 2 * a * m - 1, 1)
    model = SullivanModel([x, y], {}, name="tp")
    dy = model.algebra.from_monomial(((0, m),))
    model = SullivanModel([x, y], {1: dy}, name="tp")
    top = 2 * a * m + 2
    cx = model.complex()
    assert [cx.betti(i) for i in range(top + 1)] == \
        truncated_polynomial_betti(a, m, top)


def test_odd_sphere_cohomology(s3):
    cx = s3.complex()
    assert [cx.betti(i) for i in range(8)] == [1, 0, 0, 1, 0, 0, 0, 0]


def test_kunneth_on_products(catalog_sullivan):
    """Betti numbers of a tensor product are the convolution of the factors'."""
    a = dsl.catalog_spec("s2")
    b = dsl.catalog_spec("sphere_odd(3)")
    prod = tensor_product(a, b)
    top = 8
    ba = [a.complex().betti(i) for i in range(top + 1)]
    bb = [b.complex().betti(i) for i in range(top + 1)]
    conv = [sum(ba[j] * bb[i - j] for j in range(i + 1)) for i in range(top + 1)]
    bp = [prod.complex().betti(i) for i in range(top + 1)]
    assert bp == conv


def test_validation_catches_d_squared():
    x = Generator("x", 2, 0)
    y = Generator("y", 3, 1)
    z = Generator("z", 4, 2)
    scratch = SullivanModel([x, y, z], {})
    alg = scratch.algebra
    # dy = x^2 and dz = x*y give d(dz) = x^3 != 0
    bad = SullivanModel([x, y, z], {
        1: alg.from_monomial(((0, 2),)),
        2: alg.multiply(alg.gen("x"), alg.gen("y")),
    })
    report = bad.validate()
    assert any(i.check == "d-squared" for i in report.issues)


def test_validation_catches_linear_terms_and_low_degrees():
    x = Generator("x", 2, 0)
    y = Generator("y", 1, 1)
    report = SullivanModel([x, y], {}).validate()
    assert any(i.check == "simple-connectivity" for i in report.issues)


def test_an_image_naming_a_missing_generator_is_an_issue():
    gens = [Generator("x", 2, 0), Generator("y", 3, 1)]
    bad = SullivanModel(gens, {1: Element({((7, 2),): 1})}, name="bad")
    assert [(i.check, i.generator) for i in bad.validate().issues] == [
        ("unknown-generator", "y")]
    with pytest.raises(ValidationError, match=r"SullivanModel\(bad\): "
                       r"unknown-generator \(y\): d\(y\) names "
                       r"generator index 7"):
        invariants.analysis(bad)


def test_an_image_with_an_odd_square_is_an_issue():
    # y^2 = 0 for y odd, so ((1, 2),) is no monomial: the image is an issue
    # naming the term, and no d of it is taken
    gens = [Generator("x", 2, 0), Generator("y", 3, 1), Generator("z", 5, 2)]
    bad = SullivanModel(gens, {2: Element({((1, 2),): 1})}, name="bad")
    assert [(i.check, i.generator) for i in bad.validate().issues] == [
        ("monomial", "z")]
    with pytest.raises(ValidationError, match=re.escape(
            "monomial (z): d(z) has the term ((1, 2),), which is no "
            "monomial")):
        invariants.analysis(bad)


def test_a_differential_on_a_missing_generator_is_an_issue():
    # keyed by an index no generator has, the differential is an issue
    # naming the index, not a KeyError
    gens = [Generator("x", 2, 0), Generator("y", 3, 1)]
    x2 = Element({((0, 2),): 1})
    for diff in ({9: x2}, {9: Element({((0, 1),): 1})}, {1: x2, 9: x2}):
        bad = SullivanModel(gens, diff, name="bad")
        assert [(i.check, i.generator) for i in bad.validate().issues] == [
            ("unknown-generator", "index 9")]
        with pytest.raises(ValidationError, match=r"SullivanModel\(bad\): "
                           r"unknown-generator \(index 9\): d is given on "
                           r"generator index 9"):
            invariants.analysis(bad)
        with pytest.raises(NotInAlgebra, match="generator index 9"):
            bad.derivation()


FRACTIONS = [Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4),
             Fraction(-5, 2), Fraction(7, 6)]


def leibniz(alg, images, m):
    """d of the monomial m by the Leibniz rule over ``Algebra.multiply``:
    m = g * rest for its first factor g, so d m = d(g) rest +
    (-1)^|g| g d(rest)."""
    if not m:
        return Element()
    (i, e), *tail = m
    rest = tuple(([(i, e - 1)] if e > 1 else []) + tail)
    g, r = alg.from_monomial(((i, 1),)), alg.from_monomial(rest)
    assert alg.multiply(g, r) == alg.from_monomial(m)
    sign = -1 if alg.by_index[i].degree % 2 else 1
    return (alg.multiply(images.get(i, Element()), r)
            + alg.multiply(g, leibniz(alg, images, rest)).scale(sign))


@pytest.mark.parametrize("seed", range(3))
def test_fractional_d_matrices_match_the_leibniz_rule(seed):
    # images with coefficients such as 1/2, 2/3 and -3/4, which need not
    # square to zero: every column of every d matrix, of the model and of
    # each truncation, read as Fractions, is the Leibniz rule computed with
    # Algebra.multiply, and so is d applied to an element
    rng = random.Random(seed)
    gens = [Generator("x", 2, 0), Generator("y", 3, 1), Generator("z", 4, 2),
            Generator("u", 5, 3), Generator("v", 7, 4)]
    alg = SullivanModel(gens, {}).algebra
    # decomposable images only, so that every truncation is closed
    images = {g.index: Element({m: rng.choice(FRACTIONS)
                                for m in alg.basis(g.degree + 1)
                                if sum(e for _, e in m) > 1
                                and rng.random() < 0.7})
              for g in gens}
    model = SullivanModel(gens, images)
    dens = set()
    for k in range(model.max_generator_degree() + 1):
        t = full_path_oracle.truncate(model, k)
        cx = t.complex()
        for degree in range(17):
            m = cx.d_matrix(degree)
            dens.add(m.den)
            assert m.rows == cx.dim(degree + 1)
            cols = m.columns()
            for c, mono in enumerate(cx.keys(degree)):
                want = leibniz(t.algebra, t.differential, mono)
                assert cols[c] == t.algebra.coords(degree + 1, want), (
                    k, mono)
                assert t.d(Element({mono: Fraction(1, 5)})) == \
                    want.scale(Fraction(1, 5)), (k, mono)
    assert max(dens) > 1    # some matrix carries a denominator


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
def test_d_matrices_of_random_models_match_the_per_factor_rule(seed, cseed):
    # a random pure model with each coefficient scaled by a fraction such as
    # 1/2 or -3/4: every column of every d matrix of the model and of its
    # truncations, through default_bound + 1, is the per-factor Leibniz rule
    # of tests/leibniz_oracle.py
    base = randmodels.random_pure_model(random.Random(seed))
    rng = random.Random(cseed)
    images = {i: Element({m: c * rng.choice(FRACTIONS)
                          for m, c in img.terms.items()})
              for i, img in base.differential.items()}
    model = SullivanModel(base.generators, images)
    top = invariants.default_bound(model) + 1
    truncations = {tuple(t.generators): t for t in (
        full_path_oracle.truncate(model, k) for k in range(top + 1))}
    for t in truncations.values():
        cx = t.complex()
        for degree in range(-1, top + 1):
            m = cx.d_matrix(degree)
            assert m.rows == cx.dim(degree + 1)
            cols = m.columns()
            for c, mono in enumerate(cx.keys(degree)):
                want = Element(d_monomial(t.algebra, t.differential, mono))
                assert cols[c] == t.algebra.coords(degree + 1, want), (
                    t, mono)


def test_a_monomial_that_is_no_key_is_refused():
    # with x:2, y:3: an unknown index, indices out of order or repeated, a
    # zero exponent and an odd square are no monomials of Lambda(x, y), so
    # d of them and products with them raise NotInAlgebra naming them
    x, y = Generator("x", 2, 0), Generator("y", 3, 1)
    model = SullivanModel([x, y], {1: Element({((0, 2),): 1})})
    alg = model.algebra
    for m in [((7, 1),), ((0, 1), (7, 1)), ((1, 1), (0, 1)),
              ((0, 1), (0, 1)), ((0, 0),), ((0, -1),), ((1, 2),)]:
        bad = Element({m: 1})
        with pytest.raises(NotInAlgebra, match=re.escape(str(m))):
            model.d(bad)
        with pytest.raises(NotInAlgebra, match=re.escape(str(m))):
            alg.multiply(bad, alg.gen("y"))
        with pytest.raises(NotInAlgebra, match=re.escape(str(m))):
            alg.multiply(alg.gen("y"), bad)
    xy = Element({((0, 1), (1, 1)): 1})
    assert model.d(xy) == Element({((0, 3),): 1})
    assert alg.multiply(alg.gen("x"), alg.gen("y")) == xy


def test_truncation_closure_enforced():
    # x:2, y:3, w:4: with d y = x^2 the cut at 3 keeps x and y and is
    # closed, so Gamma^5, read over it, raises nothing; with d y = x^2 + w
    # it keeps y but not w, and Gamma^5 and the oracle's truncation both
    # refuse it
    x, y, w = Generator("x", 2, 0), Generator("y", 3, 1), Generator("w", 4, 2)
    x2 = Element({((0, 2),): 1})
    m = SullivanModel([x, y, w], {1: x2})
    assert m.gamma(5).dim == 0
    assert [g.name for g in full_path_oracle.truncate(m, 3).generators] == [
        "x", "y"]
    m = SullivanModel([x, y, w], {1: x2 + Element({((2, 1),): 1})})
    with pytest.raises(TruncationNotClosed):
        m.gamma(5)
    with pytest.raises(TruncationNotClosed):
        full_path_oracle.truncate(m, 3)


def test_truncation_not_closed_raises():
    # d u = z with z:8 above u:7: the cut at 7 keeps u and drops z, so
    # Gamma^9, read over that cut, and the oracle's truncation to degree 7
    # both raise
    z, u = Generator("z", 8, 0), Generator("u", 7, 1)
    m = SullivanModel([z, u], {1: Element({((0, 1),): 1})})
    with pytest.raises(TruncationNotClosed):
        m.gamma(9)
    with pytest.raises(TruncationNotClosed):
        full_path_oracle.truncate(m, 7)


def test_l_spaces_cpn(cp2):
    a = invariants.SullivanAnalysis(cp2)
    assert [a.model.gamma_dim(i) for i in range(4, 11)] == \
        [1, 0, 1, 0, 0, 0, 0]
    a = invariants.SullivanAnalysis(dsl.catalog("cpn_sullivan", 3))
    assert [a.model.gamma_dim(i) for i in range(4, 15)] == \
        [1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_whitehead_sequence_exact_on_catalog(catalog_sullivan):
    for m in catalog_sullivan:
        bound = min(invariants.default_bound(m), 12)
        report = sullivan.whitehead_sequence(m, bound)
        assert report.exact


def test_whitehead_nodes_cp2(cp2):
    report = sullivan.whitehead_sequence(cp2, 6)
    by_deg = {n.degree: n for n in report.nodes}
    assert by_deg[2].dim_v == 1 and by_deg[2].rank_b == 0
    assert by_deg[5].dim_v == 1 and by_deg[5].dim_l_next == 1
    assert by_deg[5].rank_b == 1  # d(y) = x^3 hits L^6


def test_whitehead_nodes_cp3_pinned():
    # (i, dim V^i, dim L^(i+1), dim H^(i+1), rank b, rank incl) at the
    # default window 14: x:2 and y:7 with d y = x^4
    m = dsl.catalog("cpn_sullivan", 3)
    report = sullivan.whitehead_sequence(m, invariants.default_bound(m))
    assert [tuple(vars(n).values()) for n in report.nodes] == [
        (2, 1, 0, 0, 0, 0), (3, 0, 1, 1, 0, 1), (4, 0, 0, 0, 0, 0),
        (5, 0, 1, 1, 0, 1), (6, 0, 0, 0, 0, 0), (7, 1, 1, 0, 1, 0),
        *[(i, 0, 0, 0, 0, 0) for i in range(8, 15)]]


def test_rho_builds_no_homology_representatives(monkeypatch):
    # rho is an alternating sum of rank-only dimensions of L^i, each the
    # betti number of a truncation
    from elliptica.graded import GradedComplex

    def no_reps(self, degree):
        raise AssertionError(f"representatives of degree {degree} built")

    monkeypatch.setattr(GradedComplex, "homology", no_reps)
    a = invariants.SullivanAnalysis(dsl.catalog("cpn_sullivan", 3))
    assert a.rho() == 4


@pytest.mark.parametrize("model", [
    *(pytest.param(dsl.catalog_spec(spec), id=spec)
      for spec in CATALOG_SULLIVAN_SPECS),
    *(pytest.param(m, id=m.name) for m in randmodels.random_models(7, 20)),
])
def test_truncations_are_views_of_the_parent(model):
    """Every truncation, whose bases are the model's restricted
    (``source``), assembles the d matrices a free-standing copy assembles
    itself; its rank-only Betti numbers equal its numbers of
    representatives."""
    top = invariants.default_bound(model) + 1
    for k in range(model.max_generator_degree() + 1):
        t = full_path_oracle.truncate(model, k)
        fresh = SullivanModel(t.generators, t.differential)
        cx = t.complex()
        for deg in range(top + 1):
            assert cx.d_matrix(deg) == fresh.complex().d_matrix(deg), (k, deg)
        bettis = [cx.betti(deg) for deg in range(top + 1)]
        assert bettis == [len(cx.cohomology(deg)[1])
                          for deg in range(top + 1)], k


def test_a_term_that_is_no_key_is_refused_with_a_typed_error():
    # d y = x^2 with x odd: x^2 is no monomial, so d out of degree 5 has no
    # row for it, and the root names the model and the degree instead of
    # letting a bare KeyError escape; Gamma^6 reads it too
    x, y = Generator("x", 3, 0), Generator("y", 5, 1)
    m = SullivanModel([x, y], {1: Element({((0, 2),): 1})}, name="oddsq")
    for run in (lambda m: m.complex().betti(5), lambda m: m.gamma(6)):
        with pytest.raises(NotInAlgebra, match=re.escape(
                "SullivanModel(oddsq): d of a degree-5 basis element has the "
                "term ((0, 2),), which is no basis key of degree 6")):
            run(SullivanModel(m.generators, m.differential, name=m.name))
    # d-bar shares the assembly: with w:2 and u:7, d-bar out of degree 7
    # reads the decomposable y*w, whose image x^2 w is no key either
    w, u = Generator("w", 2, 2), Generator("u", 7, 3)
    m = SullivanModel([x, y, w, u], m.differential, name="oddsq2")
    with pytest.raises(NotInAlgebra, match=re.escape(
            "SullivanModel(oddsq2): d of a degree-7 basis element has the "
            "term ((0, 2), (2, 1))")):
        m.complex().d_bar(7)


def test_gamma_refuses_a_generator_of_degree_1():
    # with V^1 != 0 the decomposables of degree k hold V^(k-1) * V^1, which
    # truncate(k - 2) lacks, so Gamma is not read over them
    t, x = Generator("t", 1, 0), Generator("x", 2, 1)
    m = SullivanModel([t, x], {}, name="circle")
    for k in (2, 3, 4):
        with pytest.raises(ValidationError, match=re.escape(
                "SullivanModel(circle): simple-connectivity (t)")):
            m.gamma(k)


def test_gamma_refuses_a_kept_generator_whose_d_leaves_the_kept_ones():
    # d z = w is linear: Gamma^5 reads truncate(3), which keeps z but not w,
    # and raises as that truncation does
    x, w, z = Generator("x", 2, 0), Generator("w", 4, 1), Generator("z", 3, 2)
    m = SullivanModel([x, w, z], {2: Element({((1, 1),): 1})}, name="lin")
    with pytest.raises(TruncationNotClosed, match=re.escape(
            "SullivanModel(lin): d(z) involves a generator of degree > 3")):
        m.gamma(5)
    with pytest.raises(TruncationNotClosed):
        full_path_oracle.truncate(m, 3)


def test_rank_only_betti_raises_when_d_squared_is_nonzero():
    x = Generator("x", 2, 0)
    y = Generator("y", 3, 1)
    z = Generator("z", 4, 2)
    scratch = SullivanModel([x, y, z], {})
    alg = scratch.algebra
    # dy = x^2 and dz = x*y give d(dz) = x^3 != 0 (degree 4 -> 6)
    bad = SullivanModel([x, y, z], {
        1: alg.from_monomial(((0, 2),)),
        2: alg.multiply(alg.gen("x"), alg.gen("y")),
    })
    cx = bad.complex()
    with pytest.raises(CompositionNotZero):
        cx.betti(5)
    assert 5 not in cx._coh_cache   # no representatives were built
