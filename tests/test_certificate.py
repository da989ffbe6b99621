"""The Friedlander-Halperin ellipticity certificate and the cap it puts on
the Sullivan complex, against an uncapped oracle: the same model with the
same certificate, whose complex is never capped and so computes every
degree of the window."""
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptica import dsl, invariants, linalg, randmodels, sullivan
from elliptica.commutative import Algebra, Element, Generator
from elliptica.errors import (BadParameter, InternalInconsistency,
                              NotEllipticWithinBound)
from elliptica.sullivan import CochainComplex, SullivanModel

from conftest import CATALOG_SULLIVAN_SPECS
from dense_oracle import rank as dense_rank

GENERATORS = {
    "pure": randmodels.random_pure_model,
    "nonpure": randmodels.random_nonpure_model,
    "nonelliptic": randmodels.random_nonelliptic_model,
}

REFUSED = {
    "free_x": "model free_x : sullivan\ngen x : 2\ngen y : 3\nd y = 0\n",
    "xy_kernel": "model xy_kernel : sullivan\ngen x : 2\ngen y : 2\n"
                 "gen z : 3\nd z = x*y\n",
}


def sub_model(model, k):
    """The generators of degree <= k with their d, as a model of its own."""
    keep = [g for g in model.generators if g.degree <= k]
    return SullivanModel(keep, {g.index: model.d_of_generator(g.index)
                                for g in keep})


class UncappedComplex(CochainComplex):
    """A cochain complex that proves no degree zero."""

    def _proven_zero(self, degree):
        return False


class Uncapped(SullivanModel):
    """The oracle: a Sullivan model that keeps its certificate, the
    ellipticity verdict, but whose complex, and each of its truncations',
    computes every degree of the window."""

    complex_type = UncappedComplex


def uncapped(model):
    return Uncapped(model.generators, model.differential, name=model.name)


def window_verdict(model) -> bool:
    """Elliptic by the degree window: no cohomology between the candidate
    formal dimension and ``default_bound``, each degree ranked on freshly
    assembled d matrices."""
    cx, n = CochainComplex(model), invariants.candidate_formal_dimension(model)
    ranks = {i: linalg.rank(cx._assemble_d_matrix(i))
             for i in range(-1, invariants.default_bound(model) + 1)}
    return not any(cx.dim(i) - ranks[i] - ranks[i - 1]
                   for i in range(max(n + 1, 0), len(ranks) - 1))


def ranked_band(model):
    """Oracle for ``certified_top``: the certificate with a dense rank of
    A_t in every degree t of the band n + 1 .. n + D, odd t included, over
    the monomials of Q[V^even] listed by brute force."""
    n = invariants.candidate_formal_dimension(model)
    even = [g for g in model.generators if g.degree % 2 == 0]
    if not even:
        return n
    if n < 0:
        return None
    poly = Algebra(even)

    def monomials(t):
        out = [()]
        for g in even:
            out = [m + (((g.index, e),) if e else ())
                   for m in out for e in range(t // g.degree + 1)]
        return [m for m in out if poly.key_degree(m) == t]

    relations = []
    for g in model.generators:
        if g.degree % 2:
            img = model.d_of_generator(g.index)
            relations.append((g.degree + 1, {
                m: c for m, c in img.terms.items()
                if all(i in poly.by_index for i, _ in m)}))
    for t in range(n + 1, n + max(g.degree for g in even) + 1):
        keys = monomials(t)
        columns = []
        for degree, rel in relations:
            for m in monomials(t - degree):
                prod = poly.multiply(poly.from_monomial(m), Element(rel))
                columns.append([prod.terms.get(k, 0) for k in keys])
        rows = [list(r) for r in zip(*columns)] if columns else []
        if dense_rank(rows) != len(keys):
            return None
    return n


def nonpure_population():
    return [randmodels.random_nonpure_model(random.Random(s), name=f"np{s}")
            for s in range(8)]


def populations():
    return [
        *(pytest.param(dsl.catalog_spec(s), id=s)
          for s in CATALOG_SULLIVAN_SPECS),
        *(pytest.param(m, id=m.name) for m in randmodels.random_models(7, 20)),
        *(pytest.param(m, id=m.name) for m in nonpure_population()),
    ]


def reports(model):
    """Everything the analyses read at ``default_bound``."""
    a = invariants.SullivanAnalysis(model)
    return (a.betti, a.l_window(), a.rho(), a.report(), a.ledger().entries,
            a.whitehead().nodes)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 10 ** 9))
def test_certificate_and_window_verdicts_agree(kind, seed):
    model = GENERATORS[kind](random.Random(seed))
    certified = model.certified_top is not None
    assert certified == window_verdict(model) == (kind != "nonelliptic")
    if certified:
        assert model.certified_top == invariants.candidate_formal_dimension(
            model)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_every_random_pure_model_is_certified(seed):
    model = randmodels.random_pure_model(random.Random(seed))
    assert model.certified_top == invariants.candidate_formal_dimension(model)


@pytest.mark.parametrize("seed", range(6))
def test_the_new_random_populations(seed):
    m = randmodels.random_nonpure_model(random.Random(seed))
    assert not invariants.is_pure(m) and m.validate().ok
    assert m.certified_top == invariants.candidate_formal_dimension(m)
    m = randmodels.random_nonelliptic_model(random.Random(seed))
    assert invariants.is_pure(m) and m.validate().ok
    assert m.certified_top is None
    with pytest.raises(NotEllipticWithinBound):
        invariants.invariant_report(m)


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_fixtures_stay_refused(name):
    model = dsl.parse(REFUSED[name])
    assert model.certified_top is None
    with pytest.raises(NotEllipticWithinBound):
        invariants.invariant_report(model)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["pure", "nonpure"]), st.integers(0, 10 ** 9))
def test_the_window_only_bounds_the_verdict(kind, seed):
    # the certificate decides ellipticity; the window is only refused when
    # it is too short to hold H^* and L^*
    model = GENERATORS[kind](random.Random(seed))
    need = invariants.default_bound(model)
    for bound in range(need):
        a = invariants.SullivanAnalysis(model, bound)
        with pytest.raises(BadParameter,
                           match=f"at least {need}, got {bound}"):
            a.formal_dimension
    assert (invariants.SullivanAnalysis(model, need).formal_dimension
            == model.certified_top is not None)


def test_a_truncation_is_certified_but_not_capped():
    # S^3 x S^5 cut to degree 3 is S^3, a model of its own
    t = sub_model(dsl.catalog_spec("product(sphere_odd(3),sphere_odd(5))"), 3)
    assert t.certified_top == 3
    rep = invariants.SullivanAnalysis(t).report()
    assert (rep.formal_dimension, rep.odd_sphere) == (3, True)


def test_a_refusal_ranks_no_window():
    # the certificate's band names the degree; the complex builds nothing
    model = dsl.parse(REFUSED["free_x"])
    with pytest.raises(NotEllipticWithinBound,
                       match=r"free_x\) is not elliptic: .* nonzero in degree "
                             r"4, above the candidate formal dimension 2"):
        invariants.invariant_report(model)
    assert model.band_witness == 4 and model.complex()._d_cache == {}


def test_only_a_valid_elliptic_sullivan_model_is_certified():
    # validity and the band decide, not being a root: CP^3 cut to degree 2
    # is Q[x], whose candidate formal dimension -1 leaves it uncertified
    cp3 = dsl.catalog_spec("cpn_sullivan(3)")
    assert cp3.certified_top == 6
    t = sub_model(cp3, 2)
    assert invariants.candidate_formal_dimension(t) == -1
    assert t.certified_top is None
    assert dsl.catalog_spec("cpn_quillen(2)").certified_top is None
    free = dsl.parse("model free : sullivan\ngen x : 2\ngen y : 3\n"
                     "gen z : 4\nd z = x*y\n")    # valid, not elliptic
    assert free.validate().ok and free.certified_top is None
    # n = -3 puts the band n + 1 .. n + 2 below degree 0, where it says nothing
    poly = dsl.parse("model poly : sullivan\ngen x : 2\ngen y : 2\n"
                     "gen z : 2\n")
    assert poly.certified_top is None
    with pytest.raises(NotEllipticWithinBound):
        invariants.invariant_report(poly)
    # d d z = d(x y) = x^3 != 0
    x, y, z = Generator("x", 2, 0), Generator("y", 3, 1), Generator("z", 4, 2)
    broken = SullivanModel([x, y, z], {1: Element({((0, 2),): 1}),
                                       2: Element({((0, 1), (1, 1)): 1})})
    assert not broken.validate().ok and broken.certified_top is None


@pytest.mark.parametrize("model", populations())
def test_capped_analysis_equals_the_uncapped_oracle(model):
    assert model.certified_top == ranked_band(model) is not None
    assert reports(model) == reports(uncapped(model))


@pytest.mark.parametrize("model", populations())
def test_root_d_is_built_only_up_to_the_cap(model):
    top = max(model.certified_top + 1, model.max_generator_degree() + 1)
    for run in (invariants.invariant_report, invariants.full_ledger,
                lambda m: m.whitehead_sequence(invariants.default_bound(m))):
        fresh = type(model)(model.generators, model.differential,
                            name=model.name)
        run(fresh)
        built = sorted(fresh.complex()._d_cache)
        assert built and max(built) <= top, built


@pytest.mark.parametrize("model", populations())
def test_a_certified_root_builds_no_d_above_n_plus_one(model):
    # Gamma is read over the root's decomposables, whose d-bar is assembled
    # apart from the root's d above n + 1, so the root builds d only where
    # its own H is not proven zero, up to its certified top n + 1
    fresh = type(model)(model.generators, model.differential,
                        name=model.name)
    invariants.invariant_report(fresh)
    invariants.full_ledger(fresh)
    fresh.whitehead_sequence(invariants.default_bound(fresh))
    built = sorted(fresh.complex()._d_cache)
    assert built and max(built) <= fresh.certified_top + 1, built


@pytest.mark.parametrize("spec", ["s2", "sphere_odd(3)", "cpn_sullivan(2)",
                                  "product(s2,sphere_odd(3))"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_a_wrong_certificate_raises(spec, shift, monkeypatch):
    model = dsl.catalog_spec(spec)
    n = model.certified_top
    monkeypatch.setattr(model, "certified_top", n + shift)
    with pytest.raises(InternalInconsistency, match=re.escape(repr(model))):
        invariants.invariant_report(model)
    # the check runs before a zero Whitehead node or a zero Gamma above
    # z = max(n + 1, max|V| + 1) is returned
    z = max(n + shift, model.max_generator_degree()) + 1
    for run in (lambda m: m.complex().betti(n + 3),
                lambda m: m.whitehead_sequence(invariants.default_bound(m)),
                lambda m: m.gamma(z + 1)):
        fresh = dsl.catalog_spec(spec)
        monkeypatch.setattr(fresh, "certified_top", n + shift)
        with pytest.raises(InternalInconsistency,
                           match="certified top degree"):
            run(fresh)


def test_a_model_without_even_generators_is_certified_at_once():
    m = sullivan.tensor_product(dsl.catalog_spec("sphere_odd(3)"),
                                dsl.catalog_spec("sphere_odd(5)"))
    assert m.certified_top == 8
    assert SullivanModel([], {}).certified_top == 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 10 ** 9))
def test_certificate_equals_the_ranked_band_oracle(kind, seed):
    # certified_top skips the odd degrees of the band, where Q[V^even] has
    # no monomial; ranking them too gives the same verdict
    model = GENERATORS[kind](random.Random(seed))
    assert model.certified_top == ranked_band(model)
