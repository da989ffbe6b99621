import pytest

from elliptica import dsl, invariants, quillen
from elliptica.commutative import Generator
from elliptica.errors import BadParameter, NotEllipticWithinBound
from elliptica.sullivan import SullivanModel

# spec string -> (formal dim, chi_h, chi_v, rho, f0, odd_sphere)
EXPECTED = {
    "sphere_odd(3)": (3, 0, -1, 1, False, True),
    "sphere_odd(5)": (5, 0, -1, 1, False, True),
    "s2": (2, 2, 0, 2, True, False),
    "sphere_even(4)": (4, 2, 0, 2, True, False),
    "cpn_sullivan(1)": (2, 2, 0, 2, True, False),
    "cpn_sullivan(2)": (4, 3, 0, 3, True, False),
    "cpn_sullivan(3)": (6, 4, 0, 4, True, False),
    "product(s2,sphere_odd(3))": (5, 0, -1, 1, False, False),
    "product(sphere_odd(3),sphere_odd(5))": (8, 0, -2, 2, False, False),
    "product(s2,sphere_even(4))": (6, 4, 0, 4, True, False),
}


@pytest.mark.parametrize("spec,expected", EXPECTED.items())
def test_invariant_report_on_catalog(spec, expected):
    model = dsl.catalog_spec(spec)
    rep = invariants.invariant_report(model)
    assert (rep.formal_dimension, rep.chi_h, rep.chi_v, rep.rho,
            rep.f0, rep.odd_sphere) == expected


def test_full_ledger_verified_on_catalog(catalog_sullivan):
    for m in catalog_sullivan:
        ledger = invariants.full_ledger(m)
        assert ledger.all_verified, (m.name, ledger.violated)


def test_full_ledger_verified_on_random_population(random_pure_population):
    for m in random_pure_population:
        ledger = invariants.full_ledger(m)
        assert ledger.all_verified, (m.name, ledger.violated)


def test_is_pure(cp2, random_pure_population):
    assert invariants.is_pure(cp2)
    for m in random_pure_population:
        assert invariants.is_pure(m)


def test_non_elliptic_model_rejected():
    # Lambda(x:2) with d = 0 is the polynomial algebra: never elliptic
    model = SullivanModel([Generator("x", 2, 0)], {})
    a = invariants.SullivanAnalysis(model, bound=10)
    with pytest.raises(NotEllipticWithinBound):
        a.require_elliptic()


@pytest.mark.parametrize("spec,bound,need", [
    ("s2", 3, 6), ("cpn_sullivan(2)", 3, 10), ("cpn_sullivan(2)", 6, 10),
    # a window that ends below the top class once read as formal dimension
    # 0 on S^11, and as 3, an odd sphere, on S^3 x S^11
    ("sphere_odd(11)", 5, 24),
    ("product(sphere_odd(3),sphere_odd(11))", 9, 30)])
def test_short_window_is_blamed_on_the_window(spec, bound, need):
    # the top class seen lies within the candidate formal dimension, but the
    # window is too short to certify that nothing follows it
    model = dsl.catalog_spec(spec)
    a = invariants.SullivanAnalysis(model, bound)
    with pytest.raises(BadParameter, match=f"at least {need}, got {bound}"):
        a.require_elliptic()
    with pytest.raises(BadParameter):
        invariants.SullivanAnalysis(model, bound).formal_dimension


def test_compare_refuses_a_window_short_of_the_top_class():
    # with the window's verdict S^11 had formal dimension 0, and the
    # pairing with its Quillen model reported a false mismatch
    with pytest.raises(BadParameter, match="at least 24, got 5"):
        invariants.compare_models(dsl.catalog_spec("sphere_odd(11)"),
                                  dsl.catalog_spec("sphere_odd_quillen(11)"),
                                  5)


@pytest.mark.parametrize("entry", [invariants.invariant_report,
                                   invariants.full_ledger])
def test_ellipticity_is_decided_once(monkeypatch, entry):
    calls = []
    require = invariants.SullivanAnalysis.require_elliptic

    def counting_require(self):
        calls.append(self)
        return require(self)

    monkeypatch.setattr(invariants.SullivanAnalysis, "require_elliptic",
                        counting_require)
    entry(dsl.catalog("cpn_sullivan", 2))
    assert len(calls) == 1


def test_rho_equals_chi_difference_everywhere(catalog_sullivan,
                                              random_pure_population):
    for m in catalog_sullivan + random_pure_population:
        a = invariants.SullivanAnalysis(m)
        assert a.rho() == a.chi_h - a.chi_v, m.name


def test_f0_classifier_cross_check(cp2, s3):
    f0, evidence = invariants.SullivanAnalysis(cp2).f0()
    assert f0 and evidence["pure"] and evidence["pure-criterion-agrees"]
    f0s3, _ = invariants.SullivanAnalysis(s3).f0()
    assert not f0s3


def test_compare_models_pairs():
    pairs = [("s2", "s2_quillen"), ("sphere_odd(3)", "sphere_odd_quillen(3)"),
             ("cpn_sullivan(2)", "cpn_quillen(2)")]
    for s_spec, q_spec in pairs:
        rep = invariants.compare_models(dsl.catalog_spec(s_spec),
                                        dsl.catalog_spec(q_spec))
        assert rep.matches, (s_spec, q_spec, rep.mismatches)
        assert rep.rho == rep.eta


def test_eta_matches_rho_on_cpn():
    for n in (1, 2, 3):
        s = dsl.catalog("cpn_sullivan", n)
        q = dsl.catalog("cpn_quillen", n)
        assert invariants.SullivanAnalysis(s).rho() == quillen.eta(q) == n + 1


def test_candidate_formal_dimension(cp2):
    assert invariants.candidate_formal_dimension(cp2) == 4
    s3x5 = dsl.catalog_spec("product(sphere_odd(3),sphere_odd(5))")
    assert invariants.candidate_formal_dimension(s3x5) == 8


# spec -> (chi_H, chi_pi, eta) on the Quillen side
QUILLEN_EXPECTED = {
    "s2_quillen": (2, 0, 2),
    "sphere_odd_quillen(3)": (0, -1, 1),
    "sphere_odd_quillen(5)": (0, -1, 1),
    "cpn_quillen(1)": (2, 0, 2),
    "cpn_quillen(2)": (3, 0, 3),
    "cpn_quillen(3)": (4, 0, 4),
    "cpn_quillen(4)": (5, 0, 5),
}


@pytest.mark.parametrize("spec,expected", QUILLEN_EXPECTED.items())
def test_eta_equals_chi_h_minus_chi_pi(spec, expected):
    a = invariants.QuillenAnalysis(dsl.catalog_spec(spec))
    assert (a.chi_h, a.chi_pi, a.eta()) == expected
    assert a.eta() == a.chi_h - a.chi_pi
    assert a.ledger().all_verified


def test_an_analysis_refuses_a_model_of_the_other_kind(cp2, cp2q):
    for call in [lambda: invariants.invariant_report(cp2q),
                 lambda: invariants.full_ledger(cp2q),
                 lambda: invariants.SullivanAnalysis(cp2q).chi_h,
                 lambda: invariants.QuillenAnalysis(cp2)]:
        with pytest.raises(BadParameter, match="is a (quillen|sullivan) model;"
                           " (Sullivan|Quillen)Analysis needs a"):
            call()


def test_no_euler_characteristic_from_a_short_window(cp2, cp2q):
    # the true values are chi_H(CP^2) = 3 and chi_pi(CP^2) = 0
    with pytest.raises(BadParameter, match="ellipticity verdict needs a "
                       "degree window of at least 10, got 3"):
        invariants.SullivanAnalysis(cp2, 3).chi_h
    with pytest.raises(BadParameter, match="eta needs a degree window of "
                       "at least 8 .*, got 3"):
        invariants.QuillenAnalysis(cp2q, 3).chi_pi
    assert invariants.SullivanAnalysis(cp2, 10).chi_h == 3
    assert invariants.QuillenAnalysis(cp2q, 8).chi_pi == 0


def test_analysis_picks_the_model_kind(cp2, cp2q):
    assert type(invariants.analysis(cp2)) is invariants.SullivanAnalysis
    a = invariants.analysis(cp2q, 9)
    assert type(a) is invariants.QuillenAnalysis
    assert (a.kind, a.bound) == ("quillen", 9)
    assert invariants.analysis(cp2q).bound == quillen.default_bound(cp2q)
