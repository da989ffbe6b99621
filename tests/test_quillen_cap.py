"""The Quillen table that ``compare_models`` stops at 2N - 2, N the Sullivan
partner's certificate, against an uncapped oracle: the comparison with the
Quillen side read on its default window 2 max|W| + 2 by elimination in
every degree, pairing i only up to max(N, max|W| + 1)."""
import pytest

from elimination_oracle import elimination_route
from elliptica import dsl, invariants, quillen
from elliptica.errors import UnboundedGamma
from elliptica.invariants import (ComparisonReport, QuillenAnalysis,
                                  SullivanAnalysis)

CATALOG_PAIRS = [("s2", "s2_quillen"),
                 ("sphere_odd(3)", "sphere_odd_quillen(3)"),
                 ("cpn_sullivan(2)", "cpn_quillen(2)")]
CPN_PAIRS = [(f"cpn_sullivan({n})", f"cpn_quillen({n})") for n in range(1, 7)]
MISMATCHED = [("cpn_sullivan(2)", "cpn_quillen(3)"), ("s2", "cpn_quillen(2)")]

S3XS5 = "product(sphere_odd(3),sphere_odd(5))"


def wedge(dc: str):
    """L(a, b, c) with |a| = 2, |b| = 4, |c| = 7 and delta c = dc: with
    dc = [a,b] the Quillen model of S^3 x S^5, with dc = 0 of the wedge
    S^3 v S^5 v S^8, which is hyperbolic."""
    return dsl.parse("model wedge : quillen\ngen a : 2\ngen b : 4\n"
                     f"gen c : 7\nd c = {dc}\n")


def window_compare(s, q) -> ComparisonReport:
    """The oracle: ``compare_models`` with the Quillen table read on its
    default window, with no partner's proof, by elimination (not Ext) in
    every degree."""
    with elimination_route():
        return _window_compare(s, q)


def _window_compare(s, q) -> ComparisonReport:
    a = SullivanAnalysis(s)
    r = a.rho()
    b = QuillenAnalysis(q)
    e = b.eta()
    n = a.formal_dimension
    mismatches = [] if r == e else [f"rho {r} != eta {e}"]
    l_vs_gamma = {k: (s.gamma_dim(k), q.gamma_dim(k - 2))
                  for k in range(4, 2 * n + 1)}
    mismatches += [f"dim L^{k} = {lk} != dim Gamma_{k - 2} = {gk}"
                   for k, (lk, gk) in l_vs_gamma.items() if lk != gk]
    homology_pairing, homotopy_pairing = {}, {}
    for i in range(2, max(n, q.max_generator_degree() + 1) + 1):
        h, w = homology_pairing[i] = (a.betti.get(i, 0), b.gen_dim(i - 1))
        if h != w:
            mismatches.append(f"dim H^{i} = {h} != dim W_{i - 1} = {w}")
        v, hq = homotopy_pairing[i] = (a.gen_dim(i), b.h_dim(i - 1))
        if v != hq:
            mismatches.append(
                f"dim V^{i} = {v} != dim H_{i - 1}(L(W)) = {hq}")
    return ComparisonReport(r, e, l_vs_gamma, homology_pairing,
                            homotopy_pairing, tuple(mismatches))


def assert_equal_over_old_range(rep, oracle):
    """Every field equal, the pairings on the oracle's rows."""
    assert (rep.rho, rep.eta, rep.l_vs_gamma, rep.mismatches) == (
        oracle.rho, oracle.eta, oracle.l_vs_gamma, oracle.mismatches)
    for field in ("homology_pairing", "homotopy_pairing"):
        got, want = getattr(rep, field), getattr(oracle, field)
        assert {i: got[i] for i in want} == want


def top_d_degree(q) -> int:
    return max(q.complex()._d_cache)


@pytest.mark.parametrize("s_spec,q_spec", CATALOG_PAIRS + CPN_PAIRS,
                         ids=lambda spec: spec)
def test_capped_comparison_equals_the_window_oracle(s_spec, q_spec):
    s, q = dsl.catalog_spec(s_spec), dsl.catalog_spec(q_spec)
    rep = invariants.compare_models(s, q)
    q_oracle = dsl.catalog_spec(q_spec)
    oracle = window_compare(dsl.catalog_spec(s_spec), q_oracle)
    assert rep.matches and oracle.matches
    assert_equal_over_old_range(rep, oracle)
    n = s.certified_top
    assert n == q.max_generator_degree() + 1
    # the degrees above max|W| = N - 1 are read from Ext, with no matrix
    assert top_d_degree(q) <= n
    if q_spec.startswith("cpn_quillen"):
        assert sorted(q.complex()._d_cache) == list(range(1, n + 1))
        # the window oracle eliminates and builds d out of 2N + 1, but L(W)
        # of cpn_quillen(1) vanishes above 2, so its last d is out of 3
        window_top = 3 if q_spec == "cpn_quillen(1)" else 2 * n + 1
        assert top_d_degree(q_oracle) == window_top


@pytest.mark.parametrize("n", range(1, 7))
def test_the_homotopy_pairing_reaches_the_top_generator(n):
    """V^(2n+1) <-> H_(2n)(L(W)), past max(N, max|W| + 1) = 2n."""
    rep = invariants.compare_models(dsl.catalog("cpn_sullivan", n),
                                    dsl.catalog("cpn_quillen", n))
    assert max(rep.homotopy_pairing) == 2 * n + 1
    assert rep.homotopy_pairing[2 * n + 1] == (1, 1)
    assert rep.homology_pairing[2 * n + 1] == (0, 0)


@pytest.mark.parametrize("s_spec,q_spec", MISMATCHED, ids=lambda spec: spec)
def test_a_mismatched_pair_takes_the_window(s_spec, q_spec):
    s, q = dsl.catalog_spec(s_spec), dsl.catalog_spec(q_spec)
    assert QuillenAnalysis.from_partner(q, SullivanAnalysis(s)) is None
    rep = invariants.compare_models(s, q)
    assert not rep.matches
    assert rep == window_compare(dsl.catalog_spec(s_spec),
                                 dsl.catalog_spec(q_spec))


def test_the_hyperbolic_wedge_still_raises():
    """The gate refutes the premise (dim H_6(L(W)) = 1 != dim V^7 = 0), and
    the window finds H_15(L(W)) != 0, as before."""
    s, q = dsl.catalog_spec(S3XS5), wedge("0")
    assert QuillenAnalysis.from_partner(q, SullivanAnalysis(s)) is None
    with pytest.raises(UnboundedGamma, match=r"^DGLModel\(wedge\): H_15"):
        invariants.compare_models(s, q)


def test_the_elliptic_partner_of_the_wedge_matches():
    s, q = dsl.catalog_spec(S3XS5), wedge("[a,b]")
    rep = invariants.compare_models(s, q)
    assert rep.matches and rep.rho == rep.eta == 2
    assert_equal_over_old_range(
        rep, window_compare(dsl.catalog_spec(S3XS5), wedge("[a,b]")))
    assert top_d_degree(q) <= s.certified_top


def test_a_mismatch_under_the_cap_is_read_again_from_the_window(monkeypatch):
    """A capped report that does not match refutes the premise: compare
    returns the report of the uncapped Quillen analysis instead."""
    pair = invariants._pair
    seen = []

    def pair_with_a_capped_mismatch(a, r, b):
        seen.append(b.proven)
        rep = pair(a, r, b)
        if b.proven:
            return ComparisonReport(rep.rho, rep.eta, rep.l_vs_gamma,
                                    rep.homology_pairing,
                                    rep.homotopy_pairing, ("planted",))
        return rep

    monkeypatch.setattr(invariants, "_pair", pair_with_a_capped_mismatch)
    rep = invariants.compare_models(dsl.catalog("cpn_sullivan", 2),
                                    dsl.catalog("cpn_quillen", 2))
    assert seen == [True, False]
    assert rep.matches and rep.rho == rep.eta == 3


def test_the_gate_needs_the_certificate_at_max_w_plus_one():
    """cpn_sullivan(3) is certified at N = 6, but W of cpn_quillen(2) gives
    the formal dimension 4."""
    a = SullivanAnalysis(dsl.catalog("cpn_sullivan", 3))
    assert a.model.certified_top == 6
    q = dsl.catalog("cpn_quillen", 2)
    assert QuillenAnalysis.from_partner(q, a) is None
    assert not q.complex()._d_cache


# The degrees whose delta matrix the default window builds by elimination:
# 1 .. 2 max|W| + 3 (cpn_quillen(1): L(W) vanishes above 2, so d out of 3
# is the last).  With Ext above max|W| the last is out of max|W| + 1.
WINDOW_TOP = {1: 3, 2: 9, 3: 13, 4: 17}
STANDALONE = {
    "eta": quillen.eta,
    "whitehead_sequence_dgl": lambda q: quillen.whitehead_sequence_dgl(
        q, quillen.default_bound(q)),
    "invariants": lambda q: QuillenAnalysis(q).invariants(verbose=True),
    "ledger": lambda q: QuillenAnalysis(q).ledger(),
}


@pytest.mark.parametrize("request_name", STANDALONE)
@pytest.mark.parametrize("n", WINDOW_TOP)
def test_a_standalone_quillen_request_keeps_the_window(request_name, n):
    # the same answer as the elimination oracle on the whole window, with
    # no delta matrix out of a degree above max|W| + 1
    q = dsl.catalog("cpn_quillen", n)
    got = STANDALONE[request_name](q)
    assert sorted(q.complex()._d_cache) == list(
        range(1, q.max_generator_degree() + 2))
    oracle = dsl.catalog("cpn_quillen", n)
    with elimination_route():
        want = STANDALONE[request_name](oracle)
    assert got == want
    assert sorted(oracle.complex()._d_cache) == list(
        range(1, WINDOW_TOP[n] + 1))
