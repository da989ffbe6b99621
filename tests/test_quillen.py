from fractions import Fraction

import pytest

from elliptica import dsl, invariants, quillen
from elliptica.errors import (BadParameter, CompositionNotZero,
                              InternalInconsistency, UnboundedGamma,
                              ValidationError)
from elliptica.lie import FreeLie, LieElement, LieGenerator
from elliptica.quillen import DGLModel

from conftest import CATALOG_QUILLEN_SPECS


def test_cp2_quillen_homology(cp2q):
    # pi_*(CP^2) x Q sits in degrees 2 and 5, i.e. H_1 and H_4 of the model
    assert quillen.homology_table(cp2q, 8) == \
        {1: 1, 2: 0, 3: 0, 4: 1, 5: 0, 6: 0, 7: 0, 8: 0}


def test_cp2_quillen_gamma_and_eta(cp2q):
    assert {i: cp2q.gamma_dim(i) for i in range(2, 7)} == \
        {2: 1, 3: 0, 4: 1, 5: 0, 6: 0}
    assert quillen.eta(cp2q) == 3


def test_s2_quillen_eta(s2q):
    assert {i: s2q.gamma_dim(i) for i in range(2, 5)} == {2: 1, 3: 0, 4: 0}
    assert quillen.eta(s2q) == 2


def test_odd_sphere_quillen_trivial():
    q = dsl.catalog("sphere_odd_quillen", 3)
    assert quillen.eta(q) == 1
    assert quillen.homology_table(q, 6) == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}


def test_validate_catches_delta_squared():
    # delta(w4) = w3 and delta(w3) = 1/2[w1,w1] give delta(delta w4) != 0
    gens = [LieGenerator("w1", 1, 0), LieGenerator("w3", 3, 1),
            LieGenerator("w4", 4, 2)]
    lie = FreeLie(gens)
    bad = DGLModel(gens, {
        1: lie.bracket(lie.gen("w1"), lie.gen("w1")).scale(Fraction(1, 2)),
        2: lie.gen("w3"),
    })
    assert any(i.check == "delta-squared" for i in bad.validate().issues)


def test_validate_catches_inhomogeneous_image():
    gens = [LieGenerator("u", 1, 0), LieGenerator("z", 3, 2)]
    lie = FreeLie(gens)
    bad = DGLModel(gens, {2: lie.gen("u")})   # degree 1, needs 2
    assert any(i.check == "homogeneity" for i in bad.validate().issues)
    # the empty word has degree 0, which no image may have
    bad = DGLModel(gens, {0: LieElement({(): 1})})
    assert any(i.check == "homogeneity" for i in bad.validate().issues)
    # a (x) a has the right degree but is not a bracket: [a, a] = 0 for even a
    gens = [LieGenerator("a", 2, 0), LieGenerator("b", 5, 1)]
    bad = DGLModel(gens, {1: LieElement({(0, 0): 1})})
    assert [i.check for i in bad.validate().issues] == ["lie-element"]
    with pytest.raises(ValidationError, match=r"lie-element \(b\)"):
        invariants.analysis(bad)
    # delta(b) = a is homogeneous but linear: the model is not minimal
    gens = [LieGenerator("a", 2, 0), LieGenerator("b", 3, 1)]
    bad = DGLModel(gens, {1: LieElement({(0,): 1})})
    assert [i.check for i in bad.validate().issues] == ["minimality"]
    with pytest.raises(ValidationError, match=r"minimality \(b\)"):
        invariants.analysis(bad)


def test_d_assembly_refuses_an_image_outside_lie():
    # ba is no basis key (ab is, for [a,b]); built without require_valid,
    # the model reaches the d assembly, which reads the image and must
    # refuse it
    gens = [LieGenerator("a", 1, 0), LieGenerator("b", 1, 1),
            LieGenerator("c", 3, 2)]
    bad = DGLModel(gens, {2: LieElement({(1, 0): 1})}, name="bad")
    with pytest.raises(InternalInconsistency,
                       match=r"DGLModel\(bad\): d out of degree 3: the image "
                             r"of c is outside L\(W\)"):
        bad.complex().d_matrix(3)


HIGH_DEGREE_IMAGE = ("model m : quillen\ngen a : 1\ngen b : 1\ngen w : 40\n"
                     "gen z : 42\nd z = [a,w]\n")


def _no_lie_basis(monkeypatch):
    def no_basis(self, degree):
        raise AssertionError(f"Lie basis of degree {degree} enumerated")

    monkeypatch.setattr(FreeLie, "table", no_basis)
    monkeypatch.setattr(FreeLie, "_lyndon", no_basis)


def test_validation_builds_no_lie_basis(monkeypatch):
    # parsing, membership in L(W) and delta-squared need no basis, so a high
    # generator over two of degree 1 stays cheap: the Lie basis of degree 41
    # is astronomically large
    _no_lie_basis(monkeypatch)
    m = dsl.parse(HIGH_DEGREE_IMAGE)
    assert m.validate().ok


def test_serialize_builds_no_lie_basis(monkeypatch):
    # an image's coordinates are its terms, so printing it needs no basis
    m = dsl.parse(HIGH_DEGREE_IMAGE)
    _no_lie_basis(monkeypatch)
    assert dsl.serialize(m).endswith("d z = [a,w]\n")


def test_an_image_naming_a_missing_generator_is_an_issue():
    gens = [LieGenerator("a", 1, 0), LieGenerator("b", 3, 1)]
    bad = DGLModel(gens, {1: LieElement({(7, 7): 1})}, name="bad")
    assert [(i.check, i.generator) for i in bad.validate().issues] == [
        ("unknown-generator", "b")]
    with pytest.raises(ValidationError, match=r"DGLModel\(bad\): "
                       r"unknown-generator \(b\): delta\(b\) names "
                       r"generator index 7"):
        invariants.analysis(bad)


def test_whitehead_sequence_exact(catalog_quillen):
    for q in catalog_quillen:
        bound = min(quillen.default_bound(q), 8)
        report = quillen.whitehead_sequence_dgl(q, bound)
        assert report.exact


def test_whitehead_nodes_cp2q(cp2q):
    report = quillen.whitehead_sequence_dgl(cp2q, 5)
    by_deg = {n.degree: n for n in report.nodes}
    assert by_deg[2].dim_gamma == 1
    assert by_deg[4].dim_gamma == 1 and by_deg[4].dim_h == 1
    assert by_deg[2].rank_b == 1    # delta(w3) = 1/2[w1,w1] hits Gamma_2


def test_whitehead_nodes_cp3q_pinned():
    # (i, dim W_i, dim Gamma_i, dim H_i, rank b, rank incl) at the default
    # window 12
    q = dsl.catalog("cpn_quillen", 3)
    report = quillen.whitehead_sequence_dgl(q, quillen.default_bound(q))
    assert [tuple(vars(n).values()) for n in report.nodes] == [
        (2, 0, 1, 0, 1, 0), (3, 1, 0, 0, 0, 0), (4, 0, 1, 0, 1, 0),
        (5, 1, 0, 0, 0, 0), (6, 0, 1, 1, 0, 1),
        *[(i, 0, 0, 0, 0, 0) for i in range(7, 13)]]


def test_eta_unbounded_gamma_detected():
    # the free DGL on two degree-1 generators has homology in all degrees
    gens = [LieGenerator("u", 1, 0), LieGenerator("v", 1, 1)]
    with pytest.raises(UnboundedGamma):
        quillen.eta(DGLModel(gens, {}))


def test_gamma_reps_are_cycles(cp2q):
    gd = quillen.gamma(cp2q, 4)
    for rep in gd.reps:
        assert cp2q.truncate(4).delta(rep).is_zero()


def test_gamma_is_computed_once_per_degree(monkeypatch):
    q = dsl.catalog("cpn_quillen", 3)
    seen = []
    compute = DGLModel._gamma

    def counting_gamma(model, i):
        seen.append(i)
        return compute(model, i)

    monkeypatch.setattr(DGLModel, "_gamma", counting_gamma)
    bound = quillen.default_bound(q)
    quillen.whitehead_sequence_dgl(q, bound)
    quillen.eta(q)
    {i: q.gamma(i).dim for i in range(2, bound + 1)}
    assert sorted(seen) == sorted(set(seen))
    # the memo hands every caller the same object
    assert quillen.gamma(q, 4) is q.gamma(4)


@pytest.mark.parametrize("spec", [*CATALOG_QUILLEN_SPECS, "cpn_quillen(4)"])
def test_truncations_are_views_of_the_parent(spec):
    """Every truncation's delta matrices are the parent's, restricted, and
    equal the ones a free-standing copy assembles itself; its rank-only
    homology dimensions equal its numbers of representatives."""
    model = dsl.catalog_spec(spec)
    top = min(quillen.default_bound(model) + 1, 12)
    for k in range(model.max_generator_degree() + 1):
        t = model.truncate(k)
        assert t is model or t.parent is model
        fresh = DGLModel(t.generators, t.differential)
        cx = t.complex()
        for deg in range(top + 2):
            assert cx.d_matrix(deg) == fresh.complex().d_matrix(deg), (k, deg)
        dims = [cx.betti(deg) for deg in range(1, top + 1)]
        assert dims == [len(cx.homology(deg)[1])
                        for deg in range(1, top + 1)], k


def test_rank_only_homology_raises_when_delta_squared_is_nonzero():
    # delta(w4) = w3 and delta(w3) = 1/2[w1,w1] give delta(delta w4) != 0
    gens = [LieGenerator("w1", 1, 0), LieGenerator("w3", 3, 1),
            LieGenerator("w4", 4, 2)]
    lie = FreeLie(gens)
    bad = DGLModel(gens, {
        1: lie.bracket(lie.gen("w1"), lie.gen("w1")).scale(Fraction(1, 2)),
        2: lie.gen("w3"),
    })
    cx = bad.complex()
    with pytest.raises(CompositionNotZero):
        cx.betti(3)
    assert 3 not in cx._coh_cache   # no representatives were built
    with pytest.raises(CompositionNotZero):
        quillen.homology_table(bad, 4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eta_refuses_a_window_below_the_default(n):
    # H_2n(L(W)) = Q is the top of the homology, so a window below 2n used
    # to miss it and return n instead of n + 1
    q = dsl.catalog("cpn_quillen", n)
    for bound in range(quillen.default_bound(q)):
        with pytest.raises(BadParameter, match=f"CP{n}q.*{2 * (2 * n - 1) + 2}"):
            quillen.eta(q, bound)
    assert quillen.eta(q, quillen.default_bound(q)) == n + 1
