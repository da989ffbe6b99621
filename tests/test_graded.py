import contextlib
import inspect
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptica import dsl, ext, invariants, linalg, randmodels
from elliptica.commutative import Algebra, Element, Generator
from elliptica.errors import (DegreeMismatch, ExactnessFailure,
                             InternalInconsistency, UnboundedGamma)
from elliptica.graded import (GradedComplex, GradedModel, TruncationView,
                              check_exact)
from elliptica.lie import FreeLie, LieElement

import full_path_oracle
from conftest import CATALOG_QUILLEN_SPECS, CATALOG_SULLIVAN_SPECS
from dense_oracle import from_rows, sparse


def test_elements_of_the_two_sides_never_compare_equal():
    assert Element() != LieElement()
    assert Element({(): 1}) != LieElement({(): 1})
    assert Element({(): 1}) == Element({(): Fraction(1)})


@pytest.mark.parametrize("cls", [Element, LieElement])
def test_arithmetic_keeps_the_subclass(cls):
    a = cls({(0,): 1, (1,): Fraction(1, 2)})
    b = cls({(0,): -1})
    for e in (a + b, a - b, a.scale(3), -a, cls._of(dict(a.terms)),
              cls.zero()):
        assert type(e) is cls
    assert (a + b).terms == {(1,): Fraction(1, 2)}
    assert (a - a).is_zero()
    assert repr(b).startswith(cls.__name__ + "(")


@pytest.mark.parametrize("cls", [Element, LieElement])
def test_arithmetic_gives_fractions_and_drops_zeros(cls):
    a = cls({(0,): 1, (1,): Fraction(1, 2), (2,): 3})
    b = cls({(1,): Fraction(1, 2), (2,): -3, (3,): 2})
    results = {
        "add": (a + b, {(0,): 1, (1,): 1, (3,): 2}),
        "sub": (a - b, {(0,): 1, (2,): 6, (3,): -2}),
        "scale int": (a.scale(2), {(0,): 2, (1,): 1, (2,): 6}),
        "scale fraction": (a.scale(Fraction(2, 3)),
                           {(0,): Fraction(2, 3), (1,): Fraction(1, 3),
                            (2,): 2}),
        "scale 0": (a.scale(0), {}),
        "neg": (-b, {(1,): Fraction(-1, 2), (2,): 3, (3,): -2}),
        "cancel": (a - a, {}),
    }
    for what, (e, terms) in results.items():
        assert type(e) is cls, what
        assert e.terms == terms, what
        assert all(type(c) is Fraction for c in e.terms.values()), what
    # the left operand's terms first, in order, then the right's new keys
    assert list((a + b).terms) == [(0,), (1,), (3,)]
    assert list((b - a).terms) == [(2,), (3,), (0,)]


def ranked_check_exact(node, incoming, outgoing):
    check_exact(node, incoming, outgoing, linalg.rank(incoming),
                linalg.rank(outgoing))


def test_check_exact():
    inc = from_rows([[1], [0]])
    ranked_check_exact("ok", inc, from_rows([[0, 1]]))
    with pytest.raises(ExactnessFailure, match="composite nonzero"):
        ranked_check_exact("bad", inc, from_rows([[1, 0]]))
    with pytest.raises(ExactnessFailure, match="im != ker"):
        ranked_check_exact("bad", inc, linalg.QMatrix(1, 2))


@pytest.mark.parametrize("outgoing", [from_rows([[0, 1, 0]]),
                                      linalg.QMatrix(1, 1),
                                      linalg.QMatrix(0, 0)])
def test_check_exact_names_the_node_where_the_maps_do_not_meet(outgoing):
    # a shape mismatch is an exactness breach at the node, not a bare
    # ValueError out of the product
    with pytest.raises(ExactnessFailure, match="do not meet at H\\^4"):
        ranked_check_exact("H^4", from_rows([[1], [0]]), outgoing)


@pytest.mark.parametrize("spec,degree", [("cpn_sullivan(2)", 4),
                                         ("cpn_quillen(2)", 4)])
def test_class_matrix_columns_are_class_coordinates(spec, degree):
    cx = dsl.catalog_spec(spec).complex()
    _, reps, _ = cx.homology(degree)
    m = cx.class_matrix(degree, [reps[0], reps[0].scale(2)])
    assert m.rows == cx.betti(degree) == 1
    assert m.columns() == [sparse((1,)), sparse((2,))]
    assert cx.class_matrix(degree, []) == linalg.QMatrix(1, 0)


@pytest.mark.parametrize("algebra_type", [Algebra, FreeLie])
def test_free_algebra_checks_its_generators_and_derivation_images(
        algebra_type):
    x, y = Generator("x", 2, 0), Generator("y", 3, 1)
    with pytest.raises(ValueError, match="unique"):
        algebra_type([x, Generator("x", 3, 1)])
    alg = algebra_type([x, y])
    with pytest.raises(ValueError, match="subset"):
        algebra_type([x, Generator("z", 4, 2)], source=alg)
    with pytest.raises(ValueError, match="subset"):
        algebra_type([Generator("x", 4, 0)], source=alg)
    assert algebra_type([y], source=alg).generators == [y]
    # |x| + 1 = 3 and |x| - 1 = 1: the degree-2 image is wrong on both sides
    with pytest.raises(DegreeMismatch):
        alg.derivation({0: alg.gen("x")})
    with pytest.raises(DegreeMismatch):
        alg.degree(alg.gen("x") + alg.gen("y"))


@pytest.mark.parametrize("spec", ["cpn_sullivan(2)", "cpn_quillen(2)"])
def test_model_adopts_a_free_algebra(spec):
    m = dsl.catalog_spec(spec)
    copy = type(m)(m.algebra, m.differential, name=m.name)
    assert copy.algebra is m.algebra
    assert dsl.serialize(copy) == dsl.serialize(m)


@pytest.mark.parametrize("spec", CATALOG_SULLIVAN_SPECS + CATALOG_QUILLEN_SPECS)
def test_coordinates_roundtrip_through_the_complex(spec):
    # a random combination of basis elements, summed as elements: coords
    # reads its coefficients back and from_coords rebuilds it, on the model
    # and on each truncation, whose tables are restrictions of the model's
    rng = random.Random(spec)
    m = dsl.catalog_spec(spec)
    for t in [m, *(full_path_oracle.truncate(m, k)
                   for k in range(1, m.max_generator_degree()))]:
        cx, alg = t.complex(), t.algebra
        for degree in range(1, 9):
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in cx.keys(degree))
            e = alg.element_type.zero()
            for key, c in zip(cx.keys(degree), v):
                e = e + alg.element_type({key: 1}).scale(c)
            assert cx.coords(degree, e) == sparse(v)
            assert cx.from_coords(degree, cx.coords(degree, e)) == e


@pytest.mark.parametrize("spec", ["cpn_sullivan(3)", "cpn_quillen(3)",
                                  "product(s2,sphere_odd(3))"])
def test_homology_representatives_are_their_sparse_coordinates(spec):
    cx = dsl.catalog_spec(spec).complex()
    for degree in range(0, 10):
        _, reps, reps_v = cx.homology(degree)
        for rep, v in zip(reps, reps_v):
            assert isinstance(v, dict) and list(v) == sorted(v)
            assert cx.coords(degree, rep) == v
            assert cx.from_coords(degree, v) == rep
            assert cx.from_coords(degree, cx.coords(degree, rep)) == rep


# --- the Whitehead maps that degree forces -------------------------------------

def default_bound(model):
    return invariants.analysis(model).bound


def zero_tail(model):
    """z = max(n + 1, max|V| + 1) for the certified top n."""
    return max(model.certified_top + 1, model.max_generator_degree() + 1)


def node_degrees(model, top):
    """The degrees g of Gamma(g) -> H(g) at the nodes 2..top."""
    step = model.complex_type.step
    return sorted({max(i, i + step) for i in range(2, top + 1)})


def truncations(model):
    """The model and each of its distinct truncations, one per kept
    generator set."""
    return list({tuple(t.generators): t for t in (
        full_path_oracle.truncate(model, k)
        for k in range(model.max_generator_degree() + 1))}.values())


def class_coordinate_incl(model, g):
    """Oracle for incl : Gamma(g) -> H(g): the class coordinates, in the
    model, of the representatives of the truncation that holds Gamma(g),
    times Gamma's coordinates over them, on every node."""
    gd = model.gamma(g)
    h_reps = gd.complex.homology(g)[1]
    return model.complex().class_matrix(g, h_reps).matmul(
        linalg.QMatrix.from_columns(gd.h_coords, len(h_reps)))


def check_incl_against_the_oracle(model):
    """On the model and every truncation, through the model's default
    window, incl equals the oracle's; returns the number of nodes read
    from Gamma's coordinates alone."""
    top, forced = default_bound(model), 0
    for t in truncations(model):
        for g in node_degrees(t, top):
            incl = t.whitehead_incl(g)   # before the oracle fills any cache
            forced += t.gamma(g).complex is t.complex()
            assert incl == class_coordinate_incl(t, g), (t, g)
    return forced


@pytest.mark.parametrize("model", [
    *(pytest.param(dsl.catalog_spec(s), id=s)
      for s in [*CATALOG_SULLIVAN_SPECS, *CATALOG_QUILLEN_SPECS,
                "cpn_quillen(4)"]),
    *(pytest.param(m, id=m.name) for m in randmodels.random_models(7, 20)),
])
def test_incl_equals_the_class_coordinate_oracle(model):
    assert check_incl_against_the_oracle(model) > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_incl_equals_the_oracle_on_random_pure_models(seed):
    model = randmodels.random_pure_model(random.Random(seed))
    assert check_incl_against_the_oracle(model) > 0


def solved_b(model, i):
    """Oracle for b : gens(i) -> Gamma(i + step): the class coordinates of
    the d g in the truncation that holds Gamma, solved against Gamma's
    basis there."""
    k = i + model.complex_type.step
    gens = [g for g in model.generators if g.degree == i]
    if not gens:
        return linalg.QMatrix(model.gamma_dim(k), 0)
    into_h = full_path_oracle.truncate(model, i - 1).complex().class_matrix(
        k, [model.d_of_generator(g.index) for g in gens])
    gd = model.gamma(k)
    onto = linalg.QMatrix.from_columns(gd.h_coords, into_h.rows)
    cols = [linalg.solve(onto, col) for col in into_h.columns()]
    assert None not in cols
    return linalg.QMatrix.from_columns(cols, gd.dim)


@pytest.mark.parametrize("model", [
    *(pytest.param(dsl.catalog_spec(s), id=s)
      for s in [*CATALOG_SULLIVAN_SPECS, *CATALOG_QUILLEN_SPECS]),
    *(pytest.param(m, id=m.name) for m in randmodels.random_models(7, 20)),
])
def test_b_equals_the_solve_oracle(model):
    # on cochains b is read as the class matrix itself; on chains it is
    # still solved against Gamma's basis
    for i in range(2, default_bound(model) + 1):
        assert model.whitehead_b(i) == solved_b(model, i), i


@pytest.mark.parametrize("model", [
    *(pytest.param(dsl.catalog_spec(s), id=s)
      for s in [*CATALOG_SULLIVAN_SPECS, *CATALOG_QUILLEN_SPECS,
                "cpn_quillen(4)", "cpn_sullivan(5)"]),
    *(pytest.param(m, id=m.name) for m in randmodels.random_models(7, 20)),
])
def test_forced_nodes_build_no_representatives(model):
    # above max|gens| + 1 no degree has a generator, Gamma lies in the
    # model's own (co)homology and p out of it is zero, so neither incl nor
    # p builds a representative there
    top = default_bound(model)
    model.whitehead_sequence(top)
    built = sorted(model.complex()._coh_cache)
    assert all(d <= model.max_generator_degree() + 1 for d in built), built
    for t in truncations(model):
        cx = t.complex()
        for d in range(top + 2):
            if d not in {g.degree for g in t.generators}:
                assert cx.linear_part(d) == linalg.QMatrix(0, cx.betti(d))


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def one_d_path_models():
    specs = [*CATALOG_SULLIVAN_SPECS, *CATALOG_QUILLEN_SPECS]
    yield from (pytest.param(lambda s=s: dsl.catalog_spec(s), id=s)
                for s in specs)
    yield from (pytest.param(lambda k=k: randmodels.random_models(7, 20)[k],
                             id=f"random_models(7,20)[{k}]")
                for k in range(20))
    yield from (pytest.param(lambda s=s: randmodels.random_nonpure_model(
        random.Random(s)), id=f"nonpure-{s}") for s in range(8))
    # the Quillen fixtures
    yield from (pytest.param(lambda f=f: dsl.parse_file(
        os.path.join(FIXTURES, f)), id=f)
        for f in sorted(os.listdir(FIXTURES)))


@pytest.mark.parametrize("make", one_d_path_models())
def test_gamma_b_and_incl_equal_the_truncation_route(make, monkeypatch):
    # Gamma read over the root's decomposables, with no truncation built,
    # and the b and incl built on it equal the oracle's truncation route,
    # which builds truncate(k - 1 - step) and the kernel of its linear part
    # for every Gamma(k), through the model's default window
    def readout(model):
        top = default_bound(model)
        gammas = [model.gamma(k) for k in range(1, top + 2)]
        return ([(gd.dim, gd.h_coords) for gd in gammas],
                [model.whitehead_b(i) for i in range(2, top + 1)],
                [model.whitehead_incl(g) for g in node_degrees(model, top)],
                sum(isinstance(gd.complex, TruncationView) for gd in gammas))

    fast = readout(make())
    monkeypatch.setattr(GradedModel, "_gamma", full_path_oracle._gamma)
    oracle = readout(make())
    # the oracle reads every Gamma over the model or a truncation
    assert oracle[:3] == fast[:3] and oracle[3] == 0


def test_gamma_is_read_over_a_view_somewhere():
    # the models above read Gamma over a TruncationView at 203 degrees up to
    # max|gens| + 1, where the truncation drops a generator that H(k) reads
    views = 0
    for param in one_d_path_models():
        model = param.values[0]()
        views += sum(isinstance(model.gamma(k).complex, TruncationView)
                     for k in range(1, model.max_generator_degree() + 2))
    assert views >= 200


@pytest.mark.parametrize("make", one_d_path_models())
def test_a_root_builds_no_truncation(make, monkeypatch):
    # the report, the ledger and the Whitehead sequence of a root read
    # every Gamma over its own complex or a view of it, and build no model
    model, built, init = make(), [], GradedModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedModel, "__init__", counting_init)
    if model.kind == "sullivan":
        invariants.invariant_report(model)
        invariants.full_ledger(model)
    else:
        # the hyperbolic and the cubic fixture are refused past the window
        with contextlib.suppress(UnboundedGamma):
            invariants.analysis(model).ledger()
    model.whitehead_sequence(default_bound(model))
    assert built == []


@pytest.mark.parametrize("spec", ["cpn_sullivan(2)", "cpn_quillen(2)"])
def test_a_model_carries_no_truncation_route(spec):
    # Gamma is read over views of the model's own complex, so no model
    # builds, memoizes or points back to a sub-model
    model = dsl.catalog_spec(spec)
    for name in ("truncate", "_truncate", "_truncated_differential",
                 "_trunc_cache", "parent"):
        assert not hasattr(model, name), name
    assert "parent" not in inspect.signature(GradedModel.__init__).parameters


@pytest.mark.parametrize("make", one_d_path_models())
def test_a_truncation_assembles_its_parents_restricted_d(make):
    # every truncation assembles d over its own tables, which gives the
    # model's d restricted to the truncation's keys (Sullivan d through the
    # window, Quillen delta up to max|W| + 1, where its Gamma and H are read)
    model = make()
    top = (default_bound(model) if model.kind == "sullivan"
           else model.max_generator_degree()) + 1
    for t in truncations(model):
        if t is model:
            continue
        cx = t.complex()
        for deg in range(top + 1):
            assert cx.d_matrix(deg) == full_path_oracle.restricted_d_matrix(
                model, cx, deg), (t, deg)


# --- zero costs nothing ----------------------------------------------------------

def full_readout(make):
    """What the zero shortcuts touch, on a fresh model from ``make``: the
    Whitehead nodes, ledger entries and reports of its analysis, then, on
    the model and each truncation, the homology of every degree and the
    class matrices of a cycle basis in the degrees of its generators, in
    the truncation and in the model."""
    model = make()
    a = invariants.analysis(model)
    out = {"nodes": a.whitehead().nodes, "ledger": a.ledger().entries,
           "invariants": a.invariants(verbose=True)}
    if model.kind == "sullivan":
        out["report"], out["l_window"] = a.report(), a.l_window()
    top = model.max_generator_degree() + 2
    full = model.complex()
    for t in truncations(model):
        cx, name = t.complex(), tuple(g.name for g in t.generators)
        for d in range(1, (a.bound if t is model else top) + 2):
            out[name, "homology", d] = cx.homology(d)
        for d in range(1, top + 1):
            cycles = [cx.from_coords(d, v)
                      for v in linalg.kernel_basis(cx.d_matrix(d))]
            out[name, "class_matrix", d] = (cx.class_matrix(d, cycles),
                                            full.class_matrix(d, cycles))
    return out


def zero_shortcut_models():
    specs = [*CATALOG_SULLIVAN_SPECS, *CATALOG_QUILLEN_SPECS, "cpn_quillen(4)"]
    yield from (pytest.param(lambda s=s: dsl.catalog_spec(s), id=s)
                for s in specs)
    yield from (pytest.param(lambda k=k: randmodels.random_models(7, 20)[k],
                             id=f"random_models(7,20)[{k}]")
                for k in range(20))
    yield from (pytest.param(lambda s=s: randmodels.random_nonpure_model(
        random.Random(s)), id=f"nonpure-{s}") for s in range(8))
    # elliptic quadratic fixtures, with forced Whitehead nodes whose H comes
    # from Ext, such as node 10 of hp2q; on s2x3q and cp2xcp2q the oracle's
    # elimination through the window does not finish in minutes
    yield from (pytest.param(lambda f=f: dsl.parse_file(
        os.path.join(FIXTURES, f"{f}.rhm")), id=f)
        for f in ["hp2q", "s2xs2q"])


@pytest.mark.parametrize("make", zero_shortcut_models())
def test_zero_shortcuts_equal_the_full_path_oracle(make, monkeypatch):
    # homology, class matrices, Whitehead nodes, ledger, L^k window and
    # reports are identical when every degree builds its kernel,
    # boundaries, quotient and Span, zero or not, and every Whitehead node
    # and Gamma is computed, above the certified zero tail too
    fast = full_readout(make)
    full_path_oracle.full_path(monkeypatch)
    assert full_readout(make) == fast


def test_no_span_in_a_degree_with_zero_cohomology():
    # CP^2 = (x:2, y:5; dy = x^3): H^5 = H^6 = 0, so a cycle there has class
    # 0 with no Span built, and so with no boundary read, as the boundaries
    # enter only the Span; y is no cycle, and still refused; the records of
    # d out of 5 and 6 keep no echelon form, which no kernel needs
    m = dsl.catalog_spec("cpn_sullivan(2)")
    cx = m.complex()
    x, y = m.algebra.gen("x"), m.algebra.gen("y")
    x3 = m.algebra.multiply(m.algebra.multiply(x, x), x)
    assert cx.betti(5) == cx.betti(6) == 0
    assert cx.class_coords(6, x3) == {}
    assert cx.class_matrix(6, [x3, x3]) == linalg.QMatrix(0, 2)
    assert cx.class_coords(5, y) is None
    with pytest.raises(InternalInconsistency, match="not a cycle"):
        cx.class_matrix(5, [y])
    assert cx.homology(5) == cx.homology(6) == (0, [], [])
    assert cx._class_cache == {}
    assert cx._d_cache[5].echelon is None and cx._d_cache[6].echelon is None


@pytest.mark.parametrize("spec", ["cpn_sullivan(3)", "cpn_quillen(3)",
                                  "product(s2,sphere_even(4))"])
def test_each_map_of_a_whitehead_report_is_ranked_once(spec, monkeypatch):
    ranked, rank = [], linalg.rank

    def counting_rank(m, *echelon):
        ranked.append(m)    # kept alive, so no two share an id
        return rank(m, *echelon)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    m = dsl.catalog_spec(spec)
    m.whitehead_sequence(default_bound(m))
    assert ranked
    assert len({id(x) for x in ranked}) == len(ranked)


@pytest.mark.parametrize("plant,match", [
    (lambda incl: linalg.QMatrix(incl.rows, incl.cols), "im != ker"),
    (lambda incl: linalg.QMatrix(incl.rows + 1, incl.cols, incl.entries,
                                 incl.den),
     "do not meet at H\\^4"),
])
def test_a_planted_incl_breach_raises(plant, match, monkeypatch):
    # CP^2 x S^4: V^4 != 0, so node 3 is built, and incl : L^4 -> H^4 is
    # 2 x 1 of rank 1; a zero map of its shape breaks exactness at L^4, and
    # one extra row makes incl and p miss each other
    m = dsl.catalog_spec("product(cpn_sullivan(2),sphere_even(4))")
    incl = m.whitehead_incl
    monkeypatch.setattr(m, "whitehead_incl",
                        lambda g: plant(incl(g)) if g == 4 else incl(g))
    with pytest.raises(ExactnessFailure, match=match):
        m.whitehead_sequence(6)


@pytest.mark.parametrize("plant,match", [
    (lambda incl: linalg.QMatrix(incl.rows + 1, incl.cols), "H\\^6"),
    (lambda incl: linalg.QMatrix(incl.rows, incl.cols + 1), "L\\^6"),
])
def test_a_planted_incl_breach_at_node_z_raises(plant, match, monkeypatch):
    # CP^2: n = 4 and max|V| = 5, so z = 6; node z is zero, and L^6 -> H^6
    # at node z - 1 is the last incl built before the zero tail; a row or a
    # column too many there still raises
    m = dsl.catalog_spec("cpn_sullivan(2)")
    assert zero_tail(m) == 6
    incl = m.whitehead_incl
    monkeypatch.setattr(m, "whitehead_incl",
                        lambda g: plant(incl(g)) if g == 6 else incl(g))
    with pytest.raises(ExactnessFailure, match="do not meet at " + match):
        m.whitehead_sequence(default_bound(m))


def test_check_exact_with_a_zero_map_keeps_its_shape_and_rank_checks():
    # no product is formed with a zero factor, but a shape or a rank that
    # does not fit still raises
    zero_in, zero_out = linalg.QMatrix(2, 1), linalg.QMatrix(1, 2)
    identity = from_rows([[1, 0], [0, 1]])
    ranked_check_exact("ok", linalg.QMatrix(2, 0), identity)
    ranked_check_exact("ok", identity, linalg.QMatrix(0, 2))
    ranked_check_exact("ok", linalg.QMatrix(0, 0), linalg.QMatrix(0, 0))
    for inc, out in [(zero_in, linalg.QMatrix(1, 3)),
                     (from_rows([[1], [0], [0]]), zero_out),
                     (zero_in, from_rows([[1, 0, 0]]))]:
        with pytest.raises(ExactnessFailure, match="do not meet at H\\^4"):
            ranked_check_exact("H^4", inc, out)
    for inc, out in [(zero_in, from_rows([[1, 0]])),
                     (from_rows([[1], [0]]), linalg.QMatrix(0, 2)),
                     (zero_in, zero_out)]:
        with pytest.raises(ExactnessFailure, match="im != ker at H\\^4"):
            ranked_check_exact("H^4", inc, out)


# --- the per-model degree index ----------------------------------------------------

def index_models():
    yield from (pytest.param(dsl.catalog_spec(s), id=s)
                for s in [*CATALOG_SULLIVAN_SPECS, *CATALOG_QUILLEN_SPECS])
    yield from (pytest.param(m, id=m.name)
                for m in randmodels.random_models(7, 20))


@pytest.mark.parametrize("model", index_models())
def test_the_degree_index_equals_the_scans(model):
    analysis = invariants.analysis(model)
    for d in range(-1, model.max_generator_degree() + 3):
        assert analysis.gen_dim(d) == len(
            [g for g in model.generators if g.degree == d])
    for t in truncations(model):
        degrees = [g.degree for g in t.generators]
        assert t.max_generator_degree() == max(degrees, default=0)
        assert t._by_degree == {
            d: tuple(g for g in t.generators if g.degree == d)
            for d in degrees}
        for d in range(-1, t.max_generator_degree() + 3):
            assert t.generators_of_degree(d) == tuple(
                g for g in t.generators if g.degree == d)


@pytest.mark.parametrize("model", index_models())
def test_truncate_equals_the_scan_based_lowering(model):
    # the truncation to degree k keeps the generators of degree <= k, as a
    # scan of the generators finds them
    top = max((g.degree for g in model.generators), default=0)
    for k in range(-1, top + 3):
        t = full_path_oracle.truncate(model, k)
        assert t.generators == [g for g in model.generators
                                if g.degree <= k], k


# --- the certified zero tail -----------------------------------------------------

def certified_models():
    yield from (pytest.param(dsl.catalog_spec(s), id=s)
                for s in CATALOG_SULLIVAN_SPECS)
    yield from (pytest.param(m, id=m.name)
                for m in randmodels.random_models(7, 20))
    yield from (pytest.param(randmodels.random_nonpure_model(
        random.Random(s), name=f"nonpure-{s}"), id=f"nonpure-{s}")
        for s in range(8))


@pytest.mark.parametrize("model", certified_models())
def test_no_whitehead_map_is_built_above_the_zero_tail(model, monkeypatch):
    # incl is built only at the nodes 2..z - 1 that a generator reaches, the
    # nodes from z on are zero, and Gamma above z builds no model, view,
    # linear part or kernel
    fresh = type(model)(model.generators, model.differential,
                        name=model.name)
    z, top = zero_tail(fresh), default_bound(fresh)
    assert top > z
    seen, incl = [], fresh.whitehead_incl
    monkeypatch.setattr(fresh, "whitehead_incl",
                        lambda g: seen.append(g) or incl(g))
    nodes = invariants.analysis(fresh).whitehead().nodes
    invariants.full_ledger(fresh)
    # incl is built exactly at the nodes below z that a generator reaches
    degrees = {g.degree for g in fresh.generators}
    assert seen == [i + 1 for i in range(2, z) if degrees & {i, i + 1}], seen
    assert [n.degree for n in nodes] == list(range(2, top + 1))
    assert all(vars(n) == vars(fresh.node_type(n.degree, 0, 0, 0, 0, 0))
               for n in nodes if n.degree >= z)

    def refuse(*args):
        raise AssertionError(f"built above the zero tail: {args}")

    cx = fresh.complex()
    monkeypatch.setattr(cx, "linear_part", refuse)
    monkeypatch.setattr(GradedModel, "__init__", refuse)
    monkeypatch.setattr(TruncationView, "__init__", refuse)
    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    for k in range(z + 1, top + 3):
        gd = fresh.gamma(k)
        assert (gd.degree, gd.dim, gd.h_coords, gd.complex) == (k, 0, [], cx)


def test_incl_into_a_zero_homology_builds_no_representatives(monkeypatch):
    # where the truncation that holds Gamma(g) is proper and the model's
    # H(g) is 0, incl is the zero map from Gamma(g), read with no kernel,
    # boundaries or quotient of the truncation
    models = [dsl.catalog_spec(s) for s in CATALOG_SULLIVAN_SPECS]
    models += randmodels.random_models(7, 20)
    cases = []
    for m in models:
        full = m.complex()
        for g in node_degrees(m, default_bound(m)):
            gd = m.gamma(g)
            if gd.complex is not full and not full.betti(g):
                cases.append((m, g, gd.dim))
    assert len(cases) >= 10

    def refuse(self, degree):
        raise AssertionError(f"representatives built in degree {degree}")

    monkeypatch.setattr(GradedComplex, "homology", refuse)
    for m, g, dim in cases:
        assert m.whitehead_incl(g) == linalg.QMatrix(0, dim)


# --- one elimination per degree, and Gamma where its homology lives ------------

def counting_echelons(monkeypatch):
    """The list of every ``_Echelon`` built from here on."""
    built = []

    class CountingEchelon(linalg._Echelon):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linalg, "_Echelon", CountingEchelon)
    return built


def test_a_nonzero_degree_eliminates_each_matrix_once(monkeypatch):
    # random_7_2 has H^6 of dim 3, with d into and out of degree 6 nonzero:
    # homology and class_coords there build the two ranks' echelons and one
    # Span, where the kernel, the independent columns, the two echelons of
    # the quotient and the class Span made 7
    m = randmodels.random_models(7, 20)[2]
    cx = m.complex()
    assert m.certified_top    # the certificate eliminates too
    assert cx.d_matrix(5).entries and cx.d_matrix(6).entries
    cycles = [cx.from_coords(6, v)
              for v in linalg.kernel_basis(cx.d_matrix(6))]
    built = counting_echelons(monkeypatch)
    dim, reps, _ = cx.homology(6)
    assert dim == 3 and len(built) == 3
    assert [cx.class_coords(6, r) for r in reps] == [
        {0: 1}, {1: 1}, {2: 1}]
    for z in cycles:
        cx.class_coords(6, z)
    assert len(built) == 3 and cx._d_cache[6].echelon is None


def test_a_view_and_its_root_rank_a_shared_d_and_take_its_kernel_once(
        monkeypatch):
    # at or below its top a view reads the root's record of d: H^6 of
    # random_7_2 over the root and over a view of top 6 ranks d out of 5
    # and out of 6 once each and reads the kernel off d_6's echelon form
    # once; only the two Spans are built apart
    m = randmodels.random_models(7, 20)[2]
    cx = m.complex()
    view = TruncationView(cx, 6)
    assert m.certified_top    # the certificate eliminates too
    built = counting_echelons(monkeypatch)
    kernels, kernel_basis = [], linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis",
                        lambda mat, *e: kernels.append(mat)
                        or kernel_basis(mat, *e))
    assert view.homology(6)[2] == cx.homology(6)[2]
    assert kernels == [cx.d_matrix(6)]
    assert sorted(e.limit for e in built) == [cx.dim(6)] * 2 + [
        float("inf")] * 2


def test_a_d_bar_kernel_read_twice_eliminates_once(monkeypatch):
    # nonpure-0 reads Gamma^5 over a view of top 3, whose d out of 5 is
    # d-bar_5, a map of its own with entries; a second view of the same top
    # reads the kernel that the first one took, so its homology builds
    # only its own Span
    m = randmodels.random_nonpure_model(random.Random(0), name="nonpure-0")
    cx = m.complex()
    assert m.generators_of_degree(5) and cx.d_bar(5).entries
    first = TruncationView(cx, 3).homology(5)
    assert first[0] == 2
    built = counting_echelons(monkeypatch)
    assert TruncationView(cx, 3).homology(5) == first
    assert [e.limit for e in built] == [cx.dim(5)]


def one_span_models():
    yield from (pytest.param(dsl.catalog_spec(s), id=s)
                for s in [*CATALOG_SULLIVAN_SPECS, *CATALOG_QUILLEN_SPECS])
    yield from (pytest.param(m, id=m.name)
                for m in randmodels.random_models(7, 20))
    yield from (pytest.param(randmodels.random_nonpure_model(
        random.Random(s), name=f"nonpure-{s}"), id=f"nonpure-{s}")
        for s in range(8))


@pytest.mark.parametrize("model", one_span_models())
def test_gamma_lives_on_the_model_exactly_where_the_truncation_agrees(model):
    # Gamma(k) is read over the model's own complex exactly where the
    # truncation that holds it drops no generator of degree <= k (k + 1 on
    # chains); there the truncation's representatives and Gamma's
    # coordinates over them are the model's
    step, full = model.complex_type.step, model.complex()
    for k in range(2, default_bound(model) + 2):
        t = full_path_oracle.truncate(model, k - 1 - step)
        reach = k if step > 0 else k + 1
        agrees = all(g.degree > reach for g in model.generators
                     if g not in t.generators)
        gd = model.gamma(k)
        assert (gd.complex is full) == agrees, k
        if agrees and t is not model:
            tc = t.complex()
            assert tc.homology(k)[2] == full.homology(k)[2], k
            assert linalg.kernel_basis(tc.linear_part(k)) == gd.h_coords


@pytest.mark.parametrize("model", one_span_models())
def test_a_gamma_no_generator_reaches_is_read_off_betti(model, monkeypatch):
    # where no generator has degree k or k - step, Gamma(k) is all of H(k)
    # of the model's own complex: betti(k) unit vectors, with no linear
    # part, kernel or Span built; the certified zero tail is one such range
    step, full = model.complex_type.step, model.complex()
    forced = [k for k in range(2, default_bound(model) + 2)
              if not model.generators_of_degree(k)
              and not model.generators_of_degree(k - step)]
    assert forced
    betti = {k: full.betti(k) for k in forced}

    def refuse(*args):
        raise AssertionError(f"built: {args}")

    monkeypatch.setattr(GradedComplex, "linear_part", refuse)
    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    monkeypatch.setattr(linalg, "Span", refuse)
    for k in forced:
        gd = model.gamma(k)
        assert gd.complex is full and gd.dim == betti[k], k
        assert gd.h_coords == [{j: 1} for j in range(gd.dim)], k


def test_a_view_above_its_roots_cap_still_computes():
    # cpn_sullivan(2) is capped at n = 4, so its complex reads H^6 = 0 with
    # no matrix built; a view is never capped, and the view of Lambda(x)
    # reads x^3 in degree 6 from d-bar records of its own
    cx = dsl.catalog_spec("cpn_sullivan(2)").complex()
    assert cx.model.certified_top == 4
    assert cx.betti(6) == 0
    assert TruncationView(cx, 2).betti(6) == 1
    assert max(cx._d_cache) <= 5


def test_the_truncation_that_agrees_is_proper_somewhere():
    # the rule reaches further than "the truncation is the model"
    hits = 0
    for param in one_span_models():
        model = param.values[0]
        step = model.complex_type.step
        for k in range(2, model.max_generator_degree() + 2):
            if (full_path_oracle.truncate(model, k - 1 - step) is not model
                    and model.gamma(k).complex is model.complex()):
                hits += 1
    assert hits >= 20


@pytest.mark.parametrize("plant,spec,degree,match", [
    # the rank of d into degree 6 short by one: 3 representatives where
    # betti says H^6 has 4
    ("rank", None, 6, r"random_7_2.*3 representatives of degree 6, but "
                      r"dim H\(6\) = 4"),
    # an Ext dimension off by one above max|W|, where no elimination
    # checks betti: one representative where Ext claims H_4 has 2
    ("ext", "cpn_quillen(2)", 4, r"CP2q.*1 representatives of degree 4, "
                                 r"but dim H\(4\) = 2"),
])
def test_a_planted_representative_count_breach_raises(plant, spec, degree,
                                                      match, monkeypatch):
    if plant == "rank":
        model = randmodels.random_models(7, 20)[2]
        d_in, rank = model.complex().d_matrix(degree - 1), linalg.rank
        monkeypatch.setattr(linalg, "rank",
                            lambda m, *e: rank(m, *e) - (m is d_in))
    else:
        model = dsl.catalog_spec(spec)
        lie_dim = ext.MinimalResolution.lie_dim
        monkeypatch.setattr(ext.MinimalResolution, "lie_dim",
                            lambda self, k: lie_dim(self, k) + (k == degree))
    with pytest.raises(InternalInconsistency, match=match):
        model.complex().homology(degree)


@pytest.mark.parametrize("spec", ["random_7_2", "cpn_quillen(3)"])
def test_a_second_betti_read_recomputes_nothing(spec, monkeypatch):
    # the model's complex and a view of it memoize betti per degree: once
    # read, a degree checks no d.d and ranks no matrix again
    m = (randmodels.random_models(7, 20)[2] if spec == "random_7_2"
         else dsl.catalog_spec(spec))
    full = m.complex()
    cxs = [full, TruncationView(full, 2)]
    top = m.max_generator_degree() + 2
    first = [[cx.betti(d) for d in range(top)] for cx in cxs]

    def refuse(*args):
        raise AssertionError(f"recomputed: {args}")

    monkeypatch.setattr(GradedComplex, "_check_square", refuse)
    monkeypatch.setattr(TruncationView, "_check_square", refuse)
    monkeypatch.setattr(linalg, "rank", refuse)
    assert [[cx.betti(d) for d in range(top)] for cx in cxs] == first


def test_homology_above_max_w_checks_d_squared():
    # on a quadratic root model betti above max|W| comes from Ext, with no
    # matrix built; homology there still checks d.d = 0 before its Span
    q = dsl.catalog_spec("cpn_quillen(2)")
    cx = q.complex()
    assert cx.betti(4) == 1 and 4 not in cx._squares_checked
    cx.homology(4)
    assert 4 in cx._squares_checked
