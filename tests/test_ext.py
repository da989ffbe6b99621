"""H_*(L(W)) from Ext over the cohomology algebra against elimination, the
known tables, and the run-time checks: C's associativity and graded
commutativity, d.d = 0 in the resolution, and the identity with elimination
up to max|W|."""
import math
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import build_oracle
from elimination_oracle import elimination_table
from elliptica import dsl, ext, invariants, linalg, quillen
from elliptica.errors import InternalInconsistency, UnboundedGamma
from elliptica.graded import FreeAlgebra, Generator
from elliptica.invariants import QuillenAnalysis
from elliptica.lie import FreeLie

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return dsl.parse_file(os.path.join(FIXTURES, f"{name}.rhm"))


def window(q):
    return quillen.default_bound(q)


def ext_table(q, top):
    return {i: q.resolution.lie_dim(i) for i in range(1, top + 1)}


def nonzero(table):
    return {i: d for i, d in table.items() if d}


QUADRATIC_CATALOG = ["s2_quillen", "sphere_odd_quillen(3)",
                     "sphere_odd_quillen(5)", "sphere_odd_quillen(7)",
                     *(f"cpn_quillen({n})" for n in range(1, 7))]

# fixture -> (the degree to which elimination is affordable, the known
# nonzero table through ``KNOWN_TOP``)
FIXTURE_TABLES = {
    "s2xs2q": (8, {1: 2, 2: 2}),
    "s2vs2q": (9, {1: 2, 2: 3, 3: 2, 4: 3, 5: 6, 6: 11, 7: 18, 8: 30, 9: 56}),
    "hp2q": (16, {3: 1, 10: 1}),
    "s2x3q": (7, {1: 3, 2: 3}),
    "cp2xcp2q": (9, {1: 2, 4: 2}),
    "s2xs2xs3q": (8, {1: 2, 2: 3}),
}
KNOWN_TOP = {"s2xs2q": 16, "s2vs2q": 9, "hp2q": 24, "s2x3q": 12,
             "cp2xcp2q": 18, "s2xs2xs3q": 14}


# --- the table against elimination -------------------------------------------

@pytest.mark.parametrize("spec", QUADRATIC_CATALOG)
def test_ext_equals_elimination_through_the_window(spec):
    q = dsl.catalog_spec(spec)
    top = window(q)
    assert q.resolution is not None
    want = elimination_table(dsl.catalog_spec(spec), top)
    assert ext_table(q, top) == want
    assert quillen.homology_table(q, top) == want


@pytest.mark.parametrize("name", FIXTURE_TABLES)
def test_ext_equals_elimination_on_the_fixtures(name):
    affordable, known = FIXTURE_TABLES[name]
    q = fixture(name)
    assert q.resolution is not None
    top = min(affordable, window(q))
    assert ext_table(q, top) == elimination_table(fixture(name), top)


@pytest.mark.parametrize("name", FIXTURE_TABLES)
def test_the_known_tables(name):
    q = fixture(name)
    top = KNOWN_TOP[name]
    assert nonzero(quillen.homology_table(q, top)) == FIXTURE_TABLES[name][1]


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_cpn_has_homology_in_degrees_1_and_2n(n):
    q = dsl.catalog("cpn_quillen", n)
    assert nonzero(ext_table(q, 4 * n + 2)) == {1: 1, 2 * n: 1}


@pytest.mark.parametrize("n", [7, 8, 10])
def test_eta_of_large_cpn(n):
    q = dsl.catalog("cpn_quillen", n)
    start = time.perf_counter()
    assert quillen.eta(q) == n + 1
    assert time.perf_counter() - start < 30
    assert max(q.complex()._d_cache) == q.max_generator_degree() + 1


def test_the_cp2xcp2_partner_end_to_end():
    q = fixture("cp2xcp2q")
    a = QuillenAnalysis(q)
    assert a.eta() == 9 == a.chi_h - a.chi_pi
    assert a.ledger().all_verified
    rep = a.whitehead()
    assert [n.degree for n in rep.nodes if n.dim_h] == [4]
    assert max(q.complex()._d_cache) == 8


WEDGE = "model wedge : quillen\ngen a : 2\ngen b : 4\ngen c : 7\nd c = 0\n"


def test_the_hyperbolic_wedge_still_raises():
    # S^3 v S^5 v S^8: delta = 0 is quadratic, and H_15 is nonzero
    q = dsl.parse(WEDGE)
    assert q.resolution is not None
    with pytest.raises(UnboundedGamma, match=r"^DGLModel\(wedge\): H_15"):
        quillen.eta(q)
    table = quillen.homology_table(q, window(q))
    assert table == elimination_table(dsl.parse(WEDGE), window(q))
    assert table[15]


def test_a_cubic_delta_keeps_elimination():
    q = fixture("cubic")
    assert q.resolution is None
    top = window(q)
    assert quillen.homology_table(q, top) == elimination_table(
        fixture("cubic"), top)
    assert max(q.complex()._d_cache) == top + 1


# --- no Lie basis above max|W| + 1 -------------------------------------------

def pair(q):
    n = (q.max_generator_degree() + 1) // 2
    return invariants.compare_models(dsl.catalog("cpn_sullivan", n), q)


REQUESTS = {
    "eta": quillen.eta,
    "whitehead": lambda q: quillen.whitehead_sequence_dgl(q, window(q)),
    "invariants": lambda q: QuillenAnalysis(q).invariants(verbose=True),
    "ledger": lambda q: QuillenAnalysis(q).ledger(),
    "compare": pair,
    "homology_table": lambda q: quillen.homology_table(q, window(q)),
}


@pytest.mark.parametrize("request_name", REQUESTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_no_lie_basis_above_max_w_plus_one(request_name, n, monkeypatch):
    seen, enumerate_ = [], FreeLie._enumerate

    def counting(self, degree):
        seen.append(degree)
        return enumerate_(self, degree)

    monkeypatch.setattr(FreeLie, "_enumerate", counting)
    q = dsl.catalog("cpn_quillen", n)
    REQUESTS[request_name](q)
    assert seen and max(seen) <= q.max_generator_degree() + 1


def test_the_partner_builds_no_lie_basis_above_max_w_plus_one(monkeypatch):
    seen, table = [], FreeAlgebra.table

    def counting(self, degree):
        if isinstance(self, FreeLie):
            seen.append(degree)
        return table(self, degree)

    monkeypatch.setattr(FreeAlgebra, "table", counting)
    q = fixture("cp2xcp2q")
    quillen.eta(q)
    quillen.whitehead_sequence_dgl(q, window(q))
    assert max(seen) == 8


# --- where L(W) itself is zero ----------------------------------------------

@pytest.mark.parametrize("spec,top", [("sphere_odd_quillen(3)", 2),
                                      ("sphere_odd_quillen(5)", 4),
                                      ("s2_quillen", 2),
                                      ("cpn_quillen(1)", 2)])
def test_no_cell_is_grown_where_the_free_lie_algebra_is_zero(
        spec, top, monkeypatch):
    # above max|W| these L(W) are 0 but for [w, w] of s2's odd w in degree
    # 2, so the resolution grows no total degree t - s above top, yet the
    # Ext identity up to max|W| still runs
    cells, cell = [], ext.MinimalResolution._cell

    def counting(self, s, t):
        cells.append(t - s)
        return cell(self, s, t)

    monkeypatch.setattr(ext.MinimalResolution, "_cell", counting)
    q = dsl.catalog_spec(spec)
    for request in REQUESTS.values():
        if request is not pair:
            request(q)
    assert cells and max(cells) == top
    assert len(q.resolution.series) == top + 1
    assert quillen.homology_table(q, 3 * window(q)) == elimination_table(
        dsl.catalog_spec(spec), 3 * window(q))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=0, max_size=3))
def test_the_free_lie_algebra_vanishes_where_pbw_says(degrees):
    # vanishes claims L_k(W) = 0 only where PBW over the series of T(W)
    # gives 0 and the Lie basis is empty (PBW equals the Lie basis dims: the
    # PBW tests below); on two generators or more it claims nothing
    top = 16
    pbw = [0, *ext.primitive_dims(tensor_series(degrees, top))]
    lie = FreeLie([Generator(f"w{i}", d, i) for i, d in enumerate(degrees)])
    for k in range(1, top + 1):
        if lie.vanishes(k):
            assert not pbw[k] and not lie.basis(k), k


@pytest.mark.parametrize("degree", range(1, 9))
def test_vanishes_is_exact_on_one_generator(degree):
    # L(w) is w, and [w, w] for odd |w|: zero everywhere else
    top = 16
    pbw = [0, *ext.primitive_dims(tensor_series([degree], top))]
    lie = FreeLie([Generator("w", degree, 0)])
    got = [lie.vanishes(k) for k in range(1, top + 1)]
    assert got == [not pbw[k] for k in range(1, top + 1)]
    assert got == [not lie.basis(k) for k in range(1, top + 1)]


@pytest.mark.parametrize("model", [
    *(pytest.param(lambda s=s: dsl.catalog_spec(s), id=s)
      for s in QUADRATIC_CATALOG[:6]),
    *(pytest.param(lambda n=n: fixture(n), id=n) for n in FIXTURE_TABLES)])
def test_vanishes_where_the_lie_basis_is_empty(model):
    # exact on one generator, and a claim of zero is never wrong
    lie = model().lie
    got = [lie.vanishes(k) for k in range(1, 13)]
    empty = [not lie.basis(k) for k in range(1, 13)]
    if len(lie.generators) == 1:
        assert got == empty
    assert all(e for v, e in zip(got, empty) if v)


# fixture -> len(resolution.series) after the default-window homology table
SERIES_LENGTHS = {"s2xs2q": 9, "s2vs2q": 5, "hp2q": 17, "s2x3q": 13,
                  "cp2xcp2q": 17, "s2xs2xs3q": 15}


@pytest.mark.parametrize("name", SERIES_LENGTHS)
def test_the_resolution_grows_as_far_as_the_window(name):
    # with two generators or more vanishes claims nothing, and no fixture's
    # L(W) is zero above max|W|, so the resolution grows every total degree
    # that the window's Ext readings need, and no more
    q = fixture(name)
    assert len(q.generators) >= 2
    quillen.homology_table(q, window(q))
    assert len(q.resolution.series) == SERIES_LENGTHS[name]


# --- the run-time checks -----------------------------------------------------

def test_ext_off_by_one_below_max_w_raises(monkeypatch):
    lie_dim = ext.MinimalResolution.lie_dim
    monkeypatch.setattr(ext.MinimalResolution, "lie_dim",
                        lambda self, k: lie_dim(self, k) + (k == 3))
    q = dsl.catalog("cpn_quillen", 2)
    with pytest.raises(InternalInconsistency,
                       match=r"CP2q.*H_3\(L\(W\)\) = 0 by elimination but 1"):
        quillen.eta(q)


@pytest.mark.parametrize("degree", [1, 4, 5])
def test_ext_off_by_one_at_every_checked_degree_raises(degree, monkeypatch):
    lie_dim = ext.MinimalResolution.lie_dim
    monkeypatch.setattr(ext.MinimalResolution, "lie_dim",
                        lambda self, k: lie_dim(self, k) + (k == degree))
    q = fixture("cp2xcp2q")
    with pytest.raises(InternalInconsistency, match=f"H_{degree}"):
        quillen.homology_table(q, 7)


@pytest.mark.parametrize("q", [
    pytest.param(lambda: dsl.catalog("cpn_quillen", 3), id="cpn_quillen(3)"),
    pytest.param(lambda: fixture("cp2xcp2q"), id="cp2xcp2q"),
])
def test_each_degree_compares_ext_once(q, monkeypatch):
    # betti is memoized: the Whitehead sequence, eta, the ledger and the
    # homology table of a quadratic model read each degree's Ext dimension
    # once, compared with elimination up to max|W|
    reads, lie_dim = [], ext.MinimalResolution.lie_dim
    monkeypatch.setattr(ext.MinimalResolution, "lie_dim",
                        lambda self, k: reads.append(k) or lie_dim(self, k))
    q = q()
    top = window(q)
    quillen.whitehead_sequence_dgl(q, top)
    quillen.eta(q)
    QuillenAnalysis(q).ledger()
    quillen.homology_table(q, top)
    assert sorted(reads) == list(range(1, top + 1))


def test_a_planted_ext_disagreement_raises_on_every_read(monkeypatch):
    # the comparison's answer is kept only once it passes, so a second read
    # of the degree compares again and raises again
    lie_dim = ext.MinimalResolution.lie_dim
    monkeypatch.setattr(ext.MinimalResolution, "lie_dim",
                        lambda self, k: lie_dim(self, k) + (k == 3))
    cx = dsl.catalog("cpn_quillen", 2).complex()
    for _ in range(2):
        with pytest.raises(InternalInconsistency,
                           match=r"H_3\(L\(W\)\) = 0 by elimination but 1"):
            cx.betti(3)


def algebra(name):
    return ext.CohomologyAlgebra.of_quadratic(fixture(name))


def planted(alg, ab, scale):
    products = {k: dict(z) for k, z in alg.products.items()}
    products[ab] = {c: v * scale for c, v in products[ab].items()}
    return products


def halved(alg):
    """C's products times 1/2: an isomorphic algebra whose constants have
    the denominator 2."""
    return {ab: {c: v / 2 for c, v in z.items()}
            for ab, z in alg.products.items()}


THIRDS = dsl.parse("model thirds : quillen\ngen a : 1\ngen b : 3\n"
                   "d b = 1/3*[a,a]\n")


def integer_constant_cases():
    yield from ((name, algebra(name)) for name in
                ("cp2xcp2q", "hp2q", "s2vs2q", "s2x3q", "s2xs2q",
                 "s2xs2xs3q"))
    base = algebra("cp2xcp2q")
    yield "halved", ext.CohomologyAlgebra(base.degrees[1:], halved(base))
    yield "thirds", ext.CohomologyAlgebra.of_quadratic(THIRDS)


@pytest.mark.parametrize("name,alg", list(integer_constant_cases()))
def test_int_products_are_the_products_times_their_common_denominator(
        name, alg):
    den = alg.den
    assert den == math.lcm(*(Fraction(v).denominator
                             for z in alg.products.values()
                             for v in z.values()))
    assert list(alg.int_products) == list(alg.products)
    for ab, z in alg.products.items():
        assert alg.int_products[ab] == {c: v * den for c, v in z.items()}
        assert all(type(v) is int for v in alg.int_products[ab].values())
    # no smaller positive factor makes every constant an integer
    assert all(any((v * d).denominator != 1 for z in alg.products.values()
                   for v in z.values()) for d in range(1, den))


def test_the_denominators_of_the_planted_algebras():
    assert ext.CohomologyAlgebra(algebra("cp2xcp2q").degrees[1:],
                                 halved(algebra("cp2xcp2q"))).den == 2
    thirds = ext.CohomologyAlgebra.of_quadratic(THIRDS)
    assert thirds.den == 3
    assert thirds.products == {(1, 1): {2: Fraction(-2, 3)}}
    assert thirds.int_products == {(1, 1): {2: -2}}


def test_the_resolution_reads_the_algebras_integer_constants():
    alg = algebra("cp2xcp2q")
    half = ext.CohomologyAlgebra(alg.degrees[1:], halved(alg), name="half")
    assert half.int_products == alg.int_products
    res, res_half = ext.MinimalResolution(alg), ext.MinimalResolution(half)
    # scaling C-bar gives an isomorphic algebra: the same Ext and Lie dims,
    # and over the same integer constants the same int boundaries
    assert [res_half.ext_dim(k) for k in range(12)] == [
        res.ext_dim(k) for k in range(12)]
    assert [res_half.lie_dim(k) for k in range(1, 12)] == [
        res.lie_dim(k) for k in range(1, 12)]
    assert res_half.boundary == res.boundary
    assert all(type(v) is int for bs in res_half.boundary for z in bs
               for v in z.values())
    # the resolution reads no other constants than the integer ones
    half.products = None
    assert ext.MinimalResolution(half).ext_dim(12) == res.ext_dim(12)


@pytest.mark.parametrize("ab,scale,match", [
    ((1, 2), -1, "not graded commutative"),
    ((2, 1), 2, "not graded commutative"),
])
def test_a_planted_constant_over_the_denominator_2_raises(ab, scale, match):
    base = algebra("cp2xcp2q")
    products = halved(base)
    products[ab] = {c: v * scale for c, v in products[ab].items()}
    with pytest.raises(InternalInconsistency, match=match):
        ext.CohomologyAlgebra(base.degrees[1:], products, name="planted")


def test_a_planted_factor_over_the_denominator_2_breaks_associativity():
    base = algebra("cp2xcp2q")
    products = halved(base)
    products[(1, 2)] = {c: 2 * v for c, v in products[(1, 2)].items()}
    products[(2, 1)] = dict(products[(1, 2)])
    with pytest.raises(InternalInconsistency,
                       match="planted: the product is not associative"):
        ext.CohomologyAlgebra(base.degrees[1:], products, name="planted")


@pytest.mark.parametrize("n", range(2, 7))
def test_the_products_of_cpn_are_unchanged(n):
    # C = Q[x]/x^(n+1), xi_a dual to s w_(2a-1): xi_a xi_b = -xi_(a+b)
    alg = ext.CohomologyAlgebra.of_quadratic(dsl.catalog("cpn_quillen", n))
    want = ext.CohomologyAlgebra.of_quadratic(build_oracle.cpn_quillen(n))
    assert [(ab, list(z.items())) for ab, z in alg.products.items()] == [
        (ab, list(z.items())) for ab, z in want.products.items()]
    assert alg.products == {(a, b): {a + b: -1} for a in range(1, n + 1)
                            for b in range(1, n + 1) if a + b <= n}
    assert all(type(v) is Fraction for z in alg.products.values()
               for v in z.values())
    assert alg.den == 1


def test_the_cohomology_algebra_of_the_partner():
    alg = algebra("cp2xcp2q")
    # x, y, xx, xy, yy, xxy, xyy, xxyy are 1..8, of degrees 2, 2, 4, ..., 8
    assert alg.degrees == (0, 2, 2, 4, 4, 4, 6, 6, 8)
    assert alg.products[1, 1] == {3: -1} and alg.products[1, 2] == {4: -1}
    assert alg.products[4, 4] == {8: -1}


@pytest.mark.parametrize("ab,scale,match", [
    ((1, 2), -1, "not graded commutative"),
    ((2, 1), 2, "not graded commutative"),
])
def test_a_planted_structure_constant_raises(ab, scale, match):
    alg = algebra("cp2xcp2q")
    with pytest.raises(InternalInconsistency, match=match):
        ext.CohomologyAlgebra(alg.degrees[1:], planted(alg, ab, scale),
                              name="planted")


def test_a_planted_factor_on_both_orders_breaks_associativity():
    # x y = -xy in both orders, scaled by 2: (x x) y != x (x y)
    alg = algebra("cp2xcp2q")
    products = planted(alg, (1, 2), 2)
    products[(2, 1)] = dict(products[(1, 2)])
    with pytest.raises(InternalInconsistency, match="not associative"):
        ext.CohomologyAlgebra(alg.degrees[1:], products, name="planted")


def test_a_product_of_the_wrong_degree_raises():
    alg = algebra("hp2q")
    with pytest.raises(InternalInconsistency, match="not of degree 8"):
        ext.CohomologyAlgebra(alg.degrees[1:], {(1, 1): {1: 1}})


def test_mixed_parities_give_a_graded_commutative_algebra():
    # x, y of degree 2 and z of degree 3: z^2 = 0, x z = z x, and x y z is
    # the top class
    alg = algebra("s2xs2xs3q")
    assert alg.degrees == (0, 2, 2, 3, 4, 5, 5, 7)
    assert (3, 3) not in alg.products
    assert alg.products[1, 3] == alg.products[3, 1]
    assert list(alg.product(alg.products[1, 2], {3: 1})) == [7]


def test_a_non_quadratic_model_has_no_algebra():
    assert ext.CohomologyAlgebra.of_quadratic(fixture("cubic")) is None


def test_a_generator_whose_boundary_is_no_cycle_raises(monkeypatch):
    # every column claimed a relation: the first new generator of V_2 has
    # a boundary that is no cycle, and no image to hide it
    monkeypatch.setattr(ext.linalg, "relations",
                        lambda columns, nrows: [{n: 1} for n in
                                                range(len(columns))])
    res = ext.MinimalResolution(algebra("cp2xcp2q"))
    with pytest.raises(InternalInconsistency,
                       match="d.d != 0 on a generator of V_2 in degree 4"):
        res.ext_dim(4)


def test_an_image_outside_the_kernel_raises(monkeypatch):
    # a relation dropped: the image of V_2 no longer lies in the kernel
    relations = linalg.relations

    def drop_first(columns, nrows):
        found = relations(columns, nrows)
        return found[1:] if nrows and len(found) > 1 else found

    monkeypatch.setattr(ext.linalg, "relations", drop_first)
    res = ext.MinimalResolution(algebra("cp2xcp2q"))
    with pytest.raises(InternalInconsistency,
                       match="d.d != 0 on V_2 in degree 8"):
        res.ext_dim(8)


def test_the_resolution_is_minimal_and_its_boundaries_compose_to_zero():
    res = ext.MinimalResolution(algebra("s2x3q"))
    res.ext_dim(6)
    alg = res.algebra
    for s in range(1, len(res.gens)):
        for t, z in zip(res.gens[s], res.boundary[s]):
            # each boundary lies in C-bar P_(s-1), in degree t
            assert all(c and alg.degrees[c] + res.gens[s - 1][j] == t
                       for c, j in z)
            if s == 1:
                continue
            out = {}
            for (c, j), v in z.items():
                for (c2, i), u in res.boundary[s - 1][j].items():
                    for c3, w in alg.products.get((c, c2), {}).items():
                        out[c3, i] = out.get((c3, i), 0) + v * u * w
            assert not any(out.values())


def test_the_ext_series_of_the_three_spheres():
    # (S^2)^3: Ext = Q[a, b, c] on three classes of bidegree (1, 2), so
    # total degree k holds the monomials of degree k
    res = ext.MinimalResolution(algebra("s2x3q"))
    assert [res.ext_dim(k) for k in range(6)] == [1, 3, 6, 10, 15, 21]


# --- PBW ---------------------------------------------------------------------

def free_lie_dims(degrees, top):
    gens = [Generator(f"w{i}", d, i) for i, d in enumerate(degrees)]
    lie = FreeLie(gens)
    return [0] + [len(lie.basis(k)) for k in range(1, top + 1)]


def tensor_series(degrees, top):
    """1 / (1 - sum t^d): the Hilbert series of T(W) = U L(W)."""
    e = [1] + [0] * top
    for k in range(1, top + 1):
        e[k] = sum(e[k - d] for d in degrees if d <= k)
    return e


@pytest.mark.parametrize("degrees", [[1], [2], [1, 1], [1, 2], [2, 4, 7],
                                     [1, 1, 3], [3, 3, 2]])
def test_pbw_inverts_the_tensor_algebra_to_the_free_lie_algebra(degrees):
    top = 10
    assert [0, *ext.primitive_dims(tensor_series(degrees, top))] == \
        free_lie_dims(degrees, top)


def test_pbw_on_cpn():
    # (1 + t) / (1 - t^4) = U of Q in degrees 1 (odd) and 4 (even)
    series = [1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
    assert list(ext.primitive_dims(series)) == [1, 0, 0, 1, 0, 0, 0, 0, 0]


def test_pbw_refuses_a_negative_dimension():
    with pytest.raises(InternalInconsistency, match="dim g_2 = -1"):
        list(ext.primitive_dims([1, 2, 0]))     # (1 + t)^2 has t^2
    with pytest.raises(InternalInconsistency, match="starts with"):
        list(ext.primitive_dims([2, 1]))
