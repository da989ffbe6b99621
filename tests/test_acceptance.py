"""End-to-end acceptance gate.

Each criterion prints one pass/fail line (run with ``pytest -s`` or ``-v``
to see them inline); any failure fails the suite.
"""
import random
import time
from fractions import Fraction

import pytest

from elliptica import dsl, invariants, linalg, quillen, randmodels, sullivan
from elliptica.commutative import Generator
from elliptica.errors import (DegreeError, ModelSyntaxError, OddSquareError,
                              UnknownGenerator, ValidationError)
from elliptica.lie import FreeLie, LieElement, LieGenerator
from elliptica.sullivan import SullivanModel, tensor_product

import conftest
from conftest import CATALOG_QUILLEN_SPECS, CATALOG_SULLIVAN_SPECS


def report(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def population():
    """100 seeded random pure elliptic models, shared by criteria 3-5."""
    rng = random.Random(271828)
    models = [randmodels.random_pure_model(rng, name=f"acc{i}")
              for i in range(100)]
    return [(m, invariants.SullivanAnalysis(m)) for m in models]


@pytest.fixture(scope="module")
def catalog_population():
    models = [dsl.catalog_spec(s) for s in CATALOG_SULLIVAN_SPECS]
    return [(m, invariants.SullivanAnalysis(m)) for m in models]


def test_criterion_1_cpn_sullivan_invariants():
    worst = 0.0
    for n in range(1, 5):
        t0 = time.monotonic()
        m = dsl.catalog("cpn_sullivan", n)
        rep = invariants.invariant_report(m)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        ok = (rep.rho == n + 1 and rep.chi_h == n + 1 and rep.chi_v == 0
              and rep.formal_dimension == 2 * n and rep.f0 and dt < 5.0)
        if not ok:
            report(1, False, f"CP^{n}: {rep}, {dt:.2f}s")
    report(1, True, f"CP^n (n=1..4) rho/chi/dimension/F0 exact; "
                    f"slowest {worst:.2f}s")


def test_criterion_2_cpn_quillen_eta():
    results = []
    for n in range(1, 6):
        t0 = time.monotonic()
        q = dsl.catalog("cpn_quillen", n)
        e = quillen.eta(q)
        table = quillen.homology_table(q, 2 * n + 2)
        dt = time.monotonic() - t0
        expected = {i: (1 if i in (1, 2 * n) else 0)
                    for i in range(1, 2 * n + 3)}
        ok = e == n + 1 and table == expected and (n < 3 or dt < 30.0)
        results.append((n, e, dt))
        if not ok:
            report(2, False, f"n={n}: eta={e}, H={table}, {dt:.2f}s")
    report(2, True, "CP^n Quillen eta = n+1, homology Q at degrees 1 and 2n; "
                    + ", ".join(f"n={n}: {dt:.2f}s" for n, _, dt in results))


def test_criterion_3_rho_identity(population, catalog_population):
    pairs = [("s2", "sphere_odd(3)"), ("cpn_sullivan(2)", "sphere_odd(5)"),
             ("s2", "sphere_even(4)")]
    extra = []
    for a, b in pairs:
        m = tensor_product(dsl.catalog_spec(a), dsl.catalog_spec(b))
        extra.append((m, invariants.SullivanAnalysis(m)))
    checked = 0
    for m, a in catalog_population + extra + population:
        if a.rho() != a.chi_h - a.chi_v:
            report(3, False, f"{m.name}: rho {a.rho()} != "
                             f"{a.chi_h} - {a.chi_v}")
        checked += 1
    report(3, True, f"rho = chi_H - chi_V exact on {checked} models "
                    f"(catalog, products, 100 random)")


def test_criterion_4_rho_partial_sum_bounds(population, catalog_population):
    checked = 0
    for m, a in catalog_population + population:
        n = a.formal_dimension
        partial = sum((-1) ** i * a.model.gamma_dim(i) for i in range(4, n + 2))
        slack = a.rho() - partial
        if not 0 <= slack <= 2:
            report(4, False, f"{m.name}: slack {slack}")
        checked += 1
    report(4, True, f"0 <= rho - partial alternating L-sum <= 2 on "
                    f"{checked} models")


def test_criterion_5_structure_theorems(population, catalog_population):
    checked = 0
    for m, a in catalog_population + population:
        ledger = a.elliptic_checks()
        ledger.extend(a.identity_checks())
        if not ledger.all_verified:
            report(5, False, f"{m.name}: {ledger.violated}")
        checked += 1
    report(5, True, f"structure and vanishing claims verified on "
                    f"{checked} models")


def test_criterion_6_odd_sphere_detector():
    specs = {
        "sphere_odd(3)": True, "sphere_odd(5)": True, "sphere_odd(7)": True,
        "s2": False, "cpn_sullivan(2)": False, "cpn_sullivan(3)": False,
        "product(s2,sphere_odd(3))": False,
        "product(sphere_odd(3),sphere_odd(5))": False,
        "product(s2,sphere_even(4))": False,
    }
    for spec, expected in specs.items():
        m = dsl.catalog_spec(spec)
        a = invariants.SullivanAnalysis(m)
        verdict, evidence = a.odd_sphere()
        if verdict != expected:
            report(6, False, f"{spec}: got {verdict}, evidence {evidence}")
        if verdict:
            n = a.formal_dimension
            if evidence["h_pattern"] != {0: 1, n: 1} or n % 2 == 0:
                report(6, False, f"{spec}: H pattern {evidence['h_pattern']}")
    report(6, True, f"odd-sphere detector exact on {len(specs)} models")


def test_criterion_7_f0_consequences():
    for spec in ("cpn_sullivan(1)", "cpn_sullivan(2)", "cpn_sullivan(3)",
                 "product(s2,sphere_even(4))"):
        m = dsl.catalog_spec(spec)
        ledger = invariants.SullivanAnalysis(m).f0_consequences()
        by_claim = {e.claim: e.status for e in ledger.entries}
        if by_claim.get("f0-odd-l-vanishes") != "verified" or \
                by_claim.get("f0-even-b-maps-vanish") != "verified":
            report(7, False, f"{spec}: {by_claim}")
    report(7, True, "F0 models: odd L vanish, even-degree b maps have rank 0")


def test_criterion_8_cross_model_duality():
    pairs = [("s2", "s2_quillen"), ("sphere_odd(3)", "sphere_odd_quillen(3)"),
             ("cpn_sullivan(2)", "cpn_quillen(2)")]
    for s_spec, q_spec in pairs:
        rep = invariants.compare_models(dsl.catalog_spec(s_spec),
                                        dsl.catalog_spec(q_spec))
        if not rep.matches or rep.rho != rep.eta:
            report(8, False, f"({s_spec}, {q_spec}): {rep.mismatches}")
    report(8, True, "dim L^k = dim Gamma_(k-2) and rho = eta on all pairs")


def _random_homogeneous_elem(alg, rng, max_degree=8):
    for _ in range(60):
        d = rng.randint(1, max_degree)
        basis = alg.basis(d)
        if basis:
            from elliptica.commutative import Element
            return Element({m: Fraction(rng.randint(-4, 4))
                            for m in rng.sample(basis, min(3, len(basis)))}), d
    raise AssertionError


def _random_homogeneous_lie(lie, rng, max_degree=6):
    for _ in range(60):
        d = rng.randint(1, max_degree)
        basis = lie.lie_basis(d)
        if basis:
            out = LieElement.zero()
            for b in rng.sample(basis, min(2, len(basis))):
                out = out + b.scale(rng.randint(-3, 3))
            return out, d
    raise AssertionError


def test_criterion_9_property_suites(catalog_population):
    from elliptica.commutative import Algebra
    rng = random.Random(314159)
    checks = 0
    alg = Algebra([Generator("x", 2, 0), Generator("y", 3, 1),
                   Generator("z", 4, 2), Generator("u", 5, 3)])
    D = alg.derivation({1: alg.from_monomial(((0, 2),)),
                        3: alg.from_monomial(((0, 3),))})
    for _ in range(250):   # Koszul commutation
        a, da = _random_homogeneous_elem(alg, rng)
        b, db = _random_homogeneous_elem(alg, rng)
        assert alg.multiply(a, b) == \
            alg.multiply(b, a).scale((-1) ** (da * db))
        checks += 1
    for _ in range(250):   # graded Leibniz
        a, da = _random_homogeneous_elem(alg, rng, 7)
        b, _ = _random_homogeneous_elem(alg, rng, 7)
        assert D(alg.multiply(a, b)) == \
            alg.multiply(D(a), b) + alg.multiply(a, D(b)).scale((-1) ** da)
        checks += 1
    lie = FreeLie([LieGenerator("p", 1, 0), LieGenerator("q", 2, 1),
                   LieGenerator("r", 3, 2)])
    for _ in range(250):   # graded antisymmetry
        a, da = _random_homogeneous_lie(lie, rng)
        b, db = _random_homogeneous_lie(lie, rng)
        assert lie.bracket(a, b) == \
            lie.bracket(b, a).scale(-((-1) ** (da * db)))
        checks += 1
    for _ in range(250):   # graded Jacobi
        a, da = _random_homogeneous_lie(lie, rng, 4)
        b, db = _random_homogeneous_lie(lie, rng, 4)
        c, _ = _random_homogeneous_lie(lie, rng, 4)
        assert lie.bracket(a, lie.bracket(b, c)) == \
            lie.bracket(lie.bracket(a, b), c) + \
            lie.bracket(b, lie.bracket(a, c)).scale((-1) ** (da * db))
        checks += 1
    # differentials square to zero on every fixture
    for m, _ in catalog_population:
        for g in m.generators:
            assert m.d(m.d_of_generator(g.index)).is_zero()
    for spec in CATALOG_QUILLEN_SPECS:
        q = dsl.catalog_spec(spec)
        for g in q.generators:
            assert q.delta(q.delta_of_generator(g.index)).is_zero()
    # Whitehead exactness everywhere (an ExactnessFailure would raise)
    for m, a in catalog_population:
        sullivan.whitehead_sequence(m, min(a.bound, 10))
    for spec in CATALOG_QUILLEN_SPECS:
        q = dsl.catalog_spec(spec)
        quillen.whitehead_sequence_dgl(q, min(quillen.default_bound(q), 8))
    report(9, True, f"{checks} random identity checks, d^2 = 0 on all "
                    f"fixtures, Whitehead sequences exact at every node")


def test_criterion_10_oracle_equivalence():
    # (a) truncated-polynomial cohomology pattern
    for a_, m_ in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        x = Generator("x", 2 * a_, 0)
        y = Generator("y", 2 * a_ * m_ - 1, 1)
        scratch = SullivanModel([x, y], {})
        model = SullivanModel(
            [x, y], {1: scratch.algebra.from_monomial(((0, m_),))})
        cx = model.complex()
        top = 2 * a_ * m_ + 2
        hits = {2 * a_ * k for k in range(m_)}
        got = [cx.betti(i) for i in range(top + 1)]
        want = [1 if i in hits else 0 for i in range(top + 1)]
        if got != want:
            report(10, False, f"Lambda(x:{2*a_}, y), dy=x^{m_}: {got}")
    # (b) free-Lie dimensions vs an all-bracketings rank oracle
    specs = [[("w", 1)], [("u", 1), ("v", 1)], [("u", 1), ("v", 2)],
             [("a", 2), ("b", 3)]]
    for spec in specs:
        lie = FreeLie([LieGenerator(n, d, i)
                       for i, (n, d) in enumerate(spec)])
        for degree in range(1, 7):
            memo = {}

            def elems(d):
                if d in memo:
                    return memo[d]
                out = [lie.gen(g.name) for g in lie.generators
                       if g.degree == d]
                for i in range(1, d):
                    for p in elems(i):
                        for q_ in elems(d - i):
                            e = lie.bracket(p, q_)
                            if not e.is_zero():
                                out.append(e)
                memo[d] = out
                return out

            span = linalg.Span(len(lie.words(degree)))
            for e in elems(degree):
                span.add(lie.to_coords(degree, e))
            if lie.lie_dim(degree) != span.rank:
                report(10, False, f"{spec} degree {degree}: "
                                  f"{lie.lie_dim(degree)} != {span.rank}")
    report(10, True, "cohomology matches truncated-polynomial oracle; "
                     "Lie dimensions match all-bracketings rank to degree 6")


def test_criterion_11_parser_roundtrip_and_errors():
    def equal(a, b):
        if type(a) is not type(b):
            return False
        if [(g.name, g.degree) for g in a.generators] != \
                [(g.name, g.degree) for g in b.generators]:
            return False
        keys = set(a.differential) | set(b.differential)
        return all(a.differential.get(k) == b.differential.get(k)
                   for k in keys)

    count = 0
    for spec in CATALOG_SULLIVAN_SPECS + CATALOG_QUILLEN_SPECS:
        m = dsl.catalog_spec(spec)
        if not equal(m, dsl.parse(dsl.serialize(m))):
            report(11, False, f"roundtrip failed for {spec}")
        count += 1
    # [[a,b],[a,c]] is the standard bracket of the Lyndon word abac, which
    # no left-normed bracket writes as a single term
    nested = dsl.parse("model nested : quillen\ngen a : 1\ngen b : 1\n"
                       "gen c : 1\ngen z : 5\nd z = [[a,b],[a,c]]\n")
    text = dsl.serialize(nested)
    if "d z = [[a,b],[a,c]]\n" not in text or \
            not equal(nested, dsl.parse(text)):
        report(11, False, f"nested-bracket roundtrip failed: {text!r}")
    count += 1
    rng = random.Random(161803)
    for i in range(100):
        m = randmodels.random_pure_model(rng, name=f"round{i}")
        if not equal(m, dsl.parse(dsl.serialize(m))):
            report(11, False, f"roundtrip failed for random model {i}")
        count += 1
    # every documented error kind, with the offending line number
    cases = [
        ("gen x : 2\n", ModelSyntaxError, 1),
        ("model m : sullivan\ngen x : oops\n", ModelSyntaxError, 2),
        ("model m : sullivan\ngen x : 2\ngen y : 5\nd y = x*q\n",
         UnknownGenerator, 4),
        ("model m : sullivan\ngen x : 2\ngen y : 5\nd y = x^2\n",
         DegreeError, 4),
        ("model m : sullivan\ngen u : 3\ngen y : 7\nd y = u^2\n",
         OddSquareError, 4),
    ]
    for text, kind, line in cases:
        try:
            dsl.parse(text)
        except kind as exc:
            if exc.line != line:
                report(11, False, f"{kind.__name__} reported line {exc.line},"
                                  f" expected {line}")
        else:
            report(11, False, f"{kind.__name__} not raised")
    try:
        dsl.parse("model m : sullivan\ngen x : 2\ngen y : 3\ngen z : 4\n"
                  "d y = x^2\nd z = x*y\n")
    except ValidationError:
        pass
    else:
        report(11, False, "ValidationError not raised for d^2 != 0")
    report(11, True, f"roundtrip identity on {count} models; all error "
                     f"kinds located by line")
