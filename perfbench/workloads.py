"""The benchmark's three workloads: their inputs, requests and answer checks.

Each workload builds, from the seed, one pass: a list of requests that the
run repeats in a closed loop.  A request builds its model afresh (from a
model seed, a catalog spec or ``.rhm`` text), so no model object and none of
its memo caches outlive it.  Each request carries a check that compares its
answer with a closed form or with an identity the engine must satisfy; the
check returns None when the answer is right, else a message.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from elliptica import cli, dsl, invariants, quillen, randmodels, sullivan


@dataclass(frozen=True)
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass(frozen=True)
class Pass:
    requests: list[Request]
    # The tail percentile is fixed per workload so that every run reports
    # the same quantile; ``min_passes`` passes give it ten samples beyond.
    tail_percentile: int
    # Traced passes: a fixed number, so that counts repeat exactly; enough
    # for small requests to give self times well above the timer's noise.
    trace_passes: int

    @property
    def min_passes(self) -> int:
        samples = 1000 / (100 - self.tail_percentile)
        return math.ceil(samples / len(self.requests))


# --- seeded random models ----------------------------------------------------

def structure(model):
    """Generator degrees and the monomials of each odd generator's
    differential: everything about a random pure model but its coefficients.
    Within one structure the cost of a request varies by a few percent;
    across structures of one shape it varies by up to 40%."""
    odd = [g for g in model.generators if g.degree % 2]
    return (tuple(g.degree for g in model.generators),
            tuple(tuple(sorted(model.d_of_generator(g.index).terms))
                  for g in odd))


def draw_models(seed: int, reference_seeds: tuple[int, ...],
                draws: int) -> list[int]:
    """For each reference seed, a model seed drawn from ``seed`` whose model
    has the structure of the reference seed's model.

    Builds ``random_pure_model(random.Random(s))`` for ``draws`` seeds ``s``
    from a stream seeded by ``seed`` and keeps the first match per structure,
    so the run's seed picks the coefficients while the structures, and with
    them the work, stay fixed.  A structure with no match among the draws
    keeps its reference seed.  The number of draws is fixed so that set-up
    does the same work on every seed.
    """
    def build(s):
        return randmodels.random_pure_model(random.Random(s))

    wanted = [structure(build(r)) for r in reference_seeds]
    found = dict(zip(wanted, reference_seeds))
    matched: set = set()
    stream = random.Random(seed)
    for _ in range(draws):
        s = stream.getrandbits(32)
        key = structure(build(s))
        if key in found and key not in matched:
            found[key] = s
            matched.add(key)
    return [found[key] for key in wanted]


def _random_model(model_seed: int, name: str):
    return randmodels.random_pure_model(random.Random(model_seed), name=name)


def _sullivan_nodes_check(nodes, bound: int) -> str | None:
    """Ranks along the Sullivan Whitehead sequence must fit the dimensions
    exactness forces: at L^(i+1), dim = rank b^i + rank incl^i; at H^(i+1)
    and V^(i+1) together, dim H^(i+1) - rank incl^i = dim V^(i+1) - rank
    b^(i+1), both being the rank of the linear-part map."""
    by_degree = {n.degree: n for n in nodes}
    if sorted(by_degree) != list(range(2, bound + 1)):
        return f"nodes {sorted(by_degree)} do not cover 2..{bound}"
    for i, n in by_degree.items():
        if n.dim_l_next != n.rank_b + n.rank_incl:
            return f"dim L^{i + 1} != rank b + rank incl"
        nxt = by_degree.get(i + 1)
        if nxt and n.dim_h_next - n.rank_incl != nxt.dim_v - nxt.rank_b:
            return f"ranks at H^{i + 1} and V^{i + 1} disagree"
    return None


def _quillen_nodes_check(nodes) -> str | None:
    """At Gamma_i exactness gives dim Gamma_i = rank b + rank incl."""
    for n in nodes:
        if n.dim_gamma != n.rank_b + n.rank_incl:
            return f"dim Gamma_{n.degree} != rank b + rank incl"
    return None


def _invariants_check(rep, model) -> str | None:
    if rep.rho != rep.chi_h - rep.chi_v:
        return f"rho {rep.rho} != chi_H - chi_V = {rep.chi_h - rep.chi_v}"
    n = invariants.candidate_formal_dimension(model)
    if rep.formal_dimension != n:
        return f"formal dimension {rep.formal_dimension} != candidate {n}"
    return None


def sullivan_population(seed: int, workdir: str) -> Pass:
    """Seeded random pure elliptic models, three requests each: the engine
    calls behind ``invariants``, ``verify`` and ``whitehead``.

    No Lie code runs here.  The structures come in three cost classes: five
    models with one even generator (~1 ms a request), nine with two (10-100
    ms) and two with three (0.3-1 s, the large eliminations).  The median
    follows the small models, the p90 tail the large ones.  More large
    models would lengthen a pass and leave fewer samples per request.
    """
    refs = (2, 1, 9, 28, 14,                        # one even generator
            0, 11, 36, 7, 18, 35, 16, 217, 184,     # two
            591, 885)                               # three
    requests = []
    for k, s in enumerate(draw_models(seed, refs, draws=4096)):
        name = f"random_{k}"

        def inv(s=s, name=name):
            m = _random_model(s, name)
            return invariants.invariant_report(m), m

        def ledger(s=s, name=name):
            m = _random_model(s, name)
            return invariants.full_ledger(m)

        def whitehead(s=s, name=name):
            m = _random_model(s, name)
            bound = invariants.default_bound(m)
            return sullivan.whitehead_sequence(m, bound), bound

        requests += [
            Request(f"invariants {name}", inv,
                    lambda a: _invariants_check(*a)),
            Request(f"verify {name}", ledger,
                    lambda a: None if a.all_verified else
                    f"violated: {[e.claim for e in a.violated]}"),
            Request(f"whitehead {name}", whitehead,
                    lambda a: _sullivan_nodes_check(a[0].nodes, a[1])),
        ]
    random.Random(seed).shuffle(requests)
    return Pass(requests, tail_percentile=90, trace_passes=2)


# --- CP^n on the Quillen side ------------------------------------------------

# Degree cap for the CP^4 homology table: each extra degree costs about 3x.
CP4_HOMOLOGY_DEGREE = 13


def _cpn_whitehead_check(rep, n: int) -> str | None:
    """CP^n: H_i(L(W)) = Q exactly for i = 1, 2n; W_i = Q for odd i < 2n;
    exactness at every Gamma_i; and the Gamma alternating sum gives
    eta = n + 1."""
    total = 1
    for node in rep.nodes:
        i = node.degree
        if node.dim_h != (1 if i == 2 * n else 0):
            return f"dim H_{i} = {node.dim_h}"
        if node.dim_w != (1 if i % 2 and i < 2 * n else 0):
            return f"dim W_{i} = {node.dim_w}"
        total += (-1) ** i * node.dim_gamma
    if total != n + 1:
        return f"Gamma alternating sum {total} != {n + 1}"
    return _quillen_nodes_check(rep.nodes)


def quillen_cpn(seed: int, workdir: str) -> Pass:
    """``eta``, the Lie-side Whitehead sequence and the Sullivan/Quillen
    comparison for CP^1..CP^3, plus the homology table of CP^4's Quillen
    model up to ``CP4_HOMOLOGY_DEGREE``.  Lie-basis enumeration and
    ``Span.express`` dominate; the seed sets the request order."""
    def cpq(n):
        return dsl.catalog("cpn_quillen", n)

    requests = []
    for n in (1, 2, 3):
        def whitehead(n=n):
            q = cpq(n)
            return quillen.whitehead_sequence_dgl(q, quillen.default_bound(q))

        def compare(n=n):
            return invariants.compare_models(dsl.catalog("cpn_sullivan", n),
                                             cpq(n))

        requests += [
            Request(f"eta CP{n}", lambda n=n: quillen.eta(cpq(n)),
                    lambda e, n=n: None if e == n + 1 else f"eta = {e}"),
            Request(f"whitehead CP{n}", whitehead,
                    lambda rep, n=n: _cpn_whitehead_check(rep, n)),
            Request(f"compare CP{n}", compare,
                    lambda rep, n=n: None if rep.matches
                    and rep.rho == rep.eta == n + 1 else
                    f"rho {rep.rho}, eta {rep.eta}, {rep.mismatches}"),
        ]
    top = CP4_HOMOLOGY_DEGREE
    expected = {i: int(i in (1, 8)) for i in range(1, top + 1)}
    requests.append(Request(
        f"homology CP4 to {top}",
        lambda: quillen.homology_table(cpq(4), top),
        lambda t: None if t == expected else f"table {t}"))
    random.Random(seed).shuffle(requests)
    return Pass(requests, tail_percentile=75, trace_passes=4)


# --- the CLI on the catalog ----------------------------------------------------

def _sphere(k):
    return {0: 1, k: 1}


def _cpn(n):
    return {2 * j: 1 for j in range(n + 1)}


def _kunneth(a, b):
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


# spec -> (nonzero Betti numbers, chi_V, is an odd sphere)
SULLIVAN_CATALOG = {
    "sphere_odd(3)": (_sphere(3), -1, True),
    "sphere_odd(5)": (_sphere(5), -1, True),
    "sphere_odd(7)": (_sphere(7), -1, True),
    "s2": (_sphere(2), 0, False),
    "sphere_even(4)": (_sphere(4), 0, False),
    "cpn_sullivan(1)": (_cpn(1), 0, False),
    "cpn_sullivan(2)": (_cpn(2), 0, False),
    "cpn_sullivan(3)": (_cpn(3), 0, False),
    "product(s2,sphere_odd(3))": (_kunneth(_sphere(2), _sphere(3)), -1, False),
    "product(sphere_odd(3),sphere_odd(5))":
        (_kunneth(_sphere(3), _sphere(5)), -2, False),
    "product(s2,sphere_even(4))": (_kunneth(_sphere(2), _sphere(4)), 0, False),
}

# spec -> (degrees where H_*(L(W)) = Q, eta).  cpn_quillen(3) belongs to the
# quillen-cpn workload.
QUILLEN_CATALOG = {
    "s2_quillen": ({1, 2}, 2),
    "sphere_odd_quillen(3)": ({2}, 1),
    "sphere_odd_quillen(5)": ({4}, 1),
    "cpn_quillen(1)": ({1, 2}, 2),
    "cpn_quillen(2)": ({1, 4}, 3),
}

COMPARE_PAIRS = (("cpn_sullivan(1)", "cpn_quillen(1)", 2),
                 ("cpn_sullivan(2)", "cpn_quillen(2)", 3))


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(expect: Callable[[dict], "str | None"] | None = None):
    """Exit code 0 and status ok, then ``expect`` on the report's tables."""
    def check(answer):
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        if payload.get("status") != "ok":
            return f"status {payload.get('status')!r}"
        return expect(payload) if expect else None
    return check


def _nodes(payload):
    return [SimpleNamespace(**row) for row in payload["tables"]["nodes"]]


def _cli_sullivan_whitehead(payload):
    return _sullivan_nodes_check(_nodes(payload), payload["bound"])


def _cli_quillen_whitehead(payload):
    return _quillen_nodes_check(_nodes(payload))


def _sullivan_expect(betti, chi_v, odd_sphere):
    chi_h = sum((-1) ** i * d for i, d in betti.items())
    invariants_want = {
        "chi_h": chi_h, "chi_v": chi_v, "rho": chi_h - chi_v,
        "formal_dimension": max(betti),
        "f0": not any(i % 2 for i in betti), "odd_sphere": odd_sphere,
    }

    def cohomology(payload):
        got = {int(i): d for i, d in payload["tables"]["betti"].items() if d}
        return None if got == betti else f"betti {got}"

    def invariants_(payload):
        got = {k: payload["tables"][k] for k in invariants_want}
        return None if got == invariants_want else f"invariants {got}"
    return cohomology, invariants_


def _random_expect(model):
    n = invariants.candidate_formal_dimension(model)

    def invariants_(payload):
        t = payload["tables"]
        if t["rho"] != t["chi_h"] - t["chi_v"]:
            return f"rho {t['rho']} != chi_H - chi_V"
        if t["formal_dimension"] != n:
            return f"formal dimension {t['formal_dimension']} != {n}"
        return None
    return None, invariants_


def _quillen_expect(degrees, eta):
    def cohomology(payload):
        got = {int(i) for i, d in payload["tables"]["betti"].items() if d}
        return None if got == degrees else f"homology in degrees {got}"

    def invariants_(payload):
        got = payload["tables"]["eta"]
        return None if got == eta else f"eta {got}"
    return cohomology, invariants_


def cli_catalog(seed: int, workdir: str) -> Pass:
    """``elliptica.cli.main(argv)`` with ``--json`` on ``.rhm`` files: every
    catalog model and three seed-drawn small random pure models.  Requests
    take milliseconds, so per-call costs (argparse, parsing, JSON, model
    construction, validation) dominate."""
    def write(model, stem):
        path = os.path.join(workdir, f"{stem}.rhm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dsl.serialize(model))
        return path

    paths = {spec: write(dsl.catalog_spec(spec), f"c{k}") for k, spec in
             enumerate([*SULLIVAN_CATALOG, *QUILLEN_CATALOG])}
    # (path, cohomology check, invariants check)
    sullivan_inputs = [(paths[spec], *_sullivan_expect(*want))
                       for spec, want in SULLIVAN_CATALOG.items()]
    for k, s in enumerate(draw_models(seed, (16, 18, 11), draws=512)):
        model = _random_model(s, f"random_{k}")
        sullivan_inputs.append((write(model, f"r{k}"),
                                *_random_expect(model)))
    quillen_inputs = [(paths[spec], *_quillen_expect(*want))
                      for spec, want in QUILLEN_CATALOG.items()]

    requests = []

    def add(argv, expect=None):
        requests.append(Request("cli " + " ".join(
            os.path.basename(a) for a in argv),
            lambda argv=argv: _run_cli(argv + ["--json"]),
            _cli_check(expect)))

    for path, coh, inv in sullivan_inputs:
        add(["check", path])
        add(["cohomology", path], coh)
        add(["invariants", path], inv)
        add(["whitehead", path], _cli_sullivan_whitehead)
        add(["verify", path])
    for path, coh, inv in quillen_inputs:
        add(["check", path])
        add(["cohomology", path], coh)
        add(["invariants", path], inv)
        add(["whitehead", path], _cli_quillen_whitehead)
    for s_spec, q_spec, rho in COMPARE_PAIRS:
        add(["compare", paths[s_spec], paths[q_spec]],
            lambda p, rho=rho: None if p["tables"]["rho"] == p["tables"]["eta"]
            == rho else f"rho {p['tables']['rho']}, eta {p['tables']['eta']}")
    random.Random(seed).shuffle(requests)
    return Pass(requests, tail_percentile=99, trace_passes=10)


WORKLOADS = {
    "sullivan-population": sullivan_population,
    "quillen-cpn": quillen_cpn,
    "cli-catalog": cli_catalog,
}
