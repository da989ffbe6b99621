"""The analyses of both model kinds, each the home of its invariants: Euler
characteristics, the formal dimension and ellipticity verdict, rho or eta,
the F0 and odd-sphere classifiers and the theorem ledger; and the
Sullivan/Quillen cross-model comparison."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any

from . import linalg, quillen, sullivan
from .errors import BadParameter, NotEllipticWithinBound
from .graded import WhiteheadReport
from .quillen import DGLModel
from .sullivan import SullivanModel, candidate_formal_dimension


@dataclass(frozen=True)
class LedgerEntry:
    claim: str
    status: str                      # "verified" | "violated" | "not-applicable"
    witness: dict[str, Any] = field(default_factory=dict)


@dataclass
class TheoremLedger:
    entries: list[LedgerEntry] = field(default_factory=list)

    def add(self, claim: str, ok: bool | None, **witness):
        status = "not-applicable" if ok is None else (
            "verified" if ok else "violated")
        self.entries.append(LedgerEntry(claim, status, dict(witness)))

    def extend(self, other: "TheoremLedger"):
        self.entries.extend(other.entries)

    @property
    def violated(self) -> list[LedgerEntry]:
        return [e for e in self.entries if e.status == "violated"]

    @property
    def all_verified(self) -> bool:
        return not self.violated


@dataclass(frozen=True)
class InvariantReport:
    chi_h: int
    chi_v: int
    rho: int
    formal_dimension: int
    f0: bool
    odd_sphere: bool


def default_bound(model: SullivanModel) -> int:
    """The default degree window, max(2n + 2, max|V| + 2, 2) for the
    candidate formal dimension n: the shortest window that holds all of
    H^* and L^* of an elliptic model, which ``require_elliptic`` asks of
    the window.  On a certified model (``certified_top``) only degrees up
    to z = max(n + 1, max|V| + 1) build a matrix: the degrees above n + 1
    are proven zero, and so are L^k above z and the Whitehead nodes from z
    on, which are recorded as zero with no map built."""
    nc = candidate_formal_dimension(model)
    return max(2 * nc + 2, model.max_generator_degree() + 2, 2)


class _Analysis:
    """What the analyses of both model kinds share: the model, of its kind
    and validated on construction, the degree window ``bound`` (the kind's
    default when None), and the (co)homology table, built on first use."""

    h_label: str            # the text label of a (co)homology row
    low: int                # the first degree of the table

    kind: str               # the model kind, "sullivan" or "quillen"

    def __init__(self, model, bound: int | None = None):
        if model.kind != self.kind:
            raise BadParameter(
                f"{model!r} is a {model.kind} model; "
                f"{type(self).__name__} needs a {self.kind} model")
        self.model = model.require_valid()
        self.bound = bound if bound is not None else self.default_bound(model)

    @cached_property
    def betti(self) -> dict[int, int]:
        cx = self.model.complex()
        return {i: cx.betti(i) for i in range(self.low, self.bound + 1)}

    def gen_dim(self, i: int) -> int:
        """The number of generators of degree i: dim V^i, resp. dim W_i."""
        return len(self.model.generators_of_degree(i))


class SullivanAnalysis(_Analysis):
    """Cached per-model cohomology window and the invariants, classifiers
    and ledger derived from it.  Every one of them stands on
    ``formal_dimension``, which proves ellipticity once per analysis."""

    kind = "sullivan"
    h_label = "dim H^"
    low = 0
    default_bound = staticmethod(default_bound)

    def require_elliptic(self) -> int:
        """The formal dimension n, which the model's ellipticity certificate
        (``certified_top``) proves; no degree window is read for it.
        NotEllipticWithinBound when there is none, which proves the model
        not elliptic: the message names the first degree t of the band
        with A_t != 0, or that n < 0.  Then dim H^n = 1 and H^(n+1) = 0 are
        checked, and BadParameter is raised if the window is shorter than
        ``default_bound``, too short for the invariants read from it."""
        model, n = self.model, self.model.certified_top
        if n is None:
            n, t = candidate_formal_dimension(model), model.band_witness
            why = (f"the candidate formal dimension {n} is negative"
                   if t is None else
                   f"Q[V^even] / (d_sigma y) is nonzero in degree {t}, "
                   f"above the candidate formal dimension {n}")
            raise NotEllipticWithinBound(f"{model!r} is not elliptic: {why}")
        model.complex().check_certified_top()
        if self.bound < default_bound(model):
            raise BadParameter(
                f"{model!r}: the ellipticity verdict needs a degree "
                f"window of at least {default_bound(model)}, got "
                f"{self.bound}")
        return n

    @cached_property
    def formal_dimension(self) -> int:
        """The formal dimension, which ``require_elliptic`` proves on first
        use."""
        return self.require_elliptic()

    @property
    def chi_h(self) -> int:
        """sum of (-1)^i dim H^i up to ``formal_dimension``, which proves
        that the window holds all of H^*."""
        n = self.formal_dimension
        return sum((-1) ** i * d for i, d in self.betti.items() if i <= n)

    @property
    def chi_v(self) -> int:
        return sum(1 if g.degree % 2 == 0 else -1 for g in self.model.generators)

    def l_window(self) -> dict[int, int]:
        """dim L^i for 4 <= i <= 2n + 2 (zero beyond 2n by ellipticity)."""
        n = self.formal_dimension
        return {i: self.model.gamma_dim(i) for i in range(4, 2 * n + 3)}

    def rho(self) -> int:
        """1 + sum over 2 <= i <= 2n of (-1)^i dim L^i (L^2 = L^3 = 0)."""
        return self.model.gamma_sum(2 * self.formal_dimension)

    def elliptic_checks(self) -> TheoremLedger:
        """Structure theorems for elliptic models, checked literally, plus
        the L-space vanishing/iso facts above the formal dimension."""
        gens, n = self.model.generators, self.formal_dimension
        ledger = TheoremLedger()
        v_even = sum(1 for g in gens if g.degree % 2 == 0)
        v_odd = len(gens) - v_even
        ledger.add("v-odd-dominates-v-even", v_odd >= v_even,
                   v_odd=v_odd, v_even=v_even)
        bad = [g.name for g in gens if g.degree >= 2 * n]
        ledger.add("v-vanishes-from-twice-formal-dim", not bad, offenders=bad)
        bad = [g.name for g in gens if g.degree > n and g.degree % 2 == 0]
        ledger.add("even-v-vanishes-above-formal-dim", not bad, offenders=bad)
        high_odd = sorted({g.degree for g in gens
                           if g.degree > n and g.degree % 2})
        ok = len(high_odd) <= 1 and all(self.gen_dim(i) == 1 for i in high_odd)
        ledger.add("at-most-one-line-of-odd-v-above-formal-dim", ok,
                   degrees=high_odd)
        chi_h, chi_v = self.chi_h, self.chi_v
        ledger.add("euler-characteristic-signs",
                   chi_h >= 0 and chi_v <= 0 and ((chi_h == 0) == (chi_v < 0)),
                   chi_h=chi_h, chi_v=chi_v)
        # L-space facts above the formal dimension.  Note: L^i = H^i of the
        # truncation matches dim V^(i-1) for every i > n + 1; the odd rows
        # vanish because even V vanishes above n.
        window = self.l_window()
        bad_pairs = [(i, window[i], self.gen_dim(i - 1))
                     for i in range(n + 2, 2 * n + 3)
                     if window.get(i, 0) != self.gen_dim(i - 1)]
        ledger.add("l-matches-v-above-formal-dim", not bad_pairs,
                   mismatches=bad_pairs)
        bad_odd = [i for i in range(n + 2, 2 * n + 3)
                   if i % 2 and window.get(i, 0)]
        ledger.add("odd-l-vanishes-above-formal-dim", not bad_odd,
                   offenders=bad_odd)
        bad_top = [i for i in range(2 * n + 1, 2 * n + 3) if window.get(i, 0)]
        ledger.add("l-vanishes-above-twice-formal-dim", not bad_top,
                   offenders=bad_top)
        return ledger

    def identity_checks(self) -> TheoremLedger:
        """rho = chi_H - chi_V and its companions."""
        n, r = self.formal_dimension, self.rho()
        ledger = TheoremLedger()
        chi_h, chi_v = self.chi_h, self.chi_v
        ledger.add("rho-equals-chi-h-minus-chi-v", r == chi_h - chi_v,
                   rho=r, chi_h=chi_h, chi_v=chi_v)
        partial = self.model.gamma_sum(n + 1) - 1   # rho's sum cut at n + 1
        ledger.add("rho-slack-within-two", 0 <= r - partial <= 2,
                   rho=r, partial_sum=partial)
        ledger.add("rho-positive", r >= 1, rho=r)
        l_even = sum(d for i, d in self.l_window().items() if i % 2 == 0)
        l_odd = sum(d for i, d in self.l_window().items() if i % 2)
        ledger.add("even-l-dominates-odd-l", l_even >= l_odd,
                   l_even=l_even, l_odd=l_odd)
        if l_even == 0:
            total_h = sum(self.betti.values())
            total_v = len(self.model.generators)
            ledger.add("zero-even-l-forces-h-dim", total_h == total_v + 1,
                       total_h=total_h, total_v=total_v)
        else:
            ledger.add("zero-even-l-forces-h-dim", None, l_even=l_even)
        ledger.add("rho-dichotomy", r == chi_h or r == -chi_v,
                   rho=r, chi_h=chi_h, chi_v=chi_v)
        return ledger

    def f0(self):
        """(is_f0, evidence).  Primary criterion: H^odd = 0 in the window;
        cross-checked against purity + chi_V = 0 when the model is pure."""
        n = self.formal_dimension
        h_odd = sum(d for i, d in self.betti.items() if i % 2 and i <= n)
        f0 = h_odd == 0
        evidence = {"h_odd_total": h_odd, "criterion": "h-odd-vanishes"}
        evidence["pure"] = is_pure(self.model)
        if evidence["pure"]:
            evidence["chi_v"] = self.chi_v
            evidence["pure-criterion-agrees"] = (self.chi_v == 0) == f0
        return f0, evidence

    def f0_consequences(self) -> TheoremLedger:
        ledger = TheoremLedger()
        if not self.f0()[0]:
            ledger.add("f0-odd-l-vanishes", None)
            ledger.add("f0-even-b-maps-vanish", None)
            return ledger
        n = self.formal_dimension
        bad = [i for i in range(5, 2 * n + 3, 2) if self.model.gamma_dim(i)]
        ledger.add("f0-odd-l-vanishes", not bad, offenders=bad)
        bad = [i for i in range(2, 2 * n + 1, 2)
               if linalg.rank(self.model.whitehead_b(i))]
        ledger.add("f0-even-b-maps-vanish", not bad, offenders=bad)
        return ledger

    def odd_sphere(self):
        """(is_odd_sphere, evidence): true iff L^even vanishes in the window;
        the positive verdict is corroborated structurally."""
        n, window = self.formal_dimension, self.l_window()
        l_even = {i: d for i, d in window.items() if i % 2 == 0 and d}
        verdict = not l_even
        evidence: dict[str, Any] = {"nonzero_even_l": l_even}
        if verdict:
            l_odd = {i: d for i, d in window.items() if i % 2 and d}
            h_matches_v = all(self.betti.get(i, 0) == self.gen_dim(i)
                              for i in range(2, self.bound + 1))
            pattern = {i: d for i, d in self.betti.items() if d}
            sphere_pattern = (pattern == {0: 1, n: 1} and n % 2 == 1)
            evidence.update(nonzero_odd_l=l_odd, h_matches_v=h_matches_v,
                            h_pattern=pattern, sphere_pattern=sphere_pattern)
            verdict = not l_odd and h_matches_v and sphere_pattern
        return verdict, evidence

    def report(self) -> InvariantReport:
        return InvariantReport(
            chi_h=self.chi_h, chi_v=self.chi_v, rho=self.rho(),
            formal_dimension=self.formal_dimension,
            f0=self.f0()[0], odd_sphere=self.odd_sphere()[0])

    def whitehead(self) -> WhiteheadReport:
        return sullivan.whitehead_sequence(self.model, self.bound)

    def invariants(self, verbose: bool = False):
        """(tables, text lines) of the ``invariants`` report."""
        rep = self.report()
        tables = {**asdict(rep), "l_window": self.l_window()}
        lines = [f"formal dimension = {rep.formal_dimension}",
                 f"chi_H = {rep.chi_h}", f"chi_V = {rep.chi_v}",
                 f"rho = {rep.rho}",
                 f"F0-space: {'yes' if rep.f0 else 'no'}",
                 f"odd sphere: {'yes' if rep.odd_sphere else 'no'}"]
        if verbose:
            lines += [f"dim L^{i} = {d}" for i, d in self.l_window().items()]
        return tables, lines

    def ledger(self) -> TheoremLedger:
        ledger = self.elliptic_checks()
        ledger.extend(self.identity_checks())
        ledger.extend(self.f0_consequences())
        return ledger


class QuillenAnalysis(_Analysis):
    """The Quillen side: H_*(L(W)) in the window, Gamma, eta and the ledger.

    W gives the reduced cohomology, dim H^(i+1)(X) = dim W_i, and homology
    the rational homotopy, dim pi_(i+1)(X) = dim H_i(L(W)).

    On its own the analysis reads H_*(L(W)) up to the default window
    2 max|W| + 2, and that the homology ends there is window evidence.  On
    a quadratic model every degree of the table above max|W| is read from
    Ext over the cohomology algebra (``quillen.DGLComplex``), so the window
    builds no Lie basis above max|W| + 1; the verdict's meaning is the
    same.
    Built by ``from_partner``, as ``compare_models`` does, ``bound`` is
    2N - 2, N the Sullivan partner's certificate, and ``proven`` is true:
    under compare's premise that both models belong to one space, the
    degrees above 2N - 2 are proven zero (GTM 205, section 32), once a
    gate has checked the table against the partner's V.
    """

    kind = "quillen"
    h_label = "dim H_"
    low = 1
    default_bound = staticmethod(quillen.default_bound)
    proven = False      # whether H_*(L(W)) = 0 above ``bound`` is proven

    @classmethod
    def from_partner(cls, model: DGLModel,
                     partner: SullivanAnalysis) -> "QuillenAnalysis | None":
        """The analysis of ``model`` as a Quillen model of the partner's
        space, its table stopped at 2N - 2; None when the premise is
        refuted.

        N is the partner's ``certified_top``, which proves it elliptic of
        formal dimension N; then pi_k(X) (x) Q = 0 for k >= 2N (GTM 205,
        section 32), so H_i(L(W)) = pi_(i+1)(X) (x) Q vanishes for
        i >= 2N - 1.  The premise is checked where it can be: N must be
        max|W| + 1, the formal dimension that W gives, and the computed
        dim H_i(L(W)) must equal dim V^(i+1) for every 1 <= i <= 2N - 2.
        The matrix of delta out of 2N - 1 is the last one built, or out of
        max|W| + 1 = N on a quadratic model, whose degrees above max|W|
        come from Ext."""
        n = partner.model.certified_top
        if n is None or n != model.max_generator_degree() + 1:
            return None
        b = cls(model, 2 * n - 2)
        b.proven = True
        if any(d != partner.gen_dim(i + 1) for i, d in b.betti.items()):
            return None
        return b

    def h_dim(self, i: int) -> int:
        """dim H_i(L(W)), in any degree."""
        return self.model.complex().betti(i)

    def gamma_table(self) -> dict[int, int]:
        """dim Gamma_i for 2 <= i <= 2 max(max|W|, 2)."""
        top = max(self.model.max_generator_degree(), 2)
        return {i: self.model.gamma_dim(i) for i in range(2, 2 * top + 1)}

    @cached_property
    def gamma_top(self) -> int:
        """Gamma's top degree, read by ``quillen.gamma_top`` on first use."""
        return quillen.gamma_top(self.model, self.bound, proven=self.proven)

    def eta(self) -> int:
        return self.model.gamma_sum(self.gamma_top)

    @property
    def chi_h(self) -> int:
        """1 + sum over w in W of (-1)^(|w| + 1)."""
        return 1 + sum((-1) ** (g.degree + 1) for g in self.model.generators)

    @property
    def chi_pi(self) -> int:
        """sum of (-1)^(i + 1) dim H_i(L(W)) up to ``gamma_top``, which
        proves that the window holds all of H_*(L(W))."""
        top = self.gamma_top
        return sum((-1) ** (i + 1) * d for i, d in self.betti.items()
                   if i <= top)

    def whitehead(self) -> WhiteheadReport:
        return quillen.whitehead_sequence_dgl(self.model, self.bound)

    def invariants(self, verbose: bool = False):
        """(tables, text lines) of the ``invariants`` report."""
        e, gammas = self.eta(), self.gamma_table()
        lines = [f"eta (alternating Gamma sum, algebra degrees) = {e}",
                 f"eta (literal sequence readout) = {2 - e}"]
        if verbose:
            lines += [f"dim Gamma_{i} = {d}" for i, d in gammas.items()]
        return {"eta": e, "eta_sequence_readout": 2 - e,
                "gamma": gammas}, lines

    def ledger(self) -> "TheoremLedger":
        """eta = chi_H - chi_pi, the image of rho = chi_H - chi_V, and its
        corollaries eta >= 1 and eta in {chi_H, -chi_pi}."""
        e = self.eta()
        chi_h, chi_pi = self.chi_h, self.chi_pi
        ledger = TheoremLedger()
        ledger.add("eta-equals-chi-h-minus-chi-pi", e == chi_h - chi_pi,
                   eta=e, chi_h=chi_h, chi_pi=chi_pi)
        ledger.add("eta-positive", e >= 1, eta=e)
        ledger.add("eta-dichotomy", e in (chi_h, -chi_pi),
                   eta=e, chi_h=chi_h, chi_pi=chi_pi)
        return ledger


def analysis(model, bound: int | None = None):
    """The analysis of a model of either kind."""
    cls = SullivanAnalysis if model.kind == "sullivan" else QuillenAnalysis
    return cls(model, bound)


# --- entry points -----------------------------------------------------------

def invariant_report(model: SullivanModel,
                     bound: int | None = None) -> InvariantReport:
    return SullivanAnalysis(model, bound).report()


def full_ledger(model: SullivanModel, bound: int | None = None) -> TheoremLedger:
    return SullivanAnalysis(model, bound).ledger()


def is_pure(model: SullivanModel) -> bool:
    """d(V^even) = 0 and d(V^odd) contained in Lambda(V^even)."""
    for g in model.generators:
        img = model.d_of_generator(g.index)
        if g.degree % 2 == 0:
            if not img.is_zero():
                return False
        else:
            for m in img.terms:
                if any(model.algebra.by_index[i].degree % 2 for i, _ in m):
                    return False
    return True


# --- cross-model comparison --------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    rho: int
    eta: int
    l_vs_gamma: dict[int, tuple[int, int]]      # k -> (dim L^k, dim Gamma_(k-2))
    homology_pairing: dict[int, tuple[int, int]]  # i -> (dim H^i, dim W_(i-1))
    homotopy_pairing: dict[int, tuple[int, int]]  # i -> (dim V^i, dim H_(i-1))
    mismatches: tuple[str, ...]

    @property
    def matches(self) -> bool:
        return not self.mismatches


def compare_models(s: SullivanModel, q: DGLModel,
                   bound: int | None = None) -> ComparisonReport:
    """Duality report for a Sullivan and a Quillen model of the same space:
    the two analyses' tables paired by rho <-> eta, L^k <-> Gamma_(k-2),
    H^i <-> W_(i-1) and V^i <-> H_(i-1)(L(W)), the last two for
    2 <= i <= max(N, max|W| + 1, max|V|), N the formal dimension.

    Under that premise the Sullivan certificate ``certified_top`` N proves
    the Quillen window: pi_k(X) (x) Q = 0 for k >= 2N (Felix-Halperin-
    Thomas, GTM 205, section 32), and H_i(L(W)) = pi_(i+1)(X) (x) Q, so
    H_*(L(W)) vanishes above 2N - 2 and the Quillen table stops there
    (``QuillenAnalysis.from_partner``).  That report stands only when it
    matches.  A gate that fails, or any mismatch, refutes the premise, and
    the report is read again from ``QuillenAnalysis(q)`` on its default
    window, which is evidence."""
    a = SullivanAnalysis(s, bound)
    r = a.rho()
    b = QuillenAnalysis.from_partner(q, a)
    if b is not None:
        rep = _pair(a, r, b)
        if rep.matches:
            return rep
    return _pair(a, r, QuillenAnalysis(q))


def _pair(a: SullivanAnalysis, r: int, b: QuillenAnalysis) -> ComparisonReport:
    """The comparison report of the analyses a and b, with rho = r."""
    s, q = a.model, b.model
    e = b.eta()
    n = a.formal_dimension
    mismatches = [] if r == e else [f"rho {r} != eta {e}"]
    l_vs_gamma = {k: (s.gamma_dim(k), q.gamma_dim(k - 2))
                  for k in range(4, 2 * n + 1)}
    mismatches += [f"dim L^{k} = {lk} != dim Gamma_{k - 2} = {gk}"
                   for k, (lk, gk) in l_vs_gamma.items() if lk != gk]
    homology_pairing = {}
    homotopy_pairing = {}
    top = max(n, q.max_generator_degree() + 1, s.max_generator_degree())
    for i in range(2, top + 1):
        h, w = homology_pairing[i] = (a.betti.get(i, 0), b.gen_dim(i - 1))
        if h != w:
            mismatches.append(f"dim H^{i} = {h} != dim W_{i - 1} = {w}")
        v, hq = homotopy_pairing[i] = (a.gen_dim(i), b.h_dim(i - 1))
        if v != hq:
            mismatches.append(
                f"dim V^{i} = {v} != dim H_{i - 1}(L(W)) = {hq}")
    return ComparisonReport(r, e, l_vs_gamma, homology_pairing,
                            homotopy_pairing, tuple(mismatches))
