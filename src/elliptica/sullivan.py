"""Sullivan models: cochain complexes, cohomology, the ellipticity
certificate and the Whitehead exact sequence on the commutative side, where
Gamma^i is L^i."""
from __future__ import annotations

import functools
from dataclasses import dataclass

from . import linalg
from .commutative import Algebra, Element, Generator
from .errors import ValidationError
from .graded import (GradedComplex, GradedModel, ValidationIssue,
                     ValidationReport, WhiteheadReport)


@dataclass(frozen=True)
class WhiteheadNodeS:
    degree: int              # i
    dim_v: int               # dim V^i
    dim_l_next: int          # dim L^(i+1)
    dim_h_next: int          # dim H^(i+1)
    rank_b: int              # rank of b^i : V^i -> L^(i+1)
    rank_incl: int           # rank of L^(i+1) -> H^(i+1)

    labels = ("V^", "L^", "H^")

    def line(self) -> str:
        i = self.degree
        return (f"i={i}: dim V^{i}={self.dim_v} dim L^{i + 1}="
                f"{self.dim_l_next} dim H^{i + 1}={self.dim_h_next} "
                f"rank b={self.rank_b} rank incl={self.rank_incl}")


class CochainComplex(GradedComplex):
    """The cochain complex (Lambda V, d) in the monomial bases, each in
    ascending lexicographic order of the exponent vector by declaration
    index."""

    step = 1
    cohomology = GradedComplex.homology


class SullivanModel(GradedModel):
    """A minimal simply connected Sullivan model (Lambda V, d).

    ``differential`` maps generator index -> Element (absent means zero).
    Models are immutable after construction; the cochain complex is memoized.
    """

    kind = "sullivan"
    algebra_type = Algebra
    complex_type = CochainComplex
    node_type = WhiteheadNodeS
    d_name = "d"

    def _image_issue(self, g, img):
        """The shared issues, else a ``monomial`` issue for an image with a
        term that is no monomial over the generators, an odd square say."""
        issue = super()._image_issue(g, img)
        bad = [m for m in img.terms if not self.algebra.is_key(m)]
        if issue is None and bad:
            return "monomial", f"has the term {bad[0]}, which is no monomial"
        return issue

    def validate(self) -> ValidationReport:
        """Simple connectivity and minimality, then the shared checks."""
        issues: list[ValidationIssue] = []
        for g in self.generators:
            if g.degree < 2:
                issues.append(ValidationIssue(
                    "simple-connectivity", g.name,
                    f"generator degree {g.degree} < 2 (V^1 must vanish)"))
        for idx, img in self.differential.items():
            # an unknown index is the shared checks' unknown-generator issue
            if idx in self.algebra.by_index and any(
                    sum(e for _, e in m) < 2 for m in img.terms):
                name = self.algebra.by_index[idx].name
                issues.append(ValidationIssue(
                    "minimality", name, f"d({name}) has a linear term"))
        return ValidationReport((*issues, *super().validate().issues))

    # --- the ellipticity certificate ----------------------------------------

    band_witness: int | None = None     # set by a refuted ``certified_top``

    @functools.cached_property
    def certified_top(self) -> int | None:
        """The Friedlander-Halperin certificate: n, the candidate formal
        dimension, when the model passes ``validate``, has n >= 0, and the
        pure quotient A = Q[V^even] / (d_sigma y), with d_sigma y the part
        of d y in the even generators alone, has A_t = 0 for every t in
        n + 1 .. n + D, D the top even generator degree; else None, and
        the first t of the band with A_t != 0, if any, is kept as
        ``band_witness``.  Then H^i = 0 for every i > n.

        Every monomial of degree above n + D has a factor of degree in
        that band, so A_t = 0 for all t > n and A is finite-dimensional.
        Then (Lambda V, d_sigma) is elliptic, and with it (Lambda V, d):
        its cohomology is finite-dimensional, with formal dimension n and
        H^(>n) = 0 (Felix-Halperin-Thomas, GTM 205, section 32; Halperin,
        Trans. AMS 230, 1977).  Conversely, for an elliptic model A is the
        bottom row of the cohomology of the pure model, which vanishes above
        n, so the certificate holds exactly for the elliptic models.  With
        no even generator it holds at once.  Each A_t of even t is one exact
        rank over the polynomial algebra on V^even, whose bases are the
        model's own, restricted to the even generators, as every basis a
        request reads is the model's; the odd degrees of the band are
        skipped, as Q[V^even] has no monomial there.  The relations are the
        derivation's integer images, which share one denominator and so
        leave each rank as it is.  The certificate caps the model's complex
        (``GradedComplex._proven_zero``)."""
        try:
            self.require_valid()
        except ValidationError:
            return None
        n = candidate_formal_dimension(self)
        even = [g for g in self.generators if g.degree % 2 == 0]
        if not even:
            return n
        if n < 0:
            return None
        poly = Algebra(even, source=self.algebra)
        images = self.derivation().int_images
        relations = [(g.degree + 1, {
            m: c for m, c in images.get(g.index, {}).items()
            if all(i in poly.by_index for i, _ in m)})
            for g in self.generators if g.degree % 2]
        # Q[V^even] has no monomial of odd degree: A_t = 0 there at once
        top_even = max(g.degree for g in even)
        self.band_witness = next(
            (t for t in range(n + 1, n + top_even + 1)
             if t % 2 == 0 and not _ideal_fills(poly, relations, t)), None)
        return n if self.band_witness is None else None

    # --- Gamma -----------------------------------------------------------

    def _gamma(self, k: int):
        """Gamma^k = L^k; ValidationError on a generator of degree 1, as
        Gamma is read over the decomposables only where V^1 = 0."""
        low = self.generators_of_degree(1)
        if low:
            raise ValidationError(self, ValidationReport((ValidationIssue(
                "simple-connectivity", low[0].name,
                "generator degree 1 < 2 (V^1 must vanish)"),)))
        return super()._gamma(k)


def candidate_formal_dimension(model: SullivanModel) -> int:
    """sum(odd generator degrees) - sum(even generator degrees - 1); equals
    the formal dimension whenever the model is elliptic."""
    return sum(g.degree if g.degree % 2 else 1 - g.degree
               for g in model.generators)


def _ideal_fills(poly: Algebra, relations: list, t: int) -> bool:
    """Whether the ideal of the polynomial algebra ``poly`` spanned by the
    (degree, integer monomial coefficients) ``relations`` holds all of
    degree t: the products of each relation with the monomials of the
    complementary degree, as columns over the monomials of degree t, have
    full row rank."""
    keys = poly.basis(t)
    if not keys:
        return True
    index, ent, c = poly.table(t).index, {}, 0
    for degree, rel in relations:
        for m in poly.basis(t - degree):
            for u, v in rel.items():
                ent[(index[poly._mul_monomials(m, u)[0]], c)] = v
            c += 1
    return linalg.rank(linalg.QMatrix(len(keys), c, ent)) == len(keys)


# --- module-level operations matching the engine surface ---------------------

def tensor_product(a: SullivanModel, b: SullivanModel,
                   name: str = "") -> SullivanModel:
    """Tensor CDGA of two Sullivan models: disjoint generators, differentials
    unchanged.  Name collisions get a suffix on the right factor."""
    taken = {g.name for g in a.generators}
    gens = list(a.generators)
    remap: dict[int, int] = {}
    renamed: dict[str, str] = {}
    next_index = max((g.index for g in a.generators), default=-1) + 1
    for g in b.generators:
        new_name = g.name
        while new_name in taken:
            new_name += "_r"
        taken.add(new_name)
        renamed[g.name] = new_name
        remap[g.index] = next_index
        gens.append(Generator(new_name, g.degree, next_index))
        next_index += 1
    diff = dict(a.differential)
    for idx, img in b.differential.items():
        terms = {}
        for m, c in img.terms.items():
            terms[tuple(sorted((remap[i], e) for i, e in m))] = c
        diff[remap[idx]] = Element(terms)
    if not name and a.name and b.name:
        name = f"{a.name}x{b.name}"
    return SullivanModel(gens, diff, name=name)


def whitehead_sequence(model: SullivanModel, max_degree: int) -> WhiteheadReport:
    """H^i -> V^i -> L^(i+1) -> H^(i+1) -> ..., checked exact at every node."""
    return model.whitehead_sequence(max_degree)
