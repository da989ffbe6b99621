"""Sullivan models: cochain complexes, cohomology, truncations and the
Whitehead exact sequence on the commutative side, where Gamma^i is L^i."""
from __future__ import annotations

from dataclasses import dataclass

from .commutative import Algebra, Element, Generator
from .errors import TruncationNotClosed
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
    A truncation keeps its ``parent``: its bases and differential matrices
    are the parent's, restricted to the monomials in its generators.
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

    # --- truncation --------------------------------------------------------

    def _truncated_differential(self, keep: list[Generator], k: int):
        kept = {g.index for g in keep}
        for g in keep:
            for m in self.d_of_generator(g.index).terms:
                if any(i not in kept for i, _ in m):
                    raise TruncationNotClosed(
                        f"d({g.name}) involves a generator of degree > {k}")
        return super()._truncated_differential(keep, k)


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
