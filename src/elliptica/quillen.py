"""Quillen models: DGL homology, the Whitehead exact sequence on the Lie
side, and the invariant eta."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameter, UnboundedGamma
from .graded import (GammaData, GradedComplex, GradedModel, ValidationIssue,
                     ValidationReport, WhiteheadReport)
from .lie import FreeLie


@dataclass(frozen=True)
class WhiteheadNodeL:
    degree: int              # i
    dim_w: int               # dim W_i
    dim_gamma: int           # dim Gamma_i
    dim_h: int               # dim H_i(L(W))
    rank_b: int              # rank of b_(i+1) : W_(i+1) -> Gamma_i
    rank_incl: int           # rank of Gamma_i -> H_i(L(W))

    labels = ("W_", "Gamma_", "H_")

    def line(self) -> str:
        i = self.degree
        return (f"i={i}: dim W_{i}={self.dim_w} "
                f"dim Gamma_{i}={self.dim_gamma} dim H_{i}={self.dim_h} "
                f"rank b={self.rank_b} rank incl={self.rank_incl}")


class DGLComplex(GradedComplex):
    """The chain complex (L_*(W), delta) in the Lie bases, keyed by their
    leading words."""

    step = -1


class DGLModel(GradedModel):
    """A finite free DGL (L(W), delta) with delta of degree -1.

    A truncation keeps its ``parent``: its Lie bases and differential
    matrices are the parent's, restricted to its generators.  Truncations
    are closed because delta lowers degree.
    """

    kind = "quillen"
    algebra_type = FreeLie
    complex_type = DGLComplex
    node_type = WhiteheadNodeL
    d_name = "delta"

    @property
    def lie(self) -> FreeLie:
        """L(W): ``algebra`` under its Quillen-side name."""
        return self.algebra

    delta = GradedModel.d
    delta_of_generator = GradedModel.d_of_generator

    def _image_issue(self, g, img):
        """The shared issues, else a ``lie-element`` issue for an image that
        is not a combination of Lie basis keys."""
        issue = super()._image_issue(g, img)
        if issue is None and self.lie.key_coords(g.degree - 1, img) is None:
            return "lie-element", "is not in L(W)"
        return issue

    def validate(self) -> ValidationReport:
        """The shared checks, and a ``minimality`` issue for each image with
        a generator's key, a one-letter word."""
        issues = list(super().validate().issues)
        for idx, img in self.differential.items():
            if any(len(w) == 1 for w in img.terms):
                name = self.lie.by_index[idx].name
                issues.append(ValidationIssue(
                    "minimality", name, f"delta({name}) has a linear term"))
        return ValidationReport(tuple(issues))


# --- module-level operations -------------------------------------------------

def gamma(model: DGLModel, i: int) -> GammaData:
    """Gamma_i = ker(j_i : H_i(L(W_(<= i))) -> W_i): ``model.gamma(i)``."""
    return model.gamma(i)


def whitehead_sequence_dgl(model: DGLModel, max_degree: int) -> WhiteheadReport:
    """... -> W_(i+1) -> Gamma_i -> H_i(L(W)) -> W_i -> ..., checked exact
    at every node."""
    return model.whitehead_sequence(max_degree)


def default_bound(model: DGLModel) -> int:
    """Window past which an elliptic model's homology must vanish."""
    return 2 * model.max_generator_degree() + 2


def homology_table(model: DGLModel, bound: int) -> dict[int, int]:
    c = model.complex()
    return {i: c.betti(i) for i in range(1, bound + 1)}


def gamma_top(model: DGLModel, bound: int | None = None) -> int:
    """The top degree of Gamma, proven from the degree window.

    Vanishing of Gamma above the window is certified through exactness:
    Gamma_i = 0 once W_(i+1) = 0 and H_i(L(W)) = 0.  The window must reach
    ``default_bound(model)``: below it the top of H_*(L(W)) may be unseen.
    """
    max_w = model.max_generator_degree()
    if bound is None:
        bound = default_bound(model)
    elif bound < default_bound(model):
        raise BadParameter(
            f"{model!r}: eta needs a degree window of at least "
            f"{default_bound(model)} (2 max|W| + 2), got {bound}")
    table = homology_table(model, bound)
    for i in range(2 * max_w + 1, bound + 1):
        if table.get(i, 0):
            raise UnboundedGamma(
                f"H_{i}(L(W)) != 0 beyond the elliptic window (bound {bound})")
    h_top = max((i for i, d in table.items() if d), default=0)
    return max(max_w, h_top)


def eta(model: DGLModel, bound: int | None = None) -> int:
    """1 + sum over 2 <= i <= ``gamma_top`` of (-1)^i dim Gamma_i, in
    algebra degrees."""
    return model.gamma_sum(gamma_top(model, bound))
