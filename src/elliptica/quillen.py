"""Quillen models: DGL homology, the Whitehead exact sequence on the Lie
side, and the invariant eta.  The homology of a quadratic model above
max|W| comes from Ext over its cohomology algebra (``ext``)."""
from __future__ import annotations

import functools
from dataclasses import dataclass

from . import ext
from .errors import BadParameter, InternalInconsistency, UnboundedGamma
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
    leading words.

    On a model whose delta is quadratic, ``betti`` above max|W| is
    read from Ext over the cohomology algebra (``DGLModel.resolution``), so
    no Lie basis above max|W| + 1 is enumerated and no matrix of delta out
    of a degree above max|W| + 1 is built; on a one-generator model no
    resolution cell is grown where L(W) is 0 (``FreeLie.vanishes``).
    Degrees up to max|W| are eliminated, with their d.d checks, and must
    equal the Ext dimension.  Models with a term of higher bracket length
    eliminate in every degree.  Only the hook ``_betti_of`` is overridden,
    so ``betti`` keeps an answer once its comparison passes."""

    step = -1

    def _betti_of(self, degree: int) -> int:
        """dim H_degree(L(W)): from Ext above max|W| on a quadratic model,
        else by elimination, where on a quadratic model
        InternalInconsistency is raised unless it equals the Ext
        dimension."""
        res = self.model.resolution
        if res is None:
            return super()._betti_of(degree)
        if degree > self.model.max_generator_degree():
            return 0 if self.model.lie.vanishes(degree) else res.lie_dim(degree)
        got = super()._betti_of(degree)
        if degree >= 1 and got != res.lie_dim(degree):
            raise InternalInconsistency(
                f"{self.model!r}: dim H_{degree}(L(W)) = {got} by "
                f"elimination but {res.lie_dim(degree)} from Ext over the "
                f"cohomology algebra")
        return got


class DGLModel(GradedModel):
    """A finite free DGL (L(W), delta) with delta of degree -1."""

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

    @functools.cached_property
    def resolution(self) -> "ext.MinimalResolution | None":
        """The minimal resolution of Q over the cohomology algebra C, whose
        Ext gives H_*(L(W)) (``ext``), on a model whose delta is quadratic;
        None when a term of delta is not a bracket of two generators.  C is
        built, and checked, on first use."""
        alg = ext.CohomologyAlgebra.of_quadratic(self)
        return None if alg is None else ext.MinimalResolution(alg)

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
            # an unknown index is the shared checks' unknown-generator issue
            if idx in self.lie.by_index and any(
                    len(w) == 1 for w in img.terms):
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
    """dim H_i(L(W)) for 1 <= i <= bound: by elimination up to max|W|, and
    above it from Ext over the cohomology algebra on a quadratic model
    (``DGLComplex``), else by elimination."""
    c = model.complex()
    return {i: c.betti(i) for i in range(1, bound + 1)}


def gamma_top(model: DGLModel, bound: int | None = None, *,
              proven: bool = False) -> int:
    """The top degree of Gamma, read from the homology table up to bound.

    Gamma_i = 0 once W_(i+1) = 0 and H_i(L(W)) = 0, by exactness.  That
    H_i(L(W)) = 0 above the table needs a reason.  On its own a Quillen
    model has only window evidence, the degrees computed, as no
    certificate bounds it on the Quillen side: then the window must reach
    ``default_bound(model)``, as below it the top of H_*(L(W)) may be
    unseen.  Homology in the window above 2 max|W| raises UnboundedGamma.
    On a quadratic model the window's degrees above max|W| are read from
    Ext, with no Lie basis, so the whole window is cheap; it is still
    evidence, not proof.

    With ``proven`` the caller has a proof that H_i(L(W)) = 0 for every
    i > bound, and the table stops there, below the default window.
    ``compare_models`` has one under its premise that a certified Sullivan
    model, of formal dimension N = max|W| + 1, models the same space:
    pi_k(X) (x) Q = 0 for k >= 2N (Felix-Halperin-Thomas, GTM 205,
    section 32), so H_i(L(W)) = pi_(i+1)(X) (x) Q vanishes above
    bound = 2N - 2 (``invariants.QuillenAnalysis.from_partner`` checks the
    premise where it can).  A standalone Quillen verdict stays window
    evidence.
    """
    max_w = model.max_generator_degree()
    if bound is None:
        bound = default_bound(model)
    elif bound < default_bound(model) and not proven:
        raise BadParameter(
            f"{model!r}: eta needs a degree window of at least "
            f"{default_bound(model)} (2 max|W| + 2), got {bound}")
    table = homology_table(model, bound)
    for i in range(2 * max_w + 1, bound + 1):
        if table.get(i, 0):
            raise UnboundedGamma(
                f"{model!r}: H_{i}(L(W)) != 0 beyond the elliptic window "
                f"(bound {bound})")
    h_top = max((i for i, d in table.items() if d), default=0)
    return max(max_w, h_top)


def eta(model: DGLModel, bound: int | None = None) -> int:
    """1 + sum over 2 <= i <= ``gamma_top`` of (-1)^i dim Gamma_i, in
    algebra degrees."""
    return model.gamma_sum(gamma_top(model, bound))
