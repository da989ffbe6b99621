"""Quillen models: DGL homology, the Gamma spaces, the maps j and b, the
Whitehead exact sequence on the Lie side, and the invariant eta."""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import BadParameter, InternalInconsistency, UnboundedGamma
from .graded import (GradedComplex, GradedModel, ValidationIssue,
                     ValidationReport, WhiteheadReport, check_exact)
from .lie import FreeLie, LieElement, Word


@dataclass(frozen=True)
class WhiteheadNodeL:
    degree: int              # i
    dim_w: int               # dim W_i
    dim_gamma: int           # dim Gamma_i
    dim_h: int               # dim H_i(L(W))
    rank_b: int              # rank of b_(i+1) : W_(i+1) -> Gamma_i
    rank_incl: int           # rank of Gamma_i -> H_i(L(W))

    def line(self) -> str:
        i = self.degree
        return (f"i={i}: dim W_{i}={self.dim_w} "
                f"dim Gamma_{i}={self.dim_gamma} dim H_{i}={self.dim_h} "
                f"rank b={self.rank_b} rank incl={self.rank_incl}")


class DGLComplex(GradedComplex):
    """The chain complex (L_*(W), delta) in the Lie bases, keyed by their
    leading words."""

    step = -1

    def keys(self, degree: int) -> list[Word]:
        return self.model.lie.leading_words(degree) if degree >= 1 else []

    def to_coords(self, degree: int, e: LieElement) -> linalg.Vector:
        z = self.model.lie.lie_coords(degree, e)
        if z is None:
            raise InternalInconsistency("element outside the Lie subalgebra")
        return z

    def from_coords(self, degree: int, v) -> LieElement:
        return self.model.lie.from_lie_coords(degree, v)

    def _assemble_d_matrix(self, degree: int) -> linalg.QMatrix:
        src = self.model.lie.lie_basis(degree) if degree >= 1 else []
        ent = {}
        for c, b in enumerate(src):
            img = self.model.d(b)
            if not img.is_zero():
                for r, v in enumerate(self.to_coords(degree - 1, img)):
                    if v:
                        ent[(r, c)] = v
        return linalg.QMatrix(self.dim(degree - 1), len(src), ent)


class DGLModel(GradedModel):
    """A finite free DGL (L(W), delta) with delta of degree -1.

    A truncation keeps its ``parent``: its Lie bases and differential
    matrices are the parent's, restricted to its generators.  Truncations
    are closed because delta lowers degree.
    """

    kind = "quillen"
    algebra_type = FreeLie
    complex_type = DGLComplex
    d_name = "delta"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._gamma_cache: dict[int, "GammaData"] = {}

    @property
    def lie(self) -> FreeLie:
        """L(W): ``algebra`` under its Quillen-side name."""
        return self.algebra

    delta = GradedModel.d
    delta_of_generator = GradedModel.d_of_generator

    def validate(self) -> ValidationReport:
        """The shared checks, and a ``lie-element`` issue for each image of
        degree |g| - 1 that is a tensor outside L(W)."""
        issues, lie = list(super().validate().issues), self.lie
        for idx, img in self.differential.items():
            g = lie.by_index[idx]
            if (g.degree > 1 and lie.is_homogeneous(img, g.degree - 1)
                    and not lie.is_lie(img)):
                issues.append(ValidationIssue(
                    "lie-element", g.name, f"delta({g.name}) is not in L(W)"))
        return ValidationReport(tuple(issues))

    def gamma(self, i: int) -> "GammaData":
        """Gamma_i of this model: ``gamma(self, i)``, entered only the first
        time.  The result is shared; do not mutate it."""
        gd = self._gamma_cache.get(i)
        return gd if gd is not None else gamma(self, i)


# --- module-level operations -------------------------------------------------

@dataclass
class GammaData:
    degree: int
    dim: int
    reps: list[LieElement]            # cycles in L(W_(<= i))
    h_coords: list[linalg.Vector]     # their coordinates over H reps
    complex: DGLComplex               # homology of the degree-i truncation


def gamma(model: DGLModel, i: int) -> GammaData:
    """Gamma_i = ker(j_i : H_i(L(W_(<= i))) -> W_i).

    Memoized on the model: every caller gets the same GammaData, which must
    not be mutated.  Callers inside the engine go through ``model.gamma(i)``.
    """
    if i < 2:
        raise ValueError("Gamma_i defined for i >= 2")
    if i in model._gamma_cache:
        return model._gamma_cache[i]
    tc = model.truncate(i).complex()
    _, _, reps_v = tc.homology(i)
    kernel = linalg.kernel_basis(tc.linear_part(i))
    combine = linalg.QMatrix.from_columns(reps_v, tc.dim(i))
    gamma_reps = [tc.from_coords(i, combine.apply(k)) for k in kernel]
    gd = GammaData(i, len(kernel), gamma_reps, list(kernel), tc)
    model._gamma_cache[i] = gd
    return gd


def b_map(model: DGLModel, i: int) -> linalg.QMatrix:
    """Matrix of b_i : W_i -> Gamma_(i-1), w |-> [delta w]."""
    if i < 3:
        raise ValueError("b_i as a map into Gamma needs i >= 3")
    gd = model.gamma(i - 1)
    into_h = model.whitehead_b(i)
    # express [delta w] over the Gamma representative basis (inside H)
    gamma_span = linalg.Span(into_h.rows)
    for v in gd.h_coords:
        gamma_span.add(v)
    cols = []
    for c, col in enumerate(into_h.columns()):
        coords = gamma_span.express(col)
        if coords is None:
            raise InternalInconsistency(
                f"{model!r}: [delta] of the degree-{i} generator number {c} "
                f"has a nonzero generator-linear part")
        cols.append(coords)
    return linalg.QMatrix.from_columns(cols, gd.dim)


def whitehead_sequence_dgl(model: DGLModel, max_degree: int) -> WhiteheadReport:
    """Assemble ... -> W_(i+1) -> Gamma_i -> H_i(L(W)) -> W_i -> ... and
    verify im = ker at every node by rank arithmetic."""
    full = model.complex()
    gammas = {i: model.gamma(i) for i in range(2, max_degree + 2)}
    # Gamma_i -> H_i(L(W)) induced by the inclusion of the truncation, the
    # linear part H_i(L(W)) -> W_i, and b_i into the homology of the
    # truncation and into Gamma_(i-1)
    incl = {i: full.class_matrix(i, gammas[i].reps)
            for i in range(2, max_degree + 1)}
    h_lin = {i: full.linear_part(i) for i in range(2, max_degree + 1)}
    b_into_h = {i: model.whitehead_b(i) for i in range(2, max_degree + 1)}
    b_into_gamma = {i: b_map(model, i) for i in range(3, max_degree + 2)}
    nodes: list[WhiteheadNodeL] = []
    for i in range(2, max_degree + 1):
        check_exact(f"Gamma_{i}", b_into_gamma[i + 1], incl[i])
        check_exact(f"H_{i}", incl[i], h_lin[i])
        check_exact(f"W_{i}", h_lin[i], b_into_h[i])
        nodes.append(WhiteheadNodeL(
            degree=i,
            dim_w=h_lin[i].rows,
            dim_gamma=gammas[i].dim,
            dim_h=incl[i].rows,
            rank_b=linalg.rank(b_into_gamma[i + 1]),
            rank_incl=linalg.rank(incl[i]),
        ))
    return WhiteheadReport(tuple(nodes), max_degree)


def default_bound(model: DGLModel) -> int:
    """Window past which an elliptic model's homology must vanish."""
    return 2 * model.max_generator_degree() + 2


def homology_table(model: DGLModel, bound: int) -> dict[int, int]:
    c = model.complex()
    return {i: c.betti(i) for i in range(1, bound + 1)}


def eta(model: DGLModel, bound: int | None = None) -> int:
    """1 + sum over i >= 2 of (-1)^i dim Gamma_i, in algebra degrees.

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
    top = max(max_w, h_top)
    total = 0
    for i in range(2, top + 1):
        total += (-1) ** i * model.gamma(i).dim
    return 1 + total


def gamma_table(model: DGLModel, top: int) -> dict[int, int]:
    return {i: model.gamma(i).dim for i in range(2, top + 1)}
