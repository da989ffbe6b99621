"""Quillen models: DGL homology, the Gamma spaces, the maps j and b, the
Whitehead exact sequence on the Lie side, and the invariant eta."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import (CompositionNotZero, ExactnessFailure,
                     InternalInconsistency, UnboundedGamma)
from .lie import FreeLie, LieElement, LieGenerator

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DGLValidationIssue:
    check: str
    generator: str
    message: str


@dataclass(frozen=True)
class DGLValidationReport:
    issues: tuple[DGLValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass(frozen=True)
class WhiteheadNodeL:
    degree: int              # i
    dim_w: int               # dim W_i
    dim_gamma: int           # dim Gamma_i
    dim_h: int               # dim H_i(L(W))
    rank_b: int              # rank of b_(i+1) : W_(i+1) -> Gamma_i
    rank_incl: int           # rank of Gamma_i -> H_i(L(W))


class DGLModel:
    """A finite free DGL (L(W), delta) with delta of degree -1."""

    def __init__(self, generators: Sequence[LieGenerator],
                 differential: Mapping[int, LieElement], name: str = "",
                 lie_source: FreeLie | None = None):
        # lie_source: a FreeLie on a superset of the generators whose Lie
        # bases this model's restrict (see FreeLie)
        self.lie = FreeLie(generators, source=lie_source)
        self.differential = {i: e for i, e in differential.items()
                             if not e.is_zero()}
        self.name = name
        self._complex: "DGLComplex" | None = None
        self._derivation = None
        self._trunc_cache: dict[int, "DGLModel"] = {}
        self._gamma_cache: dict[int, "GammaData"] = {}

    @property
    def generators(self) -> list[LieGenerator]:
        return self.lie.generators

    def delta(self, e: LieElement) -> LieElement:
        if self._derivation is None:
            self._derivation = self.lie.derivation(self.differential)
        return self._derivation(e)

    def delta_of_generator(self, idx: int) -> LieElement:
        return self.differential.get(idx, LieElement.zero())

    def max_generator_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)

    def validate(self) -> DGLValidationReport:
        issues: list[DGLValidationIssue] = []
        for idx, img in self.differential.items():
            g = self.lie.by_index[idx]
            if not self.lie.is_homogeneous(img, g.degree - 1):
                issues.append(DGLValidationIssue(
                    "homogeneity", g.name,
                    f"delta({g.name}) is not homogeneous of degree {g.degree - 1}"))
        if not issues:
            for idx in self.differential:
                g = self.lie.by_index[idx]
                if not self.delta(self.differential[idx]).is_zero():
                    issues.append(DGLValidationIssue(
                        "delta-squared", g.name, f"delta(delta({g.name})) != 0"))
        return DGLValidationReport(tuple(issues))

    def truncate(self, k: int) -> "DGLModel":
        """Sub-DGL on generators of degree <= k (closed since delta lowers
        degree); the model itself when that keeps every generator.  The
        sub-DGL's Lie bases are restricted from this model's."""
        if k >= self.max_generator_degree():
            return self
        if k in self._trunc_cache:
            return self._trunc_cache[k]
        keep = [g for g in self.generators if g.degree <= k]
        diff = {g.index: self.delta_of_generator(g.index) for g in keep
                if not self.delta_of_generator(g.index).is_zero()}
        sub = DGLModel(keep, diff, name=f"{self.name}[<={k}]" if self.name else "",
                       lie_source=self.lie)
        self._trunc_cache[k] = sub
        return sub

    def complex(self) -> "DGLComplex":
        if self._complex is None:
            self._complex = DGLComplex(self)
        return self._complex

    def gamma(self, i: int) -> "GammaData":
        """Gamma_i of this model: ``gamma(self, i)``, entered only the first
        time.  The result is shared; do not mutate it."""
        gd = self._gamma_cache.get(i)
        return gd if gd is not None else gamma(self, i)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"DGLModel({self.name or gens})"


class DGLComplex:
    """The chain complex (L_*(W), delta) in the canonical Lie bases."""

    def __init__(self, model: DGLModel):
        self.model = model
        self._d_cache: dict[int, linalg.QMatrix] = {}
        self._boundary_cache: dict[int, list[linalg.Vector]] = {}
        self._hom_cache: dict[int, tuple[int, list[LieElement], list]] = {}
        self._class_cache: dict[int, tuple[linalg.Span, int]] = {}

    def dim(self, degree: int) -> int:
        return self.model.lie.lie_dim(degree) if degree >= 1 else 0

    def d_matrix(self, degree: int) -> linalg.QMatrix:
        """Matrix of delta : degree -> degree - 1 in the Lie bases."""
        if degree in self._d_cache:
            return self._d_cache[degree]
        lie = self.model.lie
        src = lie.lie_basis(degree) if degree >= 1 else []
        tdim = self.dim(degree - 1)
        ent = {}
        for c, b in enumerate(src):
            img = self.model.delta(b)
            if img.is_zero():
                continue
            coords = lie.lie_coords(degree - 1, img)
            if coords is None:
                raise InternalInconsistency(
                    "delta image escaped the Lie subalgebra")
            for r, v in enumerate(coords):
                if v:
                    ent[(r, c)] = v
        mat = linalg.QMatrix(tdim, len(src), ent)
        self._d_cache[degree] = mat
        return mat

    def boundaries(self, degree: int) -> list[linalg.Vector]:
        """A basis of the boundaries of that degree: the independent columns
        of delta : degree + 1 -> degree, in column order."""
        if degree not in self._boundary_cache:
            d_in = self.d_matrix(degree + 1)
            self._boundary_cache[degree] = linalg.independent_subset(
                d_in.columns(), d_in.rows)
        return self._boundary_cache[degree]

    def homology(self, degree: int):
        """(dim, representatives as LieElements, rep Lie-coordinate vectors)."""
        if degree in self._hom_cache:
            return self._hom_cache[degree]
        if degree < 1:
            result = (0, [], [])
        else:
            d_out = self.d_matrix(degree)
            if not d_out.matmul(self.d_matrix(degree + 1)).is_zero():
                raise CompositionNotZero(f"delta.delta != 0 at degree {degree}")
            cycles = linalg.kernel_basis(d_out)
            reps_v = linalg.quotient_representatives(
                cycles, self.boundaries(degree))
            reps = [self.model.lie.from_lie_coords(degree, v) for v in reps_v]
            result = (len(reps), reps, reps_v)
        self._hom_cache[degree] = result
        return result

    def homology_dim(self, degree: int) -> int:
        return self.homology(degree)[0]

    def class_coords(self, degree: int, e: LieElement) -> linalg.Vector | None:
        """Coordinates of [e] over the representative basis of H_degree;
        None when e is not a cycle."""
        lie = self.model.lie
        z = lie.lie_coords(degree, e)
        if z is None:
            raise InternalInconsistency("element outside the Lie subalgebra")
        if any(self.d_matrix(degree).apply(z)):
            return None
        if degree not in self._class_cache:
            _, _, reps_v = self.homology(degree)
            # representatives then boundaries: a basis of the cycles
            span = linalg.Span(self.dim(degree))
            for v in [*reps_v, *self.boundaries(degree)]:
                if not span.add(v):
                    raise InternalInconsistency(
                        f"representatives and boundaries of degree {degree} "
                        f"are dependent")
            self._class_cache[degree] = (span, len(reps_v))
        span, nreps = self._class_cache[degree]
        coords = span.express(z)
        if coords is None:
            raise InternalInconsistency("cycle not in span of reps + boundaries")
        return coords[:nreps]


# --- module-level operations -------------------------------------------------

def validate_dgl(model: DGLModel) -> DGLValidationReport:
    return model.validate()


def dgl_homology(model: DGLModel, degree: int):
    """(dim, representative LieElements) of H_degree(L(W))."""
    dim, reps, _ = model.complex().homology(degree)
    return dim, reps


def truncate_dgl(model: DGLModel, k: int) -> DGLModel:
    return model.truncate(k)


@dataclass
class GammaData:
    degree: int
    dim: int
    reps: list[LieElement]            # cycles in L(W_(<= i))
    h_coords: list[linalg.Vector]     # their coordinates over H reps
    complex: DGLComplex               # homology of the degree-i truncation


def _linear_part_matrix(model: DGLModel, degree: int,
                        reps: Sequence[LieElement]) -> linalg.QMatrix:
    """Class |-> generator-linear part, over the W_degree generator basis."""
    w_gens = [g for g in model.generators if g.degree == degree]
    pos = {g.index: r for r, g in enumerate(w_gens)}
    ent = {}
    for c, rep in enumerate(reps):
        for w, v in rep.terms.items():
            if len(w) == 1 and w[0] in pos:
                ent[(pos[w[0]], c)] = v
    return linalg.QMatrix(len(w_gens), len(reps), ent)


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
    _, reps, reps_v = tc.homology(i)
    j = _linear_part_matrix(model, i, reps)
    kernel = linalg.kernel_basis(j)
    combine = linalg.QMatrix.from_columns(reps_v, tc.dim(i))
    gamma_reps = [tc.model.lie.from_lie_coords(i, combine.apply(k))
                  for k in kernel]
    gd = GammaData(i, len(kernel), gamma_reps, list(kernel), tc)
    model._gamma_cache[i] = gd
    return gd


def gamma_dim(model: DGLModel, i: int) -> int:
    return model.gamma(i).dim


def b_map(model: DGLModel, i: int) -> linalg.QMatrix:
    """Matrix of b_i : W_i -> Gamma_(i-1), w |-> [delta w]."""
    if i < 3:
        raise ValueError("b_i as a map into Gamma needs i >= 3")
    gd = model.gamma(i - 1)
    w_gens = [g for g in model.generators if g.degree == i]
    # express [delta w] over the Gamma representative basis (inside H)
    h_dim = gd.complex.homology(i - 1)[0]
    gamma_span = linalg.Span(h_dim)
    for v in gd.h_coords:
        gamma_span.add(v)
    ent = {}
    for c, g in enumerate(w_gens):
        dw = model.delta_of_generator(g.index)
        coords = gd.complex.class_coords(i - 1, dw)
        if coords is None:
            raise InternalInconsistency(
                f"delta({g.name}) is not a cycle of the truncation")
        if any(coords):
            gcoords = gamma_span.express(coords)
            if gcoords is None:
                raise InternalInconsistency(
                    f"[delta({g.name})] has a nonzero generator-linear part")
            for r, v in enumerate(gcoords):
                if v:
                    ent[(r, c)] = v
    return linalg.QMatrix(gd.dim, len(w_gens), ent)


def _b_hat(model: DGLModel, i: int, tc: DGLComplex) -> linalg.QMatrix:
    """b_i viewed into all of H_(i-1)(L(W_(<= i-1))) (for kernel checks)."""
    w_gens = [g for g in model.generators if g.degree == i]
    h_dim = tc.homology(i - 1)[0]
    ent = {}
    for c, g in enumerate(w_gens):
        dw = model.delta_of_generator(g.index)
        coords = tc.class_coords(i - 1, dw)
        if coords is None:
            raise InternalInconsistency(
                f"delta({g.name}) is not a cycle of the truncation")
        for r, v in enumerate(coords):
            if v:
                ent[(r, c)] = v
    return linalg.QMatrix(h_dim, len(w_gens), ent)


@dataclass(frozen=True)
class WhiteheadReportL:
    nodes: tuple[WhiteheadNodeL, ...]
    max_degree: int
    exact: bool = True


def whitehead_sequence_dgl(model: DGLModel, max_degree: int) -> WhiteheadReportL:
    """Assemble ... -> W_(i+1) -> Gamma_i -> H_i(L(W)) -> W_i -> ... and
    verify im = ker at every node by rank arithmetic."""
    full = model.complex()

    def check(node: str, incoming: linalg.QMatrix, outgoing: linalg.QMatrix):
        if not outgoing.matmul(incoming).is_zero():
            raise ExactnessFailure(f"composite nonzero at {node}")
        if linalg.rank(incoming) != incoming.rows - linalg.rank(outgoing):
            raise ExactnessFailure(f"im != ker at {node}")

    nodes: list[WhiteheadNodeL] = []
    gammas = {i: model.gamma(i) for i in range(2, max_degree + 2)}
    w_dims = {}
    for g in model.generators:
        w_dims[g.degree] = w_dims.get(g.degree, 0) + 1

    def incl_matrix(i: int) -> linalg.QMatrix:
        """Gamma_i -> H_i(L(W)) induced by the truncation inclusion."""
        gd = gammas[i]
        h_dim = full.homology(i)[0]
        ent = {}
        for c, rep in enumerate(gd.reps):
            coords = full.class_coords(i, rep)
            if coords is None:
                raise InternalInconsistency("Gamma representative not a cycle")
            for r, v in enumerate(coords):
                if v:
                    ent[(r, c)] = v
        return linalg.QMatrix(h_dim, gd.dim, ent)

    def hurewicz_matrix(i: int) -> linalg.QMatrix:
        _, reps, _ = full.homology(i)
        return _linear_part_matrix(model, i, reps)

    incl = {i: incl_matrix(i) for i in range(2, max_degree + 1)}
    h_lin = {i: hurewicz_matrix(i) for i in range(2, max_degree + 1)}
    b_into_gamma = {i: b_map(model, i) for i in range(3, max_degree + 2)}

    for i in range(2, max_degree + 1):
        # node Gamma_i: im(b_(i+1)) = ker(Gamma_i -> H_i)
        check(f"Gamma_{i}", b_into_gamma[i + 1], incl[i])
        # node H_i: im(Gamma_i -> H_i) = ker(class |-> linear part)
        check(f"H_{i}", incl[i], h_lin[i])
        # node W_i: im(linear part) = ker(b_i into the truncation homology)
        if i >= 3:
            bh = _b_hat(model, i, model.truncate(i - 1).complex())
        else:
            bh = _b_hat(model, i, model.truncate(1).complex())
        check(f"W_{i}", h_lin[i], bh)
        gd = gammas[i]
        nodes.append(WhiteheadNodeL(
            degree=i,
            dim_w=w_dims.get(i, 0),
            dim_gamma=gd.dim,
            dim_h=full.homology(i)[0],
            rank_b=linalg.rank(b_into_gamma[i + 1]),
            rank_incl=linalg.rank(incl[i]),
        ))
    return WhiteheadReportL(tuple(nodes), max_degree)


def default_bound(model: DGLModel) -> int:
    """Window past which an elliptic model's homology must vanish."""
    return 2 * model.max_generator_degree() + 2


def homology_table(model: DGLModel, bound: int) -> dict[int, int]:
    c = model.complex()
    return {i: c.homology_dim(i) for i in range(1, bound + 1)}


def eta(model: DGLModel, bound: int | None = None) -> int:
    """1 + sum over i >= 2 of (-1)^i dim Gamma_i, in algebra degrees.

    Vanishing of Gamma above the window is certified through exactness:
    Gamma_i = 0 once W_(i+1) = 0 and H_i(L(W)) = 0.
    """
    max_w = model.max_generator_degree()
    if bound is None:
        bound = default_bound(model)
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
