"""Sullivan models: cochain complexes, cohomology, truncations, the spaces
L^i, and the Whitehead exact sequence on the commutative side."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .commutative import Algebra, Element, Generator, Monomial
from .errors import (CompositionNotZero, DegreeMismatch, ExactnessFailure,
                     InternalInconsistency, TruncationNotClosed)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CohomologyClass:
    degree: int
    representative: Element


@dataclass(frozen=True)
class ValidationIssue:
    check: str
    generator: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass(frozen=True)
class WhiteheadNodeS:
    degree: int              # i
    dim_v: int               # dim V^i
    dim_l_next: int          # dim L^(i+1)
    dim_h_next: int          # dim H^(i+1)
    rank_b: int              # rank of b^i : V^i -> L^(i+1)
    rank_incl: int           # rank of L^(i+1) -> H^(i+1)


class SullivanModel:
    """A minimal simply connected Sullivan model (Lambda V, d).

    ``differential`` maps generator index -> Element (absent means zero).
    Models are immutable after construction; the cochain complex is memoized.
    A truncation keeps its ``parent``: its bases and differential matrices
    are the parent's, restricted to the monomials in its generators.
    """

    def __init__(self, generators: Sequence[Generator],
                 differential: Mapping[int, Element], name: str = "",
                 parent: "SullivanModel | None" = None):
        self.algebra = Algebra(generators,
                               source=parent.algebra if parent else None)
        self.differential = {i: e for i, e in differential.items()
                             if not e.is_zero()}
        self.name = name
        self.parent = parent
        self._complex: "CochainComplex" | None = None
        self._derivation = None
        self._trunc_cache: dict[int, "SullivanModel"] = {}

    @property
    def generators(self) -> list[Generator]:
        return self.algebra.generators

    def d(self, e: Element) -> Element:
        if self._derivation is None:
            self._derivation = self.algebra.derivation(self.differential)
        return self._derivation(e)

    def d_of_generator(self, idx: int) -> Element:
        return self.differential.get(idx, Element.zero())

    def max_generator_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)

    # --- validation --------------------------------------------------------

    def validate(self, max_degree: int | None = None) -> ValidationReport:
        issues: list[ValidationIssue] = []
        alg = self.algebra
        for g in self.generators:
            if g.degree < 2:
                issues.append(ValidationIssue(
                    "simple-connectivity", g.name,
                    f"generator degree {g.degree} < 2 (V^1 must vanish)"))
        for idx, img in self.differential.items():
            g = alg.by_index[idx]
            if not alg.is_homogeneous(img, g.degree + 1):
                issues.append(ValidationIssue(
                    "homogeneity", g.name,
                    f"d({g.name}) is not homogeneous of degree {g.degree + 1}"))
                continue
            for m in img.terms:
                if sum(e for _, e in m) < 2:
                    issues.append(ValidationIssue(
                        "minimality", g.name,
                        f"d({g.name}) has a linear term"))
                    break
        if not any(i.check == "homogeneity" for i in issues):
            for idx in self.differential:
                g = alg.by_index[idx]
                if not self.d(self.differential[idx]).is_zero():
                    issues.append(ValidationIssue(
                        "d-squared", g.name, f"d(d({g.name})) != 0"))
        return ValidationReport(tuple(issues))

    # --- truncation --------------------------------------------------------

    def truncate(self, k: int) -> "SullivanModel":
        """Sub-model on the generators of degree <= k (indices preserved);
        the model itself when that keeps every generator."""
        if k >= self.max_generator_degree():
            return self
        if k in self._trunc_cache:
            return self._trunc_cache[k]
        keep = [g for g in self.generators if g.degree <= k]
        kept = {g.index for g in keep}
        diff = {}
        for g in keep:
            img = self.d_of_generator(g.index)
            for m in img.terms:
                if any(i not in kept for i, _ in m):
                    raise TruncationNotClosed(
                        f"d({g.name}) involves a generator of degree > {k}")
            if not img.is_zero():
                diff[g.index] = img
        sub = SullivanModel(keep, diff,
                            name=f"{self.name}[<={k}]" if self.name else "",
                            parent=self)
        self._trunc_cache[k] = sub
        return sub

    def complex(self) -> "CochainComplex":
        if self._complex is None:
            self._complex = CochainComplex(self)
        return self._complex

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"SullivanModel({self.name or gens})"


class CochainComplex:
    """Per-degree matrices and cohomology data of a Sullivan model.

    Dimensions of cohomology come from ranks alone; representatives, and
    the coordinates of classes over them, are built only on request.
    """

    def __init__(self, model: SullivanModel):
        self.model = model
        self._index_cache: dict[int, dict[Monomial, int]] = {}
        self._d_cache: dict[int, linalg.QMatrix] = {}
        self._rank_cache: dict[int, int] = {}
        self._squares_checked: set[int] = set()
        self._boundary_cache: dict[int, list[linalg.Vector]] = {}
        self._coh_cache: dict[int, tuple[int, list[Element], list]] = {}
        self._class_cache: dict[int, tuple[linalg.Span, int]] = {}

    def basis(self, degree: int) -> list[Monomial]:
        return self.model.algebra.basis(degree)

    def dim(self, degree: int) -> int:
        return len(self.basis(degree))

    def _index(self, degree: int) -> dict[Monomial, int]:
        """Monomial -> its position in the basis of that degree."""
        idx = self._index_cache.get(degree)
        if idx is None:
            idx = {m: j for j, m in enumerate(self.basis(degree))}
            self._index_cache[degree] = idx
        return idx

    def to_coords(self, degree: int, e: Element) -> linalg.Vector:
        idx = self._index(degree)
        v = [_ZERO] * len(idx)
        for m, c in e.terms.items():
            if m not in idx:
                raise DegreeMismatch(
                    f"element has a term outside degree {degree}")
            v[idx[m]] = c
        return tuple(v)

    def from_coords(self, degree: int, v: Sequence[Fraction]) -> Element:
        basis = self.basis(degree)
        return Element({basis[j]: c for j, c in enumerate(v) if c})

    def d_matrix(self, degree: int) -> linalg.QMatrix:
        """Matrix of d : degree -> degree + 1 in canonical monomial bases."""
        if degree in self._d_cache:
            return self._d_cache[degree]
        if self.model.parent is not None:
            mat = self._restricted_d_matrix(degree)
        else:
            src = self.basis(degree)
            tgt = self._index(degree + 1)
            ent = {}
            for c, mono in enumerate(src):
                img = self.model.d(self.model.algebra.from_monomial(mono))
                for m, v in img.terms.items():
                    ent[(tgt[m], c)] = v
            mat = linalg.QMatrix(len(tgt), len(src), ent)
        self._d_cache[degree] = mat
        return mat

    def _restricted_d_matrix(self, degree: int) -> linalg.QMatrix:
        """The parent's d matrix restricted to the monomials in this model's
        generators, which index both bases in the parent's order."""
        pc = self.model.parent.complex()
        pidx = pc._index(degree)
        cols = {pidx[m]: c for c, m in enumerate(self.basis(degree))}
        pidx = pc._index(degree + 1)
        rows = {pidx[m]: r for r, m in enumerate(self.basis(degree + 1))}
        ent = {}
        for (r, c), v in pc.d_matrix(degree).entries.items():
            if c in cols:
                if r not in rows:
                    raise TruncationNotClosed(
                        f"{self.model!r}: d of a degree-{degree} monomial "
                        f"leaves the kept generators")
                ent[(rows[r], cols[c])] = v
        return linalg.QMatrix(len(rows), len(cols), ent)

    def _rank(self, degree: int) -> int:
        """rank of d : degree -> degree + 1."""
        if degree not in self._rank_cache:
            self._rank_cache[degree] = linalg.rank(self.d_matrix(degree))
        return self._rank_cache[degree]

    def _check_square(self, degree: int):
        """CompositionNotZero unless d . d = 0 into ``degree + 1``."""
        if degree not in self._squares_checked:
            if not self.d_matrix(degree).matmul(
                    self.d_matrix(degree - 1)).is_zero():
                raise CompositionNotZero(f"d.d != 0 at degree {degree}")
            self._squares_checked.add(degree)

    def boundaries(self, degree: int) -> list[linalg.Vector]:
        """A basis of the coboundaries of that degree: the independent
        columns of d : degree - 1 -> degree, in column order."""
        if degree not in self._boundary_cache:
            d_in = self.d_matrix(degree - 1)
            self._boundary_cache[degree] = linalg.independent_subset(
                d_in.columns(), d_in.rows)
        return self._boundary_cache[degree]

    def cohomology(self, degree: int):
        """(dim, representatives as Elements, representative coord vectors)."""
        if degree in self._coh_cache:
            return self._coh_cache[degree]
        if degree < 0:
            result = (0, [], [])
        else:
            cycles = linalg.kernel_basis(self.d_matrix(degree))
            self._check_square(degree)
            reps_v = linalg.quotient_representatives(
                cycles, self.boundaries(degree))
            reps = [self.from_coords(degree, v) for v in reps_v]
            result = (len(reps), reps, reps_v)
        self._coh_cache[degree] = result
        return result

    def betti(self, degree: int) -> int:
        """dim H^degree = dim - rank d_out - rank d_in, from ranks alone."""
        if degree in self._coh_cache:
            return self._coh_cache[degree][0]
        if degree < 0:
            return 0
        self._check_square(degree)
        return self.dim(degree) - self._rank(degree) - self._rank(degree - 1)

    def class_coords(self, degree: int, e: Element) -> linalg.Vector | None:
        """Coordinates of [e] over the representative basis of H^degree.

        Returns None when e is not a cocycle of that degree.
        """
        z = self.to_coords(degree, e)
        if any(self.d_matrix(degree).apply(z)):
            return None
        if degree not in self._class_cache:
            _, _, reps_v = self.cohomology(degree)
            # representatives then coboundaries: a basis of the cocycles
            span = linalg.Span(self.dim(degree))
            for v in [*reps_v, *self.boundaries(degree)]:
                if not span.add(v):
                    raise InternalInconsistency(
                        f"representatives and coboundaries of degree "
                        f"{degree} are dependent")
            self._class_cache[degree] = (span, len(reps_v))
        span, nreps = self._class_cache[degree]
        coords = span.express(z)
        if coords is None:
            raise InternalInconsistency("cocycle not in span of reps + boundaries")
        return coords[:nreps]


# --- module-level operations matching the engine surface ---------------------

def validate(model: SullivanModel, max_degree: int | None = None) -> ValidationReport:
    return model.validate(max_degree)


def cohomology(model: SullivanModel, degree: int):
    """(dim, list of CohomologyClass) of H^degree(Lambda V)."""
    dim, reps, _ = model.complex().cohomology(degree)
    return dim, [CohomologyClass(degree, r) for r in reps]


def truncate(model: SullivanModel, k: int) -> SullivanModel:
    return model.truncate(k)


def L_space(model: SullivanModel, i: int):
    """(dim, classes) of L^i = H^i(Lambda(V^(<= i-2)))."""
    if i < 2:
        raise ValueError("L^i defined for i >= 2")
    t = model.truncate(i - 2)
    dim, reps, _ = t.complex().cohomology(i)
    return dim, [CohomologyClass(i, r) for r in reps]


def L_dim(model: SullivanModel, i: int) -> int:
    """dim L^i, from ranks alone."""
    if i < 2:
        raise ValueError("L^i defined for i >= 2")
    return model.truncate(i - 2).complex().betti(i)


def whitehead_b(model: SullivanModel, i: int) -> linalg.QMatrix:
    """Matrix of b^i : V^i -> L^(i+1), v |-> [d v] in the truncation."""
    t = model.truncate(i - 1)
    tc = t.complex()
    ldim, _, _ = tc.cohomology(i + 1)
    v_gens = [g for g in model.generators if g.degree == i]
    ent = {}
    for c, g in enumerate(v_gens):
        dv = model.d_of_generator(g.index)
        coords = tc.class_coords(i + 1, dv)
        if coords is None:
            raise InternalInconsistency(
                f"d({g.name}) is not a cocycle of the truncation")
        for r, val in enumerate(coords):
            if val:
                ent[(r, c)] = val
    return linalg.QMatrix(ldim, len(v_gens), ent)


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


@dataclass(frozen=True)
class WhiteheadReportS:
    nodes: tuple[WhiteheadNodeS, ...]
    max_degree: int
    exact: bool = True


def whitehead_sequence(model: SullivanModel, max_degree: int) -> WhiteheadReportS:
    """Assemble sequence H^i -> V^i -> L^(i+1) -> H^(i+1) -> ... and check
    im = ker at every node (ExactnessFailure on any breach)."""
    full = model.complex()
    v_gens_by_deg: dict[int, list[Generator]] = {}
    for g in model.generators:
        v_gens_by_deg.setdefault(g.degree, []).append(g)

    def linear_part_matrix(i: int) -> linalg.QMatrix:
        """H^i -> V^i: class |-> coefficients of its linear part."""
        _, reps, _ = full.cohomology(i)
        vg = v_gens_by_deg.get(i, [])
        pos = {g.index: r for r, g in enumerate(vg)}
        ent = {}
        for c, rep in enumerate(reps):
            for m, val in rep.terms.items():
                if len(m) == 1 and m[0][1] == 1 and m[0][0] in pos:
                    ent[(pos[m[0][0]], c)] = val
        return linalg.QMatrix(len(vg), len(reps), ent)

    def incl_matrix(i: int) -> linalg.QMatrix:
        """L^(i+1) -> H^(i+1), induced by inclusion of the truncation."""
        t = model.truncate(i - 1)
        _, reps, _ = t.complex().cohomology(i + 1)
        hdim, _, _ = full.cohomology(i + 1)
        ent = {}
        for c, rep in enumerate(reps):
            coords = full.class_coords(i + 1, rep)
            if coords is None:
                raise InternalInconsistency("truncation class is not a cocycle")
            for r, val in enumerate(coords):
                if val:
                    ent[(r, c)] = val
        return linalg.QMatrix(hdim, len(reps), ent)

    def check(node: str, incoming: linalg.QMatrix, outgoing: linalg.QMatrix):
        if not outgoing.matmul(incoming).is_zero():
            raise ExactnessFailure(f"composite nonzero at {node}")
        if linalg.rank(incoming) != incoming.rows - linalg.rank(outgoing):
            raise ExactnessFailure(f"im != ker at {node}")

    nodes: list[WhiteheadNodeS] = []
    p = {i: linear_part_matrix(i) for i in range(2, max_degree + 2)}
    b = {i: whitehead_b(model, i) for i in range(2, max_degree + 1)}
    q = {i: incl_matrix(i) for i in range(2, max_degree + 1)}
    for i in range(2, max_degree + 1):
        check(f"V^{i}", p[i], b[i])
        check(f"L^{i + 1}", b[i], q[i])
        check(f"H^{i + 1}", q[i], p[i + 1])
        nodes.append(WhiteheadNodeS(
            degree=i,
            dim_v=len(v_gens_by_deg.get(i, [])),
            dim_l_next=q[i].cols,
            dim_h_next=q[i].rows,
            rank_b=linalg.rank(b[i]),
            rank_incl=linalg.rank(q[i]),
        ))
    return WhiteheadReportS(tuple(nodes), max_degree)
