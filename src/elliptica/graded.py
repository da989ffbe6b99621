"""What the Sullivan and the Quillen side share: generators, sparse
elements, the free graded algebra with its derivations, validation reports,
free graded models with their truncations, Gamma and the Whitehead
sequence, the graded complex with its (co)homology, and the Whitehead
report.

A ``FreeAlgebra`` owns a basis table in each degree, indexed by keys
(monomials, resp. leading words of the Lie basis); an element is a sparse
combination of keys, so its terms are its coordinates.  A ``GradedComplex``
reads it for coordinates and for ``d``, which moves degree by ``step``:
+1 for cochains, -1 for chains; a subclass sets only ``step``.  A
truncation keeps its ``parent`` model, whose basis keys contain its own in
the same order, and its ``d`` matrices are the parent's restricted to its
keys.

Gamma is defined once for both sides:

    Gamma(k) = ker(linear part : H_k(truncate(k - 1 - step)) -> gens(k)),

where gens(k) are the generators of degree k.  On cochains (step = +1)
the truncation to degrees <= k - 2 has no generator of degree k, so
Gamma^k = H^k(Lambda V^(<= k - 2)) = L^k.  On chains (step = -1) it is
Gamma_k = ker(j_k : H_k(L(W_(<= k))) -> W_k).  Both Whitehead sequences
are then one sequence, gens(i) -b-> Gamma(i + step) -incl-> H(i + step)
-p-> gens(i + step), and both rho and eta are 1 + sum over k >= 2 of
(-1)^k dim Gamma(k).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import (CompositionNotZero, DegreeMismatch, ExactnessFailure,
                     InternalInconsistency, TruncationNotClosed,
                     ValidationError)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    index: int

    def __post_init__(self):
        if self.degree < 1:
            raise DegreeMismatch(f"generator {self.name} has degree {self.degree} < 1")


class SparseElement:
    """Sparse rational combination of basis keys (zero coefficients dropped).

    Arithmetic returns the type of its left operand; elements of different
    types are never equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {k: Fraction(c) for k, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def _of(cls, terms: dict):
        """Adopt a dict of Fraction coefficients, dropping zeros."""
        e = cls.__new__(cls)
        e.terms = {k: c for k, c in terms.items() if c}
        return e

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, _ZERO) + c
        return type(self)(t)

    def __sub__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, _ZERO) - c
        return type(self)(t)

    def scale(self, c):
        c = Fraction(c)
        return type(self)({k: c * v for k, v in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


class BasisTable:
    """One degree's basis of a free algebra: the keys in canonical order and
    each key's position."""

    def __init__(self, keys: list):
        self.keys = keys
        self.index = {k: j for j, k in enumerate(keys)}


class FreeAlgebra:
    """A free graded algebra on a list of generators: Lambda(V) or L(W).

    It owns the per-degree basis tables.  With ``source`` given, the
    generators must be a subset of the source's, and each table is the
    source's, restricted to the keys whose generators are all kept: the
    basis the algebra would enumerate itself, in the same order.

    A subclass sets ``element_type`` and ``derivation_type`` and supplies
    the degree of one basis key, the key of a generator, a fresh basis
    (``_enumerate``), the generators a key uses, how to print a key, and
    how to read an element's coefficients over the basis (``key_coords``).
    """

    element_type: type
    derivation_type: type

    def __init__(self, generators: Sequence[Generator],
                 source: "FreeAlgebra | None" = None):
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self.generators = list(generators)
        self.by_index = {g.index: g for g in generators}
        self.by_name = {g.name: g for g in generators}
        if source is not None and any(
                source.by_index.get(g.index) != g for g in generators):
            raise ValueError("generators are not a subset of the source's")
        self._source = source
        self._tables: dict[int, BasisTable] = {}

    def key_degree(self, key) -> int:
        """The degree of one basis key."""
        raise NotImplementedError

    def generator_key(self, index: int):
        """The basis key of the generator with that index."""
        raise NotImplementedError

    def _enumerate(self, degree: int) -> list:
        """The keys of a fresh basis of that degree, in canonical order."""
        raise NotImplementedError

    def key_generators(self, key):
        """The indices of the generators the key uses."""
        raise NotImplementedError

    def key_str(self, key) -> str:
        """The key's basis element in the text format."""
        raise NotImplementedError

    def key_coords(self, degree: int, e) -> dict | None:
        """e's nonzero coefficients over the basis of that degree, keyed by
        basis key; None when e is outside the algebra.  Must not be
        mutated."""
        raise NotImplementedError

    # --- the basis table -----------------------------------------------------

    def table(self, degree: int) -> BasisTable:
        """The basis of that degree, memoized."""
        t = self._tables.get(degree)
        if t is None:
            if self._source is None:
                t = BasisTable(self._enumerate(degree))
            else:
                kept = self.by_index
                t = BasisTable([k for k in self._source.basis(degree)
                                if all(i in kept
                                       for i in self.key_generators(k))])
            self._tables[degree] = t
        return t

    def basis(self, degree: int) -> list:
        """The basis keys of that degree, in canonical order."""
        return self.table(degree).keys

    def basis_element(self, degree: int, j: int):
        """The j-th basis element of that degree."""
        return self.element_type._of({self.basis(degree)[j]: _ONE})

    def coords(self, degree: int, e) -> linalg.Vector | None:
        """Coordinates of e over the basis of that degree; None when e is
        outside the algebra."""
        z = self.key_coords(degree, e)
        if z is None:
            return None
        t = self.table(degree)
        v = [_ZERO] * len(t.keys)
        for k, c in z.items():
            j = t.index.get(k)
            if j is None:
                raise DegreeMismatch(
                    f"element has a term outside degree {degree}")
            v[j] = c
        return tuple(v)

    def combination(self, degree: int, v: Sequence[Fraction]):
        """The element with coordinates v over the basis of that degree."""
        return self.element_type(dict(zip(self.basis(degree), v)))

    # --- elements --------------------------------------------------------------

    def degree(self, e) -> int:
        """Degree of a homogeneous element; DegreeMismatch if mixed."""
        if e.is_zero():
            return 0
        degs = {self.key_degree(k) for k in e.terms}
        if len(degs) != 1:
            raise DegreeMismatch(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    def is_homogeneous(self, e, degree: int) -> bool:
        return all(self.key_degree(k) == degree for k in e.terms)

    def gen(self, name: str):
        return self.element_type(
            {self.generator_key(self.by_name[name].index): _ONE})

    def derivation(self, images: Mapping[int, SparseElement]):
        return self.derivation_type(self, images)


class GradedDerivation:
    """A derivation of degree ``step``, fixed by its images of the
    generators.  Each image must be zero or homogeneous of degree
    |g| + step >= 1; a subclass applies the derivation to one basis key.
    """

    step: int

    def __init__(self, algebra: FreeAlgebra,
                 images: Mapping[int, SparseElement]):
        self.algebra = algebra
        self.images = {}
        for idx, img in images.items():
            g = algebra.by_index[idx]
            want = g.degree + self.step
            if not img.is_zero() and (
                    want < 1 or not algebra.is_homogeneous(img, want)):
                raise DegreeMismatch(
                    f"image of {g.name} is not homogeneous of degree {want}")
            self.images[idx] = img

    def _apply(self, key, c: Fraction, out: dict):
        """out += c * D(key)."""
        raise NotImplementedError

    def key_image(self, key) -> dict:
        """D of the basis element with that key, in coordinates over the
        basis of degree |key| + step; must not be mutated.  Here built by
        ``_apply``."""
        out: dict = {}
        self._apply(key, _ONE, out)
        return {k: c for k, c in out.items() if c}

    def __call__(self, e):
        out: dict = {}
        for k, c in e.terms.items():
            self._apply(k, c, out)
        return self.algebra.element_type._of(out)


@dataclass(frozen=True)
class ValidationIssue:
    check: str
    generator: str
    message: str

    def __str__(self):
        return f"{self.check} ({self.generator}): {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass(frozen=True)
class WhiteheadReport:
    """The nodes of a Whitehead sequence up to ``max_degree``.  ``exact``
    is always True: a node that is not exact raises ExactnessFailure."""
    nodes: tuple
    max_degree: int
    exact: bool = True

    def lines(self, verbose: bool = False) -> list[str]:
        """Each node's ``line()``; unless ``verbose``, only the nodes with a
        nonzero space among the three fields after the degree."""
        return [n.line() for n in self.nodes
                if verbose or any(list(vars(n).values())[1:4])]


@dataclass
class GammaData:
    degree: int
    dim: int
    h_coords: list[linalg.Vector]     # a basis, over the H reps of ``complex``
    complex: "GradedComplex"          # that of truncate(degree - 1 - step)

    @functools.cached_property
    def reps(self) -> list:
        """Cycles of ``complex`` with the coordinates ``h_coords``, built on
        first access."""
        k, tc = self.degree, self.complex
        combine = linalg.QMatrix.from_columns(tc.homology(k)[2], tc.dim(k))
        return [tc.from_coords(k, combine.apply(v)) for v in self.h_coords]


def check_exact(node: str, incoming: linalg.QMatrix,
                outgoing: linalg.QMatrix):
    """ExactnessFailure unless im(incoming) = ker(outgoing) at ``node``."""
    if not outgoing.matmul(incoming).is_zero():
        raise ExactnessFailure(f"composite nonzero at {node}")
    if linalg.rank(incoming) != incoming.rows - linalg.rank(outgoing):
        raise ExactnessFailure(f"im != ker at {node}")


class GradedModel:
    """What the two model types share: a free algebra on the generators, a
    differential given on them, and truncations that keep their ``parent``.

    A subclass sets ``kind``, ``algebra_type``, ``complex_type``,
    ``node_type``, the record of one Whitehead node, and ``d_name``, the
    name validation messages give the differential.
    ``generators`` is a generator list, or the free algebra on one, which
    the model adopts.
    """

    kind: str
    algebra_type: type
    complex_type: type
    node_type: type
    d_name: str

    def __init__(self, generators: "Sequence[Generator] | FreeAlgebra",
                 differential: Mapping[int, SparseElement], name: str = "",
                 parent: "GradedModel | None" = None):
        self.algebra = generators if isinstance(
            generators, self.algebra_type) else self.algebra_type(
            generators, source=parent.algebra if parent else None)
        self.differential = {i: e for i, e in differential.items()
                             if not e.is_zero()}
        self.name = name
        self.parent = parent
        self._complex = None
        self._derivation = None
        self._trunc_cache: dict[int, GradedModel] = {}
        self._gamma_cache: dict[int, GammaData] = {}
        self._gamma_dims: dict[int, int] = {}
        self._valid = False

    @property
    def generators(self) -> list[Generator]:
        return self.algebra.generators

    def derivation(self) -> GradedDerivation:
        """The derivation extending the differential, built once."""
        if self._derivation is None:
            self._derivation = self.algebra.derivation(self.differential)
        return self._derivation

    def d(self, e):
        return self.derivation()(e)

    def d_of_generator(self, idx: int):
        return self.differential.get(idx, self.algebra.element_type.zero())

    def validate(self) -> ValidationReport:
        """An issue for each image the derivation cannot act on
        (``_image_issue``); then d(d g) = 0 for every generator g, checked
        only when there is none."""
        alg, sym = self.algebra, self.d_name
        issues = []
        for idx, img in self.differential.items():
            g = alg.by_index[idx]
            issue = self._image_issue(g, img)
            if issue:
                issues.append(ValidationIssue(
                    issue[0], g.name, f"{sym}({g.name}) {issue[1]}"))
        if not issues:
            for idx, img in self.differential.items():
                if not self.d(img).is_zero():
                    g = alg.by_index[idx]
                    issues.append(ValidationIssue(
                        f"{sym}-squared", g.name, f"{sym}({sym}({g.name})) != 0"))
        return ValidationReport(tuple(issues))

    def _image_issue(self, g: Generator, img) -> tuple[str, str] | None:
        """(check, complaint) when the image of g names a generator the
        model lacks, or is not homogeneous of degree |g| + step >= 1, the
        condition of the derivation; else None."""
        alg = self.algebra
        missing = {i for k in img.terms for i in alg.key_generators(k)
                   if i not in alg.by_index}
        if missing:
            return ("unknown-generator",
                    f"names generator index {min(missing)}, which the model "
                    f"lacks")
        want = g.degree + alg.derivation_type.step
        if want < 1 or not alg.is_homogeneous(img, want):
            return "homogeneity", f"is not homogeneous of degree {want}"
        return None

    def require_valid(self):
        """The model itself; ValidationError if ``validate`` finds issues.
        Models are immutable, so a pass is remembered."""
        if not self._valid:
            report = self.validate()
            if not report.ok:
                raise ValidationError(self, report)
            self._valid = True
        return self

    def max_generator_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)

    def _truncated_differential(self, keep: list, k: int) -> dict:
        """The differential on the kept generators of degree <= k."""
        return {g.index: self.differential[g.index] for g in keep
                if g.index in self.differential}

    def truncate(self, k: int):
        """Sub-model on the generators of degree <= k (indices preserved);
        the model itself when that keeps every generator."""
        if k >= self.max_generator_degree():
            return self
        if k not in self._trunc_cache:
            keep = [g for g in self.generators if g.degree <= k]
            self._trunc_cache[k] = type(self)(
                keep, self._truncated_differential(keep, k),
                name=f"{self.name}[<={k}]" if self.name else "", parent=self)
        return self._trunc_cache[k]

    def gamma(self, k: int) -> GammaData:
        """Gamma(k), memoized: every caller gets the same GammaData, which
        must not be mutated."""
        if k not in self._gamma_cache:
            self._gamma_cache[k] = self._gamma(k)
        return self._gamma_cache[k]

    def _gamma(self, k: int) -> GammaData:
        """ker(linear part : H_k(truncate(k - 1 - step)) -> gens(k))."""
        tc = self.truncate(k - 1 - self.complex_type.step).complex()
        kernel = linalg.kernel_basis(tc.linear_part(k))
        return GammaData(k, len(kernel), kernel, tc)

    def gamma_dim(self, k: int) -> int:
        """dim Gamma(k), memoized; the truncation's rank-only betti_k when it
        has no generator of degree k (always on cochains)."""
        if k not in self._gamma_dims:
            t = self.truncate(k - 1 - self.complex_type.step)
            self._gamma_dims[k] = (
                self.gamma(k).dim if any(g.degree == k for g in t.generators)
                else t.complex().betti(k))
        return self._gamma_dims[k]

    def gamma_sum(self, top: int) -> int:
        """1 + sum over 2 <= k <= top of (-1)^k dim Gamma(k): rho on
        cochains, eta on chains."""
        return 1 + sum((-1) ** k * self.gamma_dim(k)
                       for k in range(2, top + 1))

    def whitehead_b(self, i: int) -> linalg.QMatrix:
        """The Whitehead map b : gens(i) -> Gamma(i + step), g |-> [d g]:
        a class of truncate(i - 1), the truncation that holds Gamma(i + step),
        written over Gamma's representatives."""
        k = i + self.complex_type.step
        gens = [g for g in self.generators if g.degree == i]
        if not gens:    # a map from zero needs no Gamma representatives
            return linalg.QMatrix(self.gamma_dim(k), 0)
        into_h = self.truncate(i - 1).complex().class_matrix(
            k, [self.d_of_generator(g.index) for g in gens])
        gd = self.gamma(k)
        onto = linalg.QMatrix.from_columns(gd.h_coords, into_h.rows)
        cols = [linalg.solve(onto, col) for col in into_h.columns()]
        if None in cols:
            raise InternalInconsistency(
                f"{self!r}: b of a degree-{i} generator leaves Gamma({k})")
        return linalg.QMatrix.from_columns(cols, gd.dim)

    def whitehead_sequence(self, max_degree: int) -> WhiteheadReport:
        """gens(i) -b-> Gamma(i + step) -incl-> H(i + step) -p-> gens(i +
        step), checked exact at every node (ExactnessFailure on any breach).
        Node i holds gens(i), and Gamma(g) and H(g) for g the higher of i
        and i + step, with the rank of the b into Gamma(g)."""
        full, step = self.complex(), self.complex_type.step
        p = functools.cache(full.linear_part)
        b = functools.cache(self.whitehead_b)
        gens, gam, hom = self.node_type.labels
        nodes = []
        for i in range(2, max_degree + 1):
            g = max(i, i + step)
            gd = self.gamma(g)
            h_reps = gd.complex.homology(g)[1]
            incl = full.class_matrix(g, h_reps).matmul(
                linalg.QMatrix.from_columns(gd.h_coords, len(h_reps)))
            check_exact(f"{gens}{i}", p(i), b(i))
            check_exact(f"{gam}{g}", b(g - step), incl)
            check_exact(f"{hom}{g}", incl, p(g))
            nodes.append(self.node_type(
                i, p(i).rows, incl.cols, incl.rows, linalg.rank(b(g - step)),
                linalg.rank(incl)))
        return WhiteheadReport(tuple(nodes), max_degree)

    def complex(self) -> "GradedComplex":
        if self._complex is None:
            self._complex = self.complex_type(self)
        return self._complex

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"{type(self).__name__}({self.name or gens})"


class GradedComplex:
    """Per-degree matrices and (co)homology data of a free graded model.

    Dimensions of (co)homology come from ranks alone; representatives, and
    the coordinates of classes over them, are built only on request.
    """

    step: int   # degree of the differential

    def __init__(self, model):
        self.model = model
        self._d_cache: dict[int, linalg.QMatrix] = {}
        self._rank_cache: dict[int, int] = {}
        self._squares_checked: set[int] = set()
        self._boundary_cache: dict[int, list[linalg.Vector]] = {}
        self._coh_cache: dict[int, tuple[int, list, list]] = {}
        self._class_cache: dict[int, tuple[linalg.Span, int]] = {}

    # --- bases and matrices ------------------------------------------------

    def keys(self, degree: int) -> list:
        """The basis keys of that degree, in canonical order."""
        return self.model.algebra.basis(degree)

    def dim(self, degree: int) -> int:
        return len(self.keys(degree))

    def to_coords(self, degree: int, e) -> linalg.Vector:
        z = self.model.algebra.coords(degree, e)
        if z is None:
            raise InternalInconsistency(
                f"{self.model!r}: element outside the free algebra")
        return z

    def from_coords(self, degree: int, v: Sequence[Fraction]):
        return self.model.algebra.combination(degree, v)

    def d_matrix(self, degree: int) -> linalg.QMatrix:
        """Matrix of d : degree -> degree + step in the canonical bases."""
        if degree in self._d_cache:
            return self._d_cache[degree]
        if self.model.parent is not None:
            mat = self._restricted_d_matrix(degree)
        else:
            mat = self._assemble_d_matrix(degree)
        self._d_cache[degree] = mat
        return mat

    def _assemble_d_matrix(self, degree: int) -> linalg.QMatrix:
        """d : degree -> degree + step, column by column: each basis key's
        image in coordinates, from the model's derivation."""
        der, idx = self.model.derivation(), self.model.algebra.table(
            degree + self.step).index
        ent = {}
        for c, key in enumerate(self.keys(degree)):
            try:
                z = der.key_image(key)
            except InternalInconsistency as e:
                raise InternalInconsistency(
                    f"{self.model!r}: d out of degree {degree}: {e}") from None
            for k, v in z.items():
                ent[(idx[k], c)] = v
        return linalg.QMatrix(len(idx), self.dim(degree), ent)

    def _restricted_d_matrix(self, degree: int) -> linalg.QMatrix:
        """The parent's d matrix restricted to this model's basis keys."""
        palg = self.model.parent.algebra
        pidx = palg.table(degree).index
        cols = {pidx[k]: c for c, k in enumerate(self.keys(degree))}
        pidx = palg.table(degree + self.step).index
        rows = {pidx[k]: r for r, k in enumerate(self.keys(degree + self.step))}
        ent = {}
        for (r, c), v in self.model.parent.complex().d_matrix(
                degree).entries.items():
            if c in cols:
                if r not in rows:
                    raise TruncationNotClosed(
                        f"{self.model!r}: d of a degree-{degree} basis "
                        f"element leaves the kept generators")
                ent[(rows[r], cols[c])] = v
        return linalg.QMatrix(len(rows), len(cols), ent)

    def _rank(self, degree: int) -> int:
        """rank of d : degree -> degree + step."""
        if degree not in self._rank_cache:
            self._rank_cache[degree] = linalg.rank(self.d_matrix(degree))
        return self._rank_cache[degree]

    def _check_square(self, degree: int):
        """CompositionNotZero unless d . d = 0 through ``degree``."""
        if degree not in self._squares_checked:
            if not self.d_matrix(degree).matmul(
                    self.d_matrix(degree - self.step)).is_zero():
                raise CompositionNotZero(
                    f"{self.model!r}: d.d != 0 at degree {degree}")
            self._squares_checked.add(degree)

    # --- (co)homology ------------------------------------------------------

    def boundaries(self, degree: int) -> list[linalg.Vector]:
        """A basis of the (co)boundaries of that degree: the independent
        columns of d : degree - step -> degree, in column order."""
        if degree not in self._boundary_cache:
            d_in = self.d_matrix(degree - self.step)
            self._boundary_cache[degree] = linalg.independent_subset(
                d_in.columns(), d_in.rows)
        return self._boundary_cache[degree]

    def homology(self, degree: int):
        """(dim, representative elements, their coordinate vectors)."""
        if degree in self._coh_cache:
            return self._coh_cache[degree]
        if not self.dim(degree):
            result = (0, [], [])
        else:
            self._check_square(degree)
            cycles = linalg.kernel_basis(self.d_matrix(degree))
            reps_v = linalg.quotient_representatives(
                cycles, self.boundaries(degree))
            reps = [self.from_coords(degree, v) for v in reps_v]
            result = (len(reps), reps, reps_v)
        self._coh_cache[degree] = result
        return result

    def betti(self, degree: int) -> int:
        """dim - rank d_out - rank d_in, from ranks alone."""
        if degree in self._coh_cache:
            return self._coh_cache[degree][0]
        if not self.dim(degree):
            return 0
        self._check_square(degree)
        return (self.dim(degree) - self._rank(degree)
                - self._rank(degree - self.step))

    def class_coords(self, degree: int, e) -> linalg.Vector | None:
        """Coordinates of [e] over the representatives of that degree;
        None when e is not a cycle."""
        z = self.to_coords(degree, e)
        if any(self.d_matrix(degree).apply(z)):
            return None
        if degree not in self._class_cache:
            _, _, reps_v = self.homology(degree)
            # representatives then boundaries: a basis of the cycles
            span = linalg.Span(self.dim(degree))
            for v in [*reps_v, *self.boundaries(degree)]:
                if not span.add(v):
                    raise InternalInconsistency(
                        f"{self.model!r}: representatives and boundaries of "
                        f"degree {degree} are dependent")
            self._class_cache[degree] = (span, len(reps_v))
        span, nreps = self._class_cache[degree]
        coords = span.express(z)
        if coords is None:
            raise InternalInconsistency("cycle not in span of reps + boundaries")
        return coords[:nreps]

    def class_matrix(self, degree: int, elements: Sequence) -> linalg.QMatrix:
        """The matrix whose columns are the class coordinates of
        ``elements``, which must be cycles of that degree."""
        cols = []
        for e in elements:
            coords = self.class_coords(degree, e)
            if coords is None:
                raise InternalInconsistency(
                    f"{self.model!r}: {e!r} is not a cycle of degree {degree}")
            cols.append(coords)
        return linalg.QMatrix.from_columns(cols, self.betti(degree))

    def linear_part(self, degree: int) -> linalg.QMatrix:
        """Homology of that degree -> the generators of that degree: each
        representative's coefficients on the generators."""
        gens = [g for g in self.model.generators if g.degree == degree]
        _, reps, _ = self.homology(degree)
        key = self.model.algebra.generator_key
        ent = {}
        for c, rep in enumerate(reps):
            for r, g in enumerate(gens):
                v = rep.terms.get(key(g.index))
                if v:
                    ent[(r, c)] = v
        return linalg.QMatrix(len(gens), len(reps), ent)
