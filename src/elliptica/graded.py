"""What the Sullivan and the Quillen side share: generators, sparse
elements, the free graded algebra with its derivations, validation reports,
free graded models with Gamma and the Whitehead sequence, the graded
complex with its (co)homology, and the Whitehead report.

A ``FreeAlgebra`` owns a basis table in each degree, indexed by keys
(monomials, resp. leading words of the Lie basis); an element is a sparse
combination of keys, so its terms are its coordinates.  A ``GradedComplex``
reads it for coordinates and for ``d``, which moves degree by ``step``:
+1 for cochains, -1 for chains; a subclass sets only ``step``.  Every
complex assembles its ``d`` matrices from its model's derivation over the
basis tables.

Gamma is defined once for both sides.  With M(t) the sub-model on the
generators of degree <= t,

    Gamma(k) = ker(linear part : H_k(M(k - 1 - step)) -> gens(k)),

where gens(k) are the generators of degree k.  On cochains (step = +1)
M(k - 2) has no generator of degree k, so
Gamma^k = H^k(Lambda V^(<= k - 2)) = L^k.  On chains (step = -1) it is
Gamma_k = ker(j_k : H_k(L(W_(<= k))) -> W_k).  Both Whitehead sequences
are then one sequence, gens(i) -b-> Gamma(i + step) -incl-> H(i + step)
-p-> gens(i + step), and both rho and eta are 1 + sum over k >= 2 of
(-1)^k dim Gamma(k).

Gamma(k) is read over the model's own complex wherever M(k - 1 - step)
drops no generator of degree <= k on cochains (V^(k-1) = V^k = 0), or
<= k + 1 on chains (W_(k+1) = 0): there the two complexes agree in every
degree H(k) reads, up to zero rows of d, and so do H(k), its
representatives and the linear part.  Then incl : Gamma(k) -> H(k) is
Gamma's coordinate matrix; only incl out of a ``TruncationView`` needs
representatives.  p out of a degree with no generator is the zero map from
the rank-only betti number.  Where no generator has degree k or k - step
(on cochains, wherever the complex is the model's), Gamma(k) is all of
H(k): ``betti(k)`` unit vectors, with no linear part or kernel built.

Elsewhere Gamma(k) is read over the model's decomposables, and no
sub-model is built.  The two maps d that H(k) reads start in degrees whose
bases M(k - 1 - step) lacks only the generators of (V^(k-1) and V^k on
cochains, as V^1 = 0; W_(k+1) on chains, as every |w| >= 1), and the
images of the kept keys stay in its keys, so the model's rows beyond them
are zero.  So a ``TruncationView`` of the model's complex reads d-bar_j, d
out of degree j with the columns of the generators of degree j left zero
(``GradedComplex.d_bar``): Gamma^k = ker d-bar_k / im d-bar_(k-1) on
cochains, and the kernel of the linear part on ker d_k / im d-bar_(k+1) on
chains, with the representatives in the model's coordinates and one
``Span`` per degree.  Its premises are checked at run time: a Sullivan
model with a generator of degree 1 is refused, and d of a kept generator
that leaves the kept ones raises ``TruncationNotClosed``
(``GradedModel._check_closed``).

A model's ``certified_top`` n, a proof (not a degree window) that its
(co)homology vanishes above n and the only verdict on ellipticity
(``sullivan.SullivanModel.certified_top``), caps its complex, read at one
place, ``GradedComplex._proven_zero``: the root's ``betti`` is zero above
n + 1 with no matrix built, and so is everything read off it, and dim
H(n) = 1 and dim H(n + 1) = 0 are checked at run time.  Above z = max(n +
1, max|gens| + 1) no generator reaches, so ``gamma`` is read off ``betti``
and is zero there, by no rule of its own.  Quillen models and models
without one compute every degree.

``GradedComplex.betti`` is the one memo of dim H: the root, a
``TruncationView`` (never capped) and ``quillen.DGLComplex`` (Ext) each
override only its uncached hook ``_betti_of``.

A Whitehead node i that no generator reaches, none of degree i, i + 1 or
i + step, is forced: the sub-model that holds Gamma(g), g = max(i, i +
step), drops no generator of degree <= i + 1, so Gamma(g) = H(g), incl is
the identity, p(i) maps into zero and b(g - step) out of zero, and the
three exactness checks reduce to rank(1) = h = dim H(g).  The node is read
off ``betti(g)``, which keeps its own checks, with no map built; above z
h = 0 after the certificate's check.  On chains the i + step term keeps
Gamma(i - 1), where b(i) lands, read at the lowest node.

Each map d out of a degree is one record (``_Map``) of its matrix, rank,
rows' echelon form (kept until the kernel is read off it) and kernel; d-bar
shares d's where no generator has that degree, else its kernel drops the
generators' positions, and a ``TruncationView`` reads its root's records, so
a shared map is ranked and its kernel taken once.  A degree with nonzero
(co)homology eliminates each matrix once: its kernel is read off that
echelon form, and one ``Span`` takes the columns of d into it, untracked,
then the cycles; the cycles it accepts are the representatives, and
``class_coords`` expresses over it.  A zero space or map costs nothing
beyond its ranks: no kernel or ``Span`` where the rank-only ``betti`` is 0,
no representative for an ``incl`` into a zero H(g), and no product with a
zero map in ``check_exact``.  The checks stay: d.d = 0 in every degree that
builds a matrix, as many representatives as the rank-only ``betti``,
exactness at every node a generator reaches, and the certificate's two
degrees.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from . import linalg
from .errors import (CompositionNotZero, DegreeMismatch, ExactnessFailure,
                     InternalInconsistency, NotInAlgebra, TruncationNotClosed,
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
        return type(self)._of(t)

    def __sub__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, _ZERO) - c
        return type(self)._of(t)

    def scale(self, c):
        c = Fraction(c)
        return type(self)._of({k: c * v for k, v in self.terms.items()})

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
        self._kept = frozenset(self.by_index)
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

    def require_key(self, key):
        """NotInAlgebra unless key is a basis key over these generators."""
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
                kept = self._kept.issuperset
                t = BasisTable([k for k in self._source.basis(degree)
                                if kept(self.key_generators(k))])
            self._tables[degree] = t
        return t

    def basis(self, degree: int) -> list:
        """The basis keys of that degree, in canonical order."""
        return self.table(degree).keys

    def coords(self, degree: int, e) -> linalg.SparseVector | None:
        """Coordinates of e over the basis of that degree, in the order of
        e's terms; None when e is outside the algebra."""
        z = self.key_coords(degree, e)
        if z is None:
            return None
        index = self.table(degree).index
        try:
            return {index[k]: c for k, c in z.items()}
        except KeyError:
            raise DegreeMismatch(
                f"element has a term outside degree {degree}") from None

    def combination(self, degree: int, v: linalg.SparseVector):
        """The element with the coordinates v over the basis of that
        degree."""
        keys = self.basis(degree)
        return self.element_type({keys[j]: c for j, c in v.items()})

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
    |g| + step >= 1.  A subclass gives D of one basis key from the images
    of smaller keys (``_key_image``), and ``key_image`` memoizes it.

    ``den`` is the least common denominator of the images' coefficients,
    and ``int_images`` holds each den * D(g) with int coefficients, so D of
    a basis key is computed in integers and divided by ``den`` only at the
    edge, ``__call__``.
    """

    step: int

    def __init__(self, algebra: FreeAlgebra,
                 images: Mapping[int, SparseElement]):
        self.algebra = algebra
        for idx, img in images.items():
            g = algebra.by_index.get(idx)
            if g is None:
                raise NotInAlgebra(
                    f"an image is given on generator index {idx}, which the "
                    f"algebra lacks")
            want = g.degree + self.step
            if not img.is_zero() and (
                    want < 1 or not algebra.is_homogeneous(img, want)):
                raise DegreeMismatch(
                    f"image of {g.name} is not homogeneous of degree {want}")
        self.den = den = lcm(*(c.denominator for img in images.values()
                               for c in img.terms.values()))
        self.int_images = {
            idx: {k: c.numerator * (den // c.denominator)
                  for k, c in img.terms.items()}
            for idx, img in images.items()}
        self._key_images: dict = {}

    def _key_image(self, key) -> dict:
        """den * D of the basis element with that key, as ``key_image``
        returns it, built from the images of smaller keys."""
        raise NotImplementedError

    def key_image(self, key) -> dict:
        """den * D of the basis element with that key, in int coordinates
        over the basis of degree |key| + step, memoized; must not be
        mutated."""
        z = self._key_images.get(key)
        if z is None:
            z = self._key_images[key] = self._key_image(key)
        return z

    def __call__(self, e):
        """D(e); NotInAlgebra unless every key of e is a basis key."""
        require, out = self.algebra.require_key, {}
        for k, c in e.terms.items():
            require(k)
            for kk, v in self.key_image(k).items():
                out[kk] = out.get(kk, 0) + c * v
        if self.den != 1:
            out = {k: c / self.den for k, c in out.items()}
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
    # a basis of Gamma, over the H reps of ``complex``: the model's own, or
    # a ``TruncationView`` of it that reads M(degree - 1 - step) over the
    # model's decomposables, its reps in the model's coordinates
    h_coords: list[linalg.SparseVector]
    complex: "GradedComplex"


def check_exact(node: str, incoming: linalg.QMatrix,
                outgoing: linalg.QMatrix, rank_in: int, rank_out: int):
    """ExactnessFailure unless im(incoming) = ker(outgoing) at ``node``,
    given the ranks of the two maps: the maps must meet at the node, their
    composite must vanish, and rank_in = dim(node) - rank_out.  A composite
    with a zero factor is the zero matrix, which ``QMatrix.matmul`` reads
    from the shapes with no product formed."""
    if incoming.rows != outgoing.cols:
        raise ExactnessFailure(
            f"maps do not meet at {node}: {incoming.rows} != {outgoing.cols}")
    if not outgoing.matmul(incoming).is_zero():
        raise ExactnessFailure(f"composite nonzero at {node}")
    if rank_in != incoming.rows - rank_out:
        raise ExactnessFailure(f"im != ker at {node}")


class GradedModel:
    """What the two model types share: a free algebra on the generators and
    a differential given on them.

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
                 differential: Mapping[int, SparseElement], name: str = ""):
        self.algebra = generators if isinstance(
            generators, self.algebra_type) else self.algebra_type(generators)
        self.differential = {i: e for i, e in differential.items()
                             if not e.is_zero()}
        self.name = name
        by_degree: dict[int, list[Generator]] = {}
        for g in self.algebra.generators:
            by_degree.setdefault(g.degree, []).append(g)
        self._by_degree = {d: tuple(gs) for d, gs in by_degree.items()}
        self._top_degree = max(by_degree, default=0)
        self._complex = None
        self._derivation = None
        self._gamma_cache: dict[int, GammaData] = {}
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
        """An issue for each image the derivation cannot act on: one given
        on an index that no generator has, or one ``_image_issue`` finds;
        then d(d g) = 0 for every generator g, checked only when there is
        none."""
        alg, sym = self.algebra, self.d_name
        issues = []
        for idx, img in self.differential.items():
            g = alg.by_index.get(idx)
            if g is None:
                issues.append(ValidationIssue(
                    "unknown-generator", f"index {idx}",
                    f"{sym} is given on generator index {idx}, which the "
                    f"model lacks"))
                continue
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

    def generators_of_degree(self, degree: int) -> tuple[Generator, ...]:
        """The generators of that degree, in declaration order."""
        return self._by_degree.get(degree, ())

    def max_generator_degree(self) -> int:
        return self._top_degree

    @functools.cached_property
    def certified_top(self) -> int | None:
        """The top degree n of the model's (co)homology when a proof, not a
        degree window, shows that it vanishes in every degree above n; else
        None.  Only a Sullivan model can carry one, and it caps the model's
        complex (``GradedComplex._proven_zero``)."""
        return None

    def gamma(self, k: int) -> GammaData:
        """Gamma(k), memoized: every caller gets the same GammaData, which
        must not be mutated."""
        if k not in self._gamma_cache:
            self._gamma_cache[k] = self._gamma(k)
        return self._gamma_cache[k]

    def _gamma(self, k: int) -> GammaData:
        """ker(linear part : H_k(M(k - 1 - step)) -> gens(k)), M(t) the
        sub-model on the generators of degree <= t, over the model's own
        complex where M(k - 1 - step) drops no generator of degree <= max(k,
        k - step), else over a ``TruncationView`` of it (module docstring).
        Where no generator has degree k or k - step, Gamma(k) is all of
        H(k), read off the model's ``betti`` with no linear part built."""
        step, full = self.complex_type.step, self.complex()
        if not self._by_degree.keys() & {k, k - step}:
            h = full.betti(k)
            return GammaData(k, h, [{j: _ONE} for j in range(h)], full)
        t = k - 1 - step
        if self._by_degree.keys() & range(t + 1, max(k, k - step) + 1):
            self._check_closed(t)
            tc = TruncationView(full, t)
        else:
            tc = full
        kernel = linalg.kernel_basis(tc.linear_part(k))
        return GammaData(k, len(kernel), kernel, tc)

    def _check_closed(self, k: int):
        """TruncationNotClosed when d of a generator of degree <= k involves
        a generator of higher degree, so that the generators of degree <= k
        span no sub-model; on chains d lowers degree and every letter has
        degree >= 1, so none can, and chains return at once."""
        if self.complex_type.step < 0:
            return
        alg = self.algebra
        high = {g.index for g in self.generators if g.degree > k}
        for g in self.generators:
            if g.degree <= k and any(
                    j in high for key in self.d_of_generator(g.index).terms
                    for j in alg.key_generators(key)):
                raise TruncationNotClosed(
                    f"{self!r}: d({g.name}) involves a generator of degree "
                    f"> {k}")

    def gamma_dim(self, k: int) -> int:
        """dim Gamma(k): the model's ``betti(k)`` where no generator has
        degree k or k - step, else the dimension of the linear part's
        kernel (``_gamma``)."""
        return self.gamma(k).dim

    def gamma_sum(self, top: int) -> int:
        """1 + sum over 2 <= k <= top of (-1)^k dim Gamma(k): rho on
        cochains, eta on chains."""
        return 1 + sum((-1) ** k * self.gamma_dim(k)
                       for k in range(2, top + 1))

    def whitehead_b(self, i: int) -> linalg.QMatrix:
        """The Whitehead map b : gens(i) -> Gamma(i + step), g |-> [d g]:
        a class of the complex that holds Gamma(i + step), written over
        Gamma's representatives.  Where Gamma is all of H of that complex
        (always on cochains) its linear part is zero and ``h_coords`` the
        identity, so b is the class matrix itself; else it is solved
        against Gamma's basis."""
        k = i + self.complex_type.step
        gens = self.generators_of_degree(i)
        gd = self.gamma(k)
        into_h = gd.complex.class_matrix(
            k, [self.d_of_generator(g.index) for g in gens])
        if gd.dim == into_h.rows:
            return into_h
        onto = linalg.QMatrix.from_columns(gd.h_coords, into_h.rows)
        cols = [linalg.solve(onto, col) for col in into_h.columns()]
        if None in cols:
            raise InternalInconsistency(
                f"{self!r}: b of a degree-{i} generator leaves Gamma({k})")
        return linalg.QMatrix.from_columns(cols, gd.dim)

    def whitehead_incl(self, g: int) -> linalg.QMatrix:
        """The Whitehead map incl : Gamma(g) -> H(g), over Gamma's basis and
        the model's representatives: the class coordinates, in the model,
        of the representatives of Gamma's complex, times ``h_coords``.  No
        representative is built when that complex is the model's, where
        incl is ``h_coords``, or when H(g) is zero, where incl is zero; where
        Gamma is all of H of its complex ``h_coords`` is the identity (as in
        ``whitehead_b``)."""
        full, gd = self.complex(), self.gamma(g)
        if gd.complex is full:
            return linalg.QMatrix.from_columns(gd.h_coords, full.betti(g))
        if not full.betti(g):
            return linalg.QMatrix(0, gd.dim)
        h_reps = gd.complex.homology(g)[1]
        into_h = full.class_matrix(g, h_reps)
        return into_h if gd.dim == len(h_reps) else into_h.matmul(
            linalg.QMatrix.from_columns(gd.h_coords, len(h_reps)))

    def whitehead_sequence(self, max_degree: int) -> WhiteheadReport:
        """gens(i) -b-> Gamma(i + step) -incl-> H(i + step) -p-> gens(i +
        step), checked exact at every node a generator reaches
        (ExactnessFailure on any breach).  Node i holds gens(i), and Gamma(g)
        and H(g) for g the higher of i and i + step, with the rank of the b
        into Gamma(g).

        A node with no generator of degree i, i + 1 or i + step is forced
        (module docstring): (0, h, h, 0, h), h = ``betti(g)``, no map built.
        p out of a degree with no generator and incl out of a Gamma read
        over the model's own complex need no representative.  Each map is
        built and ranked once."""
        full, step = self.complex(), self.complex_type.step
        p = functools.cache(full.linear_part)
        b = functools.cache(self.whitehead_b)
        rank_p = functools.cache(lambda i: linalg.rank(p(i)))
        rank_b = functools.cache(lambda i: linalg.rank(b(i)))
        gens, gam, hom = self.node_type.labels
        nodes = []
        for i in range(2, max_degree + 1):
            g = max(i, i + step)
            if not self._by_degree.keys() & {i, i + 1, i + step}:
                h = full.betti(g)
                nodes.append(self.node_type(i, 0, h, h, 0, h))
                continue
            incl = self.whitehead_incl(g)
            rank_incl = linalg.rank(incl)
            check_exact(f"{gens}{i}", p(i), b(i), rank_p(i), rank_b(i))
            check_exact(f"{gam}{g}", b(g - step), incl, rank_b(g - step),
                        rank_incl)
            check_exact(f"{hom}{g}", incl, p(g), rank_incl, rank_p(g))
            nodes.append(self.node_type(
                i, p(i).rows, incl.cols, incl.rows, rank_b(g - step),
                rank_incl))
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
    the coordinates of classes over them, are built only on request, and
    only in a degree whose (co)homology is not zero: a zero degree costs
    at most its two ranks and its d.d check.
    """

    step: int   # degree of the differential

    def __init__(self, model):
        self.model = model
        self._d_cache: dict[int, _Map] = {}
        self._bar_maps: dict[int, _Map] = {}
        self._squares_checked: set[int] = set()
        self._betti: dict[int, int] = {}
        self._coh_cache: dict[int, tuple[int, list, list]] = {}
        self._class_cache: dict[int, linalg.Span] = {}
        self._top_checked = False

    # --- bases and matrices ------------------------------------------------

    def keys(self, degree: int) -> list:
        """The basis keys of that degree, in canonical order."""
        return self.model.algebra.table(degree).keys

    def dim(self, degree: int) -> int:
        return len(self.model.algebra.table(degree).keys)

    def coords(self, degree: int, e) -> linalg.SparseVector:
        z = self.model.algebra.coords(degree, e)
        if z is None:
            raise InternalInconsistency(
                f"{self.model!r}: element outside the free algebra")
        return z

    def from_coords(self, degree: int, v: linalg.SparseVector):
        """The element with the coordinates v."""
        return self.model.algebra.combination(degree, v)

    def _map(self, degree: int) -> "_Map":
        """The record of d : degree -> degree + step, memoized."""
        if degree not in self._d_cache:
            self._d_cache[degree] = _Map(self._assemble_d_matrix(degree))
        return self._d_cache[degree]

    def d_matrix(self, degree: int) -> linalg.QMatrix:
        """Matrix of d : degree -> degree + step in the canonical bases,
        memoized."""
        return self._map(degree).matrix

    def _bar_map(self, degree: int) -> "_Map":
        """The record of d-bar out of that degree: d with the columns of the
        generators of that degree left zero, the map out of the
        decomposables that a ``TruncationView`` reads.  It is d's record
        where no generator has that degree, at or below a certified n + 1;
        else a record of its own, which drops the generators' positions, so
        a capped complex builds no d above n + 1."""
        rec = self._bar_maps.get(degree)
        if rec is None:
            gens = self.model.generators_of_degree(degree)
            if gens or self._proven_zero(degree):
                alg = self.model.algebra
                index = alg.table(degree).index
                drop = {index[alg.generator_key(g.index)] for g in gens}
                rec = _Map(self._assemble_d_matrix(degree, drop), drop)
            else:
                rec = self._map(degree)
            self._bar_maps[degree] = rec
        return rec

    def d_bar(self, degree: int) -> linalg.QMatrix:
        """The matrix of d-bar out of that degree (``_bar_map``)."""
        return self._bar_map(degree).matrix

    def _assemble_d_matrix(self, degree: int,
                           skip=frozenset()) -> linalg.QMatrix:
        """d : degree -> degree + step, column by column, the columns in
        ``skip`` left zero: each basis key's integer image,
        den * d(key) in coordinates, from the model's derivation, over the
        derivation's ``den``, placed by the basis table of degree + step;
        NotInAlgebra when an image has a term outside that table (the term
        is no basis key)."""
        der, idx = self.model.derivation(), self.model.algebra.table(
            degree + self.step).index
        ent = {}
        for c, key in enumerate(self.keys(degree)):
            if c in skip:
                continue
            try:
                z = der.key_image(key)
            except InternalInconsistency as e:
                raise InternalInconsistency(
                    f"{self.model!r}: d out of degree {degree}: {e}") from None
            for k, v in z.items():
                r = idx.get(k)
                if r is None:
                    raise NotInAlgebra(
                        f"{self.model!r}: d of a degree-{degree} basis "
                        f"element has the term {k}, which is no basis key of "
                        f"degree {degree + self.step}")
                ent[(r, c)] = v
        return linalg.QMatrix(len(idx), self.dim(degree), ent, der.den)

    def _check_square(self, degree: int):
        """CompositionNotZero unless d . d = 0 through ``degree``."""
        if degree not in self._squares_checked:
            if not self.d_matrix(degree).matmul(
                    self.d_matrix(degree - self.step)).is_zero():
                raise CompositionNotZero(
                    f"{self.model!r}: d.d != 0 at degree {degree}")
            self._squares_checked.add(degree)

    # --- (co)homology ------------------------------------------------------

    def _proven_zero(self, degree: int) -> bool:
        """Whether the model's ``certified_top`` n proves the (co)homology
        of that degree zero: degree > n + 1.  Degrees n and n + 1 are still
        computed, and the first True follows ``check_certified_top``."""
        top = self.model.certified_top
        if top is None or degree <= top + 1:
            return False
        self.check_certified_top()
        return True

    def check_certified_top(self):
        """InternalInconsistency unless dim H(n) = 1 and dim H(n + 1) = 0
        for the model's ``certified_top`` n, computed once."""
        if not self._top_checked:
            top = self.model.certified_top
            for k, want in ((top, 1), (top + 1, 0)):
                got = self.betti(k)
                if got != want:
                    raise InternalInconsistency(
                        f"{self.model!r}: certified top degree {top}, but "
                        f"the computed dim H({k}) = {got}, not {want}")
            self._top_checked = True

    def homology(self, degree: int):
        """(dim, representative elements, their coordinate vectors), each
        matrix eliminated once (module docstring); the representatives are
        the cycles that complement the boundaries, greedily in kernel order.
        Zero where the rank-only ``betti`` is 0, with no kernel or ``Span``
        built.  d.d = 0, checked here, makes every boundary a cycle;
        InternalInconsistency unless the representatives number ``betti``."""
        if degree in self._coh_cache:
            return self._coh_cache[degree]
        dim = self.betti(degree)
        if not dim:
            result = (0, [], [])
        else:
            self._check_square(degree)
            cycles = self._map(degree).kernel()
            span = linalg.Span(self.dim(degree),
                               self.d_matrix(degree - self.step))
            reps_v = [z for z in cycles if span.add(z)]
            if len(reps_v) != dim:
                raise InternalInconsistency(
                    f"{self.model!r}: {len(reps_v)} representatives of "
                    f"degree {degree}, but dim H({degree}) = {dim}")
            self._class_cache[degree] = span
            reps = [self.from_coords(degree, v) for v in reps_v]
            result = (dim, reps, reps_v)
        self._coh_cache[degree] = result
        return result

    def betti(self, degree: int) -> int:
        """dim H(degree), memoized: ``_betti_of``'s answer, stored once it
        returns, so a read that raises is repeated in full by the next."""
        dim = self._betti.get(degree)
        if dim is None:
            dim = self._betti[degree] = self._betti_of(degree)
        return dim

    def _betti_of(self, degree: int) -> int:
        """dim - rank d_out - rank d_in, from ranks alone; 0 with no matrix
        built above the model's ``certified_top`` + 1.  A zero degree drops
        the echelon form of d out of it, unless d-bar shares the record."""
        if self._proven_zero(degree) or not self.dim(degree):
            return 0
        self._check_square(degree)
        rec = self._map(degree)
        dim = (self.dim(degree) - rec.rank()
               - self._map(degree - self.step).rank())
        if not dim and self._bar_maps.get(degree) is not rec:
            rec.echelon = None
        return dim

    def class_coords(self, degree: int, e) -> linalg.SparseVector | None:
        """Coordinates of [e] over the representatives of that degree, read
        over the ``Span`` that ``homology`` built; None when e is not a
        cycle.  With zero (co)homology every cycle's class is 0, read with
        no ``Span`` built."""
        z = self.coords(degree, e)
        if self.d_matrix(degree).apply(z):
            return None
        if not self.betti(degree):
            return {}
        self.homology(degree)
        coords = self._class_cache[degree].express(z)
        if coords is None:
            raise InternalInconsistency(f"{self.model!r}: a cycle of degree "
                                        f"{degree} is outside the Span")
        return coords

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

    def _generators(self, degree: int) -> tuple[Generator, ...]:
        """The generators of that degree in the complex."""
        return self.model.generators_of_degree(degree)

    def linear_part(self, degree: int) -> linalg.QMatrix:
        """Homology of that degree -> the generators of that degree: each
        representative's coefficients on the generators.  With no generator
        of that degree it is the zero map from the rank-only betti number,
        and no representative is built."""
        gens = self._generators(degree)
        if not gens:
            return linalg.QMatrix(0, self.betti(degree))
        _, reps, _ = self.homology(degree)
        key = self.model.algebra.generator_key
        ent = {}
        for c, rep in enumerate(reps):
            for r, g in enumerate(gens):
                v = rep.terms.get(key(g.index))
                if v:
                    ent[(r, c)] = v
        return linalg.QMatrix(len(gens), len(reps), ent)


class _Map:
    """One map d out of a degree, eliminated once: its ``matrix``, the
    positions it ``dropped`` (its zero generator columns, on d-bar), its
    rank, the ``echelon`` form of its rows, kept from the rank until the
    kernel is read off it (or ``betti`` drops it), and its kernel on the
    kept positions."""

    __slots__ = ("matrix", "dropped", "echelon", "_rank", "_kernel")

    def __init__(self, matrix: linalg.QMatrix, dropped=frozenset()):
        self.matrix, self.dropped, self.echelon = matrix, dropped, None
        self._rank = self._kernel = None

    def rank(self) -> int:
        if self._rank is None:
            m = self.matrix
            self.echelon = linalg._Echelon() if m.entries else None
            self._rank = linalg.rank(m, self.echelon)
        return self._rank

    def kernel(self) -> list[linalg.SparseVector]:
        """A basis of the kernel on the kept positions, read off the echelon
        form, memoized: the kernel basis without the unit vectors of the
        dropped positions, in its order."""
        if self._kernel is None:
            self.rank()
            z = linalg.kernel_basis(self.matrix, self.echelon)
            self.echelon = None
            drop = self.dropped
            self._kernel = [v for v in z if not drop & v.keys()] if drop else z
        return self._kernel


class TruncationView(GradedComplex):
    """The complex of M(top), the sub-model on the generators of degree <=
    ``top``, in the degrees that H(k) reads, for k = top + 1 + step, read
    over the model's complex ``cx`` with no sub-model built (module
    docstring).  Its d out of a degree j is cx's record of d-bar_j above
    ``top`` and of d_j at or below it, so its ranks, kernels and
    coordinates are cx's.  In degree k M(top) lacks only the generators of
    degree k above ``top`` (cochains), the positions d-bar drops, so
    ``betti`` counts the decomposables there and the cycles are d-bar's on
    them: its H(k), the representatives, in cx's coordinates, and the
    linear part are M(top)'s.  Its ``betti`` is never capped."""

    def __init__(self, cx: GradedComplex, top: int):
        super().__init__(cx.model)
        self.step, self._cx, self._top = cx.step, cx, top

    def _map(self, degree: int) -> _Map:
        cx = self._cx
        return (cx._bar_map if degree > self._top else cx._map)(degree)

    def _generators(self, degree: int) -> tuple[Generator, ...]:
        return () if degree > self._top else super()._generators(degree)

    def _check_square(self, degree: int):
        """d.d = 0 through that degree: the view's two maps are blocks of
        cx's, with the same product there (the decomposables' images are
        decomposable), so cx's check covers them, except above a certified
        n + 1, where cx builds no d and the view multiplies its own."""
        if self._cx._proven_zero(degree):
            super()._check_square(degree)
        else:
            self._cx._check_square(degree)

    def _betti_of(self, degree: int) -> int:
        """M(top)'s dim - rank d_out - rank d_in by cx's ranks, never
        capped: the dropped positions are outside M(top)."""
        self._check_square(degree)
        out = self._map(degree)
        return (self.dim(degree) - len(out.dropped) - out.rank()
                - self._map(degree - self.step).rank())
