"""The readout with no zero shortcut and no shared elimination: the oracle
for the zero degrees and the one-``Span`` readout of
``elliptica.graded.GradedComplex``, for the forced Whitehead nodes and the
certified zero tail of ``elliptica.graded.GradedModel``, and for where it
reads Gamma.

``homology`` here builds the kernel, the boundaries and the quotient in
every degree that has a basis, each on its own elimination: the kernel of
d out of the degree, the boundaries as the independent columns of d into
it (``independent_columns``), and the representatives as the cycles that
complement the boundaries (``quotient_representatives``, which raises
``NotASubspace`` on a boundary outside the span of the cycles).
``class_coords`` builds the ``Span`` of the representatives and then the
boundaries, even where the rank-only betti number is 0; both raise on the
consistency checks that the shortcut skips.  Above a model's certified top
degree plus one the (co)homology is zero by proof, as in the engine.
``whitehead_sequence`` builds the maps of every node and checks it exact,
and ``_gamma`` builds the truncation (``truncate``), the linear part and
its kernel in every degree: where no generator has degree k or k - step
too, the certified zero tail among them, where the engine reads Gamma(k)
off ``betti``, and where the truncation agrees with the model.  ``whitehead_incl`` builds the
representatives of a proper truncation even where the model's
(co)homology is zero.
``full_path(monkeypatch)`` puts all five on ``GradedComplex`` and
``GradedModel``.

``truncate(model, k)`` is the sub-model on the generators of degree <= k,
built as a model of its own, which the engine's ``TruncationView`` reads
with no model built.  ``restricted_d_matrix`` is the reference for a
truncation's ``d``: the model's matrix restricted to the truncation's basis
keys, which the truncation's own assembly must equal.
"""
import functools
from fractions import Fraction

from elliptica import linalg
from elliptica.errors import (EllipticaError, InternalInconsistency,
                              TruncationNotClosed)
from elliptica.graded import (GammaData, GradedComplex, GradedModel,
                              WhiteheadReport, check_exact)


class NotASubspace(EllipticaError):
    """A claimed boundary vector is outside the span of the cycles."""


def independent_columns(m):
    """The greedy maximal independent subset of m's columns, in column
    order.  The stored integer columns enter the elimination as they are;
    only the kept ones become Fraction vectors.  A matrix with no entries
    has none."""
    if not m.entries:
        return []
    by_col = {}
    for (r, c), v in m.entries.items():
        by_col.setdefault(c, {})[r] = v
    ech = linalg._Echelon()
    return [{r: Fraction(v, m.den) for r, v in sorted(by_col[c].items())}
            for c in sorted(by_col) if ech.add(by_col[c])]


def quotient_representatives(cycles, boundaries):
    """The cycles complementing span(boundaries) inside span(cycles): the
    greedy subset, in order and as given; NotASubspace on a boundary
    outside span(cycles)."""
    rows = [linalg._int_row(z)[0] for z in cycles]
    cycle_span = linalg._Echelon()
    for row in rows:
        cycle_span.add(row)
    span = linalg._Echelon()
    for b in boundaries:
        row = linalg._int_row(b)[0]
        if cycle_span.reduce(row)[2] is not None:
            raise NotASubspace("boundary vector outside span of cycles")
        span.add(row)
    return [z for z, row in zip(cycles, rows) if span.add(row)]


def boundaries(cx, degree):
    """A basis of the (co)boundaries of that degree: the independent
    columns of d : degree - step -> degree, in column order."""
    return independent_columns(cx.d_matrix(degree - cx.step))


def truncate(model, k):
    """The sub-model on the generators of degree <= k (indices preserved),
    over the model's basis tables restricted (``source``); the model itself
    when that keeps every generator.  TruncationNotClosed when d of a kept
    generator leaves the kept ones.  The truncation computes every degree
    by elimination: no certificate caps it and no resolution reads its
    homology."""
    if k >= model.max_generator_degree():
        return model
    model._check_closed(k)
    keep = [g for g in model.generators if g.degree <= k]
    kept = {g.index for g in keep}
    t = type(model)(
        model.algebra_type(keep, source=model.algebra),
        {i: e for i, e in model.differential.items() if i in kept},
        name=f"{model.name}[<={k}]" if model.name else "")
    # set over the cached properties, so they are never computed
    vars(t).update(certified_top=None, resolution=None)
    return t


def restricted_d_matrix(model, cx, degree):
    """The d matrix of ``model`` out of that degree restricted to the basis
    keys of ``cx``, the complex of a truncation of it; TruncationNotClosed
    when a kept column has an entry in a dropped row."""
    palg = model.algebra
    pidx = palg.table(degree).index
    cols = {pidx[k]: c for c, k in enumerate(cx.keys(degree))}
    pidx = palg.table(degree + cx.step).index
    rows = {pidx[k]: r for r, k in enumerate(cx.keys(degree + cx.step))}
    pmat = model.complex().d_matrix(degree)
    ent = {}
    for (r, c), v in pmat.entries.items():
        if c in cols:
            if r not in rows:
                raise TruncationNotClosed(
                    f"{cx.model!r}: d of a degree-{degree} basis element "
                    f"leaves the kept generators")
            ent[(rows[r], cols[c])] = v
    return linalg.QMatrix(len(rows), len(cols), ent, pmat.den)


def homology(self, degree):
    if degree in self._coh_cache:
        return self._coh_cache[degree]
    if self._proven_zero(degree) or not self.dim(degree):
        result = (0, [], [])
    else:
        self._check_square(degree)
        cycles = linalg.kernel_basis(self.d_matrix(degree))
        reps_v = quotient_representatives(cycles, boundaries(self, degree))
        reps = [self.from_coords(degree, v) for v in reps_v]
        result = (len(reps), reps, reps_v)
    self._coh_cache[degree] = result
    return result


def class_coords(self, degree, e):
    z = self.coords(degree, e)
    if self.d_matrix(degree).apply(z):
        return None
    if degree not in self._class_cache:
        _, _, reps_v = self.homology(degree)
        span = linalg.Span(self.dim(degree))
        for v in [*reps_v, *boundaries(self, degree)]:
            if not span.add(v):
                raise InternalInconsistency("reps and boundaries dependent")
        self._class_cache[degree] = (span, len(reps_v))
    span, nreps = self._class_cache[degree]
    coords = span.express(z)
    if coords is None:
        raise InternalInconsistency("cycle not in span of reps + boundaries")
    return {j: c for j, c in coords.items() if j < nreps}


def _gamma(self, k):
    tc = truncate(self, k - 1 - self.complex_type.step).complex()
    kernel = linalg.kernel_basis(tc.linear_part(k))
    return GammaData(k, len(kernel), kernel, tc)


def whitehead_incl(self, g):
    full, gd = self.complex(), self.gamma(g)
    if gd.complex is full:
        return linalg.QMatrix.from_columns(gd.h_coords, full.betti(g))
    h_reps = gd.complex.homology(g)[1]
    return full.class_matrix(g, h_reps).matmul(
        linalg.QMatrix.from_columns(gd.h_coords, len(h_reps)))


def whitehead_sequence(self, max_degree):
    full, step = self.complex(), self.complex_type.step
    p = functools.cache(full.linear_part)
    b = functools.cache(self.whitehead_b)
    rank_p = functools.cache(lambda i: linalg.rank(p(i)))
    rank_b = functools.cache(lambda i: linalg.rank(b(i)))
    gens, gam, hom = self.node_type.labels
    nodes = []
    for i in range(2, max_degree + 1):
        g = max(i, i + step)
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


def full_path(monkeypatch):
    """Run ``GradedComplex`` and ``GradedModel`` on the oracle from here
    on."""
    monkeypatch.setattr(GradedComplex, "homology", homology)
    monkeypatch.setattr(GradedComplex, "class_coords", class_coords)
    monkeypatch.setattr(GradedModel, "_gamma", _gamma)
    monkeypatch.setattr(GradedModel, "whitehead_incl", whitehead_incl)
    monkeypatch.setattr(GradedModel, "whitehead_sequence", whitehead_sequence)
