"""Span recording around elliptica's public functions, from outside src/.

``Tracer.install()`` replaces each function or method listed in ``_TARGETS``
with a wrapper that records a span (name, start, end, parent span, request
id) and bumps the counters the per-layer metrics need; ``uninstall()`` puts
the originals back.  Spans stay in memory until ``write_spans``.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Calls run on one thread, so children never overlap and
that part is the sum of the children's durations.
"""
from __future__ import annotations

import itertools
import time
import weakref
from collections import Counter, defaultdict

from elliptica import (cli, commutative, dsl, invariants, lie, linalg, quillen,
                       sullivan)

# Names of the per-layer metrics, in report order.  Every traced run prints
# all of them; a layer a workload never calls reads 0.
LAYER_METRICS = (
    "lie.lie_basis.self_s", "lie.lie_basis.words",
    "lie.lie_basis.builds_per_degree",
    "lie.lie_coords.calls", "lie.lie_coords.self_s",
    "linalg.rank.self_s", "linalg.rank.calls", "linalg.rank.cells",
    "linalg.kernel_basis.self_s", "linalg.kernel_basis.calls",
    "linalg.kernel_basis.cells",
    "linalg.solve.self_s", "linalg.solve.calls", "linalg.solve.cells",
    "linalg.span.self_s", "linalg.span.calls", "linalg.matmul.self_s",
    "commutative.basis.monomials", "commutative.basis.self_s",
    "commutative.derivation.self_s",
    "sullivan.d_matrix.self_s", "sullivan.d_matrix.nnz",
    "sullivan.d_matrix.builds_per_degree", "sullivan.cohomology.self_s",
    "sullivan.class_coords.self_s", "sullivan.whitehead_sequence.self_s",
    "quillen.d_matrix.self_s", "quillen.homology.self_s",
    "quillen.class_coords.self_s", "quillen.gamma.calls_per_degree",
    "quillen.whitehead_sequence_dgl.self_s",
    "invariants.analysis.per_request", "invariants.analysis.self_s",
    "invariants.full_ledger.self_s",
    "dsl.parse.calls", "dsl.parse.self_s", "dsl.serialize.self_s",
    "cli.main.self_s",
    "request.self_s",
)

# Metrics that count work.  They must repeat exactly between two traced runs
# of one seed; everything else is a time.
COUNT_SUFFIXES = (".calls", ".words", ".monomials", ".cells", ".nnz",
                  ".builds_per_degree", ".per_request", ".calls_per_degree")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent, request)
        self._open: list[tuple] = []     # (index, name, start, parent)
        self.request = None
        self.request_ids = itertools.count()
        self.counts: Counter = Counter()
        # (object, degree) pairs already served: the first call per pair is
        # the one that builds, later calls hit the object's own cache.
        self._seen: dict[str, weakref.WeakKeyDictionary] = defaultdict(
            weakref.WeakKeyDictionary)
        # distinct (request, degree) pairs per counter, for per-degree ratios
        self.degrees: dict[str, set] = defaultdict(set)
        self.analysis_requests: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1][0] if self._open else None
        self.spans.append(None)
        self._open.append((len(self.spans) - 1, name, time.perf_counter(),
                           parent))
        return len(self.spans) - 1

    def end(self, idx: int):
        end = time.perf_counter()
        _, name, start, parent = self._open.pop()
        # A tuple of atoms, which the garbage collector stops tracking, so
        # that a long trace does not slow every later collection.
        self.spans[idx] = (name, start, end, parent, self.request)

    def first_build(self, kind: str, obj, degree: int) -> bool:
        seen = self._seen[kind].setdefault(obj, set())
        if degree in seen:
            return False
        seen.add(degree)
        return True

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return totals

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{'' if parent is None else parent}\t{request}\n")

    # --- installing the wrappers ------------------------------------------

    def install(self):
        for owner, attr, name, count in _TARGETS:
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(self, name, original, count))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything recorded so far."""
        selfs = self.self_times()
        c = self.counts
        out = {}
        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = selfs.get(span, 0.0)
            elif field in ("builds_per_degree", "calls_per_degree"):
                pairs = len(self.degrees[span])
                done = c[f"{span}.{field.split('_')[0]}"]
                out[metric] = done / pairs if pairs else 0.0
            elif field == "per_request":
                reqs = len(self.analysis_requests)
                out[metric] = c[span + ".calls"] / reqs if reqs else 0.0
            else:
                out[metric] = c[metric]
        return out


def _wrap(tracer: Tracer, name: str, fn, count):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, name, args, result)
            return result
        finally:
            tracer.end(idx)
    wrapper.__wrapped__ = fn
    return wrapper


# --- counters ------------------------------------------------------------------

def _calls(tr, name, args, result):
    tr.counts[name + ".calls"] += 1


def _matrix_calls(tr, name, args, result):
    m = args[0]
    tr.counts[name + ".calls"] += 1
    tr.counts[name + ".cells"] += m.rows * m.cols


def _lie_basis(tr, name, args, result):
    lie_alg, degree = args[0], args[1]
    tr.degrees[name].add((tr.request, degree))
    if tr.first_build(name, lie_alg, degree):
        tr.counts[name + ".builds"] += 1
        tr.counts[name + ".words"] += len(lie_alg.words(degree))


def _monomial_basis(tr, name, args, result):
    if tr.first_build(name, args[0], args[1]):
        tr.counts[name + ".monomials"] += len(result)


def _d_matrix(tr, name, args, result):
    cx, degree = args[0], args[1]
    tr.degrees[name].add((tr.request, degree))
    if tr.first_build(name, cx, degree):
        tr.counts[name + ".builds"] += 1
        tr.counts[name + ".nnz"] += len(result.entries)


def _gamma(tr, name, args, result):
    tr.counts[name + ".calls"] += 1
    tr.degrees[name].add((tr.request, args[1]))


def _analysis(tr, name, args, result):
    tr.counts[name + ".calls"] += 1
    tr.analysis_requests.add(tr.request)


_TARGETS = (
    (lie.FreeLie, "lie_basis_with_seqs", "lie.lie_basis", _lie_basis),
    (lie.FreeLie, "lie_coords", "lie.lie_coords", _calls),
    (linalg, "rank", "linalg.rank", _matrix_calls),
    (linalg, "kernel_basis", "linalg.kernel_basis", _matrix_calls),
    (linalg, "solve", "linalg.solve", _matrix_calls),
    (linalg.Span, "add", "linalg.span", _calls),
    (linalg.Span, "express", "linalg.span", _calls),
    (linalg.Span, "contains", "linalg.span", _calls),
    (linalg.QMatrix, "matmul", "linalg.matmul", None),
    (commutative.Algebra, "basis", "commutative.basis", _monomial_basis),
    (commutative.Derivation, "__call__", "commutative.derivation", None),
    (sullivan.CochainComplex, "d_matrix", "sullivan.d_matrix", _d_matrix),
    (sullivan.CochainComplex, "cohomology", "sullivan.cohomology", None),
    (sullivan.CochainComplex, "class_coords", "sullivan.class_coords", None),
    (sullivan, "whitehead_sequence", "sullivan.whitehead_sequence", None),
    (quillen.DGLComplex, "d_matrix", "quillen.d_matrix", None),
    (quillen.DGLComplex, "homology", "quillen.homology", None),
    (quillen.DGLComplex, "class_coords", "quillen.class_coords", None),
    (quillen, "gamma", "quillen.gamma", _gamma),
    (quillen, "whitehead_sequence_dgl", "quillen.whitehead_sequence_dgl",
     None),
    (invariants.SullivanAnalysis, "__init__", "invariants.analysis",
     _analysis),
    (invariants, "full_ledger", "invariants.full_ledger", None),
    (dsl, "parse", "dsl.parse", _calls),
    (dsl, "serialize", "dsl.serialize", None),
    (cli, "main", "cli.main", None),
)
