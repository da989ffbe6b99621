"""Free graded Lie algebra L(W) embedded in the tensor algebra T(W).

Elements are sparse combinations of tensor words (tuples of generator
indices).  The per-degree Lie basis is the Lyndon basis of the free Lie
superalgebra, parity being degree mod 2: the standard bracketing b(w) of
every Lyndon word w over the generator indices, plus [b(u), b(u)] for every
Lyndon word u of odd degree (Reutenauer, *Free Lie Algebras*, Ch. 4-5).
Each basis element has its own leading word -- its smallest tensor word, w
resp. uu -- so coordinates come from triangular peeling and membership in
L(W) needs no elimination.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import DegreeMismatch, InternalInconsistency
from .graded import FreeAlgebra, Generator, GradedDerivation, SparseElement

_ZERO = Fraction(0)
_ONE = Fraction(1)

Word = tuple[int, ...]  # generator indices, tensor factors left to right
# A bracket tree: a generator index, or a pair (left, right) for [left, right].
Tree = int | tuple

LieGenerator = Generator


class LieElement(SparseElement):
    """Sparse rational combination of tensor words."""

    __slots__ = ()


class LieDerivation(GradedDerivation):
    """Degree -1 derivation of T(W) restricting to the bracket Leibniz rule."""

    step = -1

    def _apply(self, w: Word, c: Fraction, out: dict[Word, Fraction]):
        """out += c * D(w)."""
        prefix_deg = 0
        for j, idx in enumerate(w):
            img = self.images.get(idx)
            if img is not None:
                sc = -c if prefix_deg % 2 else c
                for u, v in img.terms.items():
                    word = w[:j] + u + w[j + 1:]
                    out[word] = out.get(word, _ZERO) + sc * v
            prefix_deg += self.algebra.by_index[idx].degree


class FreeLie(FreeAlgebra):
    """The free graded Lie algebra on a list of generators.

    Its basis keys are the leading words of the Lie basis.  With ``source``
    given, the restricted tables keep the basis elements whose leading word
    uses only these generators: the Lyndon basis of a sub-alphabet is the
    part of the full Lyndon basis over that alphabet.
    """

    element_type = LieElement
    derivation_type = LieDerivation

    def __init__(self, generators: Sequence[Generator],
                 source: "FreeLie | None" = None):
        super().__init__(generators, source)
        self._word_cache: dict[int, list[Word]] = {}
        # degree -> Lyndon words of that degree, ascending
        self._lyndon_cache: dict[int, list[Word]] = {}
        # Lyndon word of length >= 2 -> its standard factorization (u, v);
        # shared with the source, whose tables a restriction reads
        self._factor: dict[Word, tuple[Word, Word]] = (
            {} if source is None else source._factor)
        # Lyndon word -> tensor expansion of its standard bracketing b(w)
        self._expansion: dict[Word, LieElement] = {}

    def key_degree(self, w: Word) -> int:
        return sum(self.by_index[i].degree for i in w)

    def generator_key(self, index: int) -> Word:
        return (index,)

    def key_generators(self, w: Word) -> Word:
        return w

    def key_str(self, w: Word) -> str:
        def fmt(t: Tree) -> str:
            if isinstance(t, int):
                return self.by_index[t].name
            return f"[{fmt(t[0])},{fmt(t[1])}]"
        return fmt(self._tree(w))

    # --- bracket -----------------------------------------------------------

    def bracket(self, a: LieElement, b: LieElement) -> LieElement:
        """[a, b] = a (x) b - (-1)^(|a||b|) b (x) a, extended bilinearly."""
        out: dict[Word, Fraction] = {}
        bs = [(wb, cb, self.key_degree(wb) % 2) for wb, cb in b.terms.items()]
        for wa, ca in a.terms.items():
            odd_a = self.key_degree(wa) % 2
            for wb, cb, odd_b in bs:
                c = ca * cb
                w1 = wa + wb
                out[w1] = out.get(w1, _ZERO) + c
                w2 = wb + wa
                out[w2] = out.get(w2, _ZERO) + (c if odd_a and odd_b else -c)
        return LieElement._of(out)

    # --- tensor-word bases -------------------------------------------------

    def words(self, degree: int) -> list[Word]:
        """All tensor words of the given degree, lexicographic by index."""
        if degree in self._word_cache:
            return self._word_cache[degree]
        out: list[Word] = []
        gens = sorted(self.generators, key=lambda g: g.index)

        def rec(remaining: int, acc: list[int]):
            if remaining == 0:
                out.append(tuple(acc))
                return
            for g in gens:
                if g.degree <= remaining:
                    acc.append(g.index)
                    rec(remaining - g.degree, acc)
                    acc.pop()

        if degree >= 1:
            rec(degree, [])
        self._word_cache[degree] = out
        return out

    def to_coords(self, degree: int, e: LieElement) -> linalg.Vector:
        idx = {w: j for j, w in enumerate(self.words(degree))}
        v = [_ZERO] * len(idx)
        for w, c in e.terms.items():
            if w not in idx:
                raise DegreeMismatch(f"word outside degree {degree}")
            v[idx[w]] = c
        return tuple(v)

    # --- Lyndon words ------------------------------------------------------

    def _lyndon(self, degree: int) -> list[Word]:
        """Lyndon words of the degree, built from standard factorizations.

        w = uv with u, v Lyndon is Lyndon with standard factorization (u, v)
        exactly when u < v and u is a letter or the right factor of u's own
        standard factorization is >= v; every Lyndon word of length >= 2
        arises once this way.
        """
        if degree in self._lyndon_cache:
            return self._lyndon_cache[degree]
        out = [(g.index,) for g in self.generators if g.degree == degree]
        for du in range(1, degree):
            vs = self._lyndon(degree - du)
            for u in self._lyndon(du):
                fu = self._factor.get(u)
                for v in vs:
                    if u < v and (fu is None or fu[1] >= v):
                        w = u + v
                        self._factor[w] = (u, v)
                        out.append(w)
        out.sort()
        self._lyndon_cache[degree] = out
        return out

    def _tree(self, w: Word) -> Tree:
        """The bracket tree of the basis element with leading word w: b(w)
        for Lyndon w, [b(u), b(u)] for w = uu."""
        if len(w) == 1:
            return w[0]
        u, v = self._factor.get(w) or (w[:len(w) // 2],) * 2
        return (self._tree(u), self._tree(v))

    def _standard_bracket(self, w: Word) -> LieElement:
        """b(w) expanded in the tensor algebra, memoized."""
        e = self._expansion.get(w)
        if e is None:
            f = self._factor.get(w)
            if f is None:
                e = LieElement({w: _ONE})
            else:
                e = self.bracket(self._standard_bracket(f[0]),
                                 self._standard_bracket(f[1]))
            self._expansion[w] = e
        return e

    # --- Lie bases ---------------------------------------------------------

    def _enumerate(self, degree: int):
        """The leading words, ascending, and their basis elements: b(w) for
        each Lyndon word w, and [b(u), b(u)] for each Lyndon word u of odd
        degree degree/2."""
        entries = [(w, self._standard_bracket(w)) for w in self._lyndon(degree)]
        half = degree // 2
        if degree % 2 == 0 and half % 2:
            for u in self._lyndon(half):
                b = self._standard_bracket(u)
                entries.append((u + u, self.bracket(b, b)))
        entries.sort(key=lambda x: x[0])
        for w, e in entries:
            if e.is_zero() or min(e.terms) != w:
                raise InternalInconsistency(
                    f"Lyndon basis element with leading word {w} is not "
                    f"triangular in degree {degree}")
        return [w for w, _ in entries], [e for _, e in entries]

    def lie_basis_with_seqs(self, degree: int):
        """(basis elements, their bracket trees) for L_degree.

        A tree is a generator index or a pair (left, right) standing for
        [left, right]; elements are ordered by ascending leading word.
        """
        t = self.table(degree)
        return t.elements, [self._tree(w) for w in t.keys]

    def lie_basis(self, degree: int) -> list[LieElement]:
        return self.table(degree).elements

    def lie_dim(self, degree: int) -> int:
        return len(self.lie_basis(degree))

    def is_lie(self, e: LieElement) -> bool:
        """Whether e, homogeneous of degree >= 1, lies in L(W), with no basis:
        by the Dynkin-Specht-Wever criterion, iff the left-normed brackets
        [...[x1, x2], ..., xn] of its words, each over its length, sum to e."""
        total = LieElement()
        for w, c in e.terms.items():
            t = LieElement({w[:1]: c / len(w)})
            for i in w[1:]:
                t = self.bracket(t, LieElement({(i,): _ONE}))
            total = total + t
        return total == e

    def key_coords(self, degree: int, e: LieElement) -> dict | None:
        """Coefficients over lie_basis(degree), keyed by leading word; None
        if e is outside L(W).

        Peels basis elements off by ascending leading word: the smallest word
        left must be a leading word, else e is not in L(W).
        """
        t = self.table(degree)
        idx, basis = t.index, t.elements
        coords = {}
        rest = dict(e.terms)
        heap = list(rest)
        heapq.heapify(heap)
        while heap:
            w = heapq.heappop(heap)
            c = rest.pop(w)
            if not c:
                continue
            j = idx.get(w)
            if j is None:
                if not self.is_homogeneous(e, degree):
                    raise DegreeMismatch(f"word outside degree {degree}")
                return None
            b = basis[j]
            k = c / b.terms[w]
            coords[w] = k
            # every other word of b is larger than w, so a word once popped
            # never comes back
            for x, v in b.terms.items():
                if x != w:
                    old = rest.get(x)
                    if old is None:
                        rest[x] = -k * v
                        heapq.heappush(heap, x)
                    else:
                        rest[x] = old - k * v
        return coords

    lie_coords = FreeAlgebra.coords
