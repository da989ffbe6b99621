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

    With ``source`` given, the Lie bases are the source's, restricted to the
    basis elements whose leading word uses only these generators: the
    Lyndon basis of a sub-alphabet is the part of the full Lyndon basis over
    that alphabet.
    """

    element_type = LieElement
    derivation_type = LieDerivation

    def __init__(self, generators: Sequence[Generator],
                 source: "FreeLie | None" = None):
        super().__init__(generators, source)
        self._word_cache: dict[int, list[Word]] = {}
        # degree -> Lyndon words of that degree, ascending
        self._lyndon_cache: dict[int, list[Word]] = {}
        # Lyndon word of length >= 2 -> its standard factorization (u, v)
        self._factor: dict[Word, tuple[Word, Word]] = {}
        # Lyndon word -> tensor expansion of its standard bracketing b(w)
        self._expansion: dict[Word, LieElement] = {}
        # degree -> (basis, bracket trees, leading words)
        self._lie_cache: dict[int, tuple[list[LieElement], list[Tree],
                                         list[Word]]] = {}
        # degree -> {leading word: (basis position, coefficient)}
        self._lead: dict[int, dict[Word, tuple[int, Fraction]]] = {}

    def key_degree(self, w: Word) -> int:
        return sum(self.by_index[i].degree for i in w)

    def generator_key(self, index: int) -> Word:
        return (index,)

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
        f = self._factor.get(w)
        return w[0] if f is None else (self._tree(f[0]), self._tree(f[1]))

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

    def _build_basis(self, degree: int):
        entries = []   # (leading word, tree, element)
        for w in self._lyndon(degree):
            entries.append((w, self._tree(w), self._standard_bracket(w)))
        half = degree // 2
        if degree % 2 == 0 and half % 2:
            for u in self._lyndon(half):
                b = self._standard_bracket(u)
                t = self._tree(u)
                entries.append((u + u, (t, t), self.bracket(b, b)))
        entries.sort(key=lambda x: x[0])
        for w, _, e in entries:
            if e.is_zero() or min(e.terms) != w:
                raise InternalInconsistency(
                    f"Lyndon basis element with leading word {w} is not "
                    f"triangular in degree {degree}")
        return ([e for _, _, e in entries], [t for _, t, _ in entries],
                [w for w, _, _ in entries])

    def _restrict_basis(self, degree: int):
        basis, trees, leads = self._source._basis_tables(degree)
        keep = [j for j, w in enumerate(leads)
                if all(i in self.by_index for i in w)]
        return ([basis[j] for j in keep], [trees[j] for j in keep],
                [leads[j] for j in keep])

    def _basis_tables(self, degree: int):
        if degree not in self._lie_cache:
            tables = (self._restrict_basis(degree) if self._source is not None
                      else self._build_basis(degree))
            basis, _, leads = tables
            self._lie_cache[degree] = tables
            self._lead[degree] = {w: (j, basis[j].terms[w])
                                  for j, w in enumerate(leads)}
        return self._lie_cache[degree]

    def lie_basis_with_seqs(self, degree: int):
        """(basis elements, their bracket trees) for L_degree.

        A tree is a generator index or a pair (left, right) standing for
        [left, right]; elements are ordered by ascending leading word.
        """
        basis, trees, _ = self._basis_tables(degree)
        return basis, trees

    def lie_basis(self, degree: int) -> list[LieElement]:
        return self.lie_basis_with_seqs(degree)[0]

    def lie_dim(self, degree: int) -> int:
        return len(self.lie_basis(degree))

    def leading_words(self, degree: int) -> list[Word]:
        """The leading words of lie_basis(degree), in basis order."""
        return self._basis_tables(degree)[2]

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

    def lie_coords(self, degree: int, e: LieElement) -> linalg.Vector | None:
        """Coordinates over lie_basis(degree), None if e is outside L(W).

        Peels basis elements off by ascending leading word: the smallest word
        left must be a leading word, else e is not in L(W).
        """
        basis = self.lie_basis(degree)
        lead = self._lead[degree]
        coords = [_ZERO] * len(basis)
        rest = dict(e.terms)
        heap = list(rest)
        heapq.heapify(heap)
        while heap:
            w = heapq.heappop(heap)
            c = rest.pop(w)
            if not c:
                continue
            hit = lead.get(w)
            if hit is None:
                if not self.is_homogeneous(e, degree):
                    raise DegreeMismatch(f"word outside degree {degree}")
                return None
            j, lc = hit
            k = c / lc
            coords[j] = k
            # every other word of basis[j] is larger than w, so a word once
            # popped never comes back
            for x, v in basis[j].terms.items():
                if x != w:
                    old = rest.get(x)
                    if old is None:
                        rest[x] = -k * v
                        heapq.heappush(heap, x)
                    else:
                        rest[x] = old - k * v
        return tuple(coords)

    def from_lie_coords(self, degree: int, coords) -> LieElement:
        out: dict[Word, Fraction] = {}
        for c, b in zip(coords, self.lie_basis(degree)):
            if c:
                for w, v in b.terms.items():
                    out[w] = out.get(w, _ZERO) + c * v
        return LieElement._of(out)
