"""Free graded Lie algebra L(W), worked in the coordinates of its Lyndon
basis.

The per-degree basis is the Lyndon basis of the free Lie superalgebra,
parity being degree mod 2: the standard bracketing b(w) of every Lyndon
word w over the generator indices, plus [b(u), b(u)] for every Lyndon word u
of odd degree (Reutenauer, *Free Lie Algebras*, Ch. 4-5).  Each basis
element is keyed by its leading word -- its smallest tensor word, w resp.
uu.  The bracket of two basis elements is read from memoized structure
constants, got by Hall rewriting on the standard factorization, and a
derivation acts on a basis element by the Leibniz rule over them; so the
differential's matrices are built in coordinates, with no tensor algebra.

Elements are sparse combinations of tensor words (tuples of generator
indices) in T(W), which now serves only input, validation and the test
oracle: parsing builds elements there, ``is_lie`` and delta-squared of the
generator images are checked there, the element-level derivation acts
there, and coordinates come from triangular peeling, since every basis
element has its own leading word.  A basis element's tensor expansion is
built only when asked for.
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
# Coordinates: basis key -> nonzero coefficient.
Coords = dict[Word, "int | Fraction"]

LieGenerator = Generator


class LieElement(SparseElement):
    """Sparse rational combination of tensor words."""

    __slots__ = ()


class LieDerivation(GradedDerivation):
    """Degree -1 derivation of T(W) restricting to the bracket Leibniz rule."""

    step = -1

    def __init__(self, algebra: FreeLie, images):
        super().__init__(algebra, images)
        self._key_images: dict[Word, Coords] = {}

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

    def key_image(self, w: Word) -> Coords:
        """D of the basis element keyed w, in coordinates, memoized: a
        generator's image is peeled once; then D[b(u), b(v)] = [D b(u), b(v)]
        + (-1)^|u| [b(u), D b(v)] on the standard factorization (u, v), and
        D[b(u), b(u)] = 2 [D b(u), b(u)] on a square."""
        z = self._key_images.get(w)
        if z is None:
            alg = self.algebra
            f = alg.split(w)
            if f is None:
                img = self.images.get(w[0])
                z = {} if img is None else alg.key_coords(
                    alg.key_degree(w) - 1, img)
                if z is None:
                    raise InternalInconsistency(
                        f"the image of {alg.by_index[w[0]].name} is outside "
                        f"L(W)")
            else:
                u, v = f
                out: dict = {}
                if u == v:
                    alg.bracket_into(out, self.key_image(u), {u: 2})
                else:
                    alg.bracket_into(out, self.key_image(u), {v: 1})
                    alg.bracket_into(out, {u: -1 if alg.key_degree(u) % 2
                                           else 1}, self.key_image(v))
                z = _nonzero(out)
            self._key_images[w] = z
        return z


def _nonzero(out: dict) -> dict:
    return {k: c for k, c in out.items() if c}


class FreeLie(FreeAlgebra):
    """The free graded Lie algebra on a list of generators.

    Its basis keys are the leading words of the Lie basis.  With ``source``
    given, the restricted tables keep the basis elements whose leading word
    uses only these generators: the Lyndon basis of a sub-alphabet is the
    part of the full Lyndon basis over that alphabet.  A restriction shares
    its source's factorizations, expansions and structure constants.
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
        self._factor: dict[Word, tuple[Word, Word]] = (
            {} if source is None else source._factor)
        # basis key -> tensor expansion of its basis element
        self._expansion: dict[Word, LieElement] = (
            {} if source is None else source._expansion)
        # (p, q) -> [B_p, B_q] over the basis keys, int coefficients
        self._brackets: dict[tuple[Word, Word], Coords] = (
            {} if source is None else source._brackets)

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

    # --- bracket in T(W) ----------------------------------------------------

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

    def split(self, w: Word) -> tuple[Word, Word] | None:
        """The keys (u, v) with [B_u, B_v] the basis element keyed w: the
        standard factorization of a Lyndon w, (u, u) for a square w = uu;
        None for a letter.  w's degree must have been enumerated."""
        if len(w) == 1:
            return None
        return self._factor.get(w) or (w[:len(w) // 2],) * 2

    def _tree(self, w: Word) -> Tree:
        """The bracket tree of the basis element with leading word w: b(w)
        for Lyndon w, [b(u), b(u)] for w = uu."""
        f = self.split(w)
        return w[0] if f is None else (self._tree(f[0]), self._tree(f[1]))

    # --- Lie bases ---------------------------------------------------------

    def _enumerate(self, degree: int) -> list[Word]:
        """The leading words, ascending: each Lyndon word w, and uu for each
        Lyndon word u of odd degree degree/2."""
        keys = list(self._lyndon(degree))
        half = degree // 2
        if degree % 2 == 0 and half % 2:
            keys += [u + u for u in self._lyndon(half)]
        return sorted(keys)

    def key_element(self, w: Word) -> LieElement:
        """The basis element keyed w, expanded in T(W) and memoized;
        InternalInconsistency unless w is its smallest word."""
        e = self._expansion.get(w)
        if e is None:
            f = self.split(w)
            e = LieElement({w: _ONE}) if f is None else self.bracket(
                self.key_element(f[0]), self.key_element(f[1]))
            self._expansion[w] = e
        if e.is_zero() or min(e.terms) != w:
            raise InternalInconsistency(
                f"Lyndon basis element with leading word {w} is not "
                f"triangular in degree {self.key_degree(w)}")
        return e

    def lie_basis_with_seqs(self, degree: int):
        """(basis elements, their bracket trees) for L_degree.

        A tree is a generator index or a pair (left, right) standing for
        [left, right]; elements are ordered by ascending leading word.
        """
        return (self.lie_basis(degree),
                [self._tree(w) for w in self.basis(degree)])

    def lie_basis(self, degree: int) -> list[LieElement]:
        return [self.key_element(w) for w in self.basis(degree)]

    def lie_dim(self, degree: int) -> int:
        return len(self.basis(degree))

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
        idx = self.table(degree).index
        coords = {}
        rest = dict(e.terms)
        heap = list(rest)
        heapq.heapify(heap)
        while heap:
            w = heapq.heappop(heap)
            c = rest.pop(w)
            if not c:
                continue
            if w not in idx:
                if not self.is_homogeneous(e, degree):
                    raise DegreeMismatch(f"word outside degree {degree}")
                return None
            b = self.key_element(w)
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

    # --- structure constants -----------------------------------------------

    def key_bracket(self, p: Word, q: Word) -> Coords:
        """[B_p, B_q] over the basis keys, with int coefficients, memoized;
        must not be mutated."""
        z = self._brackets.get((p, q))
        if z is None:
            z = self._brackets[(p, q)] = self._rewrite(p, q)
        return z

    def _rewrite(self, p: Word, q: Word) -> Coords:
        """[B_p, B_q] by Hall rewriting on the standard factorization, with
        the super signs (Reutenauer, Ch. 4-5)."""
        dp, dq = self.key_degree(p), self.key_degree(q)
        self._lyndon(dp + dq)       # every factorization up to that degree
        if p > q:   # [x, y] = -(-1)^(|x||y|) [y, x]
            s = 1 if dp % 2 and dq % 2 else -1
            return {k: s * c for k, c in self.key_bracket(q, p).items()}
        if p == q:  # [x, x] = 0 for even x; a square key for odd Lyndon x
            return {p + p: 1} if dp % 2 else {}
        out: dict = {}
        fq = self.split(q)
        if fq is not None and fq[0] == fq[1]:
            u = fq[0]
            if p == u:      # [b(u), [b(u), b(u)]] = 0 by the Jacobi identity
                return {}
            # [x, [b(u), b(u)]] = 2 [[x, b(u)], b(u)] for odd u
            self.bracket_into(out, self.key_bracket(p, u), {u: 2})
            return _nonzero(out)
        fp = self.split(p)
        if fp is None or (fp[0] != fp[1] and fp[1] >= q):
            return {p + q: 1}       # p < q Lyndon with standard factorization
        a, b = fp
        if a == b:  # [[b(a), b(a)], q] = 2 [b(a), [b(a), q]] for odd a
            self.bracket_into(out, {a: 2}, self.key_bracket(a, q))
        else:       # [[a, b], q] = [a, [b, q]] + (-1)^(|b||q|) [[a, q], b]
            self.bracket_into(out, {a: 1}, self.key_bracket(b, q))
            s = -1 if self.key_degree(b) % 2 and dq % 2 else 1
            self.bracket_into(out, self.key_bracket(a, q), {b: s})
        return _nonzero(out)

    def bracket_into(self, out: dict, x: Coords, y: Coords):
        """out += [x, y], for x and y in coordinates; out may keep zeros."""
        for p, a in x.items():
            for q, b in y.items():
                c = a * b
                for k, s in self.key_bracket(p, q).items():
                    out[k] = out.get(k, 0) + c * s
