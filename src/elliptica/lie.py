"""Free graded Lie algebra L(W), worked in the coordinates of its Lyndon
basis.

The per-degree basis is the Lyndon basis of the free Lie superalgebra,
parity being degree mod 2: the standard bracketing b(w) of every Lyndon
word w over the generator indices, plus [b(u), b(u)] for every Lyndon word u
of odd degree (Reutenauer, *Free Lie Algebras*, Ch. 4-5).  Each basis
element is keyed by its leading word -- its smallest tensor word, w resp.
uu -- and an element is a sparse combination of these keys, so its terms
are its coordinates.  Whether a word is a key, and which two keys it
brackets, are read off the word itself.

The bracket of two basis elements is read from memoized structure
constants, got by Hall rewriting on the standard factorization; the bracket
of two elements is their bilinear extension, and a derivation acts on a
basis element by the Leibniz rule over them.  Nothing here expands an
element in the tensor algebra T(W): that route is the test oracle, in
``tests/tensor_oracle.py``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalInconsistency, NotInAlgebra
from .graded import FreeAlgebra, Generator, GradedDerivation, SparseElement

Word = tuple[int, ...]  # generator indices, tensor factors left to right
# A bracket tree: a generator index, or a pair (left, right) for [left, right].
Tree = int | tuple
# Coordinates: basis key -> nonzero coefficient.
Coords = dict[Word, "int | Fraction"]

LieGenerator = Generator


class LieElement(SparseElement):
    """Sparse rational combination of Lie basis keys."""

    __slots__ = ()


class LieDerivation(GradedDerivation):
    """Degree -1 derivation of L(W), applied to a basis key by the Leibniz
    rule (``_key_image``)."""

    step = -1

    def _key_image(self, w: Word) -> Coords:
        """den * D of the basis element keyed w: a generator's image is read
        once; then D[b(u), b(v)] = [D b(u), b(v)] + (-1)^|u| [b(u), D b(v)]
        on the standard factorization (u, v), and D[b(u), b(u)] =
        2 [D b(u), b(u)] on a square."""
        alg = self.algebra
        f = alg.split(w)
        if f is None:
            z = self.int_images.get(w[0], {})
            if not all(map(alg.is_key, z)):
                raise InternalInconsistency(
                    f"the image of {alg.by_index[w[0]].name} is outside L(W)")
            return z
        u, v = f
        out: dict = {}
        if u == v:
            alg.bracket_into(out, self.key_image(u), {u: 2})
        else:
            alg.bracket_into(out, self.key_image(u), {v: 1})
            alg.bracket_into(out, {u: -1 if alg.key_degree(u) % 2 else 1},
                             self.key_image(v))
        return _nonzero(out)


def _nonzero(out: dict) -> dict:
    return {k: c for k, c in out.items() if c}


def _is_lyndon(w: Word) -> bool:
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


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
        # degree -> Lyndon words of that degree, ascending
        self._lyndon_cache: dict[int, list[Word]] = {}
        # key of length >= 2 -> the keys (u, v) it brackets
        self._factor: dict[Word, tuple[Word, Word]] = {}
        # (p, q) -> [B_p, B_q] over the basis keys, int coefficients
        self._brackets: dict[tuple[Word, Word], Coords] = {}
        # word -> its degree
        self._degrees: dict[Word, int] = {}

    def key_degree(self, w: Word) -> int:
        """The sum of w's generator degrees, memoized."""
        d = self._degrees.get(w)
        if d is None:
            d = self._degrees[w] = sum(self.by_index[i].degree for i in w)
        return d

    def generator_key(self, index: int) -> Word:
        return (index,)

    def vanishes(self, degree: int) -> bool:
        """Whether L(W) is zero in that degree, answered with no basis built
        for one generator w only: L(w) is w, and [w, w] when |w| is odd.
        With any other number of generators the answer is False, which
        claims nothing."""
        if len(self.generators) != 1:
            return False
        d = self.generators[0].degree
        return degree != d and not (d % 2 and degree == 2 * d)

    def key_generators(self, w: Word) -> Word:
        return w

    def key_str(self, w: Word) -> str:
        def fmt(t: Tree) -> str:
            if isinstance(t, int):
                return self.by_index[t].name
            return f"[{fmt(t[0])},{fmt(t[1])}]"
        return fmt(self._tree(w))

    def bracket(self, a: LieElement, b: LieElement) -> LieElement:
        """[a, b], extended bilinearly from the structure constants;
        NotInAlgebra when a term of a or b is no basis key."""
        for w in (*a.terms, *b.terms):
            self.require_key(w)
        out: dict = {}
        self.bracket_into(out, a.terms, b.terms)
        return LieElement._of(out)

    def require_key(self, w: Word):
        """NotInAlgebra unless w is a basis key over these generators."""
        if not (all(i in self.by_index for i in w) and self.is_key(w)):
            raise NotInAlgebra(f"the word {w} is no Lie basis key")

    # --- Lyndon words and keys ---------------------------------------------

    def _lyndon(self, degree: int) -> list[Word]:
        """Lyndon words of the degree, ascending, built from standard
        factorizations.

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
                fu = self.split(u)
                for v in vs:
                    if u < v and (fu is None or fu[1] >= v):
                        w = u + v
                        self._factor[w] = (u, v)
                        out.append(w)
        out.sort()
        self._lyndon_cache[degree] = out
        return out

    def is_key(self, w: Word) -> bool:
        """Whether w is a basis key: a Lyndon word -- nonempty and smaller
        than each of its proper suffixes -- or uu for a Lyndon word u of odd
        degree."""
        half = len(w) // 2
        if len(w) % 2 == 0 and w[:half] == w[half:]:
            return _is_lyndon(w[:half]) and self.key_degree(w[:half]) % 2 == 1
        return _is_lyndon(w)

    def split(self, w: Word) -> tuple[Word, Word] | None:
        """The keys (u, v) with [B_u, B_v] the basis element keyed w, None
        for a letter; memoized, and recorded by ``_lyndon`` for the words it
        builds.  v is w's smallest proper suffix: for a Lyndon w its longest
        proper Lyndon suffix, so (u, v) is the standard factorization; for
        w = uu it is u."""
        if len(w) == 1:
            return None
        f = self._factor.get(w)
        if f is None:
            v = min(w[i:] for i in range(1, len(w)))
            f = self._factor[w] = (w[:len(w) - len(v)], v)
        return f

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

    def key_coords(self, degree: int, e: LieElement) -> dict | None:
        """e's terms, which are its coordinates, when every one is a basis
        key; None otherwise: e is outside L(W)."""
        return e.terms if all(map(self.is_key, e.terms)) else None

    # the names the benchmark's tracer binds
    lie_basis_with_seqs = FreeAlgebra.basis
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
