"""The tensor route through L(W): the oracle for the Lyndon coordinates of
``elliptica.lie``.

An element of the tensor algebra T(W) is a ``Tensor``, a sparse rational
combination of words of generator indices.  ``TensorRoute`` brackets there,
expands a Lie basis element by bracketing its two factors in T(W)
(memoized, and checked triangular: its key must be its smallest word),
reads the coordinates of a tensor back by peeling basis elements off by
ascending leading word, tests membership in L(W) with no basis by the
Dynkin-Specht-Wever criterion, and applies a derivation word by word.  It
reads the Lyndon basis and its factorizations from the ``FreeLie``, never
its structure constants.
"""
import heapq
from fractions import Fraction

from elliptica.errors import DegreeMismatch, InternalInconsistency
from elliptica.graded import SparseElement
from elliptica.lie import LieElement

_ZERO = Fraction(0)


class Tensor(SparseElement):
    """Sparse rational combination of tensor words."""

    __slots__ = ()


def basis_elements(lie, degree):
    """The basis elements of L_degree, in coordinates."""
    return [lie.basis_element(degree, j)
            for j in range(len(lie.basis(degree)))]


class TensorRoute:
    def __init__(self, lie):
        self.lie = lie
        self.expansion = {}     # basis key -> its basis element in T(W)

    def gen(self, name):
        return Tensor({(self.lie.by_name[name].index,): 1})

    def words(self, degree):
        """All tensor words of the degree; for 0, the empty word."""
        if degree == 0:
            return [()]
        return [(g.index,) + w for g in self.lie.generators
                if g.degree <= degree for w in self.words(degree - g.degree)]

    def to_coords(self, degree, t):
        """t's coefficients over ``words(degree)``."""
        idx = {w: j for j, w in enumerate(self.words(degree))}
        v = [_ZERO] * len(idx)
        for w, c in t.terms.items():
            if w not in idx:
                raise DegreeMismatch(f"word outside degree {degree}")
            v[idx[w]] = c
        return tuple(v)

    def bracket(self, a, b):
        """[a, b] = a (x) b - (-1)^(|a||b|) b (x) a, extended bilinearly."""
        deg = self.lie.key_degree
        out = {}
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                c = ca * cb
                out[wa + wb] = out.get(wa + wb, _ZERO) + c
                s = c if deg(wa) % 2 and deg(wb) % 2 else -c
                out[wb + wa] = out.get(wb + wa, _ZERO) + s
        return Tensor(out)

    def key_element(self, w):
        """The basis element keyed w, expanded in T(W) and memoized;
        InternalInconsistency unless w is its smallest word."""
        t = self.expansion.get(w)
        if t is None:
            f = self.lie.split(w)
            t = Tensor({w: 1}) if f is None else self.bracket(
                self.key_element(f[0]), self.key_element(f[1]))
            self.expansion[w] = t
        if t.is_zero() or min(t.terms) != w:
            raise InternalInconsistency(
                f"Lyndon basis element with leading word {w} is not "
                f"triangular in degree {self.lie.key_degree(w)}")
        return t

    def expand(self, e: LieElement):
        """The element with coordinates e, in T(W)."""
        out = Tensor()
        for w, c in e.terms.items():
            out = out + self.key_element(w).scale(c)
        return out

    def peel(self, degree, t):
        """t's coordinates over the basis keys of the degree; None if t is
        outside L(W).  The smallest word left must be a leading word, and
        every other word of that basis element is larger."""
        idx = self.lie.table(degree).index
        coords, rest = {}, dict(t.terms)
        heap = list(rest)
        heapq.heapify(heap)
        while heap:
            w = heapq.heappop(heap)
            c = rest.pop(w)
            if not c:
                continue
            if w not in idx:
                if not self.lie.is_homogeneous(t, degree):
                    raise DegreeMismatch(f"word outside degree {degree}")
                return None
            b = self.key_element(w)
            k = coords[w] = c / b.terms[w]
            # every other word of b is larger than w, so a word once popped
            # never comes back
            for x, v in b.terms.items():
                if x != w:
                    if x not in rest:
                        rest[x] = _ZERO
                        heapq.heappush(heap, x)
                    rest[x] -= k * v
        return coords

    def is_lie(self, t):
        """Whether t, homogeneous of degree >= 1, lies in L(W), with no
        basis: iff the left-normed brackets [...[x1, x2], ..., xn] of its
        words, each over its length, sum to t."""
        total = Tensor()
        for w, c in t.terms.items():
            x = Tensor({w[:1]: c / len(w)})
            for i in w[1:]:
                x = self.bracket(x, Tensor({(i,): 1}))
            total = total + x
        return total == t

    def apply(self, images, t):
        """D(t) word by word, for the derivation with these generator images
        (index -> Tensor): D(x1...xn) is the sum over j of
        (-1)^(|x1| + ... + |x(j-1)|) x1...D(xj)...xn."""
        out = {}
        for w, c in t.terms.items():
            prefix_deg = 0
            for j, i in enumerate(w):
                img = images.get(i)
                if img is not None:
                    sc = -c if prefix_deg % 2 else c
                    for u, v in img.terms.items():
                        x = w[:j] + u + w[j + 1:]
                        out[x] = out.get(x, _ZERO) + sc * v
                prefix_deg += self.lie.by_index[i].degree
        return Tensor(out)
