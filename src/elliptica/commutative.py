"""Free graded-commutative algebra on named generators.

Monomials are canonical tuples ((generator_index, exponent), ...) sorted by
declaration index; odd generators never carry exponent > 1.  Products use
the Koszul sign rule, derivations satisfy the graded Leibniz identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DegreeMismatch
from .graded import SparseElement

_ZERO = Fraction(0)
_ONE = Fraction(1)

Monomial = tuple[tuple[int, int], ...]  # ((gen index, exponent), ...)
UNIT: Monomial = ()


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    index: int

    def __post_init__(self):
        if self.degree < 1:
            raise DegreeMismatch(f"generator {self.name} has degree {self.degree} < 1")


class Element(SparseElement):
    """Sparse rational combination of monomials (zero coefficients dropped)."""

    __slots__ = ()


class Algebra:
    """The free graded-commutative algebra Lambda(V) on a generator list.

    With ``source`` given, the generators must be a subset of the source's
    and each basis is the source's, restricted to the monomials in these
    generators: filtering a degree-lex list keeps its order, so that is
    exactly the basis this algebra would enumerate itself.
    """

    def __init__(self, generators: Sequence[Generator],
                 source: "Algebra | None" = None):
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
        self._basis_cache: dict[int, list[Monomial]] = {}

    # --- degrees -----------------------------------------------------------

    def monomial_degree(self, m: Monomial) -> int:
        return sum(self.by_index[i].degree * e for i, e in m)

    def degree(self, e: Element) -> int:
        """Degree of a homogeneous element; DegreeMismatch if mixed."""
        if e.is_zero():
            return 0
        degs = {self.monomial_degree(m) for m in e.terms}
        if len(degs) != 1:
            raise DegreeMismatch(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    def is_homogeneous(self, e: Element, degree: int) -> bool:
        return all(self.monomial_degree(m) == degree for m in e.terms)

    # --- constructors ------------------------------------------------------

    def gen(self, name: str) -> Element:
        g = self.by_name[name]
        return Element({((g.index, 1),): _ONE})

    def monomial(self, powers: Iterable[tuple[int, int]]) -> Monomial:
        ps = sorted((i, e) for i, e in powers if e)
        for i, e in ps:
            if self.by_index[i].degree % 2 and e > 1:
                raise DegreeMismatch(f"odd generator {self.by_index[i].name} squared")
        return tuple(ps)

    def unit(self) -> Element:
        return Element({UNIT: _ONE})

    # --- canonical bases ---------------------------------------------------

    def basis(self, degree: int) -> list[Monomial]:
        """All monomials of exactly the given degree, degree-lex order."""
        if degree < 0:
            return []
        cached = self._basis_cache.get(degree)
        if cached is not None:
            return cached
        if self._source is not None:
            kept = self.by_index
            out = [m for m in self._source.basis(degree)
                   if all(i in kept for i, _ in m)]
            self._basis_cache[degree] = out
            return out
        gens = self.generators
        out: list[Monomial] = []

        def rec(pos: int, remaining: int, acc: list[tuple[int, int]]):
            if remaining == 0:
                out.append(tuple(acc))
                return
            if pos == len(gens):
                return
            g = gens[pos]
            cap = 1 if g.degree % 2 else remaining // g.degree
            for e in range(0, cap + 1):
                if e * g.degree > remaining:
                    break
                if e:
                    acc.append((g.index, e))
                rec(pos + 1, remaining - e * g.degree, acc)
                if e:
                    acc.pop()

        rec(0, degree, [])
        self._basis_cache[degree] = out
        return out

    # --- multiplication ----------------------------------------------------

    def _mul_monomials(self, a: Monomial, b: Monomial):
        """Canonical product monomial and Koszul sign, or None if it dies."""
        odd_a = [i for i, e in a if self.by_index[i].degree % 2]
        odd_b = [i for i, e in b if self.by_index[i].degree % 2]
        if set(odd_a) & set(odd_b):
            return None  # odd generator squared
        # Sign: one transposition per (odd in a, odd in b) pair out of order.
        inversions = sum(1 for i in odd_a for j in odd_b if i > j)
        powers = dict(a)
        for i, e in b:
            powers[i] = powers.get(i, 0) + e
        mono = tuple(sorted(powers.items()))
        return mono, (-1) ** inversions

    def multiply(self, a: Element, b: Element) -> Element:
        out: dict[Monomial, Fraction] = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                prod = self._mul_monomials(ma, mb)
                if prod is None:
                    continue
                mono, sign = prod
                out[mono] = out.get(mono, _ZERO) + sign * ca * cb
        return Element(out)

    def from_monomial(self, m: Monomial, coeff=1) -> Element:
        return Element({m: Fraction(coeff)})

    # --- derivations -------------------------------------------------------

    def derivation(self, images: Mapping[int, Element]) -> "Derivation":
        return Derivation(self, images)


class Derivation:
    """Degree +1 derivation determined by generator images (graded Leibniz)."""

    def __init__(self, algebra: Algebra, images: Mapping[int, Element]):
        self.algebra = algebra
        self.images = {}
        for idx, img in images.items():
            g = algebra.by_index[idx]
            if not img.is_zero() and not algebra.is_homogeneous(img, g.degree + 1):
                raise DegreeMismatch(
                    f"image of {g.name} is not homogeneous of degree {g.degree + 1}")
            self.images[idx] = img

    def _apply_monomial(self, m: Monomial) -> Element:
        alg = self.algebra
        out = Element.zero()
        for pos, (idx, exp) in enumerate(m):
            img = self.images.get(idx)
            if img is None or img.is_zero():
                continue
            g = alg.by_index[idx]
            prefix_deg = sum(alg.by_index[i].degree * e for i, e in m[:pos])
            sign = (-1) ** prefix_deg
            # D(g^e) = e * g^(e-1) * D(g); e > 1 only for even g.
            left = alg.monomial(list(m[:pos]) + ([(idx, exp - 1)] if exp > 1 else []))
            rest = alg.monomial(m[pos + 1:])
            term = alg.multiply(alg.from_monomial(left, sign * exp),
                                alg.multiply(img, alg.from_monomial(rest)))
            out = out + term
        return out

    def __call__(self, e: Element) -> Element:
        out = Element.zero()
        for m, c in e.terms.items():
            out = out + self._apply_monomial(m).scale(c)
        return out
