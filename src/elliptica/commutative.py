"""Free graded-commutative algebra on named generators.

Monomials are canonical tuples ((generator_index, exponent), ...) sorted by
declaration index; odd generators never carry exponent > 1.  Products use
the Koszul sign rule, derivations satisfy the graded Leibniz identity.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import DegreeMismatch
from .graded import FreeAlgebra, Generator, GradedDerivation, SparseElement

_ZERO = Fraction(0)
_ONE = Fraction(1)

Monomial = tuple[tuple[int, int], ...]  # ((gen index, exponent), ...)
UNIT: Monomial = ()


class Element(SparseElement):
    """Sparse rational combination of monomials (zero coefficients dropped)."""

    __slots__ = ()


class Derivation(GradedDerivation):
    """Degree +1 derivation determined by generator images (graded Leibniz)."""

    step = 1

    def _apply(self, m: Monomial, c: int | Fraction, out: dict):
        """out += c * den * D(m): for each factor g^e of m, the term
        (-1)^|prefix| e * prefix * g^(e-1) * den * D(g) * rest, multiplied
        out monomial by monomial."""
        alg = self.algebra
        prefix_deg = 0
        for pos, (idx, exp) in enumerate(m):
            img = self.int_images.get(idx)
            if img is not None:
                sc = (-c if prefix_deg % 2 else c) * exp
                # exp > 1 only for even g, so left stays canonical
                left = m[:pos] + ((idx, exp - 1),) if exp > 1 else m[:pos]
                rest = m[pos + 1:]
                for u, v in img.items():
                    lu = alg._mul_monomials(left, u)
                    if lu is None:
                        continue
                    prod = alg._mul_monomials(lu[0], rest)
                    if prod is None:
                        continue
                    key = prod[0]
                    out[key] = out.get(key, 0) + lu[1] * prod[1] * sc * v
            prefix_deg += alg.by_index[idx].degree * exp


class Algebra(FreeAlgebra):
    """The free graded-commutative algebra Lambda(V) on a generator list.

    Its basis keys are the monomials, each a basis element alone, so an
    element's terms are its coordinates.  A restricted basis keeps the
    source's monomials in these generators: filtering a degree-lex list
    keeps its order, so that is exactly the basis this algebra would
    enumerate itself.
    """

    element_type = Element
    derivation_type = Derivation

    def key_degree(self, m: Monomial) -> int:
        return sum(self.by_index[i].degree * e for i, e in m)

    def generator_key(self, index: int) -> Monomial:
        return ((index, 1),)

    def key_generators(self, m: Monomial):
        return (i for i, _ in m)

    def key_str(self, m: Monomial) -> str:
        return "*".join(self.by_index[i].name + ("" if e == 1 else f"^{e}")
                        for i, e in m)

    def key_coords(self, degree: int, e: Element) -> dict:
        return e.terms

    # --- constructors ------------------------------------------------------

    def monomial(self, powers: Iterable[tuple[int, int]]) -> Monomial:
        ps = sorted((i, e) for i, e in powers if e)
        for i, e in ps:
            if self.by_index[i].degree % 2 and e > 1:
                raise DegreeMismatch(f"odd generator {self.by_index[i].name} squared")
        return tuple(ps)

    def unit(self) -> Element:
        return Element({UNIT: _ONE})

    # --- canonical bases ---------------------------------------------------

    def _enumerate(self, degree: int):
        """All monomials of exactly the given degree, degree-lex order."""
        if degree < 0:
            return []
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
