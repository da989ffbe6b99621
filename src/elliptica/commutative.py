"""Free graded-commutative algebra on named generators.

Monomials are canonical tuples ((generator_index, exponent), ...) sorted by
declaration index; odd generators never carry exponent > 1.  Products use
the Koszul sign rule, derivations satisfy the graded Leibniz identity.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable

from .errors import DegreeMismatch, NotInAlgebra
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

    def _key_image(self, m: Monomial) -> dict:
        """den * D(m) for m = x * m', x the lowest generator of m:
        den D(x) m' + (-1)^|x| x den D(m'), with D(m') memoized."""
        if not m:
            return {}
        alg = self.algebra
        (i, e), rest = m[0], m[1:]
        x = ((i, 1),)
        m1 = ((i, e - 1),) + rest if e > 1 else rest
        out: dict = {}
        for u, v in self.int_images.get(i, {}).items():
            p = alg._mul_monomials(u, m1)
            if p is not None:
                out[p[0]] = out.get(p[0], 0) + p[1] * v
        sx = -1 if i in alg._odd else 1
        for u, v in self.key_image(m1).items():
            p = alg._mul_monomials(x, u)
            if p is not None:
                out[p[0]] = out.get(p[0], 0) + sx * p[1] * v
        return {k: c for k, c in out.items() if c}


class Algebra(FreeAlgebra):
    """The free graded-commutative algebra Lambda(V) on a generator list.

    Its basis keys are the monomials, each a basis element alone, so an
    element's terms are its coordinates.  Each degree's basis is in
    ascending lexicographic order of the exponent vector (e_0, e_1, ...)
    by declaration index: with x, y both of degree 2, it is y^2, x*y, x^2.
    A restricted basis keeps the source's monomials in these generators;
    their exponents on the dropped generators are all 0, so filtering
    keeps that order, and that is exactly the basis this algebra would
    enumerate itself.
    """

    element_type = Element
    derivation_type = Derivation

    @functools.cached_property
    def _odd(self) -> frozenset[int]:
        """The indices of the odd generators."""
        return frozenset(g.index for g in self.generators if g.degree % 2)

    @functools.cached_property
    def _suffixes(self) -> list[list[list[Monomial]]]:
        """The suffix tables of ``_enumerate``: [pos][degree] -> the
        monomials of that degree over ``generators[pos:]``; the last
        position, past every generator, holds the unit alone."""
        return [[] for _ in range(len(self.generators) + 1)]

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

    def is_key(self, m: Monomial) -> bool:
        """Whether m is a monomial over these generators: known indices,
        strictly ascending, every exponent >= 1 and every odd generator's
        exactly 1."""
        last = None
        for i, e in m:
            g = self.by_index.get(i)
            if (g is None or (last is not None and i <= last) or e < 1
                    or (g.degree % 2 and e != 1)):
                return False
            last = i
        return True

    def require_key(self, m: Monomial):
        """NotInAlgebra unless m is a monomial over these generators."""
        if not self.is_key(m):
            raise NotInAlgebra(f"the monomial {m} is no basis key")

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

    def _enumerate(self, degree: int) -> list[Monomial]:
        """All monomials of exactly the given degree, in ascending
        lexicographic order of the exponent vector by declaration index:
        over ``generators[pos:]``, those without g = generators[pos] first,
        then those with g^1, g^2, ..., each group in the order of its
        suffix.  The suffix tables are filled bottom-up by degree, each
        position's from the next one's lower degrees, with no recursion, and
        are kept for the algebra's later degrees."""
        if degree < 0:
            return []
        tables, gens = self._suffixes, self.generators
        for d in range(len(tables[-1]), degree + 1):
            tables[-1].append([UNIT] if d == 0 else [])
            for pos in range(len(gens) - 1, -1, -1):
                g, nxt = gens[pos], tables[pos + 1]
                cap = d // g.degree
                if g.degree % 2:
                    cap = min(cap, 1)
                out = list(nxt[d])
                for e in range(1, cap + 1):
                    head = ((g.index, e),)
                    out += [head + m for m in nxt[d - e * g.degree]]
                tables[pos].append(out)
        return tables[0][degree]

    # --- multiplication ----------------------------------------------------

    def _mul_monomials(self, a: Monomial, b: Monomial):
        """Canonical product monomial and Koszul sign, or None if it dies:
        one transposition per (odd in a, odd in b) pair out of order."""
        odd = self._odd
        powers = dict(a)
        sign = 1
        for j, e in b:
            if j in odd:
                if j in powers:
                    return None  # odd generator squared
                for i, _ in a:
                    if i > j and i in odd:
                        sign = -sign
            powers[j] = powers.get(j, 0) + e
        return tuple(sorted(powers.items())), sign

    def multiply(self, a: Element, b: Element) -> Element:
        """a * b; NotInAlgebra unless every key of both is a monomial over
        these generators."""
        for m in (*a.terms, *b.terms):
            self.require_key(m)
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
