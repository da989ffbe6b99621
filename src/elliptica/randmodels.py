"""Seeded random generation of Sullivan models: pure elliptic ones, and
from them non-pure elliptic and non-elliptic ones.

The pure recipe produces pure models (even generators closed, odd
differentials land in the even subalgebra) with dim V^even = dim V^odd =
m <= 3.  Each odd generator's differential is a pure power of a dedicated
even generator plus extra monomials drawn only from earlier even
generators; that triangular shape forces the cohomology to be finite
dimensional, so every sample is elliptic.

A non-pure sample tensors a pure one with Lambda(a_3, b_3, c_5; dc = ab + q),
q a random polynomial of degree 6 in the pure factor's even generators.  Its
associated pure model adds the relation q to a finite quotient, so it stays
elliptic (GTM 205, section 32).  A non-elliptic sample drops one odd
generator of a pure one: then dim V^odd < dim V^even, which no elliptic
model has.  Both draw from their own ``rng`` and leave the pure recipe's
streams untouched.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .commutative import Element, Generator
from .sullivan import SullivanModel

_EVEN_DEGREES = (2, 2, 2, 4, 4, 6, 8)  # biased toward low degrees
_MAX_FORMAL_DIM = 10
_ONE = Fraction(1)


def random_pure_model(rng: random.Random, name: str = "") -> SullivanModel:
    """Draw one pure elliptic Sullivan model with a small formal dimension."""
    while True:
        m = rng.choice((1, 2, 2, 3))
        even_degs = sorted(rng.choice(_EVEN_DEGREES) for _ in range(m))
        powers = [rng.choice((2, 2, 3)) for _ in range(m)]
        odd_degs = [k * d - 1 for k, d in zip(powers, even_degs)]
        n_c = sum(odd_degs) - sum(d - 1 for d in even_degs)
        if 0 < n_c <= _MAX_FORMAL_DIM:
            break

    gens = [Generator(f"x{j + 1}", even_degs[j], j) for j in range(m)]
    gens += [Generator(f"y{j + 1}", odd_degs[j], m + j) for j in range(m)]

    diff: dict[int, Element] = {}
    for j in range(m):
        target = odd_degs[j] + 1  # = powers[j] * even_degs[j]
        terms = {((j, powers[j]),): _ONE}
        # extra monomials use only x_1..x_j, keeping the system triangular;
        # the monomials are distinct, so each term is the one drawn
        sub_idx = list(range(j))
        for mono in _monomials(even_degs[:j], sub_idx, target):
            if len(mono) == 1 and mono[0][1] == 1:
                continue  # a linear term would break minimality
            if rng.random() < 0.35:
                terms[mono] = Fraction(rng.choice((1, 1, -1, 2)))
        diff[m + j] = Element._of(terms)
    return SullivanModel(gens, diff, name=name or f"random_pure_m{m}")


def _monomials(degrees, indices, target):
    """Monomials in the given even generators of exactly the target degree."""
    out = []

    def rec(pos, remaining, acc):
        if remaining == 0:
            if acc:
                out.append(tuple(acc))
            return
        if pos == len(indices):
            return
        d = degrees[pos]
        rec(pos + 1, remaining, acc)
        e = 1
        while e * d <= remaining:
            rec(pos + 1, remaining - e * d, acc + [(indices[pos], e)])
            e += 1

    rec(0, target, [])
    return out


def random_models(seed: int, count: int) -> list[SullivanModel]:
    rng = random.Random(seed)
    return [random_pure_model(rng, name=f"random_{seed}_{i}")
            for i in range(count)]


def random_nonpure_model(rng: random.Random, name: str = "") -> SullivanModel:
    """A pure sample tensored with Lambda(a_3, b_3, c_5; dc = ab + q): q is a
    random combination of the degree-6 monomials of length >= 2 in the pure
    factor's even generators, each kept with probability 1/2.  The result
    is elliptic and not pure."""
    pure = random_pure_model(rng)
    gens, diff = list(pure.generators), dict(pure.differential)
    even = [g for g in gens if g.degree % 2 == 0]
    base = len(gens)
    a, b, c = (Generator(s, d, base + j)
               for j, (s, d) in enumerate((("a", 3), ("b", 3), ("c", 5))))
    terms = {((a.index, 1), (b.index, 1)): _ONE}
    for mono in _monomials([g.degree for g in even],
                           [g.index for g in even], 6):
        if (len(mono) > 1 or mono[0][1] > 1) and rng.random() < 0.5:
            terms[mono] = Fraction(rng.choice((1, -1, 2)))
    diff[c.index] = Element._of(terms)
    return SullivanModel([*gens, a, b, c], diff,
                         name=name or f"{pure.name}_nonpure")


def random_nonelliptic_model(rng: random.Random,
                             name: str = "") -> SullivanModel:
    """A pure sample with one odd generator, drawn at random, dropped, and
    the rest renumbered in order: dim V^odd < dim V^even, so the model is
    not elliptic.  The pure differentials of the kept odd generators lie
    in the even generators, so the rest stays closed."""
    pure = random_pure_model(rng)
    odd = [g for g in pure.generators if g.degree % 2]
    drop = rng.choice(odd).index
    keep = [g for g in pure.generators if g.index != drop]
    renum = {g.index: j for j, g in enumerate(keep)}
    gens = [Generator(g.name, g.degree, renum[g.index]) for g in keep]
    diff = {renum[i]: Element({tuple((renum[k], e) for k, e in m): c
                               for m, c in img.terms.items()})
            for i, img in pure.differential.items() if i != drop}
    return SullivanModel(gens, diff, name=name or f"{pure.name}_nonelliptic")
