"""The model builders by element arithmetic: the test oracle for
``dsl._cpn_quillen`` and the random builders of ``randmodels``, which
build each differential as one terms dict.

Here every differential is a sum of elements: CP^n's delta w is the sum
of lie.bracket(w_i, w_j).scale(1/2), and a random differential the sum of
one Element per drawn monomial.  The sums are taken by ``add`` and
``scale`` below, which re-wrap every coefficient through the element
constructor, so the oracle does not lean on ``SparseElement``'s own
arithmetic.  The random draws are those of ``randmodels``, in the same
order, so one seed gives both routes the same model.
"""
import random
from fractions import Fraction

from elliptica.commutative import Element
from elliptica.graded import Generator
from elliptica.lie import FreeLie, LieElement
from elliptica.quillen import DGLModel
from elliptica.randmodels import _EVEN_DEGREES, _MAX_FORMAL_DIM, _monomials
from elliptica.sullivan import SullivanModel


def add(a, b):
    """a + b, each coefficient through the constructor."""
    t = dict(a.terms)
    for k, c in b.terms.items():
        t[k] = t.get(k, Fraction(0)) + c
    return type(a)(t)


def scale(e, c):
    """c e, each coefficient through the constructor."""
    c = Fraction(c)
    return type(e)({k: c * v for k, v in e.terms.items()})


def cpn_quillen(n: int) -> DGLModel:
    lie = FreeLie([Generator(f"w{2 * k - 1}", 2 * k - 1, k - 1)
                   for k in range(1, n + 1)])
    w = {g.degree: lie.gen(g.name) for g in lie.generators}
    diff = {}
    for g in lie.generators:
        total = LieElement.zero()
        for i in range(1, g.degree - 1):
            j = g.degree - 1 - i
            if i in w and j in w:
                total = add(total,
                            scale(lie.bracket(w[i], w[j]), Fraction(1, 2)))
        if not total.is_zero():
            diff[g.index] = total
    return DGLModel(lie, diff, name=f"CP{n}q")


def random_pure_model(rng: random.Random, name: str = "") -> SullivanModel:
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

    diff = {}
    for j in range(m):
        target = odd_degs[j] + 1
        img = Element({((j, powers[j]),): 1})
        for mono in _monomials(even_degs[:j], list(range(j)), target):
            if len(mono) == 1 and mono[0][1] == 1:
                continue
            if rng.random() < 0.35:
                img = add(img, Element({mono: rng.choice((1, 1, -1, 2))}))
        diff[m + j] = img
    return SullivanModel(gens, diff, name=name or f"random_pure_m{m}")


def random_nonpure_model(rng: random.Random, name: str = "") -> SullivanModel:
    pure = random_pure_model(rng)
    gens, diff = list(pure.generators), dict(pure.differential)
    even = [g for g in gens if g.degree % 2 == 0]
    base = len(gens)
    a, b, c = (Generator(s, d, base + j)
               for j, (s, d) in enumerate((("a", 3), ("b", 3), ("c", 5))))
    dc = Element({((a.index, 1), (b.index, 1)): 1})
    for mono in _monomials([g.degree for g in even],
                           [g.index for g in even], 6):
        if (len(mono) > 1 or mono[0][1] > 1) and rng.random() < 0.5:
            dc = add(dc, Element({mono: rng.choice((1, -1, 2))}))
    diff[c.index] = dc
    return SullivanModel([*gens, a, b, c], diff,
                         name=name or f"{pure.name}_nonpure")


def random_nonelliptic_model(rng: random.Random,
                             name: str = "") -> SullivanModel:
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
