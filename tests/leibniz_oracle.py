"""The Sullivan differential of one monomial by the per-factor Leibniz rule,
multiplied out letter by letter: the test oracle for
``commutative.Derivation.key_image``, which recurses on the lowest
generator of a monomial instead and multiplies with ``Algebra``'s own
product.

A monomial is spelled as a word of generator letters, x^2 y as
(x, x, y).  Then

    D(a_1 ... a_n) = sum_p (-1)^(|a_1| + ... + |a_(p-1)|)
                     a_1 ... a_(p-1) D(a_p) a_(p+1) ... a_n,

and each product of letters is brought to canonical order by adjacent
transpositions, a sign for each swap of two odd letters; a word with an
odd letter twice is zero.
"""
from fractions import Fraction


def letters(m) -> list[int]:
    """The word of generator letters of the monomial m, in index order."""
    return [i for i, e in m for _ in range(e)]


def canonical(word, odd) -> tuple | None:
    """(monomial, sign) of the product of the letters of ``word``, or None
    when an odd letter repeats."""
    w, sign = list(word), 1
    for i in range(1, len(w)):
        j = i
        while j and w[j - 1] > w[j]:
            if w[j - 1] in odd and w[j] in odd:
                sign = -sign
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
    powers: dict[int, int] = {}
    for i in w:
        if i in odd and i in powers:
            return None
        powers[i] = powers.get(i, 0) + 1
    return tuple(powers.items()), sign


def d_monomial(alg, images, m) -> dict:
    """D(m) as {monomial: Fraction}, zero coefficients dropped, for the
    derivation with ``images`` (generator index -> Element)."""
    odd = {g.index for g in alg.generators if g.degree % 2}
    word = letters(m)
    out: dict = {}
    for p, a in enumerate(word):
        img = images.get(a)
        if img is None:
            continue
        sign = (-1) ** sum(1 for b in word[:p] if b in odd)
        for u, c in img.terms.items():
            prod = canonical(word[:p] + letters(u) + word[p + 1:], odd)
            if prod is not None:
                mono, s = prod
                out[mono] = out.get(mono, Fraction(0)) + sign * s * c
    return {k: c for k, c in out.items() if c}
