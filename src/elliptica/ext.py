"""H_*(L(W)) of a quadratic Quillen model from Ext over its cohomology
algebra, with no Lie basis.

Let delta on L(W) be quadratic: each delta w_c is a combination of brackets
[w_a, w_b] of two generators.  Then:

- ``CohomologyAlgebra``: C = Q 1 + (sW)^v, with the product dual to delta
  (below), is a finite-dimensional graded-commutative algebra, and
  delta^2 = 0 exactly when it is associative.  C is H^*(X).
- U L(W) = T(W), and delta makes it the dual of the bar construction of C,
  so H_k(T(W), delta) is the sum of Ext_C^(s,t)(Q, Q) over t - s = k
  (Adams, "On the cobar construction", PNAS 42, 1956).
- Over Q, H(U L) = U H(L) (Quillen, Ann. Math. 90, 1969; Milnor-Moore,
  Ann. Math. 81, 1965), and PBW turns the Hilbert series of U H(L) into
  dim H_k(L(W)) (``primitive_dims``; Avramov, *Infinite free
  resolutions*, Progr. Math. 166, 1998, section 7).
- C^1 = 0, so Ext^(s,t) = 0 for t < 2s: total degree k needs s <= k
  only (``MinimalResolution``).

**The product, derived from delta.**  In T(W) = U L(W) a bracket is the
graded commutator [x, y] = xy - (-1)^(|x||y|) yx, so for generators
[w_a, w_b] = w_a w_b - (-1)^(|a||b|) w_b w_a, and for w_u of odd degree
[w_u, w_u] = 2 w_u w_u: the square's factor is 2.  So
delta w_c = sum over ordered pairs of m^c_ab w_a w_b, with
m^c_ba = -(-1)^(|a||b|) m^c_ab (|a| = |w_a|), and delta acts on T(W) as
the derivation delta(x y) = delta(x) y + (-1)^|x| x delta(y).  Comparing
the coefficients of w_a w_b w_e in delta^2 w_d = 0 gives

    (*)  sum_c m^c_ab m^d_ce = -(-1)^|a| sum_f m^f_be m^d_af.

Let xi_a be the basis of (sW)^v dual to s w_a, of degree |a| + 1, and set

    xi_a xi_b = sum_c (-1)^|a| m^c_ab xi_c.

- Graded commutativity: (-1)^|b| m^c_ba = -(-1)^(|a||b| + |b|) m^c_ab, and
  -(-1)^(|a||b| + |a| + |b|) = (-1)^((|a| + 1)(|b| + 1)), the Koszul sign
  of xi_a and xi_b.
- Associativity: |c| = |a| + |b| + 1 when m^c_ab != 0, so
  (xi_a xi_b) xi_e has the sign (-1)^(|a| + |c|) = -(-1)^|b| on
  sum_c m^c_ab m^d_ce, and xi_a (xi_b xi_e) has (-1)^(|b| + |a|) on
  sum_f m^f_be m^d_af; by (*) they are equal.  Any other sign of the form
  (-1)^|b| or (-1)^(|a||b| + |a|) breaks this.
- Bar construction: B(C) = T(s C-bar) with
  d(... | s x | s y | ...) = (-1)^(e + |x|) (... | s(xy) | ...), e the
  degrees of the bar entries left of s x; d^2 = 0 is associativity.  With
  w_a dual to s xi_a, the transpose of this d has the coefficient
  -(-1)^e m^c_ab on the tensor word that the derivation delta gives
  (-1)^e m^c_ab, so (T(W), delta) is, up to the sign -1, the dual of
  B(C).  A bar word [xi_a1 | ... | xi_as] has internal degree
  t = sum (|a_i| + 1) and is dual to w_a1 ... w_as, of degree t - s.

Each identity is checked at run time: C's degrees, associativity and
graded commutativity when it is built, d.d = 0 on every new generator of
the resolution, and dims of the Lie algebra that are not negative.  C's
checks and the resolution run on its integer constants, the products times
their least common denominator: scaling every product by one nonzero
factor f gives an isomorphic algebra (x -> f x on C-bar), so each identity
holds for one set of constants exactly when it holds for the other.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from . import linalg
from .errors import InternalInconsistency

Vector = dict      # sparse combination: key -> nonzero int


def primitive_dims(series: Iterable[int]) -> Iterator[int]:
    """dim g_1, dim g_2, ..., each as soon as its coefficient of ``series``
    is read: from the Hilbert series E = 1 + e_1 t + e_2 t^2 + ... of U(g),
    g a graded Lie algebra whose parity is its degree mod 2.  By PBW

        E = prod_(d odd) (1 + t^d)^(l_d) / prod_(d even) (1 - t^d)^(l_d),

    so log E = sum_d l_d sum_j eps(d, j) t^(dj) / j, with
    eps(d, j) = (-1)^(j + 1) for odd d (log(1 + x)) and 1 for even d
    (-log(1 - x)): n [t^n] log E = sum over d | n of d l_d eps(d, n / d).
    The left side is a_n = n e_n - sum_(i < n) a_i e_(n - i) (Newton:
    E' = E (log E)'), so each l_n is solved in turn from the l_d, d < n.
    InternalInconsistency unless e_0 = 1 and every l_n is an integer >= 0."""
    e, logs, dims = [], [0], [0]
    for n, en in enumerate(series):
        e.append(en)
        if not n:
            if en != 1:
                raise InternalInconsistency(
                    f"a Hilbert series starts with {en}")
            continue
        a = n * en          # a_n, then n l_n
        for i in range(1, n):
            if logs[i] and e[n - i]:
                a -= logs[i] * e[n - i]
        logs.append(a)
        for d in range(1, n // 2 + 1):
            if dims[d] and not n % d:
                a -= d * dims[d] * (-1 if d % 2 and not n // d % 2 else 1)
        ln, rest = divmod(a, n)
        if rest or ln < 0:
            raise InternalInconsistency(
                f"PBW gives dim g_{n} = {a / n} from the series {e}")
        dims.append(ln)
        yield ln


class CohomologyAlgebra:
    """A connected graded-commutative algebra C = Q 1 + C-bar of finite
    dimension, by structure constants.  Basis index 0 is the unit, of
    degree 0; 1..n span C-bar, of degrees ``degrees[1:]``, each >= 2.
    ``products[(a, b)]`` is the product of xi_a and xi_b, 1 <= a, b <= n,
    as {c: coefficient}.

    ``den`` is the least common denominator of the products' coefficients,
    and ``int_products`` holds each product times ``den``, with int
    coefficients: the structure constants of an isomorphic algebra
    (x -> den x on C-bar), on which the checks and ``MinimalResolution``
    run.  The degrees of the products, associativity and graded
    commutativity are checked on construction (InternalInconsistency,
    naming the algebra, on a breach)."""

    def __init__(self, degrees: Sequence[int],
                 products: Mapping[tuple[int, int], Mapping[int, Fraction]],
                 name: str = ""):
        self.degrees = (0, *degrees)
        self.top = max(self.degrees)    # the top degree of C
        self.products = {ab: nonzero for ab, z in products.items()
                         if (nonzero := {c: v for c, v in z.items() if v})}
        self.den = den = lcm(*(v.denominator for z in self.products.values()
                               for v in z.values()))
        self.int_products = {
            ab: {c: v.numerator * (den // v.denominator)
                 for c, v in z.items()}
            for ab, z in self.products.items()}
        self.name = name
        self.by_degree: dict[int, list[int]] = {}
        for c, d in enumerate(self.degrees):
            if c:
                if d < 2:
                    raise InternalInconsistency(
                        f"{self}: basis element {c} has degree {d} < 2")
                self.by_degree.setdefault(d, []).append(c)
        self._check()

    def __str__(self):
        return f"cohomology algebra of {self.name or 'a model'}"

    @classmethod
    def of_quadratic(cls, model) -> "CohomologyAlgebra | None":
        """C of a Quillen model with xi_a xi_b = sum_c (-1)^|a| m^c_ab xi_c
        (module docstring), xi_a being the a-th generator's dual; None
        unless every term of every delta is a bracket of two generators.
        The constants are summed in int over the derivation's ``int_images``
        and divided by its ``den`` at the end."""
        lie, der = model.lie, model.derivation()
        pos = {g.index: a for a, g in enumerate(lie.generators, 1)}
        deg = {a: g.degree for a, g in enumerate(lie.generators, 1)}
        products: dict = {}

        def add(a, b, c, v):
            z = products.setdefault((a, b), {})
            z[c] = z.get(c, 0) + v

        for g in lie.generators:
            c = pos[g.index]
            for w, coef in der.int_images.get(g.index, {}).items():
                if len(w) != 2 or not lie.is_key(w):
                    return None
                a, b = pos[w[0]], pos[w[1]]
                sa = -1 if deg[a] % 2 else 1
                if a == b:      # [w_a, w_a] = 2 w_a w_a
                    add(a, a, c, sa * 2 * coef)
                else:   # [w_a, w_b] = w_a w_b - (-1)^(|a||b|) w_b w_a
                    sb = -1 if deg[b] % 2 else 1
                    sab = -1 if deg[a] % 2 and deg[b] % 2 else 1
                    add(a, b, c, sa * coef)
                    add(b, a, c, -sb * sab * coef)
        return cls([deg[a] + 1 for a in range(1, len(pos) + 1)],
                   {ab: {c: Fraction(v, der.den) for c, v in z.items()}
                    for ab, z in products.items()},
                   name=model.name or repr(model))

    def product(self, x: Mapping[int, Fraction], y: Mapping[int, Fraction]
                ) -> dict[int, Fraction]:
        """The product of two combinations of C-bar's basis elements."""
        return _multiply(self.products, x, y)

    def _check(self):
        """The degree of every product, graded commutativity
        xi_b xi_a = (-1)^(|a||b|) xi_a xi_b, and associativity on every
        triple whose product has a degree of C, all on ``int_products``."""
        deg, n = self.degrees, len(self.degrees) - 1
        products = self.int_products
        for (a, b), z in products.items():
            if not (0 < a <= n and 0 < b <= n) or any(
                    not 0 < c <= n or deg[c] != deg[a] + deg[b] for c in z):
                raise InternalInconsistency(
                    f"{self}: the product of {a} and {b} is not of degree "
                    f"{deg[a] + deg[b]}")
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                sign = -1 if deg[a] % 2 and deg[b] % 2 else 1
                if {c: sign * v for c, v in products.get(
                        (a, b), {}).items()} != products.get((b, a), {}):
                    raise InternalInconsistency(
                        f"{self}: the product of {a} and {b} is not graded "
                        f"commutative")
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if deg[a] + deg[b] + 2 > self.top:
                    continue
                ab = products.get((a, b), {})
                for e in range(1, n + 1):
                    if deg[a] + deg[b] + deg[e] <= self.top and _multiply(
                            products, ab, {e: 1}) != _multiply(
                            products, {a: 1}, products.get((b, e), {})):
                        raise InternalInconsistency(
                            f"{self}: the product is not associative on "
                            f"{a}, {b}, {e}")


class MinimalResolution:
    """A minimal free resolution ... -> P_1 -> P_0 -> Q of Q over a
    ``CohomologyAlgebra`` C, grown one total degree t - s at a time, and
    the Ext table it gives.

    P_s = C (x) V_s, with V_s spanned by generators of internal degree t,
    and dim V_s^t = dim Ext_C^(s,t)(Q, Q) as the resolution is minimal:
    each generator's boundary lies in C-bar P_(s-1).  V_0 is Q in degree 0,
    and the augmentation P_0 = C -> Q kills C-bar.  Scaling every product
    of C by one nonzero factor gives an isomorphic algebra (x -> f x on
    C-bar), so the resolution runs on the algebra's ``int_products``, the
    products times their common denominator, with integer boundaries.

    The new generators of V_s in degree t complement, in the kernel of
    the boundary on C-bar P_(s-1) in degree t, the image of the generators
    of V_s below t.  The generators of V_(s-1) of degree t add nothing to
    that kernel, as their boundaries are independent modulo the image of
    the rest, so V_s^t needs V_(s-1) below t only, all of total degree at
    most t - s: the total degree k is complete once the cells (s, s + k),
    s = 1 .. k, are done in order.  Each kernel is ``linalg.relations`` and
    each complement ``linalg.complement``, both on ``linalg``'s
    ``_Echelon``.  d.d = 0 is checked on every new generator, and an image
    outside the kernel raises."""

    def __init__(self, algebra: CohomologyAlgebra):
        self.algebra = algebra
        self.gens: list[list[int]] = [[0]]       # s -> generator degrees
        self.boundary: list[list[Vector]] = [[{}]]  # s -> d g over P_(s-1)
        self.series = [1]        # total degree k -> dim of Ext in it
        self._lie = [0]
        self._pbw = primitive_dims(map(self.ext_dim, itertools.count()))

    def ext_dim(self, k: int) -> int:
        """The sum of dim Ext^(s,t) over t - s = k."""
        while len(self.series) <= k:
            self._grow()
        return self.series[k]

    def lie_dim(self, k: int) -> int:
        """dim H_k(L(W)), for k >= 1: the PBW primitives of the Ext
        series (``primitive_dims``), read up to degree k."""
        while len(self._lie) <= k:
            self._lie.append(next(self._pbw))
        return self._lie[k]

    def _grow(self):
        """The cells (s, s + k), s = 1 .. k, of the next total degree k.
        Cell (s, t) is empty unless V_(s-1) has a generator of degree
        between t - top and t - 2, top the top degree of C; each V_s is
        built in ascending degrees.  Once the lowest generator of V_(s-1)
        lies above t - 2, or V_(s-1) has none, the same holds for every
        s' > s, as the lowest degree of V_s' grows by at least 2 with s'."""
        k = len(self.series)
        top = self.algebra.top
        total = 0
        for s in range(1, k + 1):
            below, t = self.gens[s - 1], s + k
            if not below or below[0] > t - 2:
                break
            if len(self.gens) == s:
                self.gens.append([])
                self.boundary.append([])
            if below[-1] >= t - top:
                total += self._cell(s, t)
        self.series.append(total)

    def _cell(self, s: int, t: int) -> int:
        """Add the generators of V_s in degree t; returns their number."""
        by_degree = self.algebra.by_degree
        cols = []
        for j, dj in enumerate(self.gens[s - 1]):
            for c in by_degree.get(t - dj, ()):
                cols.append((c, j))
        if not cols:
            return 0
        # the boundary on the domain; C-bar is the augmentation's kernel
        rows: dict = {}
        below = self.boundary[s - 1]
        columns = [self._times(c, below[j], rows) for c, j in cols] if (
            s > 1) else [{}] * len(cols)
        kernel = linalg.relations(columns, len(rows))
        if not kernel:
            return 0
        hits = [(c, z) for dh, z in zip(self.gens[s], self.boundary[s])
                for c in by_degree.get(t - dh, ())]
        rank, new = 0, kernel
        if hits:
            col = {key: n for n, key in enumerate(cols)}
            rank, new = linalg.complement(
                [self._times(c, z, col, grow=False) for c, z in hits], kernel)
        if rank + len(new) != len(kernel):
            raise InternalInconsistency(
                f"{self.algebra}: d.d != 0 on V_{s} in degree {t}")
        for z in new:
            if rows and _combine(columns, z):
                raise InternalInconsistency(
                    f"{self.algebra}: d.d != 0 on a generator of V_{s} in "
                    f"degree {t}")
            self.gens[s].append(t)
            self.boundary[s].append({cols[n]: v for n, v in z.items()})
        return len(new)

    def _times(self, c: int, x: Vector, index: dict, grow: bool = True
               ) -> dict:
        """xi_c x for x = sum v (c', j) in P, in integer coordinates over
        the pairs (c'', j) through ``index``; with ``grow``, a pair not yet
        in ``index`` is given the next position."""
        out: dict = {}
        products = self.algebra.int_products
        for (c2, j), v in x.items():
            z = products.get((c, c2))
            if z:
                for c3, u in z.items():
                    key = (c3, j)
                    n = index.get(key)
                    if n is None:
                        if not grow:
                            raise InternalInconsistency(
                                f"{self.algebra}: a boundary leaves the "
                                f"resolution's module")
                        n = index[key] = len(index)
                    out[n] = out.get(n, 0) + v * u
        return {n: v for n, v in out.items() if v}


def _multiply(products: Mapping, x: Mapping, y: Mapping) -> dict:
    """x y for two combinations of C-bar's basis elements, over the
    structure constants ``products``."""
    out: dict = {}
    for a, u in x.items():
        for b, v in y.items():
            for c, w in products.get((a, b), {}).items():
                out[c] = out.get(c, 0) + u * v * w
    return {c: v for c, v in out.items() if v}


def _combine(columns: list[dict], z: dict) -> dict:
    """sum z_n columns[n], without its zero entries."""
    out: dict = {}
    for n, v in z.items():
        for r, u in columns[n].items():
            out[r] = out.get(r, 0) + v * u
    return {r: v for r, v in out.items() if v}
