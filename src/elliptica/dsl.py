"""Text format (.rhm) for Sullivan and Quillen models, plus the built-in
catalog of standard models.

Grammar (line oriented, '#' comments):

    model <name> : sullivan|quillen
    gen <name> : <degree>
    d <name> = <expr>

Expressions are rational-coefficient sums; products use explicit '*', powers
'^' (Sullivan only), brackets '[a, b]' (Quillen only).  '0' is allowed.
"""
from __future__ import annotations

from fractions import Fraction

from .commutative import Element
from .errors import (BadParameter, DegreeError, ModelSyntaxError,
                     OddSquareError, UnknownCatalogEntry, UnknownGenerator)
from .graded import Generator
from .lie import FreeLie, LieElement
from .quillen import DGLModel
from .sullivan import SullivanModel, tensor_product

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Deepest nesting of brackets in an expression, or of parentheses in a
# catalog spec, that is parsed.  Each level takes a few Python frames, so
# the limit sits well below the interpreter's recursion limit, and deeper
# input is refused with a located error instead of a RecursionError.
MAX_NESTING = 100


# --- tokenizer ---------------------------------------------------------------

_SYMBOLS = set("+-*/^[],")
_DIGITS = set("0123456789")


def _tokenize(text: str, line: int, col0: int):
    """Yield (kind, value, col) with kind in {'int', 'ident', 'sym'}."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = col0 + i
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", int(text[i:j]), col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], col))
            i = j
        elif ch in _SYMBOLS:
            tokens.append(("sym", ch, col))
            i += 1
        else:
            raise ModelSyntaxError(f"unexpected character {ch!r}", line, col)
    return tokens


class _ExprParser:
    """Recursive-descent parser shared by both model kinds."""

    def __init__(self, tokens, line, kind, env):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.kind = kind          # "sullivan" | "quillen"
        self.env = env            # the model kind's _Env (see below)
        self.depth = 0            # brackets open around the current token

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ModelSyntaxError("unexpected end of expression", self.line)
        self.pos += 1
        return t

    def expect_sym(self, s):
        t = self.next()
        if t[0] != "sym" or t[1] != s:
            raise ModelSyntaxError(f"expected {s!r}", self.line, t[2])
        return t

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t is not None:
            raise ModelSyntaxError(f"trailing input {t[1]!r}", self.line, t[2])
        return e

    def expr(self):
        total = {}              # the sum's terms, none of them zero
        sign = 1
        t = self.peek()
        if t and t[:2] == ("sym", "-"):
            self.next()
            sign = -1
        elif t and t[:2] == ("sym", "+"):
            self.next()
        while True:
            for k, c in self.term().terms.items():
                c = total.get(k, _ZERO) + (c if sign == 1 else -c)
                if c:
                    total[k] = c
                else:
                    del total[k]
            t = self.peek()
            if t is None or (t[0] == "sym" and t[1] in (",", "]")):
                return self.env.algebra.element_type._of(total)
            if t[0] == "sym" and t[1] in "+-":
                self.next()
                sign = 1 if t[1] == "+" else -1
            else:
                raise ModelSyntaxError(f"expected '+' or '-', got {t[1]!r}",
                                       self.line, t[2])

    def term(self):
        coeff = _ONE
        value = None            # the non-scalar part, at most one for quillen
        saw_zero = False
        while True:
            t = self.next()
            if t[0] == "int":
                num = t[1]
                nxt = self.peek()
                if nxt and nxt[:2] == ("sym", "/"):
                    self.next()
                    d = self.next()
                    if d[0] != "int" or d[1] == 0:
                        raise ModelSyntaxError("bad rational literal",
                                               self.line, d[2])
                    coeff *= Fraction(num, d[1])
                else:
                    coeff *= num
                if num == 0:
                    saw_zero = True
            elif t[0] == "ident":
                value = self.env.combine(value, self.factor_ident(t), self.line, t[2])
            elif t[:2] == ("sym", "["):
                value = self.env.combine(value, self.factor_bracket(t), self.line, t[2])
            else:
                raise ModelSyntaxError(f"unexpected {t[1]!r}", self.line, t[2])
            nxt = self.peek()
            if nxt and nxt[:2] == ("sym", "*"):
                self.next()
                continue
            break
        if value is None:
            if coeff == 0 or saw_zero:
                return self.env.zero()
            raise DegreeError("a bare nonzero constant is not homogeneous",
                              self.line)
        return value if coeff == 1 else value.scale(coeff)

    def factor_ident(self, t):
        name = t[1]
        if name not in self.env.names:
            raise UnknownGenerator(f"unknown generator {name!r}", self.line, t[2])
        exp = 1
        nxt = self.peek()
        if nxt and nxt[:2] == ("sym", "^"):
            self.next()
            e = self.next()
            if e[0] != "int" or e[1] < 1:
                raise ModelSyntaxError("bad exponent", self.line, e[2])
            exp = e[1]
        return self.env.power(name, exp, self.line, t[2])

    def factor_bracket(self, t):
        if self.kind != "quillen":
            raise ModelSyntaxError("brackets are only valid in quillen models",
                                   self.line, t[2])
        if self.depth == MAX_NESTING:
            raise ModelSyntaxError(
                f"brackets nested deeper than {MAX_NESTING} levels",
                self.line, t[2])
        self.depth += 1
        a = self.expr()
        self.expect_sym(",")
        b = self.expr()
        self.expect_sym("]")
        self.depth -= 1
        return self.env.bracket(a, b)


class _Env:
    """What the expression parser needs of a model kind's algebra."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.names = set(algebra.by_name)

    def zero(self):
        return self.algebra.element_type.zero()


class _SullivanEnv(_Env):
    def power(self, name, exp, line, col):
        g = self.algebra.by_name[name]
        if g.degree % 2 and exp > 1:
            raise OddSquareError(
                f"odd generator {name!r} cannot be squared", line, col)
        return self.algebra.from_monomial(((g.index, exp),))

    def combine(self, value, factor, line, col):
        if value is None:
            return factor
        return self.algebra.multiply(value, factor)


class _QuillenEnv(_Env):
    def power(self, name, exp, line, col):
        if exp != 1:
            raise ModelSyntaxError("powers are not defined in a Lie model",
                                   line, col)
        return self.algebra.gen(name)

    def bracket(self, a, b):
        return self.algebra.bracket(a, b)

    def combine(self, value, factor, line, col):
        if value is not None:
            raise ModelSyntaxError(
                "products of Lie elements are not defined", line, col)
        return factor


# --- parse -------------------------------------------------------------------

def parse(text: str):
    """Parse .rhm source into a validated SullivanModel or DGLModel."""
    header = None
    gen_lines: list[tuple[str, int, int]] = []
    d_lines: list[tuple[str, str, int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if keyword == "model":
            if header is not None:
                raise ModelSyntaxError("duplicate model header", ln)
            if ":" not in rest:
                raise ModelSyntaxError("expected 'model <name> : <kind>'", ln)
            name, kind = (p.strip() for p in rest.split(":", 1))
            if kind not in _KINDS:
                raise ModelSyntaxError(f"unknown model kind {kind!r}", ln)
            if not name.isidentifier():
                raise ModelSyntaxError(f"bad model name {name!r}", ln)
            header = (name, kind)
        elif keyword == "gen":
            if ":" not in rest:
                raise ModelSyntaxError("expected 'gen <name> : <degree>'", ln)
            name, deg = (p.strip() for p in rest.split(":", 1))
            if not name.isidentifier():
                raise ModelSyntaxError(f"bad generator name {name!r}", ln)
            if not deg or not _DIGITS.issuperset(deg) or int(deg) < 1:
                raise ModelSyntaxError(f"bad degree {deg!r}", ln)
            gen_lines.append((name, int(deg), ln))
        elif keyword == "d":
            if "=" not in rest:
                raise ModelSyntaxError("expected 'd <name> = <expr>'", ln)
            name = rest.split("=", 1)[0].strip()
            # the expression as in the raw line, so that token columns are
            # offsets in it
            col = raw.index("=") + 1
            d_lines.append((name, raw.split("#", 1)[0][col:], ln, col))
        else:
            raise ModelSyntaxError(f"unknown directive {keyword!r}", ln)
    if header is None:
        raise ModelSyntaxError("missing 'model' header", 1)
    name, kind = header
    seen = set()
    for gname, _, ln in gen_lines:
        if gname in seen:
            raise ModelSyntaxError(f"duplicate generator {gname!r}", ln)
        seen.add(gname)

    model_type, env_type = _KINDS[kind]
    alg = model_type.algebra_type(
        [Generator(n, d, i) for i, (n, d, _) in enumerate(gen_lines)])
    env = env_type(alg)

    diff = {}
    seen_d = set()
    for gname, expr, ln, col in d_lines:
        if gname not in env.names:
            raise UnknownGenerator(f"unknown generator {gname!r}", ln)
        if gname in seen_d:
            raise ModelSyntaxError(f"duplicate differential for {gname!r}", ln)
        seen_d.add(gname)
        tokens = _tokenize(expr, ln, col)
        if not tokens:
            raise ModelSyntaxError("empty differential expression", ln)
        value = _ExprParser(tokens, ln, kind, env).parse()
        if value.is_zero():
            continue
        g = alg.by_name[gname]
        want = g.degree + alg.derivation_type.step
        if not alg.is_homogeneous(value, want):
            raise DegreeError(
                f"d({gname}) must be homogeneous of degree {want}", ln)
        diff[g.index] = value

    return model_type(alg, diff, name=name).require_valid()


def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# --- serialize ---------------------------------------------------------------

def _element_str(model, g: Generator) -> str:
    """d(g) over the basis, by ascending key: on Lambda V its monomials, on
    L(W) the bracketings of the Lie basis."""
    alg, e = model.algebra, model.d_of_generator(g.index)
    coords = alg.key_coords(alg.degree(e), e)
    if coords is None:
        model.require_valid()       # raises its lie-element issue
    text = ""
    for key, c in sorted(coords.items()):
        body = alg.key_str(key)
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text or "0"


_KINDS = {"sullivan": (SullivanModel, _SullivanEnv),
          "quillen": (DGLModel, _QuillenEnv)}


def serialize(model) -> str:
    """Canonical .rhm text; parse(serialize(m)) equals m structurally."""
    lines = [f"model {model.name or 'unnamed'} : {model.kind}"]
    lines += [f"gen {g.name} : {g.degree}" for g in model.generators]
    lines += [f"d {g.name} = {_element_str(model, g)}"
              for g in model.generators if g.index in model.differential]
    return "\n".join(lines) + "\n"


# --- catalog -----------------------------------------------------------------

def _cpn_sullivan(n: int) -> SullivanModel:
    if n < 1:
        raise BadParameter("cpn_sullivan needs n >= 1")
    x = Generator("x", 2, 0)
    y = Generator("y", 2 * n + 1, 1)
    return SullivanModel([x, y], {1: Element({((0, n + 1),): 1})},
                         name=f"CP{n}")


def _cpn_quillen(n: int) -> DGLModel:
    if n < 1:
        raise BadParameter("cpn_quillen needs n >= 1")
    lie = FreeLie([Generator(f"w{2 * k - 1}", 2 * k - 1, k - 1)
                   for k in range(1, n + 1)])
    # delta w = 1/2 sum over i + j = |w| - 1 of [w_i, w_j], summed in int
    # over the generator keys and halved once
    key = {g.degree: lie.generator_key(g.index) for g in lie.generators}
    diff = {}
    for g in lie.generators:
        total: dict = {}
        for i in range(1, g.degree - 1):
            j = g.degree - 1 - i
            if i in key and j in key:
                for k, c in lie.key_bracket(key[i], key[j]).items():
                    total[k] = total.get(k, 0) + c
        if total:
            diff[g.index] = LieElement._of(
                {k: Fraction(c, 2) for k, c in total.items()})
    return DGLModel(lie, diff, name=f"CP{n}q")


def _sphere_odd(k: int) -> SullivanModel:
    if k < 3 or k % 2 == 0:
        raise BadParameter("sphere_odd needs odd k >= 3")
    return SullivanModel([Generator("x", k, 0)], {}, name=f"S{k}")


def _sphere_even(k: int) -> SullivanModel:
    if k < 2 or k % 2:
        raise BadParameter("sphere_even needs even k >= 2")
    x = Generator("x", k, 0)
    y = Generator("y", 2 * k - 1, 1)
    return SullivanModel([x, y], {1: Element({((0, 2),): 1})}, name=f"S{k}")


def _sphere_odd_quillen(k: int) -> DGLModel:
    if k < 3 or k % 2 == 0:
        raise BadParameter("sphere_odd_quillen needs odd k >= 3")
    return DGLModel([Generator("w", k - 1, 0)], {}, name=f"S{k}q")


def _product(a, b) -> SullivanModel:
    a, b = catalog_spec(str(a)), catalog_spec(str(b))
    if a.kind != "sullivan" or b.kind != "sullivan":
        raise BadParameter("product is defined for sullivan models")
    return tensor_product(a, b)


# name -> (number of parameters, builder); one parameter is an integer
_CATALOG = {
    "sphere_odd": (1, _sphere_odd),
    "sphere_even": (1, _sphere_even),
    "cpn_sullivan": (1, _cpn_sullivan),
    "cpn_quillen": (1, _cpn_quillen),
    "s2": (0, lambda: _sphere_even(2)),
    "s2_quillen": (0, lambda: DGLModel([Generator("w", 1, 0)], {},
                                       name="S2q")),
    "sphere_odd_quillen": (1, _sphere_odd_quillen),
    "product": (2, _product),
}
_ARITY = {0: "{} takes no parameters", 1: "{} takes one integer parameter",
          2: "{} takes two sullivan sub-specs"}
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, *params) -> "SullivanModel | DGLModel":
    """Return a catalog model by name: one of ``CATALOG_NAMES``, e.g.
    sphere_odd(k), cpn_quillen(n), s2 or product(<spec>, <spec>)."""
    if name not in _CATALOG:
        raise UnknownCatalogEntry(f"no catalog entry named {name!r}")
    arity, build = _CATALOG[name]
    if len(params) != arity:
        raise BadParameter(_ARITY[arity].format(name))
    if arity == 1:
        # a spec's integer is ASCII digits only, as in .rhm text; int()
        # would also read a sign, underscores and non-ASCII digits
        p = params[0]
        if isinstance(p, str) and not (p and _DIGITS.issuperset(p)):
            raise BadParameter(_ARITY[1].format(name))
        try:
            params = (int(p),)
        except (TypeError, ValueError):
            raise BadParameter(_ARITY[1].format(name))
    return build(*params)


def catalog_spec(spec: str):
    """Parse specs like 'cpn_sullivan(2)' or 'product(s2, sphere_odd(3))'."""
    spec = spec.strip()
    if "(" not in spec:
        return catalog(spec)
    if not spec.endswith(")"):
        raise UnknownCatalogEntry(f"malformed catalog spec {spec!r}")
    name, inner = spec.split("(", 1)
    inner = inner[:-1]
    # split on top-level commas only
    args, depth, cur = [], 0, ""
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth >= MAX_NESTING:
            raise UnknownCatalogEntry(
                f"catalog spec nested deeper than {MAX_NESTING} levels")
        if ch == "," and depth == 0:
            args.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        args.append(cur)
    return catalog(name.strip(), *[a.strip() for a in args])
