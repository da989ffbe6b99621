import random

import pytest

from elliptica import dsl, randmodels
from elliptica.errors import (BadParameter, DegreeError, ModelSyntaxError,
                              OddSquareError, UnknownCatalogEntry,
                              UnknownGenerator, ValidationError)
from elliptica.quillen import DGLModel
from elliptica.sullivan import SullivanModel

from conftest import CATALOG_QUILLEN_SPECS, CATALOG_SULLIVAN_SPECS


def models_equal(a, b):
    if type(a) is not type(b):
        return False
    if [(g.name, g.degree) for g in a.generators] != \
            [(g.name, g.degree) for g in b.generators]:
        return False
    keys = set(a.differential) | set(b.differential)
    return all(a.differential.get(k) == b.differential.get(k) for k in keys)


@pytest.mark.parametrize("spec",
                         CATALOG_SULLIVAN_SPECS + CATALOG_QUILLEN_SPECS)
def test_roundtrip_catalog(spec):
    m = dsl.catalog_spec(spec)
    assert models_equal(m, dsl.parse(dsl.serialize(m)))


def test_roundtrip_random_models():
    rng = random.Random(4242)
    for i in range(25):
        m = randmodels.random_pure_model(rng, name=f"rt{i}")
        assert models_equal(m, dsl.parse(dsl.serialize(m)))


def test_parse_basic_sullivan():
    m = dsl.parse("""
# a 2-sphere
model s2 : sullivan
gen x : 2
gen y : 3
d y = x^2
""")
    assert isinstance(m, SullivanModel)
    assert [(g.name, g.degree) for g in m.generators] == [("x", 2), ("y", 3)]


def test_parse_rational_coefficients_and_brackets():
    m = dsl.parse("""
model cp2q : quillen
gen w1 : 1
gen w3 : 3
d w3 = 1/2*[w1,w1]
""")
    assert isinstance(m, DGLModel)
    assert not m.delta_of_generator(1).is_zero()


def test_parse_zero_differential_allowed():
    m = dsl.parse("model z : sullivan\ngen x : 2\ngen y : 5\nd y = 0\n")
    assert m.d_of_generator(1).is_zero()


def test_missing_header_reports_line():
    with pytest.raises(ModelSyntaxError) as ei:
        dsl.parse("gen x : 2\n")
    assert ei.value.line == 1


def test_bad_directive_reports_line():
    with pytest.raises(ModelSyntaxError) as ei:
        dsl.parse("model m : sullivan\ngen x : 2\nfrobnicate x\n")
    assert ei.value.line == 3


def test_unknown_generator_reports_line():
    with pytest.raises(UnknownGenerator) as ei:
        dsl.parse("model m : sullivan\ngen x : 2\ngen y : 5\nd y = x*z\n")
    assert ei.value.line == 4


def test_degree_error_reports_line():
    with pytest.raises(DegreeError) as ei:
        dsl.parse("model m : sullivan\ngen x : 2\ngen y : 5\nd y = x^2\n")
    assert ei.value.line == 4  # x^2 has degree 4, needs 6


def test_odd_square_reports_line():
    with pytest.raises(OddSquareError) as ei:
        dsl.parse("model m : sullivan\ngen x : 2\ngen u : 3\ngen y : 7\n"
                  "d y = u^2*x\n")
    assert ei.value.line == 5


def test_validation_error_for_broken_d_squared():
    with pytest.raises(ValidationError) as ei:
        dsl.parse("model m : sullivan\ngen x : 2\ngen y : 3\ngen z : 4\n"
                  "d y = x^2\nd z = x*y\n")
    # the error carries the model and its report
    assert ei.value.model.name == "m"
    assert [i.check for i in ei.value.report.issues] == ["d-squared"]
    assert str(ei.value) == "SullivanModel(m): d-squared (z): d(d(z)) != 0"


def test_serialize_refuses_an_image_outside_the_lie_algebra():
    from elliptica.lie import LieElement, LieGenerator
    gens = [LieGenerator("a", 2, 0), LieGenerator("b", 5, 1)]
    # a (x) a is not a bracket: [a, a] = 0 for even a
    m = DGLModel(gens, {1: LieElement({(0, 0): 1})}, name="m")
    with pytest.raises(ValidationError, match=r"lie-element \(b\)") as ei:
        dsl.serialize(m)
    assert ei.value.model is m


def test_bracket_in_sullivan_rejected():
    with pytest.raises(ModelSyntaxError) as ei:
        dsl.parse("model m : sullivan\ngen x : 2\ngen y : 3\nd y = [x,x]\n")
    assert ei.value.line == 4


def test_power_in_quillen_rejected():
    with pytest.raises(ModelSyntaxError):
        dsl.parse("model m : quillen\ngen u : 2\ngen v : 5\nd v = u^2\n")


def test_duplicate_generator_rejected():
    with pytest.raises(ModelSyntaxError) as ei:
        dsl.parse("model m : sullivan\ngen x : 2\ngen x : 4\n")
    assert ei.value.line == 3


def test_catalog_errors():
    with pytest.raises(UnknownCatalogEntry):
        dsl.catalog("does_not_exist")
    with pytest.raises(BadParameter):
        dsl.catalog("sphere_odd", 4)     # must be odd
    with pytest.raises(BadParameter):
        dsl.catalog("sphere_even", 3)    # must be even
    with pytest.raises(BadParameter):
        dsl.catalog("cpn_sullivan")      # missing parameter


@pytest.mark.parametrize("name,params,message", [
    ("s2", (1,), "s2 takes no parameters"),
    ("s2_quillen", (1,), "s2_quillen takes no parameters"),
    ("cpn_quillen", ("a",), "cpn_quillen takes one integer parameter"),
    ("sphere_odd", (3, 5), "sphere_odd takes one integer parameter"),
    ("product", ("s2",), "product takes two sullivan sub-specs"),
    ("product", ("s2", "s2_quillen"), "product is defined for sullivan")])
def test_catalog_parameter_errors(name, params, message):
    with pytest.raises(BadParameter, match=message):
        dsl.catalog(name, *params)


def test_catalog_names_are_the_catalog():
    # every listed name is an entry: too many parameters, not an unknown name
    for name in dsl.CATALOG_NAMES:
        with pytest.raises(BadParameter):
            dsl.catalog(name, "x", "y", "z")


def test_catalog_spec_nested_product():
    m = dsl.catalog_spec("product(product(s2,sphere_odd(3)),sphere_odd(5))")
    assert isinstance(m, SullivanModel)
    assert len(m.generators) == 4


def test_serialize_orders_terms_by_key_not_by_basis():
    # the degree-4 basis is y^2, x*y, x^2; sorted monomials put x first
    m = dsl.parse("model m : sullivan\ngen x : 2\ngen y : 2\ngen z : 3\n"
                  "d z = y^2 + x^2 + x*y\n")
    assert m.algebra.basis(4) == [((1, 2),), ((0, 1), (1, 1)), ((0, 2),)]
    assert dsl.serialize(m).splitlines()[-1] == "d z = x*y + x^2 + y^2"


def test_serialize_is_deterministic(cp2q):
    assert dsl.serialize(cp2q) == dsl.serialize(cp2q)


@pytest.mark.parametrize("spec", ["cpn_sullivan(٣)", "cpn_sullivan(1_0)",
                                  "sphere_odd(0_3)", "cpn_sullivan(+2)"])
def test_a_spec_integer_is_ascii_digits_only(spec):
    # int() reads these as 3, 10, 3 and 2
    with pytest.raises(BadParameter, match="takes one integer parameter"):
        dsl.catalog_spec(spec)


def test_library_callers_may_pass_integers_or_digit_strings():
    assert dsl.catalog("cpn_sullivan", 3).name == "CP3"
    assert dsl.catalog("cpn_sullivan", "3").name == "CP3"
    with pytest.raises(BadParameter):
        dsl.catalog("cpn_sullivan", "")


def nested_brackets(depth):
    """[a, [a, ... [a, a] ...]], ``depth`` brackets deep."""
    return "[a, " * (depth - 1) + "[a, a" + "]" * depth


def nested_product(depth):
    """product(product(... s2, s2) ..., s2), ``depth`` parentheses deep."""
    return "product(" * depth + "s2" + ", s2)" * depth


def test_a_catalog_spec_nested_past_the_limit_is_refused():
    # 400 levels overflowed the interpreter's stack as a RecursionError
    for depth in (dsl.MAX_NESTING + 1, 400):
        with pytest.raises(UnknownCatalogEntry, match="nested deeper"):
            dsl.catalog_spec(nested_product(depth))
    m = dsl.catalog_spec(nested_product(dsl.MAX_NESTING))
    assert len(m.generators) == 2 * (dsl.MAX_NESTING + 1)


def test_brackets_nested_past_the_limit_are_a_located_syntax_error():
    # the error sits at the first opening bracket past the limit
    for depth in (dsl.MAX_NESTING + 1, 400):
        line = f"d b = {nested_brackets(depth)}"
        with pytest.raises(ModelSyntaxError, match="nested deeper") as ei:
            dsl.parse(f"model m : quillen\ngen a : 1\ngen b : 2\n{line}\n")
        opening = [i for i, ch in enumerate(line) if ch == "["]
        assert (ei.value.line, ei.value.col) == (4, opening[dsl.MAX_NESTING])


def test_nested_brackets_within_the_limit_parse():
    # [a, a] is the basis element [a,a] for the odd a, and [a, [a, a]] = 0
    # by Jacobi, so every deeper bracket is 0 too
    m = dsl.parse("model m : quillen\ngen a : 1\ngen b : 3\nd b = [a, a]\n")
    assert dsl.serialize(m).splitlines()[-1] == "d b = [a,a]"
    m = dsl.parse("model m : quillen\ngen a : 1\ngen b : 3\n"
                  "d b = [a, [a, a]] + [a, [a, [a, a]]]\n")
    assert m.differential == {}
    # two brackets at the limit side by side: each closed bracket gives its
    # level back
    deep = nested_brackets(dsl.MAX_NESTING)
    m = dsl.parse(f"model m : quillen\ngen a : 1\ngen b : 2\n"
                  f"d b = {deep} + {deep}\n")
    assert m.differential == {}
