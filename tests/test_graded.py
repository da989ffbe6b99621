import random
from fractions import Fraction

import pytest

from elliptica import dsl, linalg
from elliptica.commutative import Algebra, Element, Generator
from elliptica.errors import DegreeMismatch, ExactnessFailure
from elliptica.graded import check_exact
from elliptica.lie import FreeLie, LieElement

from conftest import CATALOG_QUILLEN_SPECS, CATALOG_SULLIVAN_SPECS


def test_elements_of_the_two_sides_never_compare_equal():
    assert Element() != LieElement()
    assert Element({(): 1}) != LieElement({(): 1})
    assert Element({(): 1}) == Element({(): Fraction(1)})


@pytest.mark.parametrize("cls", [Element, LieElement])
def test_arithmetic_keeps_the_subclass(cls):
    a = cls({(0,): 1, (1,): Fraction(1, 2)})
    b = cls({(0,): -1})
    for e in (a + b, a - b, a.scale(3), -a, cls._of(dict(a.terms)),
              cls.zero()):
        assert type(e) is cls
    assert (a + b).terms == {(1,): Fraction(1, 2)}
    assert (a - a).is_zero()
    assert repr(b).startswith(cls.__name__ + "(")


def test_check_exact():
    inc = linalg.QMatrix.from_rows([[1], [0]])
    check_exact("ok", inc, linalg.QMatrix.from_rows([[0, 1]]))
    with pytest.raises(ExactnessFailure, match="composite nonzero"):
        check_exact("bad", inc, linalg.QMatrix.from_rows([[1, 0]]))
    with pytest.raises(ExactnessFailure, match="im != ker"):
        check_exact("bad", inc, linalg.QMatrix.zero(1, 2))


@pytest.mark.parametrize("spec,degree", [("cpn_sullivan(2)", 4),
                                         ("cpn_quillen(2)", 4)])
def test_class_matrix_columns_are_class_coordinates(spec, degree):
    cx = dsl.catalog_spec(spec).complex()
    _, reps, _ = cx.homology(degree)
    m = cx.class_matrix(degree, [reps[0], reps[0].scale(2)])
    assert m.rows == cx.betti(degree) == 1
    assert m.columns() == [(1,), (2,)]
    assert cx.class_matrix(degree, []) == linalg.QMatrix.zero(1, 0)


@pytest.mark.parametrize("algebra_type", [Algebra, FreeLie])
def test_free_algebra_checks_its_generators_and_derivation_images(
        algebra_type):
    x, y = Generator("x", 2, 0), Generator("y", 3, 1)
    with pytest.raises(ValueError, match="unique"):
        algebra_type([x, Generator("x", 3, 1)])
    alg = algebra_type([x, y])
    with pytest.raises(ValueError, match="subset"):
        algebra_type([x, Generator("z", 4, 2)], source=alg)
    with pytest.raises(ValueError, match="subset"):
        algebra_type([Generator("x", 4, 0)], source=alg)
    assert algebra_type([y], source=alg).generators == [y]
    # |x| + 1 = 3 and |x| - 1 = 1: the degree-2 image is wrong on both sides
    with pytest.raises(DegreeMismatch):
        alg.derivation({0: alg.gen("x")})
    with pytest.raises(DegreeMismatch):
        alg.degree(alg.gen("x") + alg.gen("y"))


@pytest.mark.parametrize("spec", ["cpn_sullivan(2)", "cpn_quillen(2)"])
def test_model_adopts_a_free_algebra(spec):
    m = dsl.catalog_spec(spec)
    copy = type(m)(m.algebra, m.differential, name=m.name)
    assert copy.algebra is m.algebra
    assert dsl.serialize(copy) == dsl.serialize(m)


@pytest.mark.parametrize("spec", CATALOG_SULLIVAN_SPECS + CATALOG_QUILLEN_SPECS)
def test_coordinates_roundtrip_through_the_complex(spec):
    # a random combination of basis elements, summed as elements: to_coords
    # reads its coefficients back and from_coords rebuilds it, on the model
    # and on each truncation, whose tables are restrictions of the parent's
    rng = random.Random(spec)
    m = dsl.catalog_spec(spec)
    for t in [m, *(m.truncate(k) for k in range(1, m.max_generator_degree()))]:
        cx, alg = t.complex(), t.algebra
        for degree in range(1, 9):
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in cx.keys(degree))
            e = alg.element_type.zero()
            for j, c in enumerate(v):
                e = e + alg.basis_element(degree, j).scale(c)
            assert cx.to_coords(degree, e) == v
            assert cx.from_coords(degree, cx.to_coords(degree, e)) == e


@pytest.mark.parametrize("spec", ["cpn_sullivan(3)", "cpn_quillen(3)",
                                  "product(s2,sphere_odd(3))"])
def test_homology_representatives_are_their_sparse_coordinates(spec):
    cx = dsl.catalog_spec(spec).complex()
    for degree in range(0, 10):
        _, reps, reps_v = cx.homology(degree)
        for rep, v in zip(reps, reps_v):
            assert isinstance(v, dict) and list(v) == sorted(v)
            assert cx.sparse_coords(degree, rep) == v
            assert cx.from_coords(degree, v) == rep
            assert cx.from_coords(degree, cx.to_coords(degree, rep)) == rep
