"""The catalog's CP^n Quillen model and the random Sullivan models, built
in one terms dict per differential, against the element-arithmetic route
of ``build_oracle``: the same generators, the same differential with its
terms in the same order and Fraction coefficients, the same name, and for
the random builders the same draws."""
import random
from fractions import Fraction

import pytest

import build_oracle
from elliptica import dsl, randmodels


def assert_same_model(got, want):
    assert got.name == want.name
    assert got.generators == want.generators
    assert list(got.differential) == list(want.differential)
    for i, img in want.differential.items():
        assert type(got.differential[i]) is type(img)
        assert list(got.differential[i].terms.items()) == list(
            img.terms.items())
        assert all(type(c) is Fraction
                   for c in got.differential[i].terms.values())


@pytest.mark.parametrize("n", range(1, 13))
def test_cpn_quillen_equals_the_element_arithmetic_route(n):
    got = dsl.catalog("cpn_quillen", n)
    assert_same_model(got, build_oracle.cpn_quillen(n))
    assert got.require_valid() is got


def test_cpn_quillen_carries_the_half_weighted_squares():
    q = dsl.catalog("cpn_quillen", 4)
    assert q.differential[3].terms == {(0, 2): 1, (1, 1): Fraction(1, 2)}


@pytest.mark.parametrize("builder", ["random_pure_model",
                                     "random_nonpure_model",
                                     "random_nonelliptic_model"])
def test_random_builders_equal_the_element_arithmetic_route(builder):
    build, oracle = getattr(randmodels, builder), getattr(build_oracle,
                                                          builder)
    for seed in range(300):
        rng, rng_oracle = random.Random(seed), random.Random(seed)
        assert_same_model(build(rng, name=f"m{seed}"),
                          oracle(rng_oracle, name=f"m{seed}"))
        assert_same_model(build(rng), oracle(rng_oracle))
        assert rng.getstate() == rng_oracle.getstate()


def test_random_models_equal_the_element_arithmetic_route():
    rng = random.Random(7)
    for got in randmodels.random_models(7, 20):
        assert_same_model(got, build_oracle.random_pure_model(
            rng, name=got.name))
