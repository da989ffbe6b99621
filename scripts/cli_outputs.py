#!/usr/bin/env python3
"""Run a fixed set of command lines through ``elliptica.cli.main`` in one
process and print the exit code, stdout and stderr of each.

Every command runs in text, ``--json`` and ``--verbose`` form on catalog
specs and on .rhm files, then come refused windows, larger models, random
models with three even generators, a model whose Whitehead sequence ends
in the certified zero tail, two non-elliptic models and a non-pure
elliptic one, the Quillen fixtures of tests/fixtures, usage errors,
``--help`` and ``compare``.  All calls share
one process, so an option or a state that leaked from one call into the
next would show in the output.  Help and usage text wrap at the terminal
width: run with COLUMNS=80 to compare against
scripts/expected/cli_outputs.txt.

Usage: COLUMNS=80 python3 scripts/cli_outputs.py
"""
import contextlib
import io
import os
import shlex
import sys
import tempfile

from elliptica import cli, dsl, randmodels

COMMANDS = ["check", "cohomology", "invariants", "whitehead", "verify"]
MODELS = ["s2", "sphere_odd(3)", "cpn_sullivan(3)",
          "product(s2,sphere_odd(3))", "s2_quillen", "sphere_odd_quillen(3)",
          "cpn_quillen(2)", "cp2.rhm", "cp2q.rhm", "random.rhm"]
FLAGS = [[], ["--json"], ["--verbose"]]

# members of random_models(7, 20) with three even generators
THREE_EVEN = [4, 13, 18]

# the .rhm fixtures of tests/fixtures
FIXTURES = ["s2xs2q", "s2vs2q", "hp2q", "s2x3q", "cp2xcp2q", "s2xs2xs3q",
            "cubic"]
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "tests", "fixtures")


def fixture_text(name: str) -> str:
    with open(os.path.join(FIXTURE_DIR, f"{name}.rhm"), encoding="utf-8") as f:
        return f.read()


OTHERS = [
    ["catalog"], ["catalog", "--json"], ["catalog", "cpn_sullivan(2)"],
    ["catalog", "product(s2,sphere_odd(3))", "--json"],
    # delta of CP^7 carries the 1/2-weighted squares [w_i, w_i]
    ["catalog", "cpn_quillen(7)"], ["catalog", "cpn_quillen(7)", "--json"],
    ["compare", "cpn_sullivan(2)", "cpn_quillen(2)"],
    ["compare", "cpn_sullivan(2)", "cpn_quillen(2)", "--json"],
    ["compare", "s2", "s2_quillen", "--verbose"],
    ["compare", "cp2.rhm", "cp2q.rhm"],
    ["compare", "cpn_sullivan(2)", "cpn_quillen(3)"],
    ["compare", "cpn_sullivan(3)", "cpn_quillen(3)"],
    # S^3 x S^5 against its Quillen model and against the hyperbolic wedge
    # S^3 v S^5 v S^8, whose homology the window finds past 2 max|W|
    ["compare", "s3xs5.rhm", "s3xs5q.rhm"],
    ["compare", "s3xs5.rhm", "wedge.rhm"],
    # refused windows
    ["invariants", "s2", "--max-degree", "3"],
    ["verify", "cpn_quillen(2)", "--max-degree", "7"],
    ["invariants", "cpn_quillen(2)", "--max-degree", "1", "--json"],
    ["compare", "cpn_sullivan(2)", "cpn_quillen(2)", "--max-degree", "3"],
    # windows that end below the top class: refused, though no cohomology
    # above the candidate formal dimension is in them
    ["invariants", "sphere_odd(11)", "--max-degree", "5"],
    ["verify", "product(sphere_odd(3),sphere_odd(11))", "--max-degree", "9"],
    ["compare", "sphere_odd(11)", "sphere_odd_quillen(11)",
     "--max-degree", "5"],
    ["cohomology", "s2", "--max-degree", "0", "--json"],
    ["whitehead", "s2", "--verbose", "--max-degree", "6"],
    ["whitehead", "s2"],
    # larger models, whose top Whitehead nodes lie in the model's own
    # (co)homology
    ["whitehead", "cpn_quillen(4)", "--json"],
    ["whitehead", "cpn_quillen(4)", "--verbose"],
    ["whitehead", "cpn_sullivan(5)", "--json"],
    ["whitehead", "cpn_sullivan(5)", "--verbose"],
    # quadratic Quillen models whose homology above max|W| is read from Ext
    # over the cohomology algebra, a hyperbolic one, and one with a cubic
    # term, which keeps elimination
    *([c, f"{name}.rhm", *j] for name in FIXTURES
      for c, j in (("whitehead", []), ("invariants", ["--json"]))),
    # random models with three even generators, where most spaces and maps
    # of the Whitehead sequence and the (co)homology are zero
    *([c, f"random{k}.rhm", "--json", "--verbose"] for k in THREE_EVEN
      for c in ("whitehead", "verify")),
    # S^3 x S^5 has no even generator, so it is certified with n = 8; with
    # max|V| = 5, nodes 10-18 of its window are the certified zero tail
    *([c, "s3xs5.rhm", "--json", "--verbose"]
      for c in ("whitehead", "verify")),
    # CP^3 x S^4 and CP^4 x CP^2, whose windows, 22 and 26, reach far above
    # n + 1, so Gamma is read over the decomposables there; the first has a
    # certificate band of two degrees
    *([c, spec, flag] for spec in ("product(cpn_sullivan(3),sphere_even(4))",
                                   "product(cpn_sullivan(4),cpn_sullivan(2))")
      for c, flag in (("verify", "--json"), ("whitehead", "--verbose"))),
    # two non-elliptic models, which the certificate refuses, and a
    # non-pure elliptic one, whose ellipticity it proves
    *([c, f, *j] for f in ("free_x.rhm", "xy_kernel.rhm", "s2_nonpure.rhm")
      for c in ("invariants", "verify", "whitehead")
      for j in ([], ["--json"])),
    # usage, I/O and domain errors
    [], ["frobnicate"], ["whitehead"], ["whitehead", "s2", "--max-degree"],
    ["whitehead", "s2", "--max-degree", "-1"],
    ["whitehead", "s2", "--max-degree", "two"],
    ["catalog", "s2", "--verbose"], ["compare", "s2", "s2"],
    ["check", "no_such_model"], ["check", "cpn_sullivan(x)"],
    ["check", "sphere_odd(4)"], ["check", "missing.rhm"],
    ["check", "bad.rhm"], ["invariants", "poly.rhm"],
    # nesting 400 levels deep, past the parser's limit
    ["check", "product(" * 400 + "s2" + ", s2)" * 400], ["check", "deep.rhm"],
    # help, then a valid command
    ["--help"], ["whitehead", "--help"], ["compare", "-h"],
    ["catalog", "--help"], ["whitehead", "s2", "--json"],
]

FILES = {
    "cp2.rhm": dsl.serialize(dsl.catalog_spec("cpn_sullivan(2)")),
    "cp2q.rhm": dsl.serialize(dsl.catalog_spec("cpn_quillen(2)")),
    "random.rhm": dsl.serialize(randmodels.random_models(7, 3)[2]),
    **{f"random{k}.rhm": dsl.serialize(randmodels.random_models(7, 20)[k])
       for k in THREE_EVEN},
    "bad.rhm": "model m : sullivan\ngen x : 2\nd x = $$\n",
    "poly.rhm": "model poly : sullivan\ngen x : 2\n",
    "deep.rhm": "model deep : quillen\ngen a : 1\ngen b : 2\nd b = "
                + "[a, " * 399 + "[a, a" + "]" * 400 + "\n",
    "free_x.rhm": "model free_x : sullivan\ngen x : 2\ngen y : 3\nd y = 0\n",
    "xy_kernel.rhm": "model xy_kernel : sullivan\ngen x : 2\ngen y : 2\n"
                     "gen z : 3\nd z = x*y\n",
    "s3xs5.rhm": dsl.serialize(
        dsl.catalog_spec("product(sphere_odd(3),sphere_odd(5))")),
    "s3xs5q.rhm": "model s3xs5q : quillen\ngen a : 2\ngen b : 4\n"
                  "gen c : 7\nd c = [a,b]\n",
    "wedge.rhm": "model wedge : quillen\ngen a : 2\ngen b : 4\ngen c : 7\n"
                 "d c = 0\n",
    "s2_nonpure.rhm": "model s2_nonpure : sullivan\ngen x : 2\ngen y : 3\n"
                      "gen a : 3\ngen b : 3\ngen c : 5\nd y = x^2\n"
                      "d c = a*b + x^3\n",
    **{f"{name}.rhm": fixture_text(name) for name in FIXTURES},
}


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (f"$ elliptica {shlex.join(argv)}\nexit: {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def main() -> int:
    cases = [[c, m, *f] for c in COMMANDS for m in MODELS for f in FLAGS]
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in FILES.items():
                with open(name, "w", encoding="utf-8") as f:
                    f.write(text)
            for argv in cases + OTHERS:
                print(run(argv))
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
