#!/usr/bin/env python3
"""Print the invariant table for every built-in catalog model.

Usage: python3 scripts/catalog_report.py
"""
import sys

from elliptica import dsl, invariants

SULLIVAN = [
    "sphere_odd(3)", "sphere_odd(5)", "sphere_odd(7)",
    "s2", "sphere_even(4)",
    "cpn_sullivan(1)", "cpn_sullivan(2)", "cpn_sullivan(3)",
    "product(s2,sphere_odd(3))",
    "product(sphere_odd(3),sphere_odd(5))",
    "product(s2,sphere_even(4))",
]
QUILLEN = ["s2_quillen", "sphere_odd_quillen(3)", "sphere_odd_quillen(5)",
           "cpn_quillen(1)", "cpn_quillen(2)", "cpn_quillen(3)"]


def main() -> int:
    print(f"{'model':34} {'n':>3} {'chi_H':>6} {'chi_V':>6} {'rho':>4} "
          f"{'F0':>3} {'S_odd':>5}")
    for spec in SULLIVAN:
        m = dsl.catalog_spec(spec)
        rep = invariants.invariant_report(m)
        print(f"{spec:34} {rep.formal_dimension:>3} {rep.chi_h:>6} "
              f"{rep.chi_v:>6} {rep.rho:>4} {str(rep.f0):>3} "
              f"{str(rep.odd_sphere):>5}")
    print()
    print(f"{'model':34} {'eta':>4}  gamma dims")
    for spec in QUILLEN:
        a = invariants.QuillenAnalysis(dsl.catalog_spec(spec))
        gam = {i: d for i, d in a.gamma_table().items() if d}
        print(f"{spec:34} {a.eta():>4}  {gam or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
