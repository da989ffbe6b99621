#!/usr/bin/env python3
"""Print the canonical .rhm text of every catalog model in
catalog_report.py and of random_models(7, 20).

Usage: python3 scripts/serialize_models.py
"""
import sys

from catalog_report import QUILLEN, SULLIVAN
from elliptica import dsl, randmodels


def main() -> int:
    for spec in SULLIVAN + QUILLEN:
        print(f"# {spec}")
        print(dsl.serialize(dsl.catalog_spec(spec)))
    for m in randmodels.random_models(7, 20):
        print(f"# random_models(7, 20): {m.name}")
        print(dsl.serialize(m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
