#!/usr/bin/env python3
"""Walk through the bundled example instance step by step.

Shows the cell decomposition with each cell's infimum (the least of them is
the mixed infimum), the decision oracle at a few thresholds, and the final
reports for both variants. Run from the repository root:

    python3 scripts/solve_example1.py
"""
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bilevel_exact import (DEFAULT_CONFIG, cell_infimum, decide_le,
                           enumerate_cells, parse_and_validate, render_text,
                           solve_mixed, solve_pure)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "..", "instances", "example1.json")


def main():
    inst = parse_and_validate(FIXTURE)
    print(f"instance: n={inst.n} d={inst.d} m={inst.m} h={inst.h}")

    obj = inst.objective_vector()
    print("\ncells (x, r) with objective infima:")
    for cell in enumerate_cells(inst, DEFAULT_CONFIG):
        inf, attained, witness = cell_infimum(inst, cell, obj)
        tag = "attained" if attained else "open"
        print(f"  x={cell.x} r={cell.r}  inf={inf} ({tag})  witness={tuple(witness.entries)}")

    print("\ndecision oracle:")
    for alpha in (Fraction(0), Fraction(-1, 2), Fraction(-7, 8), Fraction(-1)):
        ans = decide_le(inst, alpha, DEFAULT_CONFIG)
        print(f"  exists value <= {alpha}?  {ans}")

    print("\nmixed solve (epsilon = 1/8):")
    print(render_text(solve_mixed(inst, eps=Fraction(1, 8))), end="")

    print("\npure solve:")
    print(render_text(solve_pure(inst)), end="")


if __name__ == "__main__":
    main()
