"""Solver-wide configuration knobs.

All caps are plain counts.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    # per integer walk (integer_candidates, enumerate_integers): integer values
    # tried, at every level; per floor walk (a cell index or a cold decide_le
    # query), that count for its x candidates plus the leaves r and the optimal
    # responses (x, r) tested at them; per reference oracle, its (x, r) pairs
    cell_cap: int = 10**6
    basis_cap: int = 10**6           # row subsets tried by `vertices`; no solve calls it
    node_cap: int = 10**6            # branch-and-bound nodes per search; a search in one
                                     # integer variable rounds, one node


DEFAULT_CONFIG = SolverConfig()
