"""Exact rational solver for bilevel programs with an integer follower.

The leader chooses continuous z >= 0, the follower answers with an integer
x minimizing its own objective subject to constraints coupled to z; the
leader's infimum may be unattained, and this library detects that exactly.
A pure variant restricts z to integers as well.
"""

__version__ = "0.1.0"

from .cells import (Cell, Instance, bilevel_feasible, cell_infimum, cell_region,
                    enumerate_cells, floor_rhs, is_valid_cell)
from .config import DEFAULT_CONFIG, SolverConfig
from .decide import DecisionScan, decide_eq, decide_le, decide_le_pure
from .engine import (ATTAINED, INFEASIBLE, UNATTAINED, EpsSolution, LexTrace, SolveReport,
                     Telemetry, bisect_decision, denominator_cap, disagreement, eps_point,
                     infimum, lex_extract, objective_bounds, rational_reconstruct,
                     reference_oracle, solve_mixed, solve_pure)
from .errors import (BoundednessError, InfeasibleProblemError, InfeasibleRelaxationError,
                     InternalInvariantError, ResourceLimitError, SolverError, ValidationError)
from .instance_io import (instance_to_json, load_instance, parse_and_validate, parse_instance,
                          render_text, report_to_dict, report_to_json)
from .lattice import enumerate_integers, integer_min, mixed_feasible
from .linear import (LE, EQ, LT, LinRow, LinearSystem, LpOutcome, affinely_independent_vertices,
                     lp_solve, recession_bounded, row_eq, row_le, row_lt, strict_feasible_point,
                     vertices)
from .randgen import random_instance
from .rational import QVector, Rat, floor_rat, format_rat, parse_rat, subdeterminant_bound
