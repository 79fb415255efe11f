"""Exception types shared across the solver."""


class SolverError(Exception):
    """Base class for every error the library raises on purpose."""


class ValidationError(SolverError):
    """Instance data failed validation.

    Carries a short machine-readable ``code`` ("bad-shape", "nonintegral-data",
    "unbounded-P", "unbounded-follower", ...) next to the human message.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ResourceLimitError(SolverError):
    """An enumeration or search exceeded its cap: lattice.CELL_CAP,
    lattice.NODE_CAP or linear.BASIS_CAP, which the message names with its
    limit."""


class BoundednessError(SolverError):
    """A required boundedness precondition does not hold."""


class InfeasibleRelaxationError(SolverError):
    """The closed LP relaxation of a problem is empty."""


class InfeasibleProblemError(SolverError):
    """The bilevel feasible set itself is empty (relaxation may be nonempty)."""


class InternalInvariantError(SolverError):
    """An invariant the algorithms guarantee was violated; indicates a bug."""
