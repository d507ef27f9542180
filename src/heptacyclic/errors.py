"""Exception types shared across the package.

Input validation problems raise plain ``ValueError`` with a message naming
the offending field/index, and an entry that is neither a real number nor
a scalar text raises ``TypeError`` naming its type when a matrix or a
right-hand side takes it in; everything below signals a condition
specific to the banded solvers.
"""


class HeptaError(Exception):
    """Base class for solver-specific failures."""


class SingularMatrixError(HeptaError):
    """The matrix has determinant zero; no inverse / unique solution exists."""


class PoleAtZeroError(HeptaError):
    """A symbolic quantity has a pole at t=0 after reduction.

    For a nonsingular input this indicates an implementation bug, never a
    property of the data.
    """


class NearSingularPivotError(HeptaError):
    """Float backend hit a pivot below tolerance."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"near-singular pivot at {index}, use exact backend")


class DegreeCapError(HeptaError):
    """Symbolic polynomial degree exceeded the cap of 64."""


class InternalContractError(HeptaError):
    """An internal precondition was violated (e.g. a zero C_j reaching the
    column recursion, which takes such a column by substitution instead)."""
