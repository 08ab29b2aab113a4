"""Exception types shared across the package.

Precondition failures are deliberately distinct classes so that harness
code can tell "the formula does not apply here" apart from "the formula
applied and gave the wrong answer".
"""


class SizeMismatchError(ValueError):
    """Two permutations (or a permutation and a matrix) have different sizes."""


class SizeGuardError(ValueError):
    """An exhaustive operation was requested beyond its cost guard."""


class ShapeError(ValueError):
    """A matrix has the wrong shape for the requested operation."""


class PreconditionError(ValueError):
    """A stated hypothesis of an operation does not hold for the input."""


class PatternPreconditionError(PreconditionError):
    """The permutation contains a pattern the operation requires it to avoid."""
