"""Exception types shared across the package.

A precondition failure raises a class of its own, so that a caller can
tell "the formula does not apply here" from "the formula applied and gave
the wrong answer".  The structural sweeps test hypotheses as bools instead.
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
