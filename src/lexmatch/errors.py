"""Exception types shared across the package.

Each error class maps to one CLI exit code (see cli.py).
"""


class LexmatchError(Exception):
    """Base class for all package errors."""


class InvalidInputError(LexmatchError):
    """Malformed instance/matching data: bad dimensions, negative values,
    broken capacity bounds, unparseable files."""


class NotAdmissibleError(InvalidInputError):
    """The instance fails the structural preconditions of the requested solver
    (e.g. a ranked-only solver on an unranked instance)."""


class NpHardRegimeError(LexmatchError):
    """Automatic dispatch found no polynomial solver for this instance class.
    The exhaustive oracle remains available via --algo oracle."""


class InfeasibleError(LexmatchError):
    """No complete matching exists (n < m, or total capacity below n)."""


class BudgetExceededError(LexmatchError):
    """The exhaustive oracle would enumerate more candidates than allowed."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of an immutable Instance.
    An AttributeError, so code that catches that still catches it."""
