"""Typed errors shared across the library.

Every failure mode the CLI maps to a nonzero exit code has a class here, so
callers can catch by type instead of parsing messages.
"""


class CnoweaveError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(CnoweaveError, ValueError):
    """A precondition on an operation's arguments was violated."""


class SpaceMismatchError(InvalidArgumentError):
    """An element was passed to an operation of a different space."""


class BudgetInfeasibleError(CnoweaveError):
    """A dimension/budget threshold could not be met within the searched range.

    Carries the smallest error actually achieved so the caller can report it.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class BudgetOverflowError(CnoweaveError):
    """A budget formula overflowed float range; values reported in log-space."""

    def __init__(self, message, log_value=None):
        super().__init__(message)
        self.log_value = log_value


class PackingInfeasibleError(CnoweaveError):
    """A delta-packing of the requested size could not be constructed."""

    def __init__(self, message, achieved=0):
        super().__init__(message)
        self.achieved = achieved


class TrainingDivergedError(CnoweaveError):
    """Loss became non-finite during training; carries the last finite state."""

    def __init__(self, message, last_params=None, trace=None):
        super().__init__(message)
        self.last_params = last_params
        self.trace = trace

class TrainingShortfallError(CnoweaveError):
    """Training finished but did not reach the requested error gate."""

    def __init__(self, message, achieved=None, gate=None):
        super().__init__(message)
        self.achieved = achieved
        self.gate = gate


class OracleDivergedError(CnoweaveError):
    """Monte Carlo simulation produced non-finite values."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class IntegrityError(CnoweaveError):
    """A persisted artifact failed a hash or format check."""


class ConfigError(CnoweaveError):
    """A run configuration failed to parse or validate.

    ``field`` is a dotted path to the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
