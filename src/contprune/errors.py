"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class InputError(ValueError):
    """Invalid user-supplied data (tokens, files, ranges)."""


class FormatError(ValueError):
    """A serialized artifact (checkpoint, state file) is malformed."""


class UsageError(ValueError):
    """An operation was invoked with an inconsistent configuration."""


class NumericalError(ArithmeticError):
    """A numerical routine failed (non-convergence, rank deficiency)."""


class TrainingError(RuntimeError):
    """Training diverged or produced non-finite values."""


# The package's own errors: the command line prints one line for each.
PACKAGE_ERRORS = (
    ShapeError, InputError, FormatError, UsageError, NumericalError, TrainingError,
)

# What a failed grid ordering records as an ``errors`` entry, the run going
# on; any other exception is a programming error and ends the run.
RECOVERABLE_ERRORS = (*PACKAGE_ERRORS, FloatingPointError)
