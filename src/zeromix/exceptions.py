"""Exception hierarchy.

Errors split into two families: usage errors (bad patterns, bad config,
malformed data files) and numerical errors (failed factorizations,
degenerate samplers).  The CLI maps the former to exit code 1 and the
latter to exit code 2.  ``_check_count`` is the one integer check of
the package's entry points.
"""

import numpy as np


class ZeromixError(Exception):
    """Base class for all package errors."""


class UsageError(ZeromixError):
    """Invalid input from the user: config, pattern, or data files."""


class NumericalError(ZeromixError):
    """A numerical procedure failed on otherwise valid input."""


class PatternError(UsageError):
    """A zero pattern violates its invariants."""


class DiagonalZeroError(PatternError):
    """A pattern pair constrains a diagonal entry."""


class IndexOutOfRangeError(PatternError):
    """A pattern index is not an integer or falls outside [1, q]."""


class DuplicatePairError(PatternError):
    """The same (unordered) pair appears more than once."""


class PatternViolationError(UsageError):
    """A matrix tagged with a pattern has nonzero constrained entries."""


class NotPositiveDefiniteError(NumericalError):
    """A symmetric factorization found a nonpositive pivot."""


class SingularNormalEquationsError(NumericalError):
    """The free-coordinate Gram matrix of a column update is singular."""


class DomainError(NumericalError):
    """A model was evaluated outside its domain."""


class DegenerateDrawError(NumericalError):
    """Repeated simulation draws fell outside the model domain."""


class DegenerateWeightError(NumericalError):
    """All importance weights for an individual underflowed."""


class ValueOutOfRangeError(UsageError, ValueError):
    """A numeric input falls outside its valid range: a probability
    outside [0, 1], a count or length below its minimum."""


class InputMismatchError(UsageError, ValueError):
    """Inputs that must agree do not: a dataset and the model's design,
    or a study's truth, pattern or start and the model's order."""


class DataFormatError(UsageError):
    """A dataset file is malformed; the message carries the row number."""


class ConfigError(UsageError):
    """A run configuration file is missing keys or holds invalid values."""


def _is_integer(value):
    """True for an ``int`` or a numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name, value, least):
    """Raise ValueOutOfRangeError naming ``name`` unless ``value`` is an
    integer (``int`` or a numpy integer, not a bool) >= ``least``."""
    if not _is_integer(value):
        raise ValueOutOfRangeError("%s must be an integer, got %r" % (name, value))
    if value < least:
        raise ValueOutOfRangeError("%s must be >= %d, got %r" % (name, least, value))
