"""Exception hierarchy shared by every module in the package.

Two families matter to callers: :class:`DataError` covers everything wrong
with user-supplied input (bad files, mismatched dimensions, impossible
coalitions), while :class:`CapacityError` signals that an exact computation
was refused because its estimated work passes the one work cap.
The command line maps these to distinct exit codes.
"""

from __future__ import annotations

from typing import Optional


class VotefuseError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(VotefuseError):
    """An exact computation exceeds its documented size cap.

    A message states the estimated work, the limit it passes and, where one
    exists, the Monte Carlo route to take instead.
    """


class DataError(VotefuseError):
    """User-supplied data is malformed or inconsistent."""


class WeightScaleError(DataError, OverflowError):
    """Weights and quota scaled to a common denominator do not fit in 64 bits."""


class InvalidCoalitionError(DataError):
    """A coalition refers to players outside the game."""


class DimensionError(DataError):
    """Two inputs that must agree in size do not."""


class EvidenceError(DataError):
    """An estimate was requested from empty or contradictory evidence."""


class BallotError(DataError):
    """A ranked ballot is not a permutation of the expected labels."""


class SampleError(DataError):
    """One sample of a prediction set holds a bad value.

    ``sample`` is the row; ``classifier`` is the index of the classifier
    whose output is bad, or None for the true label. Parsers use the two to
    name the file line and column.
    """

    def __init__(self, message: str, *, sample: int, classifier: Optional[int] = None):
        self.sample = sample
        self.classifier = classifier
        super().__init__(message)


class ParseError(DataError):
    """A file could not be parsed; carries file, line, and column."""

    def __init__(self, message: str, *, path: str = "", line: int = 0, column: int = 0):
        self.path = path
        self.line = line
        self.column = column
        where = f"{path}:{line}:{column}: " if path else ""
        super().__init__(f"{where}{message}")


class ConfigurationWarning(UserWarning):
    """An option combination is legal but has no effect (e.g. weights with a rule that ignores them)."""
