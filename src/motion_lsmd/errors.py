"""Exception types raised on invalid inputs.

Everything here derives from :class:`InputError`, which the CLI maps to
exit code 1. Any other exception escaping the library is an internal
error (exit code 2).
"""


class InputError(Exception):
    """Base class for all input-contract violations."""


# --- ingest ---

class MissingSource(InputError):
    pass


class MalformedPgm(InputError):
    pass


class FrameTooSmall(InputError):
    pass


class InconsistentDimensions(InputError):
    pass


class TooFewFrames(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class NonPositiveScale(InputError):
    pass


class PatchTooLarge(InputError):
    pass


class EmptyProposals(InputError):
    pass


# --- sparse solvers ---

class NonFiniteInput(InputError):
    pass


class BadShape(InputError):
    pass


class NegativeTau(InputError):
    pass


# --- lsmd ---

class ShapeMismatch(InputError):
    pass


# --- tracker ---

class EmptyDictionary(InputError):
    pass


class BadBlocking(InputError):
    pass


class InitOutOfBounds(InputError):
    pass


# --- detector ---

class EmptyScores(InputError):
    pass


class BadThresholds(InputError):
    pass


class UnsortedInput(InputError):
    pass


class NegativeCounts(InputError):
    pass


class EventOutOfRange(InputError):
    pass


# --- config / cli ---

class UnknownKey(InputError):
    pass


class InvalidValue(InputError):
    pass


class RangeError(InputError):
    pass


class UsageError(InputError):
    pass
