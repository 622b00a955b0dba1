"""Exception types raised on invalid inputs, and the number-text rule
every reader of user text applies before it raises them.

Everything here derives from :class:`InputError`, which the CLI maps to
exit code 1. Any other exception escaping the library is an internal
error (exit code 2). This module imports nothing from the package, so
every other module can import it.
"""


class InputError(Exception):
    """Base class for all input-contract violations."""


def holds_foreign_number_text(text: str) -> bool:
    """True for text with a digit-group underscore ("1_0", which int and
    float read as 10) or non-ASCII text (int and float read non-ASCII
    digits and spaces). No number the package writes or documents holds
    either, so the config, synth-spec, ``--init``, PGM-header and CSV
    readers refuse both."""
    return "_" in text or not text.isascii()


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


# --- solvers ---

class NonFiniteInput(InputError):
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
