"""The package's error rule, and the number-text rule every reader of
user text applies before it raises.

- :class:`InputError` is for a condition that user input can reach: a
  file, a config value, a frame or the command line itself. The CLI
  prints ``error: <message>`` and exits 1; for a malformed command line
  the message ends with the usage of the command that failed.
- ``OSError`` and ``UnicodeDecodeError`` from reading or writing the
  files the CLI was handed also exit 1.
- ``ValueError`` and any other exception mean a bug in a caller or in
  the package (exit 2).

The message names the check that fired. This module imports nothing
from the package, so every other module can import it.
"""


class InputError(Exception):
    """A condition that user input can reach (exit 1)."""


def holds_foreign_number_text(text: str) -> bool:
    """True for text with a digit-group underscore ("1_0", which int and
    float read as 10) or non-ASCII text (int and float read non-ASCII
    digits and spaces). No number the package writes or documents holds
    either, so the config, synth-spec, ``--init``, PGM-header and CSV
    readers refuse both."""
    return "_" in text or not text.isascii()
