"""The exception type shared across the package, and its one type check.

Plain ``IndexError`` / ``ValueError`` are raised for bad positions and bad
arguments; the class here covers failures that signal a broken internal
state rather than caller mistakes.
"""


class InvariantError(Exception):
    """An internal bookkeeping invariant was violated (likely a bug upstream)."""


def check_int(value: object, what: str) -> None:
    """Reject ``value`` unless its type is ``int`` itself, so ``bool`` too;
    ``what`` names it in the message.  The ops repeat the test inline and
    call this only when it fails."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
