"""The exception type shared across the package.

Plain ``IndexError`` / ``ValueError`` are raised for bad positions and bad
arguments; the class here covers failures that signal a broken internal
state rather than caller mistakes.
"""


class InvariantError(Exception):
    """An internal bookkeeping invariant was violated (likely a bug upstream)."""

