"""Exception types shared across the package.

Plain ``IndexError`` / ``ValueError`` are raised for bad positions and bad
arguments; the classes here cover failures that signal a broken internal
state rather than caller mistakes.
"""


class InvariantError(Exception):
    """An internal bookkeeping invariant was violated (likely a bug upstream)."""


class AuditError(Exception):
    """A structural audit found a discrepancy between components."""

