"""Array of block lengths with prefix-select and argmin queries.

:class:`CharSeq` keeps one of these over the lengths of its block lists, and
the engine reads every block boundary from it.

The slot count is fixed between layout resets and stays in the hundreds, so
the sizes live in a plain list.  Prefix sums are rebuilt lazily after an edit
(O(L)); between edits ``prefix_sum`` and ``prefix_sums`` are O(1) and
``select_prefix`` bisects them in O(log L).  ``argmin_size_in`` scans its
range in O(L).  An engine edit already touches O(L²) summary cells, so these
costs stay inside its bounds.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Iterable

from .errors import InvariantError


class BlockSizeIndex:
    """Ordered array of non-negative block sizes with aggregate queries."""

    __slots__ = ("_sizes", "_prefix")

    def __init__(self, sizes: Iterable[int] = ()) -> None:
        self._sizes = list(sizes)
        if any(size < 0 for size in self._sizes):
            raise InvariantError("block sizes must be non-negative")
        self._prefix: list[int] | None = None  # inclusive prefix sums, None when stale

    def prefix_sums(self) -> list[int]:
        """Inclusive prefix sums: entry ``k`` is one past the last position of slot ``k``.

        The list is shared, not copied: read it, do not change it, and fetch
        it again after any edit.
        """
        if self._prefix is None:
            self._prefix = list(accumulate(self._sizes))
        return self._prefix

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of slots."""
        return len(self._sizes)

    def total(self) -> int:
        """Sum of all slot sizes."""
        prefix = self.prefix_sums()
        return prefix[-1] if prefix else 0

    def size_of(self, i: int) -> int:
        """Size stored in slot ``i``."""
        self._check_index(i)
        return self._sizes[i]

    def to_list(self) -> list[int]:
        return list(self._sizes)

    def _check_index(self, i: int) -> None:
        # A list would silently accept negative indices.
        n = len(self._sizes)
        if not 0 <= i < n:
            raise IndexError(f"slot {i} out of range ({n} slots)")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def adjust(self, i: int, delta: int) -> None:
        """Add ``delta`` to slot ``i``; the result must stay non-negative."""
        self._check_index(i)
        value = self._sizes[i]
        if value + delta < 0:
            raise InvariantError(f"slot {i} would become negative ({value} + {delta})")
        self._sizes[i] = value + delta
        self._prefix = None

    def prefix_sum(self, k: int) -> int:
        """Inclusive prefix sum of slots ``0..k``."""
        self._check_index(k)
        return self.prefix_sums()[k]

    def select_prefix(self, a: int) -> int:
        """Smallest ``k`` whose inclusive prefix sum reaches ``a`` (1 ≤ a ≤ total)."""
        total = self.total()
        if a <= 0 or a > total:
            raise IndexError(f"prefix target {a} out of range (total {total})")
        return bisect_left(self.prefix_sums(), a)

    def argmin_size(self) -> int:
        """Lowest-index slot holding a minimum size."""
        if not self._sizes:
            raise ValueError("argmin of an empty index")
        return self.argmin_size_in(0, len(self._sizes) - 1)

    def argmin_size_in(self, lo: int, hi: int) -> int:
        """Lowest-index minimum within slots ``[lo, hi]``."""
        n = len(self._sizes)
        if not (0 <= lo <= hi < n):
            raise IndexError(f"slot range [{lo}, {hi}] invalid ({n} slots)")
        return min(range(lo, hi + 1), key=self._sizes.__getitem__)

    # ------------------------------------------------------------------
    # slot edits
    # ------------------------------------------------------------------

    def insert_slot(self, i: int, x: int) -> None:
        """Insert a new slot holding ``x`` at position ``i``."""
        n = len(self._sizes)
        if not 0 <= i <= n:
            raise IndexError(f"slot insert position {i} out of range ({n} slots)")
        if x < 0:
            raise InvariantError("block sizes must be non-negative")
        self._sizes.insert(i, x)
        self._prefix = None

    def delete_slot(self, i: int) -> None:
        """Remove slot ``i``."""
        self._check_index(i)
        del self._sizes[i]
        self._prefix = None
