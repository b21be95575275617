"""Array of block lengths with prefix-select and argmin queries.

No module of the package uses it: :class:`CharSeq` keeps its block ends in
one list of its own.  Its one remaining caller is the benchmark's tracer,
which imports it from the package and wraps its methods.  The sizes live in
a plain list; prefix sums are rebuilt lazily after an edit (O(L)), then
``prefix_sum`` is O(1) and ``select_prefix`` bisects them in O(log L).
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
        """Inclusive prefix sums, shared: entry ``k`` is one past slot ``k``'s last position."""
        if self._prefix is None:
            self._prefix = list(accumulate(self._sizes))
        return self._prefix

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
