"""Counted symbol multisets and the triangular table of block-range summaries.

A ``CountedSet`` keeps two mirrored views of one multiset: a symbol→count map
for O(1) multiplicity lookups and a ranked list ordered by ``(count, symbol)``
for iteration from the most frequent entry downward.  The ranked view is a
bisect-maintained sorted list of single integers encoding
``count << 64 | symbol`` — numerically ordered exactly like the pairs, but
cheaper to compare and free of per-update tuple allocation.  Symbol ids must
fit in 64 bits.

A ``PairTable`` holds one ``CountedSet`` per block-index pair (l, r) with
l ≤ r, stored as a flat triangular array for O(1) cell addressing, plus the
point- and boundary-update routines the engine drives on every edit.

Each update has one body, a module function over an iterable of sets: a
``PairTable`` edit passes a run of O(L) cells in one call, and
``CountedSet.increment``/``decrement`` pass the set alone.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from typing import Iterable

from .errors import InvariantError, StaleCursorError

_SYM_BITS = 64
_ONE = 1 << _SYM_BITS
_MASK = _ONE - 1

MAX_SYMBOL = _MASK


def _increment_all(sets: Iterable[CountedSet], symbol: int) -> None:
    """Raise the multiplicity of ``symbol`` by one in each set."""
    for cs in sets:
        counts = cs._counts
        ranked = cs._ranked
        old = counts.get(symbol, 0)
        counts[symbol] = old + 1
        key = (old << _SYM_BITS) | symbol
        if old:
            del ranked[bisect_left(ranked, key)]
        insort(ranked, key + _ONE)
        cs._version += 1


def _decrement_all(sets: Iterable[CountedSet], symbol: int) -> None:
    """Lower the multiplicity of ``symbol`` by one in each set; it must be present."""
    for cs in sets:
        counts = cs._counts
        old = counts.get(symbol, 0)
        if old == 0:
            raise InvariantError(f"decrement of absent symbol {symbol}")
        ranked = cs._ranked
        key = (old << _SYM_BITS) | symbol
        del ranked[bisect_left(ranked, key)]
        if old == 1:
            del counts[symbol]
        else:
            counts[symbol] = old - 1
            insort(ranked, key - _ONE)
        cs._version += 1


class RankedCursor:
    """Iteration state over a ``CountedSet``'s ranked view.

    Valid only while the owning set is unmodified; any mutation invalidates
    the cursor and the next use raises :class:`StaleCursorError`.
    """

    __slots__ = ("_version", "_idx")

    def __init__(self, version: int, idx: int) -> None:
        self._version = version
        self._idx = idx


class CountedSet:
    """Multiset of symbols with a frequency-ordered view.

    Ranked order is decreasing ``(count, symbol)`` lexicographic: higher
    counts first, ties broken toward the higher symbol id.
    """

    __slots__ = ("_counts", "_ranked", "_version")

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self._ranked: list[int] = []
        self._version = 0

    @classmethod
    def _from_counts(cls, counts: dict[int, int]) -> "CountedSet":
        # Internal fast path for bulk construction; counts must be positive.
        self = cls.__new__(cls)
        self._counts = counts
        self._ranked = sorted((c << _SYM_BITS) | s for s, c in counts.items())
        self._version = 0
        return self

    def __len__(self) -> int:
        """Number of distinct symbols present."""
        return len(self._counts)

    def increment(self, symbol: int) -> None:
        """Raise the multiplicity of ``symbol`` by one."""
        _increment_all((self,), symbol)

    def decrement(self, symbol: int) -> None:
        """Lower the multiplicity of ``symbol`` by one; it must be present."""
        _decrement_all((self,), symbol)

    def count_of(self, symbol: int) -> int:
        """Current multiplicity of ``symbol`` (0 if absent)."""
        return self._counts.get(symbol, 0)

    def max_entry(self) -> tuple[int, int] | None:
        """The ranked-first ``(count, symbol)`` pair, or None when empty."""
        ranked = self._ranked
        if not ranked:
            return None
        key = ranked[-1]
        return key >> _SYM_BITS, key & _MASK

    def cursor(self) -> RankedCursor:
        """Cursor positioned before the ranked-first entry."""
        return RankedCursor(self._version, len(self._ranked))

    def next_entry(self, cursor: RankedCursor) -> tuple[int, int] | None:
        """Advance ``cursor`` and return the next ranked pair, or None at the end."""
        if cursor._version != self._version:
            raise StaleCursorError("set mutated since this cursor was issued")
        cursor._idx -= 1
        idx = cursor._idx
        if idx < 0:
            return None
        key = self._ranked[idx]
        return key >> _SYM_BITS, key & _MASK

    def items(self) -> list[tuple[int, int]]:
        """Snapshot of (symbol, count) pairs in unspecified order."""
        return list(self._counts.items())

    def ranked_pairs(self) -> list[tuple[int, int]]:
        """Snapshot of the ranked view as (count, symbol), most frequent first."""
        return [(key >> _SYM_BITS, key & _MASK) for key in reversed(self._ranked)]

    def matches_counts(self, counts: dict[int, int]) -> bool:
        """Whether both views exactly mirror the given positive-count map."""
        if self._counts != counts:
            return False
        expected = sorted((c << _SYM_BITS) | s for s, c in counts.items())
        return self._ranked == expected


class PairTable:
    """Triangular table of ``CountedSet`` summaries for all block ranges.

    Cell (l, r) mirrors the multiset of symbols stored in blocks l..r
    inclusive, for every 0 ≤ l ≤ r < slots.
    """

    __slots__ = ("_slots", "_cells", "_row_base")

    def __init__(self, blocks: list[list[int]]) -> None:
        """Build a fresh table from explicit block contents."""
        slots = len(blocks)
        self._slots = slots
        # Flat triangular layout: cell (l, r) lives at _row_base[l] + r.
        self._row_base = [l * slots - (l * (l + 1)) // 2 for l in range(slots)]
        # Count each block once; each cell then merges at most sigma' entries
        # instead of rescanning raw block contents.
        block_counts = [Counter(block) for block in blocks]
        cells: list[CountedSet] = []
        for l in range(slots):
            running: dict[int, int] = {}
            get = running.get
            for r in range(l, slots):
                for symbol, count in block_counts[r].items():
                    running[symbol] = get(symbol, 0) + count
                cells.append(CountedSet._from_counts(dict(running)))
        self._cells = cells

    @property
    def slots(self) -> int:
        return self._slots

    def cell(self, l: int, r: int) -> CountedSet:
        """The summary multiset for blocks ``l..r`` inclusive."""
        if not 0 <= l <= r < self._slots:
            raise IndexError(f"cell ({l}, {r}) out of range ({self._slots} slots)")
        return self._cells[self._row_base[l] + r]

    # ------------------------------------------------------------------
    # update routines
    # ------------------------------------------------------------------

    def apply_point(self, j: int, symbol: int, delta: int) -> None:
        """Adjust every cell (l, r) with l ≤ j ≤ r by ``delta`` for ``symbol``."""
        if not 0 <= j < self._slots:
            raise IndexError(f"block {j} out of range ({self._slots} slots)")
        if delta not in (1, -1):
            raise ValueError("delta must be +1 or -1")
        slots = self._slots
        cells = self._cells
        row_base = self._row_base
        update = _increment_all if delta == 1 else _decrement_all
        for l in range(j + 1):
            base = row_base[l]
            update(cells[base + j : base + slots], symbol)

    def shift_left(self, i: int, symbol: int) -> None:
        """Record one ``symbol`` crossing from block ``i`` into block ``i - 1``.

        Cells ending at i-1 gain the symbol; cells starting at i lose it.
        Cells spanning both blocks are untouched.
        """
        if not 1 <= i < self._slots:
            raise IndexError(f"shift_left source {i} out of range ({self._slots} slots)")
        cells = self._cells
        row_base = self._row_base
        _increment_all([cells[row_base[l] + i - 1] for l in range(i)], symbol)
        base = row_base[i]
        _decrement_all(cells[base + i : base + self._slots], symbol)

    def shift_right(self, i: int, symbol: int) -> None:
        """Record one ``symbol`` crossing from block ``i`` into block ``i + 1``."""
        if not 0 <= i < self._slots - 1:
            raise IndexError(f"shift_right source {i} out of range ({self._slots} slots)")
        cells = self._cells
        row_base = self._row_base
        _decrement_all([cells[row_base[l] + i] for l in range(i + 1)], symbol)
        base = row_base[i + 1]
        _increment_all(cells[base + i + 1 : base + self._slots], symbol)

    def cell_count(self) -> int:
        return len(self._cells)
