"""Counted symbol multisets and the dense table of block-range summaries.

A ``PairTable`` holds the symbol counts of every block range (l, r) with
l ≤ r in one flat vector of 32-bit counts.  Each symbol present owns a
column, and cell (l, r) is the ``width`` counts from position
``(_row_base[l] + r) * width`` on, count ``col`` being that symbol's
multiplicity in blocks l..r; ``width`` ≥ σ' is the column capacity.  The
cells of one row l are contiguous, so a point edit in block j changes column
``col`` of j+1 row runs (l, j..L-1), and each run is one strided slice: it is
read as one Python ``int``, gets ±1 added in every field by one int add, and
is written back.  That is j+1 C-speed passes over (L-j)·4 bytes, whatever
σ'.  A modes query reads one cell as a list of σ' counts, adds one counter
of margin symbols and subtracts another, and finds the top count and its
columns at C speed, O(σ') per query.  The table takes
L(L+1)/2 · width · 4 bytes; the build and every widening first compare
that with what the process can get and raise :class:`MemoryError` instead.

A column is handed out when a symbol first appears and goes back on a free
list when the symbol's count over all blocks falls to 0, so σ' is the size
of the column map.  A symbol that finds no free column widens every cell by
half, copying the table once.  Every decrement first reads the symbol's
count in the source block's own cell and raises :class:`InvariantError` if
it is 0, before any cell changes, so a run add can never borrow from a
neighbouring field.  A field holds counts up to ``MAX_COUNT``; the engine
rejects a layout whose counts could exceed it.

A ``CountedSet`` is a multiset with two mirrored views: a symbol→count map
for O(1) multiplicity lookups and a ranked list ordered by
``(count, symbol)`` for iteration from the most frequent entry downward.
The ranked view is a bisect-maintained sorted list of single integers
encoding ``count << 64 | symbol``, numerically ordered exactly like the
pairs.  ``PairTable.cell`` returns one as a snapshot of a summary cell.
Symbol ids must fit in 64 bits.
"""

from __future__ import annotations

import os
import sys
from array import array
from bisect import bisect_left, insort
from collections import Counter
from itertools import accumulate

from .errors import InvariantError, StaleCursorError

try:
    import resource
except ImportError:  # not on every platform
    resource = None

_SYM_BITS = 64
_ONE = 1 << _SYM_BITS
_MASK = _ONE - 1

MAX_SYMBOL = _MASK

_FIELD_BITS = 32
_FIELD_BYTES = _FIELD_BITS // 8
_ONE_FIELD = (1).to_bytes(_FIELD_BYTES, "little")
MAX_COUNT = (1 << _FIELD_BITS) - 1

# Counts live in an array("I"), one field per item.
if array("I").itemsize != _FIELD_BYTES:
    raise ImportError("rangemodes needs a 4-byte unsigned int ('I') array type")


def _memory_limit() -> int | None:
    """Bytes this process can get: physical memory or its soft address-space limit.

    The smaller of the two, or None when neither can be read.
    """
    limits = []
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        pass
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    return min(limits) if limits else None


def check_table_fits(slots: int, width: int) -> None:
    """Raise :class:`MemoryError` if a table of ``slots`` blocks and ``width``
    columns takes more bytes than the process can get."""
    nbytes = _FIELD_BYTES * width * (slots * (slots + 1) // 2)
    limit = _memory_limit()
    if limit is not None and nbytes > limit:
        raise MemoryError(
            f"summary table needs {nbytes} bytes, more than the {limit} bytes this process can get"
        )


def _zeros(n: int) -> memoryview:
    """A writable view of ``n`` zero 32-bit counts."""
    return memoryview(array("I", bytes(_FIELD_BYTES)) * n)


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
        ranked = self._ranked
        old = self._counts.get(symbol, 0)
        self._counts[symbol] = old + 1
        key = (old << _SYM_BITS) | symbol
        if old:
            del ranked[bisect_left(ranked, key)]
        insort(ranked, key + _ONE)
        self._version += 1

    def decrement(self, symbol: int) -> None:
        """Lower the multiplicity of ``symbol`` by one; it must be present."""
        counts = self._counts
        old = counts.get(symbol, 0)
        if old == 0:
            raise InvariantError(f"decrement of absent symbol {symbol}")
        ranked = self._ranked
        key = (old << _SYM_BITS) | symbol
        del ranked[bisect_left(ranked, key)]
        if old == 1:
            del counts[symbol]
        else:
            counts[symbol] = old - 1
            insort(ranked, key - _ONE)
        self._version += 1

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
    """Triangular table of symbol counts for all block ranges.

    Cell (l, r) counts the symbols stored in blocks l..r inclusive, for
    every 0 ≤ l ≤ r < slots.
    """

    __slots__ = ("_slots", "_row_base", "_width", "_counts", "_ones", "_column", "_symbol", "_free")

    def __init__(self, blocks: list[list[int]]) -> None:
        """Build a fresh table from explicit block contents."""
        slots = len(blocks)
        self._slots = slots
        # Flat triangular layout: cell (l, r) is number _row_base[l] + r.
        self._row_base = [l * slots - (l * (l + 1)) // 2 for l in range(slots)]
        # One 1 in each of the fields of a row run: ``_ones >> 32*j`` has
        # slots - j of them.
        self._ones = int.from_bytes(_ONE_FIELD * slots, "little")
        self._column: dict[int, int] = {}  # symbol -> column
        self._free: list[int] = []
        block_counts = [Counter(block) for block in blocks]
        column = self._column
        for counted in block_counts:
            for symbol in counted:
                column.setdefault(symbol, len(column))
        self._symbol = list(column)  # column -> symbol; a free column keeps its last one
        width = self._width = len(column)
        check_table_fits(slots, width)
        counts = self._counts = _zeros(self.cell_count() * width)
        # Pack each block into one int, field ``col`` holding its count of
        # that column's symbol; row l is then the running sums of words l..
        words = []
        for counted in block_counts:
            word = 0
            for symbol, count in counted.items():
                word += count << (_FIELD_BITS * column[symbol])
            words.append(word)
        nbytes = _FIELD_BYTES * width
        start = 0
        for l in range(slots):
            row = b"".join(w.to_bytes(nbytes, "little") for w in accumulate(words[l:]))
            stop = start + (slots - l) * width
            counts[start:stop] = memoryview(row).cast("I")
            start = stop
        if sys.byteorder == "big":
            counts.obj.byteswap()

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def sigma_prime(self) -> int:
        """Number of distinct symbols present in the blocks."""
        return len(self._column)

    def cell(self, l: int, r: int) -> CountedSet:
        """Snapshot of the summary multiset for blocks ``l..r`` inclusive."""
        start = self._index(l, r)
        symbol = self._symbol
        counts = self._counts[start : start + len(symbol)].tolist()
        return CountedSet._from_counts({symbol[k]: c for k, c in enumerate(counts) if c})

    def modes(
        self, l: int, r: int, margin: Counter[int], minus: Counter[int] | None = None
    ) -> tuple[int, list[int]]:
        """Top multiplicity and its symbols, unsorted, over blocks ``l..r``
        plus ``margin`` minus ``minus``.

        The engine counts each partial end block of a query on one side,
        chosen by its cost rule: the part inside the range goes into
        ``margin`` and the block is left out of ``l..r`` ("in"), or the part
        outside goes into ``minus`` and the block stays in ("out").  Every
        symbol of ``margin`` and ``minus`` must be present in the table, and
        ``minus`` must be part of the cell.
        """
        start = self._index(l, r)
        symbol = self._symbol
        counts = self._counts[start : start + len(symbol)].tolist()
        column = self._column
        try:
            for s, extra in margin.items():
                counts[column[s]] += extra
            if minus:
                for s, extra in minus.items():
                    counts[column[s]] -= extra
        except KeyError as exc:
            raise InvariantError(f"margin symbol {exc.args[0]} has no column") from None
        best = max(counts)
        winners = []
        end = len(counts)
        counts.append(best)  # a sentinel ends the walk in one pass
        k = counts.index(best)
        while k < end:
            winners.append(symbol[k])
            k = counts.index(best, k + 1)
        return best, winners

    def cell_count(self) -> int:
        return self._slots * (self._slots + 1) // 2

    def _index(self, l: int, r: int) -> int:
        """Position of the first count of cell (l, r)."""
        if not 0 <= l <= r < self._slots:
            raise IndexError(f"cell ({l}, {r}) out of range ({self._slots} slots)")
        return (self._row_base[l] + r) * self._width

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------

    def _claim_column(self, symbol: int) -> int:
        """The column of ``symbol``, handing it a free one if it has none."""
        col = self._column.get(symbol)
        if col is None:
            if self._free:
                col = self._free.pop()
                self._symbol[col] = symbol
            else:
                col = len(self._symbol)
                if col == self._width:
                    self._widen()
                self._symbol.append(symbol)
            self._column[symbol] = col
        return col

    def _widen(self) -> None:
        """Give every cell half as many columns again; the new ones count 0."""
        old, width = self._counts, self._width
        new_width = width + width // 2 + 1
        check_table_fits(self._slots, new_width)
        counts = _zeros(self.cell_count() * new_width)
        for col in range(width):
            counts[col::new_width] = old[col::width]
        self._counts, self._width = counts, new_width

    def _source_column(self, j: int, symbol: int) -> int:
        """The column of ``symbol``, which must occur in block ``j``.

        Every cell an edit decrements covers block ``j``, so a nonzero count
        in cell (j, j) keeps all of them from borrowing.
        """
        col = self._column.get(symbol)
        if col is None or not self._counts[(self._row_base[j] + j) * self._width + col]:
            raise InvariantError(f"symbol {symbol} is absent from block {j}")
        return col

    # ------------------------------------------------------------------
    # update routines
    # ------------------------------------------------------------------

    def _add_run(self, cell: int, col: int, step: int, length: int) -> None:
        """Add ``step`` to column ``col`` of the ``length`` cells from number ``cell``.

        ``step`` is a ``length``-field int, +1 or -1 in every field.
        """
        width = self._width
        start = cell * width + col
        run = self._counts[start : start + length * width : width]
        total = int.from_bytes(run, sys.byteorder) + step
        run[:] = memoryview(total.to_bytes(_FIELD_BYTES * length, sys.byteorder)).cast("I")

    def apply_point(self, j: int, symbol: int, delta: int) -> None:
        """Adjust every cell (l, r) with l ≤ j ≤ r by ``delta`` for ``symbol``."""
        slots = self._slots
        if not 0 <= j < slots:
            raise IndexError(f"block {j} out of range ({slots} slots)")
        if delta == 1:
            col = self._claim_column(symbol)
        elif delta == -1:
            col = self._source_column(j, symbol)
        else:
            raise ValueError("delta must be +1 or -1")
        # Row l holds cells (l, j..slots-1) contiguously.
        step = delta * (self._ones >> (_FIELD_BITS * j))
        for base in self._row_base[: j + 1]:
            self._add_run(base + j, col, step, slots - j)
        # Cell (0, slots - 1) covers every block.
        if delta == -1 and not self._counts[(slots - 1) * self._width + col]:
            del self._column[symbol]
            self._free.append(col)

    def shift_left(self, i: int, symbol: int) -> None:
        """Record one ``symbol`` crossing from block ``i`` into block ``i - 1``.

        Cells ending at i-1 gain the symbol; cells starting at i lose it.
        Cells spanning both blocks are untouched.
        """
        slots = self._slots
        if not 1 <= i < slots:
            raise IndexError(f"shift_left source {i} out of range ({slots} slots)")
        col = self._source_column(i, symbol)
        counts, width, row_base = self._counts, self._width, self._row_base
        for base in row_base[:i]:
            counts[(base + i - 1) * width + col] += 1
        self._add_run(row_base[i] + i, col, -(self._ones >> (_FIELD_BITS * i)), slots - i)

    def shift_right(self, i: int, symbol: int) -> None:
        """Record one ``symbol`` crossing from block ``i`` into block ``i + 1``."""
        slots = self._slots
        if not 0 <= i < slots - 1:
            raise IndexError(f"shift_right source {i} out of range ({slots} slots)")
        col = self._source_column(i, symbol)
        counts, width, row_base = self._counts, self._width, self._row_base
        for base in row_base[: i + 1]:
            counts[(base + i) * width + col] -= 1
        j = i + 1
        self._add_run(row_base[j] + j, col, self._ones >> (_FIELD_BITS * j), slots - j)
