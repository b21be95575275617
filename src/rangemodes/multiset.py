"""The dense table of block-range summaries and its cell snapshots.

A ``PairTable`` holds the symbol counts of every block range (l, r) with
l ≤ r in one flat vector of 32-bit counts.  Each symbol present owns a
column, and cell (l, r) is the ``width`` counts from position
``(_row_base[l] + r) * width`` on, count ``col`` being that symbol's
multiplicity in blocks l..r; ``width`` ≥ σ' is the column capacity.  The
cells of one row l are contiguous, so a point edit in block j changes column
``col`` of j+1 row runs (l, j..L-1), and each run is one strided slice: it is
read as one Python ``int``, gets ±1 added in every field by one int add, and
is written back.  That is j+1 C-speed passes over (L-j)·4 bytes, whatever
σ'.  A modes query reads one cell, adds the packed count words of the
whole chunks in its margin and subtracts those of the chunks outside (a
count word packs count ``col`` into bits 32·col up, the layout of a cell
read as one ``int``), as one int sum unpacked to a list of σ' counts.  It
then adds one counter of loose margin symbols and subtracts another, and
finds the top count and its columns at C speed, O(σ') per query.  The table
takes L(L+1)/2 · width · 4 bytes, and the chunk words beside it up to
(2N/S + L) · width · 4 more; the :class:`CharSeq` build, before it counts
a chunk, and every widening first compare the two with what the process
can get and raise :class:`MemoryError` instead.

The column map is the one :class:`CharSeq` builds, one column per symbol
of its blocks in increasing order, shared by both.  After the build the
table alone hands out columns: a new symbol gets one when it is inserted,
and it goes back on a free list when the symbol's count over all blocks
falls to 0, so σ' is the size of the column map.  A symbol that finds no free column
widens every cell by half, copying the table once; the chunk words, Python
ints, need no widening, and hold 0 in a freed column.  Every decrement
first reads the symbol's count in the source block's own cell and raises
:class:`InvariantError` if it is 0, before any cell changes, so a run add
can never borrow from a neighbouring field.  A field holds counts up to ``MAX_COUNT``; the engine
rejects a layout whose counts could exceed it.

``PairTable.cell`` returns a summary cell as a :class:`CountedSet`, a
symbol→count snapshot that ``audit()`` compares with a recount.
Symbol ids must fit in 64 bits.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import Counter
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator

from .errors import InvariantError

if TYPE_CHECKING:
    from .charseq import CharSeq

try:
    import resource
except ImportError:  # not on every platform
    resource = None

MAX_SYMBOL = (1 << 64) - 1

_FIELD_BITS = 32
_FIELD_BYTES = _FIELD_BITS // 8
_ONE_FIELD = (1).to_bytes(_FIELD_BYTES, "little")
MAX_COUNT = (1 << _FIELD_BITS) - 1
_BIG_ENDIAN = sys.byteorder == "big"

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


def check_table_fits(slots: int, width: int, words: int = 0) -> None:
    """Raise :class:`MemoryError` if a table of ``slots`` blocks and ``width``
    columns, with ``words`` packed count words of that width beside it, takes
    more bytes than the process can get."""
    nbytes = _FIELD_BYTES * width * (slots * (slots + 1) // 2 + words)
    limit = _memory_limit()
    if limit is not None and nbytes > limit:
        raise MemoryError(
            f"summary table needs {nbytes} bytes, more than the {limit} bytes this process can get"
        )


def pack(fields: array) -> int:
    """The count word of ``fields``: count ``col`` in bits ``32·col`` up."""
    if _BIG_ENDIAN:
        fields = array("I", fields)
        fields.byteswap()
    return int.from_bytes(fields, "little")


def unpack(word: int, width: int) -> list[int]:
    """The first ``width`` counts of a count word."""
    fields = array("I", word.to_bytes(_FIELD_BYTES * width, "little"))
    if _BIG_ENDIAN:
        fields.byteswap()
    return fields.tolist()


def _zeros(n: int) -> memoryview:
    """A writable view of ``n`` zero 32-bit counts."""
    return memoryview(array("I", bytes(_FIELD_BYTES)) * n)


class CountedSet(dict):
    """Snapshot of a summary cell: each symbol present mapped to its count.

    Ranked order is decreasing ``(count, symbol)`` lexicographic: higher
    counts first, ties broken toward the higher symbol id.
    """

    __slots__ = ()

    def count_of(self, symbol: int) -> int:
        """Multiplicity of ``symbol`` (0 if absent)."""
        return self.get(symbol, 0)

    def max_entry(self) -> tuple[int, int] | None:
        """The ranked-first ``(count, symbol)`` pair, or None when empty."""
        return max(((c, s) for s, c in self.items()), default=None)

    def cursor(self) -> Iterator[tuple[int, int]]:
        """Iterator over the ``(count, symbol)`` pairs in ranked order."""
        return iter(sorted(((c, s) for s, c in self.items()), reverse=True))

    def next_entry(self, cursor: Iterator[tuple[int, int]]) -> tuple[int, int] | None:
        """The next ranked pair of ``cursor``, or None at the end."""
        return next(cursor, None)


class PairTable:
    """Triangular table of symbol counts for all block ranges.

    Cell (l, r) counts the symbols stored in blocks l..r inclusive, for
    every 0 ≤ l ≤ r < slots.
    """

    __slots__ = (
        "_slots", "_row_base", "_width", "_counts", "_ones", "_column", "_symbol", "_free", "_seq",
    )

    def __init__(self, seq: CharSeq) -> None:
        """Build a fresh table over the blocks of ``seq``, sharing its column map."""
        slots = len(seq.blocks)
        self._slots = slots
        self._seq = seq
        # Flat triangular layout: cell (l, r) is number _row_base[l] + r.
        self._row_base = [l * slots - (l * (l + 1)) // 2 for l in range(slots)]
        # One 1 in each of the fields of a row run: ``_ones >> 32*j`` has
        # slots - j of them.
        self._ones = int.from_bytes(_ONE_FIELD * slots, "little")
        column = self._column = seq.column  # symbol -> column, shared with ``seq``
        self._free: list[int] = []
        self._symbol = list(column)  # column -> symbol; a free column keeps its last one
        width = self._width = len(column)  # ``seq`` checked that the table fits at this width
        counts = self._counts = _zeros(self.cell_count() * width)
        # Each block's count word is the sum of its chunk words; row l is
        # then the running sums of words l..
        words = seq.block_words()
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
        return CountedSet({symbol[k]: c for k, c in enumerate(counts) if c})

    def modes(
        self,
        l: int,
        r: int,
        margin: Counter[int],
        minus: Counter[int] | None = None,
        plus: int = 0,
        less: int = 0,
    ) -> tuple[int, list[int]]:
        """Top multiplicity and its symbols, unsorted, over blocks ``l..r``
        plus ``margin`` and the count word ``plus``, minus ``minus`` and the
        count word ``less``.

        The engine counts each partial end block of a query on one side,
        chosen by its cost rule: the part inside the range is added and the
        block is left out of ``l..r`` ("in"), or the part outside is
        subtracted and the block stays in ("out").  Whole chunks of a part
        come as count words, the other elements as counters.  Every symbol
        counted must be present in the table, and what is subtracted must be
        part of the cell.
        """
        start = self._index(l, r)
        width = len(self._symbol)
        cell = self._counts[start : start + width]
        if plus or less:
            # No field borrows, as ``less`` is part of the cell, and none
            # overflows, as no count exceeds MAX_COUNT.
            counts = unpack(pack(cell) + plus - less, width)
        else:
            counts = cell.tolist()
        return self._top(counts, margin, minus)

    def word_modes(self, word: int, margin: Counter[int]) -> tuple[int, list[int]]:
        """Top multiplicity and its symbols, unsorted, of the count word
        ``word`` plus ``margin``: a query that reads no cell."""
        return self._top(unpack(word, len(self._symbol)), margin, None)

    def _top(
        self, counts: list[int], margin: Counter[int], minus: Counter[int] | None
    ) -> tuple[int, list[int]]:
        """Top count and its symbols once ``margin`` is added to the column
        counts ``counts`` and ``minus`` subtracted."""
        symbol = self._symbol
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
        check_table_fits(self._slots, new_width, self._seq.word_bound())
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
