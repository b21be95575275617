"""The dense table of block-range summaries and its cell snapshots.

A ``PairTable`` holds the symbol counts of every block range (l, r) with
l ≤ r as 32-bit fields of one flat ``array("I")``, symbol-major.  Each
symbol present owns a column, and column ``col`` owns one contiguous plane
of L(L+1)/2 fields from ``col · cells`` on, in row order: field
``_row_base[l] + r`` of a plane stands for cell (l, r), so row l is the
cells (l, l..L-1).  ``width`` ≥ σ' is the column capacity, the number of
planes.  A row is stored with an offset: field (l, r) of a plane holds the
symbol's count in blocks l..r plus its count in blocks 0..l-1 when the table
was built, and that offset is field ``col`` of ``_base[l]``, a count word
(count ``col`` in bits 32·col up, the layout of :class:`CharSeq`'s chunk
words).  So the build writes each plane as the L suffixes of the column's
prefix counts, with no add per cell, and a cell reads as its stored fields
minus its row's offset word.  Edits, shifts and reused columns never touch
the offsets.

The cells a point edit in block j changes, (l, r) with l ≤ j ≤ r, all lie in
one slice of the symbol's plane, from cell (0, j) to cell (j, L-1); the
slice also holds the j(j-1)/2 cells (l, l..j-1) of rows 1..j between them.
The edit reads the slice as one Python ``int``, adds or subtracts a mask
with a 1 in every field of the row tails and 0 in those head cells, and
writes it back: one C-speed pass over (j+1)(L-j) + j(j-1)/2 fields,
whatever σ'.  The mask depends on j and L alone, so the first edit in block
j builds it and the table keeps it, in a list indexed by j.  The masks of
all L slots take L(L²+2)/3 fields, more than the table when σ' is under
about 2L/3, so a mask is kept only while the kept masks stay within the
table's own L(L+1)/2 · width fields; past that cap it is built on every
edit.  A widening keeps them, as it moves no field of a plane; a rebuild
makes a new table, which starts with none.  A boundary shift adds to one
cell per row above the boundary and a run of ones to one row tail.  A modes
query reads one field from each plane, a strided gather of σ' fields, packs
them into one ``int``, subtracts the row's offset word, adds the count
word of the whole chunks of each margin, and unpacks the sum once to a
list of σ' counts.  It then adds 1 at each loose margin element and takes
1 away at each element a margin word counts outside the range, one step per
element at the column id its block stores, with no lookup, and finds the
top count and its columns at C speed, O(σ') per query.  The table takes
L(L+1)/2 · width · 4 bytes.  Beside it are ints: L offset words of width
fields, its kept masks of up to min(L(L²+2)/3, L(L+1)/2 · width) fields,
and the L prefix lists of chunk count words, ⌈c/S⌉ running words of width
fields for a block of c after the 0 that leads each, at most 2·n0/S + L
before the next rebuild, a list priced at its header and a list slot, the
0 at its list slot and every other int at 4 bytes per 30 bits by
:func:`int_bytes` plus a header and a list slot; and the sequence, L arrays
of column ids priced by :func:`array_bytes` at the item size of their type
(:func:`id_type`) for each of the 2·n0 elements they can hold before the
next rebuild, with the spare room an array grown by inserts holds, as
measured at import, plus a header and a list slot each.  The
:class:`CharSeq` build, before it writes a block, every widening, and
the rewrite of the arrays to ``'I'`` check the sum against what the
process can get, raising :class:`MemoryError`.  The old table of a
widening lives beside the new one until the copy ends, and the old arrays
of a rewrite until the insert that needed it ends; neither is priced.

The column map is the one :class:`CharSeq` builds, one column per symbol
of its blocks in increasing order, both ways (``column``, symbol → column,
and ``symbol``, column → symbol) and shared by both.  After the build the
table alone hands out columns: a new symbol gets one
(:meth:`PairTable.claim_column`) before it is inserted, and it goes back
on a free list when the symbol's count over all blocks falls to 0, so σ'
is the size of the column map.  Edits and shifts name their column, which
the blocks store.  A reused column keeps the offsets of its last symbol,
and its cells read 0 as its fields still equal them.  A symbol that finds
no free column widens the table by half, appending zero planes in one copy;
the offset words and the chunk words, Python ints, need no widening.  The
column ids do when column 256 is handed out: every block is rewritten as
``'I'`` first, and a rewrite that fails changes no block.  An insert that
fails gives back a column its claim appended, and the blocks from before a
rewrite (:meth:`PairTable.unclaim_column`); a widening keeps its planes.
Every decrement first reads the column's count in the source block's own
cell and raises :class:`InvariantError` if it is 0, before any cell
changes, so no field of a slice add can borrow from its neighbour.  A
stored field holds a count plus its offset and must stay at most
``MAX_COUNT``; :meth:`PairTable.top_offset` bounds the offsets, and the
engine rejects a layout whose fields could exceed it.

``PairTable.cell`` returns a summary cell as a plain ``dict``, a
symbol→count snapshot that ``audit()`` compares with a recount; no module
builds a :class:`CountedSet`, which stays for the benchmark's tracer.
Symbol ids must fit in 64 bits; the blocks never store them.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from array import array
from itertools import accumulate, islice
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
_ONE_FIELD = (1).to_bytes(_FIELD_BYTES, sys.byteorder)  # native order, as the fields are stored
_ZERO_FIELD = bytes(_FIELD_BYTES)
MAX_COUNT = (1 << _FIELD_BITS) - 1
_BIG_ENDIAN = sys.byteorder == "big"
_SLOT = struct.calcsize("P")  # a list slot
_INT_HEAD = int.__basicsize__ + _SLOT  # an int's header and its list slot
_EMPTY_ARRAY = sys.getsizeof(array("B"))  # the same for every type
_ARRAY_HEAD = _EMPTY_ARRAY + _SLOT  # an empty array and its list slot
_LIST_HEAD = sys.getsizeof([]) + _SLOT  # an empty list and its list slot

# Counts live in an array("I"), one field per item; column ids in the
# narrower of 'B' and 'I' that holds them (:func:`id_type`).
if [array(code).itemsize for code in "BI"] != [1, _FIELD_BYTES]:
    raise ImportError("rangemodes needs 1- and 4-byte unsigned array types 'B' and 'I'")


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


def id_type(columns: int) -> str:
    """The narrower unsigned array type that holds the column ids below
    ``columns``: 'B' up to 256 columns, 'I' beyond."""
    return "B" if columns <= 1 << 8 else "I"


def _measure_room(items: int = 4096) -> tuple[float, float]:
    """``(ratio, pad)``: an array grown one insert at a time to n items, for
    every n up to ``items``, holds room for at most ratio·n + pad items.

    Measured with :func:`sys.getsizeof` on an array grown so: ratio is the
    most room per item it holds from ``items // 4`` items on, and pad the
    most it holds past ratio·n at any size.  An array's spare room is
    counted in items, the same for every item size.
    """
    grown, held = array("B"), []
    for _ in range(items):
        grown.append(0)
        held.append(sys.getsizeof(grown) - _EMPTY_ARRAY)
    ratio = max(room / n for n, room in enumerate(held, 1) if 4 * n >= items)
    return ratio, max(room - ratio * n for n, room in enumerate(held, 1))


_ROOM_RATIO, _ROOM_PAD = _measure_room()


def mask_fields(slots: int, j: int) -> int:
    """Fields of the slice an edit in block ``j`` of ``slots`` adds its mask
    to: the j+1 row tails from column j on and the j(j-1)/2 head cells
    between them."""
    return (j + 1) * (slots - j) + j * (j - 1) // 2


def int_bytes(fields: int) -> int:
    """Bytes of the digits of a Python ``int`` of ``fields`` 32-bit fields.

    CPython stores 30 bits in each 4-byte digit (15 in 2 on some builds).
    """
    digits = -(-_FIELD_BITS * fields // sys.int_info.bits_per_digit)
    return digits * sys.int_info.sizeof_digit


def prefix_list_bytes(slots: int, width: int, words: int) -> int:
    """Bytes of ``slots`` lists of running count words of ``width`` fields,
    ``words`` of them past the 0 that leads each list.

    A word is priced at its digits by :func:`int_bytes` plus a header and a
    list slot; the leading 0 is CPython's shared small int and takes its
    list slot alone; and each list takes a header and a slot in the list of
    lists.
    """
    return words * (int_bytes(width) + _INT_HEAD) + slots * (_SLOT + _LIST_HEAD)


def array_bytes(slots: int, elements: int, code: str) -> int:
    """Bytes of ``slots`` arrays of type ``code`` that hold ``elements`` ids
    in all, grown by inserts.

    Each array holds room for at most ratio·n + pad items for its n, as
    :func:`_measure_room` measured, and takes a header and a list slot.
    """
    items = math.ceil(_ROOM_RATIO * elements + _ROOM_PAD * slots)
    return items * array(code).itemsize + slots * _ARRAY_HEAD


def check_table_fits(slots: int, width: int, words: int, elements: int, code: str) -> None:
    """Raise :class:`MemoryError` if a table of ``slots`` blocks and ``width``
    columns, with its ``slots`` offset words, ``slots`` lists of running
    count words of that width, 0 and then ``words`` words in all, its
    ``slots`` kept edit masks and a sequence of ``elements`` column ids in
    ``slots`` arrays of type ``code`` beside it, takes more bytes than the
    process can get.

    The masks of all slots take L(L²+2)/3 fields, but the table keeps them
    only up to its own field count.  The offset words and the masks are
    ints, each priced at its digits by :func:`int_bytes` plus a header and a
    list slot, the lists by :func:`prefix_list_bytes`, and the arrays by
    :func:`array_bytes`.
    """
    cells = slots * (slots + 1) // 2
    masks = min(slots * (slots * slots + 2) // 3, cells * width)
    ints = slots * int_bytes(width) + int_bytes(masks) + 2 * slots * _INT_HEAD
    ints += prefix_list_bytes(slots, width, words)
    nbytes = _FIELD_BYTES * width * cells + ints + array_bytes(slots, elements, code)
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


def _ones(n: int) -> int:
    """``n`` fields of 1, as an int in the fields' native order."""
    return int.from_bytes(_ONE_FIELD * n, sys.byteorder)


def _zeros(n: int) -> memoryview:
    """A writable view of ``n`` zero 32-bit counts."""
    return memoryview(array("I", bytes(_FIELD_BYTES)) * n)


class CountedSet(dict):
    """Each symbol mapped to its count, with ranked readers; no module of the
    package builds one, and the benchmark's tracer wraps its methods.

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
        "_slots", "_cells", "_row_base", "_width", "_counts", "_base",
        "_column", "_symbol", "_free", "_seq", "_masks", "_mask_fields",
    )

    def __init__(self, seq: CharSeq) -> None:
        """Build a fresh table over the blocks of ``seq``, sharing its column map."""
        slots = self._slots = len(seq.blocks)
        cells = self._cells = slots * (slots + 1) // 2
        self._seq = seq
        # Cell (l, r) is field _row_base[l] + r of every plane.
        self._row_base = [l * slots - (l * (l + 1)) // 2 for l in range(slots)]
        # The step of an edit in block j, once stored; widening keeps them,
        # as it moves no field of a plane.
        self._masks: list[int | None] = [None] * slots
        self._mask_fields = 0  # fields of the stored masks, at most cells · width
        self._column = seq.column  # symbol -> column, shared with ``seq``
        self._symbol = seq.symbol  # column -> symbol, shared; a free column keeps its last one
        self._free: list[int] = []
        width = self._width = len(self._symbol)  # ``seq`` checked that the table fits at this width
        # prefix[k]: the count word of blocks 0..k-1.  Row l stores the
        # counts of blocks 0..r for r = l..slots-1, the suffix from l of the
        # column's prefix counts, so its offset is prefix[l].
        prefix = list(accumulate(seq.block_words(), initial=0))
        self._base = prefix[:slots]
        nbytes = _FIELD_BYTES * width
        sums = array("I")  # field col of word k at k·width + col
        for word in islice(prefix, 1, None):
            sums.frombytes(word.to_bytes(nbytes, "little"))
        counts = self._counts = _zeros(cells * width)
        for col in range(width):
            run = sums[col::width].tobytes()  # the column's counts in blocks 0..r, by r
            plane = bytearray()  # grown row by row, with no list of the rows beside it
            for start in range(0, _FIELD_BYTES * slots, _FIELD_BYTES):
                plane += run[start:]
            counts[col * cells : (col + 1) * cells] = memoryview(plane).cast("I")
        if _BIG_ENDIAN:
            counts.obj.byteswap()

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def sigma_prime(self) -> int:
        """Number of distinct symbols present in the blocks."""
        return len(self._column)

    def cell(self, l: int, r: int) -> dict[int, int]:
        """Snapshot of the summary multiset for blocks ``l..r`` inclusive:
        each symbol present mapped to its count."""
        start = self._index(l, r)
        symbol, cells = self._symbol, self._cells
        stored = self._counts[start : start + len(symbol) * cells : cells].tolist()
        offsets = unpack(self._base[l], len(symbol))
        return {symbol[k]: c - b for k, (c, b) in enumerate(zip(stored, offsets)) if c != b}

    def modes(
        self, l: int | None, r: int | None, loose: list[int], taken: list[int], plus: int = 0
    ) -> tuple[int, list[int]]:
        """Top multiplicity and its symbols, unsorted, over blocks ``l..r``
        plus the count word ``plus`` and the column ids ``loose``, less the
        column ids ``taken``; with ``l`` None, of the word and ids alone.

        The engine leaves each partial end block of a query out of ``l..r``
        and passes the part inside the range as :meth:`CharSeq.count` gives
        it: the sum of the count words it takes, the ids inside the range
        that no word holds, and those outside it that a word holds.  Each id
        is one step on the unpacked counts, and must be a column in use.
        """
        symbol = self._symbol
        width = len(symbol)
        if l is None:
            word = plus
        else:
            start = self._index(l, r)
            cells = self._cells
            # A strided slice of the array copies faster than one of the view.
            fields = self._counts.obj[start : start + width * cells : cells]
            # No field borrows, as the offset is part of the stored fields,
            # and none overflows, as no count exceeds MAX_COUNT.
            word = pack(fields) - self._base[l] + plus
        counts = unpack(word, width)
        try:
            for col in loose:
                counts[col] += 1
            for col in taken:
                counts[col] -= 1
        except IndexError:
            raise InvariantError(f"a margin column id is past the width {width}") from None
        best = max(counts)
        winners = []
        counts.append(best)  # a sentinel ends the walk in one pass
        k = counts.index(best)
        while k < width:
            winners.append(symbol[k])
            k = counts.index(best, k + 1)
        return best, winners

    def cell_count(self) -> int:
        return self._cells

    def top_offset(self) -> int:
        """The largest offset a stored field carries: the top count of blocks
        0..L-2 at the build."""
        return max(unpack(self._base[-1], len(self._symbol)), default=0)

    def offset_fault(self) -> str | None:
        """The first offset word with a field past the table's columns, or None."""
        limit = 1 << (_FIELD_BITS * len(self._symbol))
        for l, word in enumerate(self._base):
            if not 0 <= word < limit:
                return f"offset word of row {l} has a field outside the summary table"
        return None

    def _index(self, l: int, r: int) -> int:
        """Field of cell (l, r) in every plane."""
        if not 0 <= l <= r < self._slots:
            raise IndexError(f"cell ({l}, {r}) out of range ({self._slots} slots)")
        return self._row_base[l] + r

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------

    def claim_column(self, symbol: int) -> int:
        """The column of ``symbol``, handing it a free one if it has none.

        A widening or a rewrite of the blocks that fails raises before any
        column is handed out.  A widening is priced at the blocks' new type,
        so a rewrite the guard refuses leaves the table as it was; a rewrite
        whose copy fails leaves every block as it was, and a widening before
        it has only added zero planes."""
        col = self._column.get(symbol)
        if col is None:
            if self._free:
                col = self._free.pop()
                self._symbol[col] = symbol
            else:
                col = len(self._symbol)
                if col == self._width:
                    self._widen()
                code = id_type(col + 1)
                if code != id_type(col):  # column 256: every block to 'I' first
                    seq = self._seq
                    check_table_fits(self._slots, self._width, seq.word_bound(), seq.room, code)
                    seq.retype(code)
                self._symbol.append(symbol)
            self._column[symbol] = col
        return col

    def unclaim_column(self, col: int, blocks: list[array]) -> None:
        """Take back column ``col``, appended by :meth:`claim_column` for an
        insert that failed and freed it again, and put back ``blocks``, the
        block list from before the claim, whose ids a rewrite only copied."""
        self._free.remove(col)
        self._symbol.pop()
        self._seq.blocks = blocks

    def _widen(self) -> None:
        """Give the table half as many columns again; the new planes count 0."""
        old, width = self._counts, self._width
        new_width = width + width // 2 + 1
        seq = self._seq
        # Priced at the type the claimed column needs, so that a widening the
        # rewrite to 'I' would not fit beside is refused before it allocates.
        code = id_type(len(self._symbol) + 1)
        check_table_fits(self._slots, new_width, seq.word_bound(), seq.room, code)
        counts = _zeros(self._cells * new_width)
        counts[: len(old)] = old
        self._counts, self._width = counts, new_width

    def _check_source(self, j: int, col: int) -> None:
        """Raise :class:`InvariantError` unless column ``col`` occurs in block ``j``.

        Every cell an edit decrements covers block ``j``, so a nonzero count
        in cell (j, j) keeps all of them from borrowing.
        """
        if (
            not 0 <= col < len(self._symbol)
            or self._counts[col * self._cells + self._row_base[j] + j]
            == self._base[j] >> (_FIELD_BITS * col) & MAX_COUNT
        ):
            raise InvariantError(f"column {col} is absent from block {j}")

    # ------------------------------------------------------------------
    # update routines
    # ------------------------------------------------------------------

    def _add(self, start: int, fields: int, step: int, delta: int) -> None:
        """Add ``delta`` (±1) times ``step``, a native-order int of ``fields``
        fields of 0 and 1, to the fields from ``start`` on."""
        run = self._counts[start : start + fields]
        value = int.from_bytes(run, sys.byteorder)
        total = value + step if delta == 1 else value - step
        run[:] = memoryview(total.to_bytes(_FIELD_BYTES * fields, sys.byteorder)).cast("I")

    def _mask(self, j: int) -> int:
        """The step of an edit in block ``j``, stored while the stored masks
        keep within the table's own field count."""
        slots = self._slots
        # The cells from (0, j) to (j, slots-1) are the j+1 row tails
        # (l, j..slots-1), and between the tails of rows l-1 and l the j-l
        # head cells (l, l..j-1), which the mask leaves alone.
        gaps = [_ZERO_FIELD * (j - l) for l in range(1, j + 1)]
        step = int.from_bytes((_ONE_FIELD * (slots - j)).join([b"", *gaps, b""]), sys.byteorder)
        fields = mask_fields(slots, j)
        if self._mask_fields + fields <= self._cells * self._width:
            self._masks[j] = step
            self._mask_fields += fields
        return step

    def apply_point(self, j: int, col: int, delta: int) -> None:
        """Adjust every cell (l, r) with l ≤ j ≤ r by ``delta`` for column ``col``.

        A gain needs a column :meth:`claim_column` handed out; a loss that
        leaves the column's symbol nowhere frees the column.
        """
        slots = self._slots
        if not 0 <= j < slots:
            raise IndexError(f"block {j} out of range ({slots} slots)")
        if delta == 1:
            if not 0 <= col < len(self._symbol):
                raise InvariantError(f"column {col} was never handed out")
        elif delta == -1:
            self._check_source(j, col)
        else:
            raise ValueError("delta must be +1 or -1")
        plane = col * self._cells
        # A mask is never 0: every slot has a row tail.
        self._add(plane + j, mask_fields(slots, j), self._masks[j] or self._mask(j), delta)
        # Cell (0, slots - 1) covers every block, and row 0 has no offset.
        if delta == -1 and not self._counts[plane + slots - 1]:
            del self._column[self._symbol[col]]
            self._free.append(col)

    def shift_left(self, i: int, col: int) -> None:
        """Record one element of column ``col`` crossing from block ``i`` into block ``i - 1``.

        Cells ending at i-1 gain the symbol; cells starting at i lose it.
        Cells spanning both blocks are untouched.
        """
        slots = self._slots
        if not 1 <= i < slots:
            raise IndexError(f"shift_left source {i} out of range ({slots} slots)")
        self._check_source(i, col)
        counts, row_base = self._counts, self._row_base
        plane = col * self._cells
        for row in row_base[:i]:
            counts[plane + row + i - 1] += 1
        self._add(plane + row_base[i] + i, slots - i, _ones(slots - i), -1)

    def shift_right(self, i: int, col: int) -> None:
        """Record one element of column ``col`` crossing from block ``i`` into block ``i + 1``."""
        slots = self._slots
        if not 0 <= i < slots - 1:
            raise IndexError(f"shift_right source {i} out of range ({slots} slots)")
        self._check_source(i, col)
        counts, row_base = self._counts, self._row_base
        plane = col * self._cells
        for row in row_base[: i + 1]:
            counts[plane + row + i] -= 1
        j = i + 1
        self._add(plane + row_base[j] + j, slots - j, _ones(slots - j), 1)
