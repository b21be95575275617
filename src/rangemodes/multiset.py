"""The dense table of block-range summaries and its cell snapshots.

A ``PairTable`` holds the symbol counts of every block range (l, r) with
l ≤ r as 32-bit fields of one flat ``array("I")``, symbol-major, through a
byte view whose ``obj`` is the array.  Each symbol present owns a column,
and column ``col`` owns one contiguous plane of L(L+1)/2 fields from
``col · cells`` on, in row order: field ``_row_base[l] + r`` of a plane
stands for cell (l, r), so row l is the cells (l, l..L-1).  ``width`` ≥ σ'
is the column capacity, the number of planes.  A row is stored with an
offset: field (l, r) of a plane holds the symbol's count in blocks l..r
plus its count in blocks 0..l-1 when the table was built, and that offset
is field ``col`` of ``_base[l]``, a count word (count ``col`` in bits
32·col up, the layout of :class:`CharSeq`'s chunk words).  So the build
writes each plane as the L suffixes of the column's prefix counts, with no
add per cell, and a cell reads as its stored fields minus its row's offset
word.  Edits and reused columns never touch the offsets.

The cells a point edit in block j changes, (l, r) with l ≤ j ≤ r, all lie in
one slice of the symbol's plane, from cell (0, j) to cell (j, L-1); the
slice also holds the j(j-1)/2 cells (l, l..j-1) of rows 1..j between them.
The edit reads the slice as one Python ``int``, adds or subtracts a mask
with a 1 in every field of the row tails and 0 in those head cells, and
builds the new bytes (:meth:`PairTable.apply_point`), which :meth:`PairTable.store`
copies into the byte view, with no cast, once the op has built every new
value: one C-speed pass over (j+1)(L-j) + j(j-1)/2 fields, whatever σ'.
That one call stores the whole edit, the sequence's array insert first, the
one store that can fail, and past it calls no function and builds no object.
An element moving between two blocks adds both edits to one run of its
plane, so the cells that cover both blocks keep their count.  The mask
depends on j and L alone, so the first edit in block j builds it and the
table keeps it, in a list indexed by j.  The masks of all L slots take
L(L²+2)/3 fields, more than the table when σ' is under about 2L/3, so a
mask is kept only while the kept masks stay within the table's own
L(L+1)/2 · width fields; past that cap it is built on every edit.  A
widening keeps them, as it moves no field of a plane; a rebuild makes a
new table, which starts with none.  A modes query reads one field from
each plane, a strided gather of σ' fields, packs them into one ``int``,
subtracts the row's offset word, adds the one count word the engine
passes, and unpacks the sum once to a list of σ' counts.
It then adds 1 at each id of the block-array slices inside the range that
no word counts and takes 1 away at each id of those outside it that a
word counts, one step per element at the column id its block stores, with
no lookup or copy, and finds the top count and its columns at C speed,
O(σ') per query.  The table takes
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
measured at import, plus a header and a list slot each.  The engine,
before it builds a layout, and every widening check the sum against what
the process can get, raising :class:`MemoryError`; the table keeps the
word bound, room and id type the engine admitted it with, which hold until
the next rebuild.  The old table of a widening lives beside the new one
until the copy ends, unpriced.

The column map is the one :class:`CharSeq` builds, one column per symbol
of its blocks in increasing order, both ways (``column``, symbol → column,
and ``symbol``, column → symbol), which the table reads from the
sequence.  After the build the table alone hands out columns and frees
them, by a state :meth:`PairTable.store` installs with the run: a new
symbol's insert claims one (:meth:`PairTable.claim_column`) by a new map,
free list, fields and width, and the delete of a symbol's last copy
(:meth:`PairTable.copies`) frees it by a new free list, computed by
:meth:`PairTable.apply_point`, and the removal of its map entry, so σ' is
the number of columns in use.
Edits name their column, which the blocks store.  A reused
column keeps the offsets of its last symbol, and its cells read 0 as its
fields still equal them.  A symbol that finds
no free column widens the table by half, appending zero planes in one copy;
the offset words and the chunk words, Python ints, need no
widening.  The column ids keep the build's type: a column past it is not
handed out, and the engine rebuilds its layout instead.
Every decrement first reads the column's count in the source block's own
cell and raises :class:`InvariantError` if it is 0, before any cell
changes, so no field of a slice add can borrow from its neighbour.  A
stored field holds a count plus its offset, under 3·n0 until the next
rebuild, and must stay at most ``MAX_COUNT``; the engine refuses a length
whose fields could pass it before it builds anything.

``PairTable.cell`` returns a summary cell as a plain ``dict``, a
symbol→count snapshot that ``audit()`` compares with a recount.
Symbol ids must fit in 64 bits; the blocks never store them.  Fields are
stored in the host's order and read as little-endian words, so the module
refuses a big-endian host at import.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from array import array
from itertools import accumulate, islice
from typing import TYPE_CHECKING, Iterable

from .errors import InvariantError
from .retired import retired

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
_ZERO_FIELD = bytes(_FIELD_BYTES)
_WHOLE = slice(None)  # built once: a store past the edit's array insert builds nothing
MAX_COUNT = (1 << _FIELD_BITS) - 1
_SLOT = struct.calcsize("P")  # a list slot
_INT_HEAD = int.__basicsize__ + _SLOT  # an int's header and its list slot
_EMPTY_ARRAY = sys.getsizeof(array("B"))  # the same for every type
_ARRAY_HEAD = _EMPTY_ARRAY + _SLOT  # an empty array and its list slot
_LIST_HEAD = sys.getsizeof([]) + _SLOT  # an empty list and its list slot

# Counts live in an array("I"), one field per item; column ids in the
# narrower of 'B' and 'I' that holds them (:func:`id_type`).
if [array(code).itemsize for code in "BI"] != [1, _FIELD_BYTES]:
    raise ImportError("rangemodes needs 1- and 4-byte unsigned array types 'B' and 'I'")
# The stored fields are read as the little-endian count words.
if sys.byteorder != "little":
    raise ImportError("rangemodes needs a little-endian host")


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
    return int.from_bytes(fields, "little")


def unpack(word: int, width: int) -> list[int]:
    """The first ``width`` counts of a count word."""
    return array("I", word.to_bytes(_FIELD_BYTES * width, "little")).tolist()


def _zeros(n: int) -> memoryview:
    """A writable byte view of ``n`` zero 32-bit counts, whose ``obj`` is their array."""
    return memoryview(array("I", bytes(_FIELD_BYTES)) * n).cast("B")


class PairTable:
    """Triangular table of symbol counts for all block ranges.

    Cell (l, r) counts the symbols stored in blocks l..r inclusive, for
    every 0 ≤ l ≤ r < slots.
    """

    __slots__ = (
        "_slots", "_cells", "_row_base", "_width", "_counts", "_base",
        "_seq", "_free", "_guard", "_masks", "_mask_fields",
    )

    def __init__(self, seq: CharSeq, guard: tuple[int, int, str]) -> None:
        """Build a fresh table over the blocks of ``seq``, whose column map it hands out;
        ``guard`` is the word bound, room and id type the engine admitted it with."""
        slots = self._slots = len(seq.blocks)
        cells = self._cells = slots * (slots + 1) // 2
        # Cell (l, r) is field _row_base[l] + r of every plane.
        self._row_base = [l * slots - (l * (l + 1)) // 2 for l in range(slots)]
        # The step of an edit in block j, once stored; widening keeps them,
        # as it moves no field of a plane.
        self._masks: list[int | None] = [None] * slots
        self._mask_fields = 0  # fields of the stored masks, at most cells · width
        self._seq = seq  # its column map, both ways; a free column keeps its last symbol
        self._free: list[int] = []
        width = self._width = len(seq.symbol)
        self._guard = guard
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
            counts[_FIELD_BYTES * col * cells : _FIELD_BYTES * (col + 1) * cells] = plane

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def sigma_prime(self) -> int:
        """Number of distinct symbols present in the blocks."""
        return len(self._seq.column)

    def cell(self, l: int, r: int) -> dict[int, int]:
        """Snapshot of the summary multiset for blocks ``l..r`` inclusive:
        each symbol present mapped to its count."""
        start = self._index(l, r)
        symbol, cells = self._seq.symbol, self._cells
        stored = self._counts.obj[start : start + len(symbol) * cells : cells].tolist()
        offsets = unpack(self._base[l], len(symbol))
        return {symbol[k]: c - b for k, (c, b) in enumerate(zip(stored, offsets)) if c != b}

    def modes(
        self,
        l: int | None,
        r: int | None,
        word: int,
        add_l: Iterable[int],
        add_r: Iterable[int],
        sub_l: Iterable[int],
        sub_r: Iterable[int],
    ) -> tuple[int, list[int]]:
        """Top multiplicity and its symbols, unsorted, over blocks ``l..r``
        plus the count word ``word`` and the column ids of ``add_l`` and
        ``add_r``, less those of ``sub_l`` and ``sub_r``; with ``l`` None,
        of the word and ids alone.

        The engine moves each end of a query's range to the nearest chunk
        boundary and counts what lies between as the cell of blocks
        ``bl..br-1``, read only when a block between its end blocks holds
        an element, plus one word: block ``br``'s running chunk word at
        the right moved end less block ``bl``'s at the left, plus block
        ``bl``'s own word when ``br > bl`` and no cell is read.  The word's
        fields may be negative; the sum's are counts.  At each end of the
        range it passes the block-array slice inside the range that the sum
        does not count, or the one outside it that the sum counts, one of
        each two empty.  Each id is one step on the unpacked counts, and
        must be a column in use.
        """
        symbol = self._seq.symbol
        width = len(symbol)
        if l is not None:  # :meth:`_index`, :func:`pack`, :func:`unpack` inline: calls cost more
            if not 0 <= l <= r < self._slots:
                raise IndexError(f"cell ({l}, {r}) out of range ({self._slots} slots)")
            start, cells = self._row_base[l] + r, self._cells
            fields = self._counts.obj[start : start + width * cells : cells]
            # No field borrows, as the offset is part of the stored fields
            # and the word takes away only counts the cell holds, and none
            # overflows, as no count exceeds MAX_COUNT.
            word += int.from_bytes(fields, "little") - self._base[l]
        counts = array("I", word.to_bytes(_FIELD_BYTES * width, "little")).tolist()
        try:
            for col in add_l:
                counts[col] += 1
            for col in add_r:
                counts[col] += 1
            for col in sub_l:
                counts[col] -= 1
            for col in sub_r:
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

    def copies(self, col: int) -> int:
        """Copies of column ``col`` in the blocks: its field of cell (0, L-1),
        which covers every block and has no row offset."""
        return self._counts.obj[col * self._cells + self._slots - 1]

    def offset_fault(self) -> str | None:
        """The first offset word with a field past the table's columns, or None."""
        limit = 1 << (_FIELD_BITS * len(self._seq.symbol))
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

    def claim_column(self, symbol: int) -> tuple[int, tuple] | tuple[None, None]:
        """The column a new ``symbol`` takes and the column state that hands
        it out, for :meth:`apply_point`, or two Nones when
        that column does not fit the blocks' id type; nothing changes.  It
        takes a free column, else the next one, the table widened if it has
        no room.  The state holds copies of the map and lists, as an insert
        into one can allocate."""
        seq = self._seq
        symbols, free, counts, width = seq.symbol[:], self._free, self._counts, self._width
        if free:
            col, free = free[-1], free[:-1]
            symbols[col] = symbol
        else:
            col = len(symbols)
            if id_type(col + 1) != self._guard[-1]:
                return None, None
            if col == width:
                counts, width = self._widen()
            symbols.append(symbol)
        column = seq.column.copy()  # clones the table while few keys are deleted; dict() re-inserts
        column[symbol] = col
        return col, (counts, symbols, column, free, width)

    def _widen(self) -> tuple[memoryview, int]:
        """The fields and width of the table with half as many columns again,
        the new planes counting 0."""
        old, width = self._counts, self._width
        new_width = width + width // 2 + 1
        check_table_fits(self._slots, new_width, *self._guard)
        counts = _zeros(self._cells * new_width)
        counts[: len(old)] = old
        return counts, new_width

    # ------------------------------------------------------------------
    # update routines
    # ------------------------------------------------------------------

    def _mask(self, j: int, width: int) -> int:
        """The step of an edit in block ``j``, stored while the stored masks
        keep within the field count of the table the edit counts into,
        ``width`` columns wide."""
        slots = self._slots
        # The cells from (0, j) to (j, slots-1) are the j+1 row tails
        # (l, j..slots-1), and between the tails of rows l-1 and l the j-l
        # head cells (l, l..j-1), which the mask leaves alone.
        gaps = [_ZERO_FIELD * (j - l) for l in range(1, j + 1)]
        step = int.from_bytes((_ONE_FIELD * (slots - j)).join([b"", *gaps, b""]), "little")
        fields = mask_fields(slots, j)
        if self._mask_fields + fields <= self._cells * width:
            self._masks[j] = step
            self._mask_fields += fields
        return step

    def apply_point(
        self, j: int, col: int, delta: int, source: int | None = None, claim: tuple | None = None
    ) -> tuple[memoryview, bytes, tuple | None, list[int] | None]:
        """The run of column ``col``'s fields that a change by ``delta`` (±1)
        of its cells (l, r) with l ≤ j ≤ r rewrites, as a byte view of them
        and their new bytes, then ``claim`` and the new free list, if
        any; nothing changes: :meth:`store` stores them.  A gain may take
        its element from block ``source``, whose cells lose it in the same
        run, and counts into the fields of ``claim``, a new symbol's column
        state, if given.  A loss needs ``col`` in its block: every cell it
        decrements covers that block, so a nonzero count in its own cell
        keeps all of them from borrowing; a loss of the last copy
        (:meth:`copies`) frees the column, appended to the free list."""
        if delta not in (1, -1) or delta == -1 and source is not None:
            raise ValueError("delta must be +1, or -1 with no source")
        slots, row_base = self._slots, self._row_base
        lo = hi = j  # the run goes from cell (0, lo) past cell (hi, L-1)
        if source is not None:
            lo, hi = (j, source) if j < source else (source, j)
        if not 0 <= lo <= hi < slots:
            raise IndexError(f"block {j} or {source} out of range ({slots} slots)")
        if claim is None:  # the table's own state: no tuple built or unpacked
            counts, columns, width = self._counts, len(self._seq.symbol), self._width
        else:
            counts, symbols, _, _, width = claim
            columns = len(symbols)
        if not 0 <= col < columns:
            raise InvariantError(f"column {col} was never handed out")
        plane, loss, fields = col * self._cells, j if delta == -1 else source, counts.obj
        if loss is not None and fields[plane + row_base[loss] + loss] == (
            self._base[loss] >> (_FIELD_BITS * col) & MAX_COUNT
        ):
            raise InvariantError(f"column {col} is absent from block {loss}")
        # A loss of the last copy, 1 in the field of cell (0, L-1), frees the column.
        free = self._free + [col] if delta == -1 and fields[plane + slots - 1] == 1 else None
        run = counts[_FIELD_BYTES * (plane + lo) : _FIELD_BYTES * (plane + row_base[hi] + slots)]
        total = int.from_bytes(run, "little")
        # Both steps, each from its block's field of the run, go into one sum,
        # so a cell covering both blocks keeps its count.  A mask is never 0:
        # every slot has a row tail.  A shift by 0 would copy the mask.
        step = self._masks[j] or self._mask(j, width)
        if j > lo:
            step <<= _FIELD_BITS * (j - lo)
        total = total + step if delta == 1 else total - step
        if source is not None:
            step = self._masks[source] or self._mask(source, width)
            total -= step << _FIELD_BITS * (source - lo) if source > lo else step
        new = total.to_bytes(len(run), "little")
        return run, new, claim, free

    def store(
        self, run, js: int | None, offs: int | None, jd: int | None, offd: int | None, col: int
    ) -> None:
        """Store one edit: :meth:`CharSeq.edit` with ``js``, ``offs``, ``jd``,
        ``offd`` and ``col``, then ``run``, what :meth:`apply_point` computed, if
        any: its claim's column state, the new fields, then its free list,
        whose last column keeps its symbol but not the map entry.  The array
        insert is the one store that can fail; past it nothing is called or built."""
        seq = self._seq
        seq.edit(js, offs, jd, offd, col)  # explicit arguments: a starred call costs more
        if run is None:
            return
        fields, new, claim, free = run
        if claim is not None:
            self._counts, seq.symbol, seq.column, self._free, self._width = claim
        fields[_WHOLE] = new
        if free is not None:
            self._free = free
            del seq.column[seq.symbol[free[-1]]]

    shift_left = shift_right = retired
