"""Dynamic symbol sequence stored as the engine's blocks, with chunk counts.

Symbols are opaque non-negative integers, but a block stores none of them:
each block slot holds an ``array('I')`` of column ids, 4 bytes per element
whatever the symbol, in order; empty blocks are allowed anywhere.  Column
``col`` stands for symbol ``symbol[col]`` of :attr:`CharSeq.symbol`, and
:attr:`CharSeq.column` maps each symbol present back to its column; the
summary table shares both, hands a new symbol its column before the
sequence takes it, and frees the column when the symbol's last element
goes.  The build writes the arrays in one pass over the caller's list,
block by block, with no copy of the whole list.  Edits, boundary moves
and margin counts work on column ids alone; only :meth:`CharSeq.to_list`,
:meth:`CharSeq.access_range` and indexing map them back to symbols.

An engine op finds its block and offset once, by bisecting the prefix sums
of the :class:`BlockSizeIndex` of the block lengths (:meth:`CharSeq.locate`,
:meth:`CharSeq.insert_place`), and edits there: an array insert or pop, a
``memmove``, and O(C) word adds for the C chunks of the block.
:meth:`CharSeq.insert_at` and :meth:`CharSeq.delete_at` leave the block
size to their caller.  A relocation inside one block
(:meth:`CharSeq.relocate`) keeps every chunk offset and every block size.
A boundary move adds an end element of one block to the near end of its
neighbour, then takes it out, and adjusts both block sizes itself.  Its
undo (:meth:`CharSeq.move_back`) moves the element back in the arrays and
sizes alone, and the caller puts back the chunk lists it copied before
(:meth:`CharSeq.chunk_lists`), so an undo recounts nothing.

Beside each block sits its chunk index.  A chunk is a run of 1..2S
consecutive elements of the block, S = :data:`CHUNK`, and two neighbouring
chunks hold more than S together, so a block of c elements has at most
2c/S + 1 chunks.  The index keeps the offset where each chunk starts, the
block length last (``[0]`` for an empty block), and, at the same index t,
the count word of chunks 0..t-1: a Python ``int`` whose 32-bit field
``col`` counts column ``col`` in them, 0 first and the block's word last.
An edit in chunk ``c`` adds ``±1 << 32·col`` to every word after ``c``, a
copy of up to σ'·4 bytes each, and ±1 to the offsets there; a chunk past
2S splits in two at a new offset, whose word adds a recount of the first
half to the one before it, while an empty chunk is dropped, and a chunk
that shrinks to S or less together with a neighbour merges into it, each
deleting one offset and its word.  A relocation inside one block moves no
offset: it adds to the word at each chunk offset it crosses the element
crossing that offset the other way, and takes the moved one away, or the
reverse.  A query then counts the whole chunks of a margin as one
difference of two words, found by bisecting the offsets.  Each end of the
margin moves to the nearer boundary of the chunk it cuts, so it reads at
most half that chunk, at most S column ids, straight from the block array:
the ids up to an inner boundary as loose, or, past an outer one, the ids
outside the range as taken away from the word (:meth:`CharSeq.count`).
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .blockindex import BlockSizeIndex
from .errors import InvariantError
from .multiset import _FIELD_BITS, _FIELD_BYTES, check_table_fits, pack

CHUNK = 128
"""S: a chunk holds 1..2S elements; a rebuild cuts chunks of S..2S-1."""


class CharSeq:
    """Mutable sequence of symbol ids split into a fixed row of blocks of column ids."""

    __slots__ = ("blocks", "sizes", "column", "symbol", "room", "chunk_bounds", "chunk_sums")

    def __init__(
        self, symbols: Sequence[int], sizes: Sequence[int], alphabet: Iterable[int], room: int
    ) -> None:
        """Write ``symbols``, cut into blocks of ``sizes``, as column-id arrays.

        ``symbols`` is read block by block and not kept; ``alphabet`` holds
        its distinct symbols, which the caller has already counted, and
        ``room`` is the most elements the blocks will hold, which the
        memory guard prices.  Symbols get columns in increasing order, and
        the table, the chunk words and the arrays at that width must pass
        :func:`check_table_fits` before any array is written.  Each block
        is cut into chunks of S..2S-1 elements, sizes differing by at most
        one (a block shorter than S into one chunk), and each chunk is
        counted once and added to the running word before it.
        """
        self.sizes = BlockSizeIndex(sizes)
        if len(self) != len(symbols):
            raise ValueError(f"block sizes sum to {len(self)}, not to the {len(symbols)} symbols")
        alphabet = sorted(alphabet)
        self.symbol = alphabet  # column -> symbol; a free column keeps its last one
        self.column: dict[int, int] = dict(zip(alphabet, range(len(alphabet))))  # symbol -> column
        self.room = room
        self.blocks: list[array] = []
        self.chunk_bounds: list[list[int]] = []  # per block, chunk starts and its length last
        self.chunk_sums: list[list[int]] = []  # per block, the count word of chunks 0..t-1 at t
        check_table_fits(len(sizes), len(alphabet), self.word_bound(), room)
        column = self.column
        zero = array("I", bytes(_FIELD_BYTES * len(alphabet)))
        end = 0
        for size in sizes:
            part = symbols[end : end + size]
            end += size
            # One itemgetter call looks a block's symbols up at twice the speed
            # of mapping column.__getitem__; it returns a tuple for two or more.
            block = array("I", itemgetter(*part)(column) if size > 1 else [column[s] for s in part])
            k = size // CHUNK or min(size, 1)
            q, extra = divmod(size, k) if k else (0, 0)
            bounds = [i * q + min(i, extra) for i in range(k + 1)]
            sums = [0]
            for start, stop in zip(bounds, bounds[1:]):
                fields = zero[:]
                for col, count in Counter(block[start:stop]).items():
                    fields[col] = count
                sums.append(sums[-1] + pack(fields))
            self.blocks.append(block)
            self.chunk_bounds.append(bounds)
            self.chunk_sums.append(sums)

    def __len__(self) -> int:
        return self.sizes.total()

    def locate(self, pos: int) -> tuple[int, int]:
        """Block slot and offset of position ``pos``."""
        ends = self.sizes.prefix_sums()  # the length last
        if not 0 <= pos < ends[-1]:
            raise IndexError(f"position {pos} out of range (length {ends[-1]})")
        k = bisect_right(ends, pos)
        return k, pos - (ends[k - 1] if k else 0)

    def insert_place(self, pos: int) -> tuple[int, int]:
        """Block and offset an insert at ``pos`` takes: the block holding ``pos - 1``,
        at the front the one holding position 0, in an empty sequence slot 0."""
        ends = self.sizes.prefix_sums()
        if not 0 <= pos <= ends[-1]:
            raise IndexError(f"insert position {pos} out of range (length {ends[-1]})")
        k = bisect_left(ends, pos or 1) if ends[-1] else 0
        return k, pos - (ends[k - 1] if k else 0)

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def __getitem__(self, pos: int) -> int:
        k, off = self.locate(pos)
        return self.symbol[self.blocks[k][off]]

    def insert_at(self, k: int, off: int, col: int) -> None:
        """Insert column id ``col`` at offset ``off`` of block ``k`` and count it in its chunk.

        Like the block, the chunk it joins is the one holding offset
        ``off - 1``.  A chunk split that fails takes the element back out.
        """
        c = bisect_left(self.chunk_bounds[k], off, 1) - 1
        block = self.blocks[k]
        block.insert(off, col)
        try:
            self._gain(k, c, col)
        except BaseException:  # a split's recount failed; _gain wrote nothing
            del block[off]
            raise

    def delete_at(self, k: int, off: int) -> int:
        """Remove and uncount the element at offset ``off`` of block ``k``; return its column id."""
        col = self.blocks[k].pop(off)
        self._lose(k, bisect_right(self.chunk_bounds[k], off) - 1, col)
        return col

    def move_left(self, i: int) -> int:
        """Move block ``i``'s first element to the end of block ``i - 1``; return its column."""
        return self._move(i, i - 1, "move_left")

    def move_right(self, i: int) -> int:
        """Move block ``i``'s last element to the front of block ``i + 1``; return its column."""
        return self._move(i, i + 1, "move_right")

    def _move(self, i: int, k: int, name: str) -> int:
        """Move the end element of block ``i`` facing its neighbour ``k`` into ``k``.

        The gain comes first, so a chunk split that fails changes nothing."""
        slots = len(self.blocks)
        if not (0 <= i < slots and 0 <= k < slots):
            raise IndexError(f"{name} source {i} out of range ({slots} slots)")
        if not self.blocks[i]:
            raise InvariantError(f"{name} from empty block {i}")
        off = 0 if k < i else len(self.blocks[i]) - 1
        col = self.blocks[i][off]
        self.insert_at(k, len(self.blocks[k]) if k < i else 0, col)
        self.delete_at(i, off)
        self.sizes.adjust(i, -1)
        self.sizes.adjust(k, 1)
        return col

    def move_back(self, i: int, k: int) -> int:
        """Undo a boundary move from block ``k`` into its neighbour ``i`` in the
        arrays and block sizes alone; return the column id sent back.

        It counts and splits nothing, so it cannot fail; the chunk lists of
        both blocks are left to :meth:`set_chunk_lists`.
        """
        col = self.blocks[i].pop(0 if k < i else -1)
        if k < i:
            self.blocks[k].append(col)
        else:
            self.blocks[k].insert(0, col)
        self.sizes.adjust(i, -1)
        self.sizes.adjust(k, 1)
        return col

    def chunk_lists(self, lo: int, hi: int) -> list[tuple[list[int], list[int]]]:
        """Copies of the chunk offsets and words of blocks ``lo..hi - 1``."""
        lists = zip(self.chunk_bounds[lo:hi], self.chunk_sums[lo:hi])
        return [(bounds[:], sums[:]) for bounds, sums in lists]

    def set_chunk_lists(self, lo: int, lists: list[tuple[list[int], list[int]]]) -> None:
        """Give blocks ``lo``, ``lo + 1``, ... the chunk lists of :meth:`chunk_lists`."""
        for k, (bounds, sums) in enumerate(lists, lo):
            self.chunk_bounds[k], self.chunk_sums[k] = bounds, sums

    def access_range(self, lo: int, hi: int) -> list[int]:
        """Return the symbols at positions ``lo..hi`` inclusive, in order."""
        n = len(self)
        if not (0 <= lo <= hi < n):
            raise IndexError(f"range [{lo}, {hi}] out of bounds (length {n})")
        want = hi - lo + 1
        k, off = self.locate(lo)
        blocks = self.blocks
        cols = blocks[k][off : off + want]
        while len(cols) < want:
            k += 1
            cols += blocks[k][: want - len(cols)]
        return list(map(self.symbol.__getitem__, cols))

    def to_list(self) -> list[int]:
        """Flatten the whole sequence into a plain list of symbols."""
        symbol = self.symbol.__getitem__
        out: list[int] = []
        for block in self.blocks:
            out += map(symbol, block)
        return out

    # ------------------------------------------------------------------
    # chunk counts
    # ------------------------------------------------------------------

    def count(self, k: int, lo: int, stop: int, loose: list[int], taken: list[int]) -> int:
        """Count offsets ``lo..stop - 1`` of block ``k``.

        Returns the count word of the whole chunks it takes, appends
        the column ids inside the range that no word holds to ``loose``, and
        those outside it that a word holds to ``taken``: the count is
        word + ``loose`` − ``taken``.  When the part holds a whole chunk,
        each end goes to the nearer boundary of the chunk it cuts: inwards,
        reading the elements up to it as loose, or outwards, adding that
        chunk's word and reading the elements past the range as taken.
        Each end then reads at most half its cut chunk, at most S elements.
        Otherwise every element is loose.  Only part of a block is ever
        asked for, so a one-chunk block has no whole chunk.
        """
        block = self.blocks[k]
        bounds = self.chunk_bounds[k]
        i = bisect_left(bounds, lo)
        j = bisect_right(bounds, stop) - 1
        if i < j:
            first, end = bounds[i], bounds[j]
            if lo < first and lo - bounds[i - 1] < first - lo:
                i -= 1
                taken += block[bounds[i] : lo]
            else:
                loose += block[lo:first]
            if stop > end and bounds[j + 1] - stop < stop - end:
                j += 1
                taken += block[stop : bounds[j]]
            else:
                loose += block[end:stop]
            sums = self.chunk_sums[k]
            return sums[j] - sums[i]
        loose += block[lo:stop]
        return 0

    def block_words(self) -> Iterator[int]:
        """The count word of each block, the last of its words, one at a time."""
        return map(itemgetter(-1), self.chunk_sums)

    def word_bound(self) -> int:
        """Most words the sequence can hold past the 0 that leads each block's
        list, one per chunk, at its length: 2N/S + L."""
        return 2 * len(self) // CHUNK + len(self.sizes)

    def recount(self, cols: Sequence[int]) -> int:
        """The count word of the column ids ``cols``, counted afresh."""
        counted = Counter(cols)
        fields = array("I", bytes(_FIELD_BYTES * (max(counted, default=-1) + 1)))
        for col, count in counted.items():
            fields[col] = count
        return pack(fields)

    def chunk_fault(self) -> str | None:
        """The first chunk that breaks a rule of the module docstring, or None.

        Every column id must lie below the width, the number of columns
        handed out.  Offsets must run from 0 to the block length; the sizes
        between them must lie in 1..2S, and two neighbours must hold more
        than S.  The words must start at 0, one per offset, and the
        difference of each two neighbours must equal a recount of its chunk.
        """
        top = 2 * CHUNK
        width = len(self.symbol)
        for k, block in enumerate(self.blocks):
            if block and max(block) >= width:
                return f"block {k} holds column id {max(block)}, past the width {width}"
            bounds, sums = self.chunk_bounds[k], self.chunk_sums[k]
            if bounds[0] != 0 or bounds[-1] != len(block):
                return f"the chunks of block {k} do not cover its {len(block)} elements"
            if len(sums) != len(bounds):
                return f"block {k} has {len(sums)} count words for {len(bounds) - 1} chunks"
            if sums[0] != 0:
                return f"the count words of block {k} do not start at 0"
            sizes = [end - start for start, end in zip(bounds, bounds[1:])]
            for i, size in enumerate(sizes):
                if not 1 <= size <= top:
                    return f"chunk {i} of block {k} holds {size}, outside [1, {top}]"
                if i and sizes[i - 1] + size <= CHUNK:
                    return f"chunks {i - 1} and {i} of block {k} hold {CHUNK} or fewer together"
                if sums[i + 1] - sums[i] != self.recount(block[bounds[i] : bounds[i + 1]]):
                    return f"count word of chunk {i} of block {k} disagrees with a recount"
        return None

    def relocate(self, k: int, off: int, to: int) -> None:
        """Move the element at offset ``off`` of block ``k`` to offset ``to`` there.

        The element goes in at its new offset first and the old copy comes
        out second, so an array insert that fails changes nothing.  Every
        chunk keeps its offsets, so none splits or merges and nothing is
        recounted: the word at each offset the move crosses gains the
        element crossing it the other way and loses the moved one, or the
        reverse.
        """
        if to == off:
            return
        block, bounds, sums = self.blocks[k], self.chunk_bounds[k], self.chunk_sums[k]
        col = block[off]
        unit = 1 << (_FIELD_BITS * col)
        block.insert(to + (to > off), col)
        del block[off + (to < off)]
        if to < off:  # the words of offsets to+1..off gain the moved element
            for t in range(bisect_right(bounds, to), bisect_right(bounds, off)):
                sums[t] += unit - (1 << (_FIELD_BITS * block[bounds[t]]))
        else:  # the words of offsets off+1..to lose it
            for t in range(bisect_right(bounds, off), bisect_right(bounds, to)):
                sums[t] += (1 << (_FIELD_BITS * block[bounds[t] - 1])) - unit

    def _gain(self, k: int, c: int, col: int) -> None:
        """Count column ``col``, just added to block ``k``, into its chunk ``c``.

        An empty block gets a new chunk; a chunk past 2S splits in two.
        The first half is counted before anything is written, so a recount
        that raises leaves the chunk lists as they were.
        """
        bounds, sums = self.chunk_bounds[k], self.chunk_sums[k]
        unit = 1 << (_FIELD_BITS * col)
        if len(bounds) == 1:
            bounds.append(1)
            sums.append(unit)
            return
        start, end = bounds[c], bounds[c + 1] + 1
        if end - start > 2 * CHUNK:
            half = (start + end) // 2
            word = sums[c] + self.recount(self.blocks[k][start:half])
            c += 1
            bounds.insert(c, half)
            sums.insert(c, word)
        for i in range(c + 1, len(bounds)):
            bounds[i] += 1
            sums[i] += unit

    def _lose(self, k: int, c: int, col: int) -> None:
        """Take column ``col``, just removed from block ``k``, out of its chunk ``c``.

        An empty chunk is dropped; a chunk that holds S or fewer together
        with a neighbour merges into it.
        """
        bounds, sums = self.chunk_bounds[k], self.chunk_sums[k]
        unit = 1 << (_FIELD_BITS * col)
        for i in range(c + 1, len(bounds)):
            bounds[i] -= 1
            sums[i] -= unit
        start, end = bounds[c], bounds[c + 1]
        if start < end:
            if c and end - bounds[c - 1] <= CHUNK:
                c -= 1
            elif not (c + 2 < len(bounds) and bounds[c + 2] - start <= CHUNK):
                return
        del bounds[c + 1], sums[c + 1]  # the empty chunk, or the seam of a merge
