"""Dynamic symbol sequence stored as the engine's blocks, with chunk counts.

Symbols are opaque non-negative integers, but a block stores none of them:
each block slot holds an array of column ids, in order, whatever the
symbols; empty blocks are allowed anywhere.  Column ``col`` stands for
symbol ``symbol[col]`` of :attr:`CharSeq.symbol`, and :attr:`CharSeq.column`
maps each symbol present back to its column; the summary table shares both,
hands a new symbol its column before the sequence takes it, and frees the
column when the symbol's last element goes.  Every array has the narrower
unsigned type that holds every column handed out (:func:`id_type`): ``'B'``,
one byte per element, up to 256 columns, and ``'I'``, four bytes, beyond.
The build picks it from its alphabet and writes the arrays in one pass over
the caller's list, block by block, with no copy of the whole list.  Before
the table hands out column 256 it has every block rewritten as ``'I'``
(:meth:`CharSeq.retype`), one copy of N ids; the new arrays are all built
before any replaces an old one, so a failure changes nothing.  Edits,
boundary moves and margin counts work on column ids alone; only
:meth:`CharSeq.to_list`, :meth:`CharSeq.access_range` and indexing map them
back to symbols.

The block boundaries are one list, :attr:`CharSeq.ends`, whose entry k is
one past the last position of block k.  An engine op finds its block and
offset once, by bisecting it (:meth:`CharSeq.locate`,
:meth:`CharSeq.insert_place`), and edits there: an array insert or pop, a
``memmove``, O(C) word adds for the C chunks of the block, and ±1 on the
ends from block k on, O(L).  A relocation inside one block
(:meth:`CharSeq.relocate`) keeps every end.  A boundary move adds an end
element of one block to the near end of its neighbour, then takes it out.

Beside each block sits its chunk index.  Chunk t of a block holds its
offsets t·S .. (t+1)·S - 1, S = :data:`CHUNK`, so the offsets are implicit.
The index keeps, at t, the count word of the block's first min(t·S, c)
elements, c the block length: a Python ``int`` whose 32-bit field ``col``
counts column ``col`` in them, 0 first and the block's word last, ⌈c/S⌉ + 1
words in all.  The words follow from the block array alone.  An edit at
offset ``off`` changes each word whose boundary lies past ``off``, adding
the element that crosses that boundary and taking away the one that leaves,
two adds of σ'·4 bytes each: with u(col) = ``1 << 32·col``, an insert adds
u(col) - u(block[t·S]), a delete u(block[t·S - 1]) - u(col), and the last
word gains or loses u(col); when the length crosses a multiple of S one
word is appended or dropped.  Nothing splits, merges or is recounted, and a
boundary move undone by the opposite move leaves every word as it was.  A
relocation inside one block changes, by the same rule, the words of the
boundaries between its two ends.  A query counts the whole chunks of a
margin as one difference of two words, found by arithmetic.  Each end of
the margin moves to the nearer boundary of the chunk it cuts, so it reads
at most S/2 column ids straight from the block array: the ids up to an
inner boundary as loose, or, past an outer one, the ids outside the range
as taken away from the word (:meth:`CharSeq.count`).
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import InvariantError
from .multiset import _FIELD_BITS, _FIELD_BYTES, check_table_fits, id_type, pack

CHUNK = 128
"""S: chunk t of a block holds its offsets t·S .. (t+1)·S - 1."""


class CharSeq:
    """Mutable sequence of symbol ids split into a fixed row of blocks of column ids."""

    __slots__ = ("blocks", "ends", "column", "symbol", "room", "chunk_sums")

    def __init__(
        self, symbols: Sequence[int], sizes: Sequence[int], alphabet: Iterable[int], room: int
    ) -> None:
        """Write ``symbols``, cut into blocks of ``sizes``, as column-id arrays.

        ``symbols`` is read block by block and not kept; ``alphabet`` holds
        its distinct symbols, which the caller has already counted, and
        ``room`` is the most elements the blocks will hold, which the
        memory guard prices.  Symbols get columns in increasing order, and
        the arrays take the narrower type that holds them, :func:`id_type`
        of the alphabet's size; the table, the chunk words and the arrays at
        that width must pass :func:`check_table_fits` before any array is
        written.  Each chunk is counted once by :meth:`recount` and added to
        the running word before it.
        """
        self.ends = list(accumulate(sizes))  # one past the last position of each block
        if len(self) != len(symbols):
            raise ValueError(f"block sizes sum to {len(self)}, not to the {len(symbols)} symbols")
        alphabet = sorted(alphabet)
        self.symbol = alphabet  # column -> symbol; a free column keeps its last one
        self.column: dict[int, int] = dict(zip(alphabet, range(len(alphabet))))  # symbol -> column
        self.room = room
        self.blocks: list[array] = []
        self.chunk_sums: list[list[int]] = []  # per block, at t the word of its first min(t·S, c)
        code = id_type(len(alphabet))
        check_table_fits(len(sizes), len(alphabet), self.word_bound(), room, code)
        column = self.column
        end = 0
        for size in sizes:
            part = symbols[end : end + size]
            end += size
            # One itemgetter call looks a block's symbols up at twice the speed
            # of mapping column.__getitem__; it returns a tuple for two or more.
            ids = itemgetter(*part)(column) if size > 1 else [column[s] for s in part]
            if code == "B":  # bytes() reads the ids at C speed; array("B", ids) parses each
                block = array("B", bytes(ids))
            else:
                block = array("I", ids)
            sums = [0] * (-(-size // CHUNK) + 1)  # sized once: no list slot to spare
            for t in range(1, len(sums)):
                sums[t] = sums[t - 1] + self.recount(block[(t - 1) * CHUNK : t * CHUNK])
            self.blocks.append(block)
            self.chunk_sums.append(sums)

    def __len__(self) -> int:
        return self.ends[-1]

    def locate(self, pos: int) -> tuple[int, int]:
        """Block slot and offset of position ``pos``."""
        ends = self.ends  # the length last
        if not 0 <= pos < ends[-1]:
            raise IndexError(f"position {pos} out of range (length {ends[-1]})")
        k = bisect_right(ends, pos)
        return k, pos - (ends[k - 1] if k else 0)

    def insert_place(self, pos: int) -> tuple[int, int]:
        """Block and offset an insert at ``pos`` takes: the block holding ``pos - 1``,
        at the front the one holding position 0, in an empty sequence slot 0."""
        ends = self.ends
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
        """Insert column id ``col`` at offset ``off`` of block ``k``, count it
        in its words, and move the ends from block ``k`` on by one.

        The array insert comes first, so one that fails changes nothing.
        """
        block, sums = self.blocks[k], self.chunk_sums[k]
        block.insert(off, col)
        if not (len(block) - 1) % CHUNK:  # the last word's boundary becomes a chunk's
            sums.append(sums[-1])
        unit = 1 << (_FIELD_BITS * col)
        first = off // CHUNK + 1  # the first boundary past off; block[t·S] leaves word t
        for t, out in enumerate(block[first * CHUNK :: CHUNK], first):
            sums[t] += unit - (1 << (_FIELD_BITS * out))
        sums[-1] += unit
        ends = self.ends
        ends[k:] = [end + 1 for end in ends[k:]]

    def delete_at(self, k: int, off: int) -> int:
        """Remove and uncount the element at offset ``off`` of block ``k``; return its column id."""
        block, sums = self.blocks[k], self.chunk_sums[k]
        col = block.pop(off)
        unit = 1 << (_FIELD_BITS * col)
        first = off // CHUNK + 1  # the first boundary past off; block[t·S - 1] joins word t
        for t, into in enumerate(block[first * CHUNK - 1 :: CHUNK], first):
            sums[t] += (1 << (_FIELD_BITS * into)) - unit
        if len(block) % CHUNK:
            sums[-1] -= unit
        else:  # the word before the last now ends the block
            sums.pop()
        ends = self.ends
        ends[k:] = [end - 1 for end in ends[k:]]
        return col

    def move_left(self, i: int) -> int:
        """Move block ``i``'s first element to the end of block ``i - 1``; return its column."""
        return self._move(i, i - 1, "move_left")

    def move_right(self, i: int) -> int:
        """Move block ``i``'s last element to the front of block ``i + 1``; return its column."""
        return self._move(i, i + 1, "move_right")

    def _move(self, i: int, k: int, name: str) -> int:
        """Move the end element of block ``i`` facing its neighbour ``k`` into ``k``.

        The gain comes first, so an array insert that fails changes nothing."""
        slots = len(self.blocks)
        if not (0 <= i < slots and 0 <= k < slots):
            raise IndexError(f"{name} source {i} out of range ({slots} slots)")
        if not self.blocks[i]:
            raise InvariantError(f"{name} from empty block {i}")
        off = 0 if k < i else len(self.blocks[i]) - 1
        col = self.blocks[i][off]
        self.insert_at(k, len(self.blocks[k]) if k < i else 0, col)
        self.delete_at(i, off)
        return col

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
        Each end then reads at most S/2 elements.  Otherwise every element
        is loose.  Only part of a block is ever asked for, so a one-chunk
        block has no whole chunk.
        """
        block, sums = self.blocks[k], self.chunk_sums[k]
        i = -(-lo // CHUNK)  # the first boundary at or after lo
        j = len(sums) - 1 if stop == len(block) else stop // CHUNK  # the last at or before stop
        if i < j:
            first, end = i * CHUNK, min(j * CHUNK, stop)
            if 2 * (first - lo) > CHUNK:
                i -= 1
                taken += block[first - CHUNK : lo]
            else:
                loose += block[lo:first]
            if stop > end and min(end + CHUNK, len(block)) - stop < stop - end:
                j += 1
                taken += block[stop : end + CHUNK]
            else:
                loose += block[end:stop]
            return sums[j] - sums[i]
        loose += block[lo:stop]
        return 0

    def block_words(self) -> Iterator[int]:
        """The count word of each block, the last of its words, one at a time."""
        return map(itemgetter(-1), self.chunk_sums)

    def word_bound(self) -> int:
        """Most words the blocks can hold, past the 0 that leads each block's
        list, before the next rebuild: ⌈c/S⌉ for a block of c, at most
        room/S + L in all."""
        return self.room // CHUNK + len(self.ends)

    def recount(self, cols: Sequence[int]) -> int:
        """The count word of the column ids ``cols``, each below the width, counted afresh."""
        fields = array("I", bytes(_FIELD_BYTES * len(self.symbol)))
        for col, count in Counter(cols).items():
            fields[col] = count
        return pack(fields)

    def retype(self, code: str) -> None:
        """Rewrite every block as an array of ``code``, which must hold every id.

        The new arrays are all built before they replace the old ones, so a
        failure changes nothing.
        """
        self.blocks = [array(code, block) for block in self.blocks]

    def chunk_fault(self) -> str | None:
        """The first block or chunk that breaks a rule of the module docstring, or None.

        Every block must be an array of :func:`id_type` of the width, the
        number of columns handed out, and every column id must lie below
        the width.  A block of c elements must have ⌈c/S⌉ + 1 words, 0
        first, and the difference of each two neighbours must equal a
        recount of its chunk.
        """
        width = len(self.symbol)
        code = id_type(width)
        for k, block in enumerate(self.blocks):
            if block.typecode != code:
                return f"block {k} holds {block.typecode!r} ids, not {code!r} for {width} columns"
            if block and max(block) >= width:
                return f"block {k} holds column id {max(block)}, past the width {width}"
            sums = self.chunk_sums[k]
            want = -(-len(block) // CHUNK) + 1
            if len(sums) != want:
                return f"block {k} of {len(block)} elements has {len(sums)} count words, not {want}"
            if sums[0] != 0:
                return f"the count words of block {k} do not start at 0"
            for t in range(1, want):
                if sums[t] - sums[t - 1] != self.recount(block[(t - 1) * CHUNK : t * CHUNK]):
                    return f"count word of chunk {t - 1} of block {k} disagrees with a recount"
        return None

    def relocate(self, k: int, off: int, to: int) -> None:
        """Move the element at offset ``off`` of block ``k`` to offset ``to`` there.

        The element goes in at its new offset first and the old copy comes
        out second, so an array insert that fails changes nothing.  The word
        at each chunk boundary the move crosses gains the element crossing
        it the other way and loses the moved one, or the reverse.
        """
        if to == off:
            return
        block, sums = self.blocks[k], self.chunk_sums[k]
        col = block[off]
        unit = 1 << (_FIELD_BITS * col)
        block.insert(to + (to > off), col)
        del block[off + (to < off)]
        if to < off:  # the words of boundaries to+1..off gain it; block[t·S] leaves word t
            first = to // CHUNK + 1
            for t, out in enumerate(block[first * CHUNK : off + 1 : CHUNK], first):
                sums[t] += unit - (1 << (_FIELD_BITS * out))
        else:  # the words of boundaries off+1..to lose it; block[t·S - 1] joins word t
            first = off // CHUNK + 1
            for t, into in enumerate(block[first * CHUNK - 1 : to : CHUNK], first):
                sums[t] += (1 << (_FIELD_BITS * into)) - unit
