"""Dynamic symbol sequence stored as the engine's blocks, with chunk counts.

Symbols are opaque non-negative integers.  The sequence is one Python list
per block slot, in order; empty blocks are allowed anywhere.  An engine op
finds its block and offset once, by bisecting the prefix sums of the
:class:`BlockSizeIndex` of the list lengths (:meth:`CharSeq.locate`,
:meth:`CharSeq.insert_place`), and edits there: a list insert or pop and one
count word edit, while the block size is the engine's to adjust, so a
relocation inside one block changes none.  A boundary move adds an end
element of one block to the near end of its neighbour, then takes it out.

Beside each block list sits its chunk index.  A chunk is a run of 1..2S
consecutive elements of the block, S = :data:`CHUNK`, and two neighbouring
chunks hold more than S together, so a block of c elements has at most
2c/S + 1 chunks.  The index keeps the offset where each chunk starts, the
block length last (``[0]`` for an empty block), and each chunk's count word:
a Python ``int`` whose 32-bit field ``col`` is the chunk's count of the
symbol in column ``col`` of :attr:`CharSeq.column`, the column map the
summary table shares.  The build numbers the symbols of the blocks; after
it, the table hands a new symbol its column before the sequence takes it.
An edit in chunk ``c`` adds ``±1 << 32·col`` to its word, a copy of up to
σ'·4 bytes, and ±1 to the offsets after ``c``; a chunk past 2S splits in
two recounted halves at a new offset, while an empty chunk is dropped, and
a chunk that shrinks to S or less together with a neighbour merges into it,
each deleting one offset.  A query then counts the whole chunks of a margin
as one sum of words, found by bisecting the offsets.  Each end of the
margin moves to the nearer boundary of the chunk it cuts, so it reads at
most half that chunk, at most S elements, straight from the block list: the
elements up to an inner boundary as loose, or, past an outer one, the
elements outside the range as taken away from the added word
(:meth:`CharSeq.count`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter

from .blockindex import BlockSizeIndex
from .errors import InvariantError
from .multiset import _FIELD_BITS, _FIELD_BYTES, check_table_fits, pack

CHUNK = 128
"""S: a chunk holds 1..2S elements; a rebuild cuts chunks of S..2S-1."""


class CharSeq:
    """Mutable sequence of symbol ids split into a fixed row of blocks."""

    __slots__ = ("blocks", "sizes", "column", "chunk_bounds", "chunk_counts")

    def __init__(self, blocks: list[list[int]]) -> None:
        """Take ``blocks`` as the block lists, without copying them, and count their chunks.

        Symbols get columns in increasing order, and the table and the
        chunk words at that width must pass :func:`check_table_fits` before
        any chunk is counted.  Each block is cut into chunks of S..2S-1
        elements, sizes differing by at most one (a block shorter than S
        into one chunk), and each chunk is counted once.
        """
        self.blocks = blocks
        self.sizes = BlockSizeIndex(map(len, blocks))
        alphabet = sorted(set().union(*blocks))
        self.column: dict[int, int] = dict(zip(alphabet, range(len(alphabet))))  # symbol -> column
        self.chunk_bounds: list[list[int]] = []  # per block, chunk starts and its length last
        self.chunk_counts: list[list[int]] = []  # per block, the count word of each chunk
        check_table_fits(len(blocks), len(alphabet), self.word_bound())
        column = self.column
        zero = array("I", bytes(_FIELD_BYTES * len(alphabet)))
        for block in blocks:
            k = len(block) // CHUNK or min(len(block), 1)
            q, extra = divmod(len(block), k) if k else (0, 0)
            bounds = [i * q + min(i, extra) for i in range(k + 1)]
            words = []
            for start, end in zip(bounds, bounds[1:]):
                fields = zero[:]
                for symbol, count in Counter(block[start:end]).items():
                    fields[column[symbol]] = count
                words.append(pack(fields))
            self.chunk_bounds.append(bounds)
            self.chunk_counts.append(words)

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
        return self.blocks[k][off]

    def insert_at(self, k: int, off: int, symbol: int) -> None:
        """Insert ``symbol`` at offset ``off`` of block ``k`` and count it in its chunk.

        Like the block, the chunk it joins is the one holding offset
        ``off - 1``.  A chunk split that fails takes the element back out.
        """
        c = bisect_left(self.chunk_bounds[k], off, 1) - 1
        block = self.blocks[k]
        block.insert(off, symbol)
        try:
            self._gain(k, c, symbol)
        except BaseException:  # a split's recount failed; _gain wrote nothing
            del block[off]
            raise

    def delete_at(self, k: int, off: int) -> int:
        """Remove and return the element at offset ``off`` of block ``k``, and uncount it."""
        symbol = self.blocks[k].pop(off)
        self._lose(k, bisect_right(self.chunk_bounds[k], off) - 1, symbol)
        return symbol

    def move_left(self, i: int) -> int:
        """Move the first element of block ``i`` to the end of block ``i - 1``; return it."""
        return self._move(i, i - 1, "move_left")

    def move_right(self, i: int) -> int:
        """Move the last element of block ``i`` to the front of block ``i + 1``; return it."""
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
        symbol = self.blocks[i][off]
        self.insert_at(k, len(self.blocks[k]) if k < i else 0, symbol)
        self.delete_at(i, off)
        self.sizes.adjust(i, -1)
        self.sizes.adjust(k, 1)
        return symbol

    def access_range(self, lo: int, hi: int) -> list[int]:
        """Return the elements at positions ``lo..hi`` inclusive, in order."""
        n = len(self)
        if not (0 <= lo <= hi < n):
            raise IndexError(f"range [{lo}, {hi}] out of bounds (length {n})")
        want = hi - lo + 1
        k, off = self.locate(lo)
        blocks = self.blocks
        out = blocks[k][off : off + want]
        while len(out) < want:
            k += 1
            out += blocks[k][: want - len(out)]
        return out

    def to_list(self) -> list[int]:
        """Flatten the whole sequence into a plain list."""
        out: list[int] = []
        for block in self.blocks:
            out.extend(block)
        return out

    # ------------------------------------------------------------------
    # chunk counts
    # ------------------------------------------------------------------

    def count(self, k: int, lo: int, stop: int, loose: list[int], taken: list[int]) -> int:
        """Count offsets ``lo..stop - 1`` of block ``k``.

        Returns the summed count word of the whole chunks it takes, appends
        the elements inside the range that no word holds to ``loose``, and
        the elements outside it that a word holds to ``taken``: the count is
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
            return sum(self.chunk_counts[k][i:j])
        loose += block[lo:stop]
        return 0

    def block_words(self) -> list[int]:
        """The count word of each block: the sum of its chunk words."""
        return [sum(words) for words in self.chunk_counts]

    def word_bound(self) -> int:
        """Most chunk words the sequence can take at its length: 2N/S + L."""
        return 2 * len(self) // CHUNK + len(self.blocks)

    def recount(self, symbols: list[int]) -> int:
        """The count word of ``symbols``, counted afresh."""
        counted = Counter(symbols)
        cols = [self.column[symbol] for symbol in counted]
        fields = array("I", bytes(_FIELD_BYTES * (max(cols, default=-1) + 1)))
        for col, count in zip(cols, counted.values()):
            fields[col] = count
        return pack(fields)

    def chunk_fault(self) -> str | None:
        """The first chunk that breaks a rule of the module docstring, or None.

        Offsets must run from 0 to the block length, one more than the
        words; the sizes between them must lie in 1..2S, and two neighbours
        must hold more than S; every word must equal a recount.
        """
        top = 2 * CHUNK
        for k, block in enumerate(self.blocks):
            bounds, words = self.chunk_bounds[k], self.chunk_counts[k]
            if len(bounds) != len(words) + 1 or bounds[0] != 0 or bounds[-1] != len(block):
                return f"the chunks of block {k} do not cover its {len(block)} elements"
            sizes = [end - start for start, end in zip(bounds, bounds[1:])]
            for i, size in enumerate(sizes):
                if not 1 <= size <= top:
                    return f"chunk {i} of block {k} holds {size}, outside [1, {top}]"
                if i and sizes[i - 1] + size <= CHUNK:
                    return f"chunks {i - 1} and {i} of block {k} hold {CHUNK} or fewer together"
                try:
                    recounted = self.recount(block[bounds[i] : bounds[i + 1]])
                except KeyError as exc:
                    return f"symbol {exc.args[0]} in block {k} has no column"
                if words[i] != recounted:
                    return f"count word of chunk {i} of block {k} disagrees with a recount"
        return None

    def _field(self, symbol: int) -> int:
        """A count word holding one ``symbol``, whose column the summary table handed out."""
        return 1 << (_FIELD_BITS * self.column[symbol])

    def _gain(self, k: int, c: int, symbol: int) -> None:
        """Count ``symbol``, just added to block ``k``, into its chunk ``c``.

        An empty block gets a new chunk; a chunk past 2S splits in two.
        Both halves are counted before anything is written, so a recount
        that raises leaves the chunk lists as they were.
        """
        bounds, words = self.chunk_bounds[k], self.chunk_counts[k]
        if not words:
            bounds.append(1)
            words.append(self._field(symbol))
            return
        start, end = bounds[c], bounds[c + 1] + 1
        if end - start <= 2 * CHUNK:
            words[c] += self._field(symbol)
        else:
            half = (start + end) // 2
            block = self.blocks[k]
            words[c : c + 1] = [self.recount(block[start:half]), self.recount(block[half:end])]
            c += 1
            bounds.insert(c, half)
        for i in range(c + 1, len(bounds)):
            bounds[i] += 1

    def _lose(self, k: int, c: int, symbol: int) -> None:
        """Take ``symbol``, just removed from block ``k``, out of its chunk ``c``.

        An empty chunk is dropped; a chunk that holds S or fewer together
        with a neighbour merges into it.
        """
        bounds, words = self.chunk_bounds[k], self.chunk_counts[k]
        words[c] -= self._field(symbol)
        for i in range(c + 1, len(bounds)):
            bounds[i] -= 1
        start, end = bounds[c], bounds[c + 1]
        if start == end:
            del bounds[c], words[c]
            return
        if c and end - bounds[c - 1] <= CHUNK:
            c -= 1
        elif not (c + 2 < len(bounds) and bounds[c + 2] - start <= CHUNK):
            return
        del bounds[c + 1]
        words[c] += words.pop(c + 1)
