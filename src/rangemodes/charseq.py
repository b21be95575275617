"""Dynamic symbol sequence stored as the engine's blocks, with chunk counts.

Symbols are opaque non-negative integers, but a block stores none of them:
each block slot holds an array of column ids, in order, whatever the
symbols; empty blocks are allowed anywhere.  Column ``col`` stands for
symbol ``symbol[col]`` of :attr:`CharSeq.symbol`, and :attr:`CharSeq.column`
maps each symbol present back to its column; the summary table reads both,
installs a new map when it hands a new symbol its column, and drops the
entry of a symbol whose last element goes.  Every array has the narrower
unsigned type that holds every column handed out (:func:`id_type`): ``'B'``,
one byte per element, up to 256 columns, and ``'I'``, four bytes, beyond.
The build picks it from its alphabet and writes the arrays in one pass over
the caller's list, block by block, with no copy of the whole list, by one
``bytes.translate`` while every symbol is below 256 and one ``itemgetter``
call otherwise; a rebuild passes column ids, which it slices.  Each chunk
is counted once, by :func:`chunk_word`.  The type holds until the next
build, as the engine rebuilds its layout rather than hand out column 256
to ``'B'`` arrays.  The build does not price what it writes: the engine
admits a layout before building it, pricing the chunk words by
:func:`word_bound`.  Edits and margin counts work on column ids alone;
only :meth:`CharSeq.to_list` and the symbols an op returns map them back.

The block boundaries are one list, :attr:`CharSeq.ends`, whose entry k is
one past the last position of block k.  An engine op finds its block and
offset once, by bisecting it (:meth:`CharSeq.locate`,
:meth:`CharSeq.insert_place`).  :meth:`CharSeq.edit`, the sequence's one
store, computes the new values there, O(C) word adds for the C chunks of
each block edited and ±1 on the ends between two blocks, O(L), on copies,
and then stores them: first an array insert, which fails with nothing
changed, then a removal and swaps of whole lists, which call no function
and build no object.  A move inside one block keeps every end.

Beside each block sits its chunk index.  Chunk t of a block holds its
offsets t·S .. (t+1)·S - 1, S = :data:`CHUNK`, so the offsets are implicit.
The index keeps, at t, the count word of the block's first min(t·S, c)
elements, c the block length: a Python ``int`` whose 32-bit field ``col``
counts column ``col`` in them, 0 first and the block's word last, ⌈c/S⌉ + 1
words in all.  The words follow from the block array alone.  Every edit
keeps them by one rule: the word of each boundary t·S in a run (a, b]
gains one id and loses another, two adds of σ'·4 bytes.  With u(col) =
``1 << 32·col``, an insert at ``a`` adds u(col) - u(block[t·S - 1]), a
delete u(block[t·S]) - u(col), up to the length, and a relocation inside
the block one or the other between its offsets; the last word gains or
loses u(col), and a length crossing a multiple of S adds or drops a word.
Nothing splits, merges or is recounted, and an edit undone by the
opposite edit leaves every word as it was.  A query
(:meth:`RangeModeEngine.modes`) moves each end of its range to the
nearest boundary of the chunk it cuts, found by arithmetic, so it reads
at most S/2 column ids, one slice of the block array: the ids up to an
inner boundary, added, or, past an outer one, the ids outside the range,
taken away.  The running word at the right moved end, less the one at
the left, counts the whole chunks between them with the summary cell of
the blocks from the left end's up to the one before the right end's.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import _count_elements  # Counter's C loop, into any dict
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .multiset import _FIELD_BITS, _FIELD_BYTES, id_type, pack
from .retired import retired

CHUNK = 128
"""S: chunk t of a block holds its offsets t·S .. (t+1)·S - 1."""


def word_bound(room: int, slots: int) -> int:
    """Most words ``slots`` blocks of at most ``room`` elements in all can
    hold, past the 0 that leads each block's list: ⌈c/S⌉ for a block of c,
    at most room/S + L in all."""
    return room // CHUNK + slots


def chunk_word(cols: Sequence[int], counts: dict[int, int], zeros: array) -> int:
    """The count word of the column ids ``cols``, counted into ``counts``
    and written over a copy of ``zeros``, a zero field for each column."""
    counts.clear()
    _count_elements(counts, cols)
    fields = zeros[:]
    for col, count in counts.items():
        fields[col] = count
    return pack(fields)


class CharSeq:
    """Mutable sequence of symbol ids split into a fixed row of blocks of column ids."""

    __slots__ = ("blocks", "ends", "column", "symbol", "chunk_sums")

    def __init__(
        self, symbols: Sequence[int], sizes: Sequence[int], alphabet: Iterable[int]
    ) -> None:
        """Write ``symbols``, cut into blocks of ``sizes``, as column-id arrays.

        ``symbols`` is read block by block and not kept: a list of symbols,
        or a rebuild's array of their column ids, whose slices are the
        blocks.  ``alphabet`` holds its distinct symbols, which the caller
        has already counted.  Symbols get columns in increasing order, and
        the arrays take the narrower type that holds them, :func:`id_type`
        of the alphabet's size.  Each chunk is counted once by
        :func:`chunk_word` and added to the running word before it.
        """
        self.ends = list(accumulate(sizes))  # one past the last position of each block
        if len(self) != len(symbols):
            raise ValueError(f"block sizes sum to {len(self)}, not to the {len(symbols)} symbols")
        alphabet = sorted(alphabet)
        width = len(alphabet)
        self.symbol = alphabet  # column -> symbol; a free column keeps its last one
        self.column: dict[int, int] = dict(zip(alphabet, range(width)))  # symbol -> column
        self.blocks: list[array] = []
        self.chunk_sums: list[list[int]] = []  # per block, at t the word of its first min(t·S, c)
        code = id_type(width)
        column = self.column
        small = width and alphabet[-1] < 1 << 8  # every symbol fits one byte
        table = bytes.maketrans(bytes(alphabet), bytes(range(width))) if small else None
        counts, zeros = {}, array("I", bytes(_FIELD_BYTES * width))  # chunk_word's, reused
        end = 0
        for size in sizes:
            part = symbols[end : end + size]
            end += size
            if type(part) is array:  # a slice has no spare room
                block = part
            elif table:  # bytes() reads the symbols at C speed; array("B", ids) parses each
                block = array("B", bytes(part).translate(table))[:]  # drops frombytes' spare room
            else:
                # One itemgetter call looks a block's symbols up at twice the
                # speed of mapping column.__getitem__; it returns a tuple for two or more.
                ids = itemgetter(*part)(column) if size > 1 else [column[s] for s in part]
                block = array("B", bytes(ids))[:] if code == "B" else array("I", ids)
            sums = [0] * (-(-size // CHUNK) + 1)  # sized once: no list slot to spare
            for t, lo in enumerate(range(0, size, CHUNK), 1):
                sums[t] = sums[t - 1] + chunk_word(block[lo : lo + CHUNK], counts, zeros)
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

    __getitem__ = access_range = retired

    def _crossed(self, k: int, a: int, b: int, unit: int, enters: bool) -> list[int]:
        """A copy of block ``k``'s words in which the word of each boundary
        t·S in (a, b] gains one id and loses another: the id of ``unit``, a
        word counting one, and ``block[t·S - 1]`` with ``enters``, else
        ``block[t·S]`` and that id."""
        block, sums = self.blocks[k], self.chunk_sums[k][:]
        first = a // CHUNK + 1  # the first boundary past a
        if enters:
            for t, out in enumerate(block[first * CHUNK - 1 : b : CHUNK], first):
                sums[t] += unit - (1 << (_FIELD_BITS * out))
        else:
            for t, into in enumerate(block[first * CHUNK : b + 1 : CHUNK], first):
                sums[t] += (1 << (_FIELD_BITS * into)) - unit
        return sums

    def insert_at(self, k: int, off: int, col: int) -> list[int]:
        """A copy of block ``k``'s words once column id ``col`` goes in at offset ``off``."""
        size, unit = len(self.blocks[k]), 1 << (_FIELD_BITS * col)
        crossed = off // CHUNK < size // CHUNK  # a chunk boundary lies in (off, size]
        sums = self._crossed(k, off, size, unit, True) if crossed else self.chunk_sums[k][:]
        if size % CHUNK:
            sums[-1] += unit
        else:  # the last word's boundary becomes a chunk's
            sums.append(self.chunk_sums[k][-1] + unit)
        return sums

    def delete_at(self, k: int, off: int) -> list[int]:
        """A copy of block ``k``'s words once the element at offset ``off`` comes out."""
        size, unit = len(self.blocks[k]) - 1, 1 << (_FIELD_BITS * self.blocks[k][off])
        crossed = off // CHUNK < size // CHUNK  # a chunk boundary lies in (off, size]
        sums = self._crossed(k, off, size, unit, False) if crossed else self.chunk_sums[k][:]
        if size % CHUNK:
            sums[-1] -= unit
        else:  # the word before the last now ends the block
            sums.pop()
        return sums

    def edit(
        self, js: int | None, offs: int | None, jd: int | None, offd: int | None, col: int
    ) -> None:
        """Take the element at offset ``offs`` of block ``js`` out and put
        column id ``col`` in at offset ``offd`` of block ``jd``, counted once
        the element is out; a None block skips its step.  The new words and
        ends come first, on copies, then the array insert, the one store
        that allocates, which fails with nothing changed; past it nothing
        is called or built.  A move inside one block keeps every end."""
        if js == jd is not None:
            up = offs < offd
            a, b, out = (offs, offd, offs) if up else (offd, offs, offs + 1)
            sums = self.chunk_sums[js]
            if a // CHUNK != b // CHUNK:  # a chunk boundary lies in (a, b]
                sums = self._crossed(js, a, b, 1 << (_FIELD_BITS * col), not up)
            self.blocks[js].insert(offd + up, col)
            del self.blocks[js][out]
            self.chunk_sums[js] = sums
            return
        wd = None if jd is None else self.insert_at(jd, offd, col)
        ws = None if js is None else self.delete_at(js, offs)
        # The ends from the lower block up to the higher one move by one; past
        # the last element, the ends of the empty blocks, all the length, move
        # as one repeat, with no add each.
        ends = self.ends
        last = len(ends)
        gain, loss = last if jd is None else jd, last if js is None else js
        lo, hi, step = (gain, loss, 1) if gain < loss else (loss, gain, -1)
        if hi < last:
            tail = ends[hi:]
        else:
            n = ends[-1]
            hi = bisect_left(ends, n, lo)  # the block holding the last element, or lo
            tail = [n + step] * (last - hi)
        ends = ends[:lo] + [e + step for e in ends[lo:hi]] + tail
        if jd is not None:
            self.blocks[jd].insert(offd, col)
            self.chunk_sums[jd] = wd
        if js is not None:
            del self.blocks[js][offs]
            self.chunk_sums[js] = ws
        self.ends = ends

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

    def block_words(self) -> Iterator[int]:
        """The count word of each block, the last of its words, one at a time."""
        return map(itemgetter(-1), self.chunk_sums)

    def chunk_fault(self) -> str | None:
        """The first block or chunk that breaks a rule of the module docstring, or None.

        Every block must be an array of :func:`id_type` of the width, the
        number of columns handed out, and every column id must lie below
        the width.  A block of c elements must have ⌈c/S⌉ + 1 words, 0
        first, and the difference of each two neighbours must equal
        :func:`chunk_word` of its chunk.
        """
        width = len(self.symbol)
        code = id_type(width)
        counts, zeros = {}, array("I", bytes(_FIELD_BYTES * width))
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
            for t, lo in enumerate(range(0, len(block), CHUNK), 1):
                if sums[t] - sums[t - 1] != chunk_word(block[lo : lo + CHUNK], counts, zeros):
                    return f"count word of chunk {t - 1} of block {k} disagrees with a recount"
        return None
