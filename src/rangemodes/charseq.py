"""Dynamic symbol sequence stored as the engine's blocks.

Symbols are opaque non-negative integers.  The sequence is one Python list
per block slot, in order; empty blocks are allowed anywhere.  A
:class:`BlockSizeIndex` of the list lengths locates a position by bisecting
its prefix sums in O(log L), so the engine reads block boundaries from the
same index that stores them.  An edit inside a block is a list insert or
pop; a boundary move pops an end element of one block and adds it to the
near end of its neighbour.
"""

from __future__ import annotations

from bisect import bisect_right

from .blockindex import BlockSizeIndex
from .errors import InvariantError


class CharSeq:
    """Mutable sequence of symbol ids split into a fixed row of blocks."""

    __slots__ = ("blocks", "sizes")

    def __init__(self, blocks: list[list[int]]) -> None:
        """Take ``blocks`` as the block lists, without copying them."""
        self.blocks = blocks
        self.sizes = BlockSizeIndex(map(len, blocks))

    def __len__(self) -> int:
        return self.sizes.total()

    def locate(self, pos: int) -> tuple[int, int]:
        """Block slot and offset of position ``pos``."""
        n = len(self)
        if not 0 <= pos < n:
            raise IndexError(f"position {pos} out of range (length {n})")
        ends = self.sizes.prefix_sums()
        k = bisect_right(ends, pos)
        return k, pos - (ends[k - 1] if k else 0)

    def insert_block(self, pos: int) -> int:
        """Block an insert at ``pos`` joins: the one holding ``pos - 1``.

        At the front it is the block holding position 0; in an empty
        sequence, slot 0.
        """
        n = len(self)
        if not 0 <= pos <= n:
            raise IndexError(f"insert position {pos} out of range (length {n})")
        return self.locate(max(pos - 1, 0))[0] if n else 0

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def __getitem__(self, pos: int) -> int:
        k, off = self.locate(pos)
        return self.blocks[k][off]

    def insert_at(self, pos: int, symbol: int) -> None:
        """Insert ``symbol`` so that it becomes the element at ``pos``, in :meth:`insert_block`."""
        j = self.insert_block(pos)
        ends = self.sizes.prefix_sums()
        self.blocks[j].insert(pos - (ends[j - 1] if j else 0), symbol)
        self.sizes.adjust(j, 1)

    def delete_at(self, pos: int) -> int:
        """Remove and return the element at index ``pos``."""
        k, off = self.locate(pos)
        self.sizes.adjust(k, -1)
        return self.blocks[k].pop(off)

    def move_left(self, i: int) -> int:
        """Move the first element of block ``i`` to the end of block ``i - 1``; return it."""
        slots = len(self.blocks)
        if not 1 <= i < slots:
            raise IndexError(f"move_left source {i} out of range ({slots} slots)")
        if not self.blocks[i]:
            raise InvariantError(f"move_left from empty block {i}")
        symbol = self.blocks[i].pop(0)
        self.blocks[i - 1].append(symbol)
        self.sizes.adjust(i, -1)
        self.sizes.adjust(i - 1, 1)
        return symbol

    def move_right(self, i: int) -> int:
        """Move the last element of block ``i`` to the front of block ``i + 1``; return it."""
        slots = len(self.blocks)
        if not 0 <= i < slots - 1:
            raise IndexError(f"move_right source {i} out of range ({slots} slots)")
        if not self.blocks[i]:
            raise InvariantError(f"move_right from empty block {i}")
        symbol = self.blocks[i].pop()
        self.blocks[i + 1].insert(0, symbol)
        self.sizes.adjust(i, -1)
        self.sizes.adjust(i + 1, 1)
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
