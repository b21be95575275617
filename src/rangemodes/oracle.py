"""Deliberately naive reference sequence used as ground truth in tests.

A plain growable array with full-scan mode enumeration.  No performance
goals: every query is O(r - l + 1).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .results import ModesResult


class NaiveSeq:
    """Growable array of symbols with exhaustive-counting mode queries."""

    __slots__ = ("_items",)

    def __init__(self, symbols: Iterable[int] = ()) -> None:
        self._items: list[int] = list(symbols)

    def __len__(self) -> int:
        return len(self._items)

    def insert_at(self, pos: int, symbol: int) -> None:
        if not 0 <= pos <= len(self._items):
            raise IndexError(f"insert position {pos} out of range (length {len(self._items)})")
        self._items.insert(pos, symbol)

    def delete_at(self, pos: int) -> int:
        if not 0 <= pos < len(self._items):
            raise IndexError(f"delete position {pos} out of range (length {len(self._items)})")
        return self._items.pop(pos)

    def relocate(self, src: int, dst: int) -> int:
        """Move the element at ``src`` so that it becomes the element at ``dst``; return it."""
        n = len(self._items)
        if not (0 <= src < n and 0 <= dst < n):
            raise IndexError(f"relocation {src} -> {dst} out of range (length {n})")
        symbol = self._items.pop(src)
        self._items.insert(dst, symbol)
        return symbol

    def modes(self, lo: int, hi: int) -> ModesResult:
        """All modes of positions ``lo..hi`` inclusive, by a single counting pass."""
        if not (0 <= lo <= hi < len(self._items)):
            raise IndexError(f"range [{lo}, {hi}] out of bounds (length {len(self._items)})")
        counts = Counter(self._items[lo : hi + 1])
        top = max(counts.values())
        winners = sorted(sym for sym, c in counts.items() if c == top)
        return ModesResult(top, tuple(winners))

    def to_list(self) -> list[int]:
        return list(self._items)
