"""Block-decomposed dynamic sequence answering range mode enumeration queries.

The sequence is split into L = Θ(N^alpha) blocks of bounded length, with a
triangular table of per-block-range symbol summaries (:class:`PairTable`).
Point edits touch O(L^2) summary cells; a modes query combines the summary of
the largest block interval inside the range with a scan of the O(N^(1-alpha))
margin elements, so its cost is output-sensitive.

Blocks are grouped into two regions sized for the reference length ``n0`` of
the last rebuild: ``cur`` (sized for ``n0``) followed by ``next`` (sized for
``2·n0``).  A rebuild packs every element into ``cur``; a block that
overflows sheds one element along a chain of boundary moves to the emptiest
block of its region, or of the other region once its own is saturated.  When
the length doubles or halves, the whole layout is rebuilt for the new length,
which keeps every block within capacity at amortized cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .blockindex import BlockSizeIndex
from .charseq import CharSeq
from .errors import AuditError, InvariantError
from .multiset import MAX_SYMBOL, CountedSet, PairTable
from .results import ModesResult

_MAX_ALPHA_DENOMINATOR = 64

# Region names, left to right in block-index space, with the multiple of the
# reference length each one is sized for.
_REGION_SCALES = (("cur", 1), ("next", 2))


def _ceil_power(n: int, exp: Fraction) -> int:
    """Exact ``ceil(n ** exp)`` for a positive integer ``n`` (no float error)."""
    p, q = exp.numerator, exp.denominator
    target = n**p
    k = round(n ** (p / q))
    while k**q < target:
        k += 1
    while k > 0 and (k - 1) ** q >= target:
        k -= 1
    return k


def _check_symbol(symbol: object) -> None:
    """Reject anything but an ``int`` symbol id that fits in one machine word."""
    if type(symbol) is not int:
        raise TypeError(f"symbol id must be an int, got {type(symbol).__name__}")
    if not 0 <= symbol <= MAX_SYMBOL:
        raise ValueError(f"symbol id {symbol} does not fit in one machine word")


@dataclass(frozen=True)
class Config:
    """Engine tuning knobs.

    ``alpha`` controls the block-count exponent (L = Θ(N^alpha)); it must be
    a rational strictly between 0 and 1 with a small denominator so layout
    arithmetic stays exact.  ``audit_mode`` checks every block against its
    region's capacity after each edit.
    """

    alpha: Fraction = Fraction(1, 3)
    audit_mode: bool = False

    def __post_init__(self) -> None:
        alpha = self.alpha
        if not isinstance(alpha, Fraction):
            alpha = Fraction(alpha)
            object.__setattr__(self, "alpha", alpha)
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must satisfy 0 < alpha < 1, got {alpha}")
        if alpha.denominator > _MAX_ALPHA_DENOMINATOR:
            raise ValueError(
                f"alpha must be a small-denominator rational (denominator <= "
                f"{_MAX_ALPHA_DENOMINATOR}), got {alpha}; pass e.g. Fraction(1, 3)"
            )


@dataclass(frozen=True)
class Region:
    """A contiguous run of block slots sharing one capacity."""

    name: str
    start: int
    slots: int
    capacity: int

    @property
    def end(self) -> int:
        """One past the last slot."""
        return self.start + self.slots


@dataclass
class RegimeState:
    """Region layout in force since the last reset."""

    n0: int  # sequence length at the last reset (floored at 1)
    regions: tuple[Region, ...]

    @property
    def total_slots(self) -> int:
        last = self.regions[-1]
        return last.start + last.slots


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a full structural audit."""

    ok: bool
    message: str = "ok"


def _build_regime(n0: int, alpha: Fraction) -> RegimeState:
    regions = []
    start = 0
    for name, scale in _REGION_SCALES:
        slots = _ceil_power(n0 * scale, alpha)
        capacity = _ceil_power(n0 * scale, 1 - alpha)
        regions.append(Region(name, start, slots, capacity))
        start += slots
    return RegimeState(n0, tuple(regions))


class RangeModeEngine:
    """Dynamic sequence with insert, delete, and mode-enumeration queries.

    Indexing is 0-based; query ranges are inclusive ``[lo, hi]``.  Every
    operation requires exclusive access (queries mutate scratch state).
    Layout resets are logged in ``reset_events`` as (kind, length) pairs.
    """

    def __init__(self, initial: Iterable[int] = (), config: Config | None = None) -> None:
        self._config = config if config is not None else Config()
        self._seq = CharSeq(initial)
        for symbol in self._seq:
            _check_symbol(symbol)
        self.reset_events: list[tuple[str, int]] = []
        self._rebuild_layout()

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def _rebuild_layout(self) -> None:
        """Repack all elements into the cur region sized for the current length."""
        n = len(self._seq)
        n0 = max(n, 1)
        regime = _build_regime(n0, self._config.alpha)
        cur = regime.regions[0]
        sizes = [0] * regime.total_slots
        remaining = n
        slot = cur.start
        while remaining > 0:
            if slot >= cur.end:
                raise InvariantError("cur region cannot hold the sequence at reset")
            take = min(remaining, cur.capacity)
            sizes[slot] = take
            remaining -= take
            slot += 1
        self._regime = regime
        self._sizes = BlockSizeIndex(sizes)
        flat = self._seq.to_list()
        blocks: list[list[int]] = []
        at = 0
        for size in sizes:
            blocks.append(flat[at : at + size])
            at += size
        self._table = PairTable(blocks)

    def _region_of(self, slot: int) -> Region:
        for region in self._regime.regions:
            if slot < region.end:
                return region
        raise IndexError(f"slot {slot} outside the regime layout")

    def _pfx(self, k: int) -> int:
        return self._sizes.prefix_sum(k) if k >= 0 else 0

    def _region_total(self, region: Region) -> int:
        return self._pfx(region.end - 1) - self._pfx(region.start - 1)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def config(self) -> Config:
        return self._config

    @property
    def n0(self) -> int:
        """Reference length of the last layout reset."""
        return self._regime.n0

    @property
    def sigma_prime(self) -> int:
        """Number of distinct symbols currently present."""
        return len(self._table.cell(0, self._regime.total_slots - 1))

    def __len__(self) -> int:
        return len(self._seq)

    def block_sizes(self) -> list[int]:
        """Snapshot of the block-length array (all regions)."""
        return self._sizes.to_list()

    def regions(self) -> tuple[Region, ...]:
        """The ``cur`` and ``next`` regions, left to right."""
        return self._regime.regions

    def to_list(self) -> list[int]:
        """Flattened sequence contents."""
        return self._seq.to_list()

    def insert(self, pos: int, symbol: int) -> None:
        """Insert ``symbol`` so that it becomes the element at ``pos``."""
        n = len(self._seq)
        if not 0 <= pos <= n:
            raise IndexError(f"insert position {pos} out of range (length {n})")
        _check_symbol(symbol)
        if n == 0:
            j = 0  # first slot of the cur region
        elif pos == 0:
            j = self._sizes.select_prefix(1)
        else:
            j = self._sizes.select_prefix(pos)
        self._seq.insert_at(pos, symbol)
        self._sizes.adjust(j, 1)
        self._table.apply_point(j, symbol, 1)
        if self._sizes.size_of(j) > self._region_of(j).capacity:
            self._rebalance(j)
        self._reset_check()
        if self._config.audit_mode:
            self._check_capacities()

    def delete(self, pos: int) -> int:
        """Remove and return the element at ``pos``."""
        n = len(self._seq)
        if not 0 <= pos < n:
            raise IndexError(f"delete position {pos} out of range (length {n})")
        j = self._sizes.select_prefix(pos + 1)
        symbol = self._seq.delete_at(pos)
        self._sizes.adjust(j, -1)
        self._table.apply_point(j, symbol, -1)
        self._reset_check()
        if self._config.audit_mode:
            self._check_capacities()
        return symbol

    def modes(self, lo: int, hi: int) -> ModesResult:
        """Enumerate all modes of the inclusive range ``[lo, hi]``."""
        n = len(self._seq)
        if not (0 <= lo <= hi < n):
            raise IndexError(f"range [{lo}, {hi}] out of bounds (length {n})")
        interval = self._contained_blocks(lo, hi)
        margins: list[tuple[int, int]] = []
        if interval is None:
            cell = None
            margins.append((lo, hi))
        else:
            bi, bj = interval
            cell = self._table.cell(bi, bj)
            inner_start = self._pfx(bi - 1)
            inner_end = self._pfx(bj)  # exclusive
            if lo < inner_start:
                margins.append((lo, inner_start - 1))
            if inner_end <= hi:
                margins.append((inner_end, hi))

        margin = CountedSet()
        for a, b in margins:
            for symbol in self._seq.access_range(a, b):
                margin.increment(symbol)

        best = 0
        if cell is not None:
            top = cell.max_entry()
            if top is not None:
                best = top[0]
            for symbol, count in margin.items():
                total = count + cell.count_of(symbol)
                if total > best:
                    best = total
            winners = [
                symbol
                for symbol, count in margin.items()
                if count + cell.count_of(symbol) == best
            ]
            cursor = cell.cursor()
            while True:
                entry = cell.next_entry(cursor)
                if entry is None or entry[0] != best:
                    break
                # A symbol at full multiplicity `best` inside the blocks cannot
                # also occur in the margin (its total would then exceed best).
                winners.append(entry[1])
        else:
            for _, count in margin.items():
                if count > best:
                    best = count
            winners = [symbol for symbol, count in margin.items() if count == best]
        winners.sort()
        return ModesResult(best, tuple(winners))

    def mode(self, lo: int, hi: int) -> tuple[int, int]:
        """One mode of ``[lo, hi]``: the multiplicity and the smallest mode id."""
        result = self.modes(lo, hi)
        return result.multiplicity, result.modes[0]

    # ------------------------------------------------------------------
    # block interval location
    # ------------------------------------------------------------------

    def _contained_blocks(self, lo: int, hi: int) -> tuple[int, int] | None:
        """Maximal block interval lying fully inside positions [lo, hi]."""
        sizes = self._sizes
        b_lo = sizes.select_prefix(lo + 1)
        if self._pfx(b_lo) - sizes.size_of(b_lo) == lo:
            bi = b_lo
        else:
            bi = b_lo + 1
        b_hi = sizes.select_prefix(hi + 1)
        if self._pfx(b_hi) == hi + 1:
            bj = b_hi
        else:
            bj = b_hi - 1
        if bi > bj:
            return None
        return bi, bj

    # ------------------------------------------------------------------
    # boundary moves
    # ------------------------------------------------------------------

    def move_left(self, i: int) -> None:
        """Move the first element of block ``i`` to the end of block ``i - 1``.

        The flattened sequence is unchanged; only the block boundary and the
        summary cells move.
        """
        slots = self._regime.total_slots
        if not 1 <= i < slots:
            raise IndexError(f"move_left source {i} out of range ({slots} slots)")
        if self._sizes.size_of(i) == 0:
            raise InvariantError(f"move_left from empty block {i}")
        symbol = self._seq[self._pfx(i - 1)]
        self._sizes.adjust(i, -1)
        self._sizes.adjust(i - 1, 1)
        self._table.shift_left(i, symbol)

    def move_right(self, i: int) -> None:
        """Move the last element of block ``i`` to the front of block ``i + 1``."""
        slots = self._regime.total_slots
        if not 0 <= i < slots - 1:
            raise IndexError(f"move_right source {i} out of range ({slots} slots)")
        if self._sizes.size_of(i) == 0:
            raise InvariantError(f"move_right from empty block {i}")
        symbol = self._seq[self._pfx(i) - 1]
        self._sizes.adjust(i, -1)
        self._sizes.adjust(i + 1, 1)
        self._table.shift_right(i, symbol)

    def _chain_move(self, src: int, dst: int) -> None:
        """Shift one unit of size from block ``src`` to ``dst`` via boundary hops."""
        if dst > src:
            for t in range(src, dst):
                self.move_right(t)
        else:
            for t in range(src, dst, -1):
                self.move_left(t)

    def _rebalance(self, j: int) -> None:
        """Shed the overflow of block ``j`` into a block with spare capacity."""
        donor = self._find_donor(j)
        if donor is None:
            raise InvariantError(f"no donor block available for overflowing block {j}")
        self._chain_move(j, donor)

    def _find_donor(self, j: int) -> int | None:
        sizes = self._sizes
        region = self._region_of(j)
        k = sizes.argmin_size_in(region.start, region.end - 1)
        if k != j and sizes.size_of(k) + 1 <= region.capacity:
            return k
        # Region saturated: spill into the other region if it has room.
        for other in self._regime.regions:
            if other is not region and self._region_total(other) < other.slots * other.capacity:
                return sizes.argmin_size_in(other.start, other.end - 1)
        return None

    # ------------------------------------------------------------------
    # resets
    # ------------------------------------------------------------------

    def _reset_check(self) -> None:
        n = len(self._seq)
        n0 = self._regime.n0
        if n == 2 * n0:
            self._reset("double")
        elif n == n0 // 2:
            self._reset("halve")

    def _reset(self, kind: str) -> None:
        self.reset_events.append((kind, len(self._seq)))
        self._rebuild_layout()

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------

    def _check_capacities(self) -> None:
        sizes = self._sizes.to_list()
        for region in self._regime.regions:
            cap = region.capacity
            for slot in range(region.start, region.end):
                if sizes[slot] > cap:
                    raise AuditError(
                        f"block {slot} holds {sizes[slot]} > capacity {cap} "
                        f"of region {region.name}"
                    )

    def audit(self) -> AuditReport:
        """Recompute every invariant from scratch; report the first violation."""
        flat = self._seq.to_list()
        sizes = self._sizes.to_list()
        regime = self._regime
        if len(sizes) != regime.total_slots:
            return AuditReport(False, "slot count does not match the regime layout")
        if sum(sizes) != len(flat):
            return AuditReport(
                False,
                f"block sizes sum to {sum(sizes)} but the sequence holds {len(flat)}",
            )
        expected = _build_regime(regime.n0, self._config.alpha)
        if expected.regions != regime.regions:
            return AuditReport(False, "region layout drifted from the formulas")
        for region in regime.regions:
            for slot in range(region.start, region.end):
                if sizes[slot] < 0:
                    return AuditReport(False, f"block {slot} has negative size")
                if sizes[slot] > region.capacity:
                    return AuditReport(
                        False,
                        f"block {slot} holds {sizes[slot]} > capacity "
                        f"{region.capacity} of region {region.name}",
                    )
        # Every summary cell must equal a fresh recount of its block range.
        slots = regime.total_slots
        starts = [0] * (slots + 1)
        for i, size in enumerate(sizes):
            starts[i + 1] = starts[i] + size
        for l in range(slots):
            running: dict[int, int] = {}
            for r in range(l, slots):
                for symbol in flat[starts[r] : starts[r + 1]]:
                    running[symbol] = running.get(symbol, 0) + 1
                if not self._table.cell(l, r).matches_counts(running):
                    return AuditReport(
                        False, f"summary cell ({l}, {r}) disagrees with a recount"
                    )
        return AuditReport(True)
