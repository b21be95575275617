"""Block-decomposed dynamic sequence answering range mode enumeration queries.

The sequence is split into L = Θ(N^alpha) blocks of bounded length, with a
triangular table of per-block-range symbol counts (:class:`PairTable`), one
vector of 32-bit counts per block range.  A point edit adds to the O(L^2)
summary cells that cover its block, as O(L) row runs of one int add each,
whatever σ'.  A modes query reads the winners off one summary cell plus
the margin at the two ends of its range, in O(N^(1-alpha) + σ' + output)
time for σ' distinct symbols present.  Each partial end block is counted on
its cheaper side: the part inside the range is added to a cell that
leaves the block out ("in"), or the part outside is subtracted from a cell
that keeps it ("out").  With counting at about one unit per element, a
second counter's merge at about one step per distinct symbol and a cell
read at about one unit per column, a side goes out when
``out + min(out, 3·σ') < in``; a plan that reads a cell where the "in" plan
reads none must also save more than σ'.  Each end then counts at most one
block length, and at small σ' about half of one on average.

The blocks are the symbol lists of :class:`CharSeq`, and the engine reads
their boundaries from its :class:`BlockSizeIndex`; an insert joins the block
that ``CharSeq`` names for it, so the sequence and the summary cells always
agree on where an element lives.

Blocks are grouped into two regions sized for the reference length ``n0`` of
the last rebuild: ``cur`` (sized for ``n0``) followed by ``next`` (sized for
``2·n0``).  A rebuild packs every element into ``cur``; a block that
overflows sheds one element along a chain of boundary moves to the emptiest
block of its region, or of the other region once its own is saturated.  When
the length doubles or halves, the whole layout is rebuilt for the new length,
which keeps every block within capacity at amortized cost.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .charseq import CharSeq
from .errors import AuditError, InvariantError
from .multiset import MAX_COUNT, MAX_SYMBOL, PairTable, check_table_fits
from .results import ModesResult

_MAX_ALPHA_DENOMINATOR = 64


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


def _check_position(pos: object) -> None:
    """Reject a sequence position that is not an ``int`` (``bool`` included)."""
    if type(pos) is not int:
        raise TypeError(f"position must be an int, got {type(pos).__name__}")


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


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a full structural audit."""

    ok: bool
    message: str = "ok"


def _build_regions(n0: int, alpha: Fraction) -> tuple[Region, Region]:
    """The ``cur`` region sized for ``n0``, then ``next`` sized for ``2·n0``."""
    cur = Region("cur", 0, _ceil_power(n0, alpha), _ceil_power(n0, 1 - alpha))
    n1 = 2 * n0
    nxt = Region("next", cur.end, _ceil_power(n1, alpha), _ceil_power(n1, 1 - alpha))
    return cur, nxt


class RangeModeEngine:
    """Dynamic sequence with insert, delete, and mode-enumeration queries.

    Indexing is 0-based; query ranges are inclusive ``[lo, hi]``.  Every
    operation requires exclusive access (queries mutate scratch state).
    Layout resets are logged in ``reset_events`` as (kind, length) pairs.
    """

    def __init__(self, initial: Iterable[int] = (), config: Config | None = None) -> None:
        self._config = config if config is not None else Config()
        flat = list(initial)
        for symbol in flat:
            _check_symbol(symbol)
        self.reset_events: list[tuple[str, int]] = []
        self._rebuild_layout(flat)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def _rebuild_layout(self, flat: list[int]) -> None:
        """Pack the sequence ``flat`` into the cur region sized for its length."""
        n = len(flat)
        n0 = max(n, 1)
        # The length reaches 2·n0 before the next rebuild; a symbol's count
        # in a summary cell must fit its packed field until then.
        if 2 * n0 > MAX_COUNT:
            raise ValueError(
                f"length {n} is too long: summary counts up to {2 * n0} exceed {MAX_COUNT}"
            )
        regions = _build_regions(n0, self._config.alpha)
        cur, nxt = regions
        cap = cur.capacity
        if n > cur.slots * cap:
            raise InvariantError("cur region cannot hold the sequence at reset")
        blocks = [flat[k * cap : (k + 1) * cap] for k in range(nxt.end)]
        self._table = PairTable(blocks)  # first: if it raises, the old layout stands
        self._n0 = n0
        self._regions = regions
        self._seq = CharSeq(blocks)
        self._sizes = self._seq.sizes  # the block boundaries, read by the engine

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def config(self) -> Config:
        return self._config

    @property
    def n0(self) -> int:
        """Reference length of the last layout reset."""
        return self._n0

    @property
    def sigma_prime(self) -> int:
        """Number of distinct symbols currently present."""
        return self._table.sigma_prime

    def __len__(self) -> int:
        return len(self._seq)

    def block_sizes(self) -> list[int]:
        """Snapshot of the block-length array (all regions)."""
        return self._sizes.to_list()

    def regions(self) -> tuple[Region, ...]:
        """The ``cur`` and ``next`` regions, left to right."""
        return self._regions

    def to_list(self) -> list[int]:
        """Flattened sequence contents."""
        return self._seq.to_list()

    def insert(self, pos: int, symbol: int) -> None:
        """Insert ``symbol`` so that it becomes the element at ``pos``."""
        _check_position(pos)
        _check_symbol(symbol)
        j = self._seq.insert_block(pos)
        n = len(self._seq)
        if n + 1 == 2 * self._n0:
            # This insert rebuilds the layout: refuse it now if the new table
            # cannot fit, one column spare for a new symbol.
            slots = _build_regions(n + 1, self._config.alpha)[1].end
            check_table_fits(slots, self._table.sigma_prime + 1)
        # The table first: a new symbol may widen it, which can fail for lack
        # of memory before anything has changed.
        self._table.apply_point(j, symbol, 1)
        self._seq.insert_at(pos, symbol)
        cur, nxt = self._regions
        if self._sizes.size_of(j) > (cur if j < cur.end else nxt).capacity:
            self._rebalance(j)
        self._reset_check()
        if self._config.audit_mode:
            self._check_capacities()

    def delete(self, pos: int) -> int:
        """Remove and return the element at ``pos``."""
        _check_position(pos)
        j = self._seq.locate(pos)[0]
        symbol = self._seq.delete_at(pos)
        self._table.apply_point(j, symbol, -1)
        self._reset_check()
        if self._config.audit_mode:
            self._check_capacities()
        return symbol

    def modes(self, lo: int, hi: int) -> ModesResult:
        """Enumerate all modes of the inclusive range ``[lo, hi]``."""
        _check_position(lo)
        _check_position(hi)
        n = len(self._seq)
        if not (0 <= lo <= hi < n):
            raise IndexError(f"range [{lo}, {hi}] out of bounds (length {n})")
        stop = hi + 1
        ends = self._sizes.prefix_sums()  # ends[k]: one past the last position of block k
        bl = bisect_right(ends, lo)  # block holding lo
        br = bisect_left(ends, stop, bl)  # block holding hi
        out_l = lo - (ends[bl - 1] if bl else 0)  # part of block bl before the range
        out_r = ends[br] - stop  # part of block br after the range
        # Plan each partial end block by the cost rule of the module docstring.
        sigma = self._table.sigma_prime
        merge = 3 * sigma
        if bl == br:
            # Inside one block: all margin, or the block's cell minus both outside parts.
            out = out_l + out_r
            cs = ce = bl
            if out and out + min(out, merge) + sigma >= stop - lo:
                cs = bl + 1
        else:
            save_l = ends[bl] - lo - out_l - min(out_l, merge)
            save_r = stop - ends[br - 1] - out_r - min(out_r, merge)
            cs = bl + 1 if out_l and save_l <= 0 else bl
            ce = br - 1 if out_r and save_r <= 0 else br
            if br == bl + 1 and out_l and out_r and max(save_l, 0) + max(save_r, 0) <= sigma:
                cs, ce = br, bl  # reading a one-block cell would cost more than it saves

        read = self._seq.access_range
        margin: Counter[int] = Counter()
        if cs > ce:
            margin.update(read(lo, hi))
            best = max(margin.values())
            winners = [symbol for symbol, count in margin.items() if count == best]
        else:
            minus: Counter[int] = Counter()
            first = ends[cs - 1] if cs else 0
            last = ends[ce]
            if lo < first:
                margin.update(read(lo, first - 1))
            elif first < lo:
                minus.update(read(first, lo - 1))
            if stop < last:
                minus.update(read(stop, last - 1))
            elif last < stop:
                margin.update(read(last, hi))
            best, winners = self._table.modes(cs, ce, margin, minus)
        winners.sort()
        return ModesResult(best, tuple(winners))

    def mode(self, lo: int, hi: int) -> tuple[int, int]:
        """One mode of ``[lo, hi]``: the multiplicity and the smallest mode id."""
        result = self.modes(lo, hi)
        return result.multiplicity, result.modes[0]

    # ------------------------------------------------------------------
    # boundary moves
    # ------------------------------------------------------------------

    def move_left(self, i: int) -> None:
        """Move the first element of block ``i`` to the end of block ``i - 1``.

        The flattened sequence is unchanged; only the block boundary and the
        summary cells move.
        """
        self._table.shift_left(i, self._seq.move_left(i))

    def move_right(self, i: int) -> None:
        """Move the last element of block ``i`` to the front of block ``i + 1``."""
        self._table.shift_right(i, self._seq.move_right(i))

    def _rebalance(self, j: int) -> None:
        """Shed the overflow of block ``j`` along boundary moves to a block with room.

        The donor is the emptiest block of ``j``'s own region, else that of
        the other region.  Every block but ``j`` is within capacity, so a
        region has room exactly when its emptiest block is below capacity,
        and that block is never ``j``.
        """
        cur, nxt = self._regions
        sizes = self._sizes
        for region in (cur, nxt) if j < cur.end else (nxt, cur):
            k = sizes.argmin_size_in(region.start, region.end - 1)
            if sizes.size_of(k) < region.capacity:
                break
        else:
            raise InvariantError(f"no donor block available for overflowing block {j}")
        if k > j:
            for t in range(j, k):
                self.move_right(t)
        else:
            for t in range(j, k, -1):
                self.move_left(t)

    # ------------------------------------------------------------------
    # resets
    # ------------------------------------------------------------------

    def _reset_check(self) -> None:
        """Rebuild the layout once the length has doubled or halved since the last rebuild."""
        n = len(self._seq)
        kind = "double" if n == 2 * self._n0 else "halve" if n == self._n0 // 2 else ""
        if kind:
            self.reset_events.append((kind, n))
            self._rebuild_layout(self._seq.to_list())

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------

    def _check_capacities(self) -> None:
        """Raise :class:`AuditError` for a block outside ``[0, capacity]`` of its region."""
        sizes = self._sizes.to_list()
        for region in self._regions:
            cap = region.capacity
            for slot in range(region.start, region.end):
                if not 0 <= sizes[slot] <= cap:
                    raise AuditError(
                        f"block {slot} holds {sizes[slot]}, outside [0, {cap}] "
                        f"of region {region.name}"
                    )

    def audit(self) -> AuditReport:
        """Recompute every invariant from scratch; report the first violation."""
        blocks = self._seq.blocks
        flat = self._seq.to_list()
        sizes = self._sizes.to_list()
        slots = self._regions[1].end
        if len(sizes) != slots or len(blocks) != slots:
            return AuditReport(False, "slot count does not match the region layout")
        if sum(sizes) != len(flat):
            return AuditReport(
                False,
                f"block sizes sum to {sum(sizes)} but the sequence holds {len(flat)}",
            )
        for slot, block in enumerate(blocks):
            if len(block) != sizes[slot]:
                return AuditReport(
                    False, f"block {slot} holds {len(block)} symbols but its size is {sizes[slot]}"
                )
        if _build_regions(self._n0, self._config.alpha) != self._regions:
            return AuditReport(False, "region layout drifted from the formulas")
        try:
            self._check_capacities()
        except AuditError as exc:
            return AuditReport(False, str(exc))
        # Every summary cell must equal a fresh recount of its block range.
        for l in range(slots):
            running: dict[int, int] = {}
            for r in range(l, slots):
                for symbol in blocks[r]:
                    running[symbol] = running.get(symbol, 0) + 1
                if not self._table.cell(l, r).matches_counts(running):
                    return AuditReport(
                        False, f"summary cell ({l}, {r}) disagrees with a recount"
                    )
        distinct = len(set(flat))
        if self._table.sigma_prime != distinct:
            return AuditReport(
                False,
                f"summary table has {self._table.sigma_prime} symbol columns "
                f"but the sequence holds {distinct} distinct symbols",
            )
        return AuditReport(True)
