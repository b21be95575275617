"""Block-decomposed dynamic sequence answering range mode enumeration queries.

The sequence is split into L = Θ(N^alpha) blocks of bounded length, with a
triangular table of per-block-range symbol counts (:class:`PairTable`),
stored symbol-major: one plane of L(L+1)/2 32-bit counts per symbol.  A
point edit in block j adds to the O(L^2) summary cells that cover it, which
lie in one slice of the symbol's plane: one int add of a mask built from
j+1 row pieces, O(L^2) bytes at C speed whatever σ'.  It also changes the
running chunk count word of :class:`CharSeq` at each chunk boundary of its
block past its offset, two O(σ')-byte int adds for each of up to C chunks
of S elements.  A modes query reads the summary cell of the blocks that lie
wholly inside its range, a strided gather of one field from each of σ'
planes, and counts the part inside the range of each partial end block, in
O(log N + σ' + S + output) time for σ' distinct symbols present; a range
inside one block reads a cell only when it covers that whole block, and a
cell whose blocks are all empty is not read.  Of a counted part, the whole
chunks of :class:`CharSeq` come as one difference of two running count
words, and each end moves to the nearer boundary of the chunk it cuts,
reading at most S/2 elements from the block array: inside the range as
loose elements, or, past an outer boundary whose chunk it counts, outside
the range as elements to take away.  The cell and the words are one packed
int sum, unpacked once, and each loose or taken element is then one step on
the unpacked counts, at the column id the block stores.  A query that reads
no cell and no word counts its loose elements alone, so its cost follows
the symbols present, not σ'.

The blocks are the column-id arrays of :class:`CharSeq`, each in the
narrower unsigned type that holds every column handed out (one byte per
element up to 256 columns, four beyond), with their boundaries in its one
list of block ends; the build writes them from the caller's list without
copying it, a new column that needs a wider type first has every block
rewritten, and only the symbols an op returns are mapped back from their
columns.  Each op finds its block and offset there once and edits the
sequence and the summary cells at that block, so the two always agree on
where an element lives.

The layout is sized for the reference length ``n0`` of the last rebuild:
``ceil(n0^alpha) + ceil((2·n0)^alpha)`` block slots, each holding at most
``ceil(2·n0 / ceil(n0^alpha))`` elements.  An op that doubles or halves the
length rebuilds the whole layout from the edited list, not by an edit, and
installs it only once the build succeeds, so it raises with nothing
changed.  N stays between n0/2 and 2·n0, L = Θ(N^alpha) and the capacity
Θ(N^(1-alpha)), at amortized cost.  A rebuild spreads the elements evenly,
sizes differing by at most one: after a doubling over every slot, so the
slack absorbs the next ``n0`` inserts, and otherwise over the first
``ceil(n0^alpha)`` slots, which keeps edits in the low slots, where the
slice of summary cells an edit adds to is shortest.  Those slots hold
``2·n0`` elements at capacity, more than the sequence reaches before its
next doubling, so a regrowing sequence fits them, and a boundary moves only
where random edits fill one before the others.  A block that overflows
sheds one element along a chain of boundary moves to the nearest block with
room; a chain that raises is undone by the opposite moves, which give the
chunk words back exactly, and the element taken back out.

A relocation moves one element without changing the length: it inserts the
symbol where ``insert(dst, delete(src))`` would, sheds any overflow, and
only then removes the original, so a failure anywhere before that leaves
the sequence as it was.  Every summary cell counts whole blocks, so a
relocation inside one block edits no cell and no block end, only the block
array and the running chunk words at the chunk offsets it crosses
(:meth:`CharSeq.relocate`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .charseq import CharSeq
from .errors import InvariantError
from .multiset import MAX_COUNT, MAX_SYMBOL, PairTable
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


def _check_symbols(flat: list[object]) -> set[int]:
    """:func:`_check_symbol` on every item, at C speed while all pass; the
    distinct symbols.

    The passing check builds no temporary the size of ``flat``: a set of
    the types, then the set it returns.
    """
    if set(map(type, flat)) <= {int}:
        distinct = set(flat)
        if not distinct or 0 <= min(distinct) and max(distinct) <= MAX_SYMBOL:
            return distinct
    for symbol in flat:
        _check_symbol(symbol)
    raise AssertionError("a symbol failed the bulk check but passes one by one")


def _check_position(pos: object) -> None:
    """Reject a sequence position that is not an ``int`` (``bool`` included)."""
    if type(pos) is not int:
        raise TypeError(f"position must be an int, got {type(pos).__name__}")


@dataclass(frozen=True)
class Config:
    """The engine's one parameter, the block-count exponent.

    ``alpha`` sets L = Θ(N^alpha) blocks; it must be a rational strictly
    between 0 and 1 with a small denominator so layout arithmetic stays exact.
    """

    alpha: Fraction = Fraction(1, 3)

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
class AuditReport:
    """Outcome of a full structural audit."""

    ok: bool
    message: str = "ok"


def _layout(n0: int, alpha: Fraction) -> tuple[int, int, int]:
    """Slot count, slots a rebuild fills, and block capacity for length ``n0``.

    The capacity is the least at which the ``ceil(n0^alpha)`` filled slots
    hold ``2·n0`` elements, more than the sequence reaches before its next
    doubling, so a regrowing sequence fits them without boundary moves.  It
    is Θ(N^(1-alpha)): at most ``2·ceil((2·n0)^(1-alpha))``.
    """
    filled = _ceil_power(n0, alpha)
    return filled + _ceil_power(2 * n0, alpha), filled, -(-2 * n0 // filled)


class RangeModeEngine:
    """Dynamic sequence with insert, delete, and mode-enumeration queries.

    Indexing is 0-based; query ranges are inclusive ``[lo, hi]``.  Every
    operation requires exclusive access (queries mutate scratch state).
    Layout resets are logged in ``reset_events`` as (kind, length) pairs.
    """

    def __init__(self, initial: Iterable[int] = (), config: Config | None = None) -> None:
        self._config = config if config is not None else Config()
        flat = initial if type(initial) is list else list(initial)  # read, never kept or changed
        alphabet = _check_symbols(flat)
        self.reset_events: list[tuple[str, int]] = []
        self._rebuild_layout(flat, alphabet)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def _rebuild_layout(self, flat: list[int], alphabet: set[int], kind: str = "") -> None:
        """Lay out ``flat``, whose distinct symbols are ``alphabet``, evenly
        over the first slots of a layout sized for its length.

        Those are ``ceil(n0^alpha)`` slots, or after a doubling every slot.
        An op that resets the layout passes its ``kind``, ``"double"`` or
        ``"halve"``, which is logged once the new layout is installed.
        """
        n = len(flat)
        n0 = max(n, 1)
        slots, filled, capacity = _layout(n0, self._config.alpha)
        used = slots if kind == "double" else filled
        q, extra = divmod(n, used)
        sizes = [q + (k < extra) for k in range(used)] + [0] * (slots - used)
        # The blocks hold at most 2·n0 elements before the next rebuild.
        seq = CharSeq(flat, sizes, alphabet, 2 * n0)
        table = PairTable(seq)  # if either raises, the old layout stands
        # A stored field is a count, which reaches 2·n0 before the next
        # rebuild, plus its row's offset; it must fit its field until then.
        reach = 2 * n0 + table.top_offset()
        if reach > MAX_COUNT:
            raise ValueError(
                f"length {n} is too long: summary fields up to {reach} exceed {MAX_COUNT}"
            )
        self._table = table
        self._n0 = n0
        self._capacity = capacity
        self._seq = seq
        if kind:
            self.reset_events.append((kind, n))

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
    def capacity(self) -> int:
        """Most elements a block may hold until the next rebuild."""
        return self._capacity

    @property
    def sigma_prime(self) -> int:
        """Number of distinct symbols currently present."""
        return self._table.sigma_prime

    def __len__(self) -> int:
        return len(self._seq)

    def block_sizes(self) -> list[int]:
        """The size of each block, one entry per slot."""
        return list(map(len, self._seq.blocks))

    def to_list(self) -> list[int]:
        """Flattened sequence contents."""
        return self._seq.to_list()

    def insert(self, pos: int, symbol: int) -> None:
        """Insert ``symbol`` so that it becomes the element at ``pos``."""
        _check_position(pos)
        _check_symbol(symbol)
        j, off = self._seq.insert_place(pos)
        if len(self._seq) + 1 >= 2 * self._n0:
            flat = self._seq.to_list()
            flat.insert(pos, symbol)
            self._rebuild_layout(flat, set(flat), "double")
        else:
            # The column first: a new symbol may widen the table or rewrite the
            # blocks, which can fail for lack of memory before anything changes.
            seq, table = self._seq, self._table
            appended, blocks = len(seq.symbol), seq.blocks
            col = table.claim_column(symbol)
            try:
                self._place(j, off, col)
            except BaseException:
                if col == appended:  # handed out past the column map, and freed again
                    table.unclaim_column(col, blocks)
                raise

    def _place(self, j: int, off: int, col: int) -> None:
        """Count column ``col`` into block ``j``, insert it at offset ``off``
        there, and shed any overflow along a chain of boundary moves.

        An array insert that fails leaves the sequence as it was, and the
        table is put back, a column it claimed freed again.  A chain that
        fails is undone by :meth:`_rebalance`, and the element taken back
        out of block ``j``, where ``off`` still holds it.
        """
        self._table.apply_point(j, col, 1)
        try:
            self._seq.insert_at(j, off, col)
        except BaseException:
            self._table.apply_point(j, col, -1)
            raise
        if len(self._seq.blocks[j]) > self._capacity:
            try:
                self._rebalance(j)
            except BaseException:
                self._take(j, off)
                raise

    def _take(self, j: int, off: int) -> int:
        """Remove and uncount the element at offset ``off`` of block ``j``; return its symbol."""
        col = self._seq.delete_at(j, off)
        self._table.apply_point(j, col, -1)
        return self._seq.symbol[col]  # a freed column keeps its last symbol

    def delete(self, pos: int) -> int:
        """Remove and return the element at ``pos``."""
        _check_position(pos)
        j, off = self._seq.locate(pos)
        if len(self._seq) - 1 <= self._n0 // 2:
            flat = self._seq.to_list()
            symbol = flat.pop(pos)
            self._rebuild_layout(flat, set(flat), "halve")
        else:
            symbol = self._take(j, off)
        return symbol

    def relocate(self, src: int, dst: int) -> int:
        """Move the element at ``src`` so that it becomes the element at ``dst``; return it.

        The sequence is that of ``insert(dst, delete(src))``, but the length
        does not change, so the layout is never reset.  The symbol joins the
        block that the insert would join and leaves its own block; when the
        two are the same block, no block end and no summary cell changes.
        """
        _check_position(src)
        _check_position(dst)
        seq = self._seq
        n = len(seq)
        if not (0 <= src < n and 0 <= dst < n):
            raise IndexError(f"relocation {src} -> {dst} out of range (length {n})")
        js, offs = seq.locate(src)
        col = seq.blocks[js][offs]
        # Insert first, so a failure changes nothing; the position is the
        # one before the original is removed, and the original then sits at
        # src + (at <= src).
        at = dst if dst <= src else dst + 1
        jd, offd = seq.insert_place(at)
        if jd == js:  # the block keeps its start, so the element lands at offs + dst - src
            seq.relocate(js, offs, offs + dst - src)
        else:
            self._place(jd, offd, col)  # the gain first, so the column is never freed
            # Boundary moves keep every position, but may move the original.
            self._take(*seq.locate(src + (at <= src)))
        return seq.symbol[col]

    def modes(self, lo: int, hi: int) -> ModesResult:
        """Enumerate all modes of the inclusive range ``[lo, hi]``."""
        _check_position(lo)
        _check_position(hi)
        ends = self._seq.ends  # ends[k]: one past the last position of block k
        n = ends[-1]
        if not (0 <= lo <= hi < n):
            raise IndexError(f"range [{lo}, {hi}] out of bounds (length {n})")
        stop = hi + 1
        bl = bisect_right(ends, lo)  # block holding lo
        br = bisect_left(ends, stop, bl)  # block holding hi
        start = ends[bl - 1] if bl else 0
        out_l = lo > start  # block bl starts before the range
        out_r = ends[br] > stop  # block br ends after it
        # The cell leaves out each partial end block, whose part inside the
        # range is counted instead; a cell of empty blocks is not read.
        cs, ce = bl + out_l, br - out_r
        seq = self._seq
        loose: list[int] = []  # column ids
        taken: list[int] = []
        if bl == br:
            plus = seq.count(bl, lo - start, stop - start, loose, taken) if out_l or out_r else 0
        else:
            plus = seq.count(bl, lo - start, ends[bl] - start, loose, taken) if out_l else 0
            if out_r:
                plus += seq.count(br, 0, stop - ends[br - 1], loose, taken)
        if cs <= ce and ends[ce] > (ends[cs - 1] if cs else 0):
            best, winners = self._table.modes(cs, ce, loose, taken, plus)
        elif plus:
            best, winners = self._table.modes(None, None, loose, taken, plus)
        else:  # every element is loose: count the columns present, not σ' columns
            margin = Counter(loose)
            best = max(margin.values())
            symbol = seq.symbol
            winners = [symbol[col] for col, count in margin.items() if count == best]
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

        The donor is the block nearest to ``j`` that is below capacity; of
        two at the same distance, the lower slot.  The blocks in between each
        pass one element on, so their sizes do not change.  The moves run
        from the donor end, so each leaves both its blocks within capacity,
        and block ``j`` is edited only by the last.  A move that raises
        changes nothing.  The moves before it are undone by the opposite
        moves in reverse order; the chunk words follow from the block arrays
        alone, so they come back exactly.
        """
        cap = self._capacity
        room = [k for k, block in enumerate(self._seq.blocks) if len(block) < cap]
        if not room:
            raise InvariantError(f"no donor block available for overflowing block {j}")
        k = min(room, key=lambda slot: (abs(slot - j), slot))
        if k > j:
            step, move, back = 1, self.move_right, self.move_left
        else:
            step, move, back = -1, self.move_left, self.move_right
        made = []  # the block each move so far filled
        try:
            for t in range(k - step, j - step, -step):
                move(t)
                made.append(t + step)
        except BaseException:
            for t in reversed(made):
                back(t)
            raise

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------

    def audit(self) -> AuditReport:
        """Recompute every invariant afresh; report the first violation.

        The recounts run over column ids, which must lie below the width;
        a summary cell is compared with its recount mapped to symbols.
        """
        seq = self._seq
        blocks = seq.blocks
        sizes = list(map(len, blocks))
        ends = list(accumulate(sizes))
        n = ends[-1]
        n0 = self._n0
        slots, _, capacity = _layout(n0, self._config.alpha)
        if not (n0 // 2 < n < 2 * n0 or n0 == 1 and not n):
            return AuditReport(False, f"length {n} lies outside the reset range of n0 = {n0}")
        if len(seq.ends) != slots or len(blocks) != slots:
            return AuditReport(False, "slot count does not match the layout")
        for slot, (stored, end) in enumerate(zip(seq.ends, ends)):
            if stored != end:
                return AuditReport(
                    False, f"block {slot} ends at {stored}, but blocks 0..{slot} hold {end}"
                )
        fault = seq.chunk_fault() or self._table.offset_fault()
        if fault:
            return AuditReport(False, fault)
        if self._capacity != capacity:
            return AuditReport(False, "block capacity drifted from the formula")
        for slot, size in enumerate(sizes):
            if not 0 <= size <= capacity:
                return AuditReport(False, f"block {slot} holds {size}, outside [0, {capacity}]")
        # Every summary cell must equal a fresh recount of its block range.
        symbol = seq.symbol
        for l in range(slots):
            running: Counter[int] = Counter()
            for r in range(l, slots):
                running.update(blocks[r])
                if self._table.cell(l, r) != {symbol[col]: c for col, c in running.items()}:
                    return AuditReport(
                        False, f"summary cell ({l}, {r}) disagrees with a recount"
                    )
        distinct = len(set().union(*blocks))
        if self._table.sigma_prime != distinct:
            return AuditReport(
                False,
                f"summary table has {self._table.sigma_prime} symbol columns "
                f"but the sequence holds {distinct} distinct symbols",
            )
        return AuditReport(True)
