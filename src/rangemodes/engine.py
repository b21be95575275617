"""Block-decomposed dynamic sequence answering range mode enumeration queries.

The sequence is split into L = Θ(N^alpha) blocks of bounded length, with a
triangular table of per-block-range symbol counts (:class:`PairTable`),
stored symbol-major: one plane of L(L+1)/2 32-bit counts per symbol.  A
point edit in block j adds to the O(L^2) summary cells that cover it, which
lie in one slice of the symbol's plane: one int add of a mask built from
j+1 row pieces, O(L^2) bytes at C speed whatever σ'.  It also changes the
running chunk count word of :class:`CharSeq` at each chunk boundary of its
block past its offset, two O(σ')-byte int adds for each of up to C chunks
of S elements.  A modes query finds block bl, holding its first element,
and block br, holding its last, and moves each end of its range to the
nearest boundary of the chunk of :class:`CharSeq` it cuts, a block's end
counting as one and a tie going inwards, so that it reads at most S/2
elements, one slice of the block array: inside the range, to add, or
outside it, to take away.  The part between the moved ends is blocks
bl..br-1, none when bl = br, as their summary cell, a strided gather of
one field from each of σ' planes, or as block bl's own word when no block
between bl and br holds an element, plus block br's running chunk word at its moved end,
less block bl's at its own.  The cell and the words are one packed int
sum, unpacked once, and each element of the slices is then one step on
the unpacked counts, at the column id the block stores: O(log N + σ' + S
+ output) time for σ' distinct symbols present.  A range with no whole
chunk inside counts its ids alone, so its cost follows the symbols
present, not σ'.

The blocks are the column-id arrays of :class:`CharSeq`, each in the
narrower unsigned type that holds every column handed out (one byte per
element while the ids fit one, four beyond), with their boundaries in its one
list of block ends; the build writes them from the caller's list without
copying it, a symbol that would need a wider type has the layout rebuilt,
and only the symbols an op returns are mapped back from their columns.
Each op finds its block and offset there once and edits the sequence and
the summary cells at that block, so the two always agree on where an
element lives.

The layout is sized for the reference length ``n0`` of the last rebuild:
``f + ceil(3f/4) + 1`` block slots for ``f = ceil(n0^alpha)``, each holding
at most ``ceil(3·n0 / f)`` elements.  An op that doubles or halves the
length rebuilds the whole layout from its renumbered column ids, not by an
edit, and so does an edit that would leave a block over capacity.
The rebuild admits the layout from its shape before it builds anything:
its 32-bit fields must hold ``3·n0``, and its table, chunk words and blocks
must pass the memory guard.  It installs the layout only once the build
succeeds, so the op raises with nothing changed; so does an insert whose
symbol gets no column that fits one-byte ids
(:meth:`PairTable.claim_column`), which the new layout stores in four
bytes.  N stays between n0/2 and 2·n0, L = Θ(N^alpha) and the capacity
Θ(N^(1-alpha)), at amortized cost.
Every rebuild spreads the elements evenly over the first
``ceil(n0^alpha)`` slots, sizes differing by at most one, which keeps edits
in the low slots, where the slice of summary cells an edit adds to is
shortest.  Those slots hold ``3·n0`` elements at capacity, half as many
again as the sequence reaches before its next doubling, so a sequence
regrowing evenly from any rebuild fits them.  A block fills only after
gaining about 2·n0 / ceil(n0^alpha) elements, which pay for the rebuild of
its overflow.  An element bound for the end of a full block joins the
front of the next block instead while that has room, so a run of appends
walks from slot to slot and reaches its doubling with no rebuild.  Only
that rule starts to fill an empty slot past the filled ones, and those
slots hold at least ``2.25·n0`` elements, so a queue that appends at one
end and deletes at the other rebuilds at most once per ``2.25·n0``
appends.

Inserts, deletes and relocations are one edit, planned as a rebuild's
column ids are: the element at ``src`` out, then one in at ``dst``, where
``insert(dst, delete(src))`` would put it.  Its block comes from the net
block sizes after the edit, so a relocation that stays in a full block, or
goes to the end of one from the block after it, moves inside one block.
Every new value, a freed or claimed column's state among them, is computed
before one call, :meth:`PairTable.store`, stores the edit or a boundary
move: the array insert first, the one store that can fail, which fails
with nothing changed, then the rest, which calls no function and builds
no object, so an edit that raises changes nothing.  A move inside one
block edits no summary cell and no block end, as every cell counts whole
blocks; one across blocks adds its two point edits to one run of a plane.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, _count_elements  # Counter's C loop, into any dict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import countOf
from typing import Collection, Iterable, Sequence

from . import charseq
from .charseq import CharSeq, word_bound
from .errors import InvariantError
from .multiset import MAX_COUNT, MAX_SYMBOL, PairTable, check_table_fits, id_type
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
    """Reject anything but an ``int`` symbol id that fits in one machine word.
    The ops repeat the test inline and call this only when it fails."""
    if type(symbol) is not int:
        raise TypeError(f"symbol id must be an int, got {type(symbol).__name__}")
    if not 0 <= symbol <= MAX_SYMBOL:
        raise ValueError(f"symbol id {symbol} does not fit in one machine word")


def _check_symbols(flat: list[object]) -> set[int]:
    """:func:`_check_symbol` on every item, at C speed while all pass; the
    distinct symbols.

    The passing check builds no temporary the size of ``flat``: it counts
    the items of type ``int``, then builds the set it returns.
    """
    if countOf(map(type, flat), int) == len(flat):
        distinct = set(flat)
        if not distinct or 0 <= min(distinct) and max(distinct) <= MAX_SYMBOL:
            return distinct
    for symbol in flat:
        _check_symbol(symbol)
    raise AssertionError("a symbol failed the bulk check but passes one by one")


def _check_position(pos: object) -> None:
    """Reject a sequence position that is not an ``int`` (``bool`` included).
    The ops repeat the test inline and call this only when it fails."""
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

    The capacity is the least at which the ``f = ceil(n0^alpha)`` filled
    slots hold ``3·n0`` elements, half as many again as the sequence reaches
    before its next doubling, so a sequence regrowing evenly from any
    rebuild fits them without an overflow rebuild.  It is Θ(N^(1-alpha)): at
    most ``3·ceil((2·n0)^(1-alpha))``.  Past the filled slots lie
    ``ceil(3f/4) + 1`` empty ones, holding at least ``2.25·n0`` elements;
    one starts to fill only when an element bound for the end of the full
    slot before it joins its front.  Every edit's slice of the summary
    table spans the empty slots too, so each one fewer makes every edit
    cheaper.
    """
    filled = _ceil_power(n0, alpha)
    return filled + -(-3 * filled // 4) + 1, filled, -(-3 * n0 // filled)


class RangeModeEngine:
    """Dynamic sequence with insert, delete, and mode-enumeration queries.

    Indexing is 0-based; query ranges are inclusive ``[lo, hi]``.  No op may
    overlap an edit, whose stores follow one another; queries write nothing.
    Layout resets are logged in ``reset_events`` as (kind, length) pairs,
    the kind ``"double"`` or ``"halve"`` for a length that doubled or
    halved, ``"overflow"`` for an edit that would leave a block over capacity,
    or ``"ids"`` for a symbol that needed four-byte column ids.
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

    def _rebuild_layout(self, flat: Sequence[int], alphabet: Collection[int], kind="") -> None:
        """Lay out ``flat``, symbols or :meth:`_edited_ids`' column ids, whose
        distinct symbols are ``alphabet``, evenly over the first
        ``ceil(n0^alpha)`` slots of a layout sized for its length.

        The layout is admitted here, before anything is built: its fields
        must hold every count until the next rebuild, and its table, chunk
        words and blocks must pass :func:`check_table_fits`.  An op that
        resets the layout passes its ``kind``, which is logged once the new
        layout is built and before it is installed.
        """
        n = len(flat)
        n0 = max(n, 1)
        # A stored field is a count, under 2·n0 until the next rebuild, plus
        # its row's offset, a count at the build and so at most n0.
        if 3 * n0 > MAX_COUNT:
            raise ValueError(
                f"length {n} is too long: summary fields up to {3 * n0} exceed {MAX_COUNT}"
            )
        slots, filled, capacity = _layout(n0, self._config.alpha)
        # The blocks hold at most 2·n0 elements before the next rebuild.
        guard = (word_bound(2 * n0, slots), 2 * n0, id_type(len(alphabet)))
        check_table_fits(slots, len(alphabet), *guard)
        q, extra = divmod(n, filled)
        sizes = [q + (k < extra) for k in range(filled)] + [0] * (slots - filled)
        seq = CharSeq(flat, sizes, alphabet)
        table = PairTable(seq, guard)  # if either raises, the old layout stands
        if kind:  # logged first: the stores that install the layout cannot fail
            self.reset_events.append((kind, n))
        self._table = table
        self._n0 = n0
        self._capacity = capacity
        self._seq = seq

    def _edited_ids(
        self, src: int | None, dst: int | None, symbol: int | None, col: int | None
    ) -> tuple[array, list[int]]:
        """Column ids, as a fresh build numbers them, and sorted alphabet of the
        sequence edited: the element at ``src``, of column ``col``, deleted,
        then ``symbol`` inserted at ``dst``, or the deleted element where
        ``symbol`` is None; a None position skips its step."""
        seq = self._seq
        alphabet = set(seq.column)  # the symbols present
        if dst is None and self._table.copies(col) == 1:
            alphabet.remove(seq.symbol[col])  # its last copy
        elif symbol is not None:
            alphabet.add(symbol)
        alphabet = sorted(alphabet)
        column = dict(zip(alphabet, range(len(alphabet))))
        remap = [column.get(s, 0) for s in seq.symbol]  # a free column's id occurs nowhere
        code = id_type(len(alphabet))
        if code == seq.blocks[0].typecode == "B":  # one C pass, no symbol looked up
            ids = array("B", b"".join(seq.blocks).translate(bytes(remap).ljust(256, b"\0")))
        else:
            ids = array(code, map(remap.__getitem__, chain.from_iterable(seq.blocks)))
        if src is not None:
            moved = ids.pop(src)
        if dst is not None:
            ids.insert(dst, moved if symbol is None else column[symbol])
        return ids, alphabet

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
        if type(pos) is not int or type(symbol) is not int or not 0 <= symbol <= MAX_SYMBOL:
            _check_position(pos)
            _check_symbol(symbol)
        self._edit(None, pos, symbol)

    def delete(self, pos: int) -> int:
        """Remove and return the element at ``pos``."""
        if type(pos) is not int:
            _check_position(pos)
        return self._edit(pos, None)

    def relocate(self, src: int, dst: int) -> int:
        """Move the element at ``src`` so that it becomes the element at ``dst``; return it.

        The sequence is that of ``insert(dst, delete(src))``, but the length
        does not change.
        """
        if type(src) is not int or type(dst) is not int:
            _check_position(src)
            _check_position(dst)
        n = self._seq.ends[-1]
        if not (0 <= src < n and 0 <= dst < n):
            raise IndexError(f"relocation {src} -> {dst} out of range (length {n})")
        return self._edit(src, dst)

    def _edit(self, src: int | None, dst: int | None, symbol: int | None = None) -> int | None:
        """Delete the element at ``src``, then insert ``symbol`` at ``dst``, or
        the deleted element where ``symbol`` is None; a None position skips
        its step.  Return the deleted symbol, or None.

        The element joins the block an insert at ``dst`` would join, unless
        that block would end the edit over capacity: then, at its end, the
        next block's front if that one would not, and otherwise the layout is
        rebuilt, as for a doubling, a halving or a column past the id type."""
        seq, table = self._seq, self._table
        blocks, n = seq.blocks, seq.ends[-1]
        js = offs = jd = offd = col = gone = claim = None
        if src is not None:
            js, offs = seq.locate(src)
            col = blocks[js][offs]
            gone = seq.symbol[col]
        kind = "halve" if dst is None and n - 1 <= self._n0 // 2 else ""
        if dst is not None:
            # Placed before the source comes out, so past the source it is one on.
            jd, offd = seq.insert_place(dst + (src is not None and src < dst))
            cap = self._capacity
            if src is None and n + 1 >= 2 * self._n0:
                kind = "double"
            elif jd != js and len(blocks[jd]) == cap:  # it would end holding cap + 1
                nxt = jd + 1
                if offd == cap and nxt < len(blocks) and len(blocks[nxt]) - (nxt == js) < cap:
                    jd, offd = nxt, 0
                else:
                    kind = "overflow"
            if symbol is not None and not kind:
                col = seq.column.get(symbol)
                if col is None:  # a new symbol, whose column may need wider ids
                    col, claim = table.claim_column(symbol)
                    if col is None:
                        kind = "ids"
        if kind:
            self._rebuild_layout(*self._edited_ids(src, dst, symbol, col), kind)
            return gone
        if jd == js:  # inside one block: no summary cell and no block end changes
            run, offd = None, offd - (offd > offs)
        elif jd is None:
            run = table.apply_point(js, col, -1)
        else:
            run = table.apply_point(jd, col, 1, js, claim)
        table.store(run, js, offs, jd, offd, col)
        return gone

    def modes(self, lo: int, hi: int) -> ModesResult:
        """Enumerate all modes of the inclusive range ``[lo, hi]``."""
        if type(lo) is not int or type(hi) is not int:
            _check_position(lo)
            _check_position(hi)
        seq = self._seq
        ends = seq.ends  # ends[k]: one past the last position of block k
        n = ends[-1]
        if not (0 <= lo <= hi < n):
            raise IndexError(f"range [{lo}, {hi}] out of bounds (length {n})")
        stop = hi + 1
        bl = bisect_right(ends, lo)  # block holding lo
        br = bisect_left(ends, stop, bl)  # block holding hi
        start_l, start_r = ends[bl - 1] if bl else 0, ends[br - 1] if br else 0
        left, right = seq.blocks[bl], seq.blocks[br]
        a, b = lo - start_l, stop - start_r  # the range runs from left[a] to right[b - 1]
        # p: the first chunk boundary of block bl at or after a; q: the last
        # of block br at or before b.  A block's end counts as a boundary.
        S = charseq.CHUNK
        p = min(-(-a // S) * S, len(left))
        q = b if b == len(right) else b - b % S
        if start_l + p >= start_r + q:  # no whole chunk inside: count the columns present
            margin: dict[int, int] = {}
            _count_elements(margin, left[a:b] if bl == br else left[a:])
            if bl < br:
                _count_elements(margin, right[:b])
            best = max(margin.values())
            symbol = seq.symbol
            winners = [symbol[col] for col, count in margin.items() if count == best]
        else:
            # Each end moves outwards to the boundary past it only when that
            # one is strictly nearer, so it steps at most S/2 ids, one slice
            # of its block array: added inside the range, taken away outside.
            if a % S < p - a:
                p = a - a % S
            nxt = min(q + S, len(right))
            if nxt - b < b - q:
                q = nxt
            word = seq.chunk_sums[br][-(-q // S)] - seq.chunk_sums[bl][-(-p // S)]
            l = r = None
            if br > bl:  # blocks bl..br-1 count whole: their cell, or block bl's word
                if ends[br - 1] > ends[bl]:
                    l, r = bl, br - 1
                else:
                    word += seq.chunk_sums[bl][-1]
            best, winners = self._table.modes(
                l, r, word, left[a:p], right[q:b], left[p:a], right[b:q]
            )
        winners.sort()
        return tuple.__new__(ModesResult, (best, tuple(winners)))

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
        summary cells move.  No op moves a boundary.  A move from an empty
        block or into a full one raises with nothing changed.
        """
        self._move(i, -1, "move_left")

    def move_right(self, i: int) -> None:
        """Move the last element of block ``i`` to the front of block ``i + 1``."""
        self._move(i, 1, "move_right")

    def _move(self, i: int, step: int, name: str) -> None:
        """Move the end element of block ``i`` that faces block ``i + step``
        into it, checked first and stored by one call, as an edit is."""
        if type(i) is not int:
            raise TypeError(f"block slot must be an int, got {type(i).__name__}")
        blocks, k = self._seq.blocks, i + step
        if not (0 <= i < len(blocks) and 0 <= k < len(blocks)):
            raise IndexError(f"{name} source {i} out of range ({len(blocks)} slots)")
        if not blocks[i]:
            raise InvariantError(f"{name} from empty block {i}")
        if len(blocks[k]) >= self._capacity:
            raise InvariantError(f"{name} into full block {k}")
        off, to = (0, len(blocks[k])) if step < 0 else (len(blocks[i]) - 1, 0)
        col = blocks[i][off]
        self._table.store(self._table.apply_point(k, col, 1, i), i, off, k, to, col)

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
