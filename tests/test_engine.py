import dataclasses
import os
import random
import re
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from probe import (
    EDIT_FAULTS, FAULTS, WIDEN_FAULTS, assert_within_capacity, ends, held_bytes,
    ignore_capacity, lay_out, pack_front, priced_bytes, refuse, set_end, set_words, snapshot,
    stored_layout, typecodes, word_count, words,
)

import rangemodes.engine as engine_module
from rangemodes import charseq, multiset
from rangemodes.multiset import MAX_SYMBOL
from rangemodes import (
    AuditReport,
    Config,
    InvariantError,
    ModesResult,
    NaiveSeq,
    RangeModeEngine,
)


SLOT = struct.calcsize("P")  # a list slot
BIG = 1 << 32  # the least symbol past 32 bits


def ceil_root(num: int, den: int, p: int, q: int) -> int:
    """Smallest k with k**q * den**p >= num**p (independent of the engine)."""
    lo, hi = 0, max(num, 1)  # den >= 1 and p <= q, so hi satisfies it
    while lo < hi:
        k = (lo + hi) // 2
        if k**q * den**p < num**p:
            lo = k + 1
        else:
            hi = k
    return lo


def spare_slots(filled: int) -> int:
    """Empty slots a layout keeps beside the ``filled`` ones a rebuild fills
    (independent of the engine)."""
    return -(-3 * filled // 4) + 1


def slot_count(n0, alpha=Fraction(1, 3)):
    """Slots of the layout for reference length ``n0``, by the engine's rule."""
    return engine_module._layout(n0, alpha)[0]


def filled_slots(engine):
    """How many slots a rebuild fills at construction and after a halving."""
    alpha = engine.config.alpha
    return ceil_root(engine.n0, 1, alpha.numerator, alpha.denominator)


def count_moves(monkeypatch):
    """Record the source block of every boundary move from now on."""
    moves = []
    for name in ("move_left", "move_right"):
        move = getattr(RangeModeEngine, name)
        monkeypatch.setattr(
            RangeModeEngine, name, lambda self, i, move=move: moves.append(i) or move(self, i)
        )
    return moves


def packed_first(symbols):
    """An engine holding ``symbols`` all in its first block."""
    engine = RangeModeEngine(symbols)
    lay_out(engine, [len(engine)])
    return engine


def assert_even(sizes):
    assert max(sizes) - min(sizes) <= 1, sizes


def scrambled(initial, gone, new, length):
    """An engine built from ``initial`` whose columns no longer follow the
    symbols' order: every copy of ``gone`` deleted, which frees its column,
    then ``new``'s symbols inserted in turn, the first taking that column and
    the rest the next ones, and the last element deleted or ``new`` inserted
    again until the length is ``length``.  No edit resets the layout."""
    engine = RangeModeEngine(initial)
    while gone in engine.to_list():
        engine.delete(engine.to_list().index(gone))
    for k, symbol in enumerate(new):
        engine.insert(k * 7 % (len(engine) + 1), symbol)
    while len(engine) > length:
        engine.delete(len(engine) - 1)
    k = 0
    while len(engine) < length:
        engine.insert(k * 5 % (len(engine) + 1), new[k % len(new)])
        k += 1
    assert not engine.reset_events and engine.audit().ok
    return engine


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.alpha == Fraction(1, 3)
        assert [f.name for f in dataclasses.fields(Config)] == ["alpha"]

    @pytest.mark.parametrize("alpha", [0, 1, Fraction(3, 2), Fraction(-1, 3)])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            Config(alpha=alpha)

    def test_alpha_float_rejected(self):
        # Binary floats expand to astronomical denominators; refuse them.
        with pytest.raises(ValueError):
            Config(alpha=0.333)

    def test_alpha_string_fraction(self):
        assert Config(alpha=Fraction("1/2")).alpha == Fraction(1, 2)


class TestConstruction:
    def test_empty(self):
        engine = RangeModeEngine()
        assert len(engine) == 0
        assert engine.block_sizes() == [0] * len(engine.block_sizes())

    def test_small_sequence_modes(self):
        engine = RangeModeEngine([1, 2, 1])
        assert engine.modes(0, 2) == ModesResult(2, (1,))

    def test_nine_elements_layout(self):
        engine = RangeModeEngine([4] * 9)
        assert filled_slots(engine) == ceil_root(9, 1, 1, 3) == 3
        assert engine.capacity == 27 // 3 == 9
        assert engine.block_sizes() == [3, 3, 3] + [0] * spare_slots(3)

    def test_len(self):
        assert len(RangeModeEngine([1, 2])) == 2

    @pytest.mark.parametrize("n0", [9, 64, 1000])
    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)], ids=str)
    def test_layout_formulas(self, alpha, n0):
        engine = RangeModeEngine(range(n0), Config(alpha=alpha))
        assert engine.n0 == n0
        p, q = alpha.numerator, alpha.denominator
        filled = ceil_root(n0, 1, p, q)
        assert engine.capacity == -(-3 * n0 // filled)
        slots = filled + spare_slots(filled)
        assert len(engine.block_sizes()) == slots
        assert engine.audit().ok

    @pytest.mark.parametrize(
        "alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5), Fraction(1, 8)],
        ids=str,
    )
    def test_filled_slots_hold_the_sequence_until_its_doubling(self, alpha):
        # The capacity is the least at which the filled slots hold 3·n0
        # elements, and stays within three times ceil((2·n0)^(1-alpha)).  So
        # a rebuild, which spreads n0 elements over the filled slots, needs
        # no check that they fit, and they hold the sequence up to its next
        # doubling at 2·n0 with room to spare.
        p, q = alpha.numerator, alpha.denominator
        for n0 in range(1, 3001):
            slots, filled, cap = engine_module._layout(n0, alpha)
            assert filled == ceil_root(n0, 1, p, q)
            assert slots == filled + spare_slots(filled)
            assert filled * cap >= 3 * n0 > filled * (cap - 1)
            assert cap <= 3 * ceil_root(2 * n0, 1, q - p, q)

    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            RangeModeEngine([-1])
        with pytest.raises(TypeError):
            RangeModeEngine([1.0])
        with pytest.raises(TypeError):
            RangeModeEngine([True])
        engine = RangeModeEngine()
        with pytest.raises(ValueError):
            engine.insert(0, -5)
        with pytest.raises(ValueError):
            engine.insert(0, 1 << 64)

    @pytest.mark.parametrize(
        "initial, error, message",
        [
            ([1, True], TypeError, "symbol id must be an int, got bool"),
            ([1, 1.0], TypeError, "symbol id must be an int, got float"),
            ([3, -1], ValueError, "symbol id -1 does not fit in one machine word"),
            ([2**64], ValueError, f"symbol id {2**64} does not fit in one machine word"),
        ],
    )
    def test_bulk_symbol_check_raises_the_first_error(self, initial, error, message):
        # The build checks all symbols at once; the error is the one the
        # check of a single symbol raises for the first bad one.
        with pytest.raises(error) as bulk:
            RangeModeEngine(initial)
        assert str(bulk.value) == message
        with pytest.raises(error) as single:
            RangeModeEngine().insert(0, initial[-1])
        assert str(single.value) == message

    def test_length_must_fit_the_count_fields(self, monkeypatch):
        # A summary count reaches 2·n0 before the next rebuild.
        monkeypatch.setattr(engine_module, "MAX_COUNT", 7)
        assert RangeModeEngine(range(2)).audit().ok
        with pytest.raises(ValueError, match="summary fields up to 9 exceed 7"):
            RangeModeEngine(range(3))

    def test_row_offsets_count_against_the_count_fields(self, monkeypatch):
        # A stored field also carries its row's offset, at most n0: 2·3 fits
        # in 7 but 2·3 + 3 does not, so the length is refused whatever the
        # symbols, and fits once the fields reach 3·n0.
        monkeypatch.setattr(engine_module, "MAX_COUNT", 7)
        for symbols in ([5, 6, 7], [5, 5, 5]):
            with pytest.raises(ValueError, match="summary fields up to 9 exceed 7"):
                RangeModeEngine(symbols)
        monkeypatch.setattr(engine_module, "MAX_COUNT", 9)
        assert RangeModeEngine([5, 5, 5]).audit().ok

    @pytest.mark.parametrize(("bad", "error", "message"), [
        pytest.param(*case, id=str(case[0])) for case in [
            (1.0, TypeError, "symbol id must be an int, got float"),
            (True, TypeError, "symbol id must be an int, got bool"),
            ("3", TypeError, "symbol id must be an int, got str"),
            (None, TypeError, "symbol id must be an int, got NoneType"),
            (-1, ValueError, "symbol id -1 does not fit in one machine word"),
            (1 << 64, ValueError, f"symbol id {1 << 64} does not fit in one machine word"),
        ]
    ])
    def test_rejected_symbol_leaves_engine_unchanged(self, bad, error, message):
        # Validation runs before the sequence, block sizes or summary cells
        # change, so a rejected insert leaves nothing half-updated.  The
        # insert tests its arguments inline and names the fault only when
        # that test fails, so the message pins what the caller sees.
        engine = RangeModeEngine(range(8))
        before = engine.to_list()
        for pos in (0, 3, 8):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                engine.insert(pos, bad)
            assert engine.to_list() == before
            assert engine.audit().ok

    @pytest.mark.parametrize(("bad", "name"), [
        pytest.param(bad, name, id=str(bad))
        for bad, name in [(2.0, "float"), ("3", "str"), (None, "NoneType"), (True, "bool")]
    ])
    def test_rejected_position_leaves_engine_unchanged(self, bad, name):
        # A float position passes the range check; it must be refused before
        # the summary cells change, not by the sequence halfway through.  A
        # bad position is named before a bad symbol.
        engine = RangeModeEngine(range(20))
        before = engine.to_list()
        calls = [
            lambda: engine.insert(bad, 7),
            lambda: engine.insert(bad, 1.5),
            lambda: engine.delete(bad),
            lambda: engine.relocate(bad, 5),
            lambda: engine.relocate(5, bad),
            lambda: engine.modes(bad, 5),
            lambda: engine.modes(0, bad),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=f"^position must be an int, got {name}$"):
                call()
            assert engine.to_list() == before
            assert engine.audit().ok


    @pytest.mark.parametrize("bad", [-1, 20, 21, 1 << 64])
    def test_out_of_range_position_leaves_engine_unchanged(self, bad):
        # The block and offset an op works on come from one lookup, which
        # raises before anything changes.
        engine = RangeModeEngine(range(20))
        before = snapshot(engine), bytes(engine._table._counts)
        calls = [
            lambda: engine.insert(bad + (bad > 0), 7),  # an insert may also go at 20
            lambda: engine.delete(bad),
            lambda: engine.relocate(bad, 3),
            lambda: engine.relocate(3, bad),
            lambda: engine.modes(bad, 19),
            lambda: engine.modes(0, bad),
        ]
        for call in calls:
            with pytest.raises(IndexError):
                call()
            assert (snapshot(engine), bytes(engine._table._counts)) == before
        assert engine.audit().ok


class TestInsert:
    def test_insert_middle(self):
        engine = RangeModeEngine([1, 2])
        engine.insert(1, 3)
        assert engine.to_list() == [1, 3, 2]
        assert engine.modes(0, 2) == ModesResult(1, (1, 2, 3))

    def test_insert_into_empty(self):
        engine = RangeModeEngine()
        engine.insert(0, 7)
        assert len(engine) == 1
        assert engine.modes(0, 0) == ModesResult(1, (7,))

    def test_insert_front_and_append(self):
        engine = RangeModeEngine([5, 6, 7])
        engine.insert(0, 9)
        engine.insert(4, 8)
        assert engine.to_list() == [9, 5, 6, 7, 8]
        assert engine.audit().ok

    def test_bounds(self):
        engine = RangeModeEngine([1])
        with pytest.raises(IndexError):
            engine.insert(2, 0)
        with pytest.raises(IndexError):
            engine.insert(-1, 0)

    def test_doubling_reset_fires_and_answers_survive(self):
        engine = RangeModeEngine([0] * 16)
        oracle = NaiveSeq([0] * 16)
        rng = random.Random(2)
        for k in range(2 * engine.n0):
            pos = rng.randint(0, len(oracle))
            sym = rng.randrange(5)
            engine.insert(pos, sym)
            oracle.insert_at(pos, sym)
            assert_within_capacity(engine)
        assert ("double", 32) in engine.reset_events
        for _ in range(20):
            lo = rng.randrange(len(oracle))
            hi = rng.randint(lo, len(oracle) - 1)
            assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert engine.audit().ok


class TestDelete:
    def test_delete_middle(self):
        engine = RangeModeEngine([1, 2, 1])
        assert engine.delete(1) == 2
        assert engine.modes(0, 1) == ModesResult(2, (1,))

    def test_delete_only_element(self):
        engine = RangeModeEngine([3])
        assert engine.delete(0) == 3
        assert len(engine) == 0

    def test_bounds(self):
        engine = RangeModeEngine()
        with pytest.raises(IndexError):
            engine.delete(0)

    def test_halving_reset_fires_and_answers_survive(self):
        engine = RangeModeEngine(range(64))
        oracle = NaiveSeq(range(64))
        rng = random.Random(3)
        while len(oracle) > 30:
            pos = rng.randrange(len(oracle))
            assert engine.delete(pos) == oracle.delete_at(pos)
            assert_within_capacity(engine)
        assert any(kind == "halve" for kind, _ in engine.reset_events)
        for _ in range(20):
            lo = rng.randrange(len(oracle))
            hi = rng.randint(lo, len(oracle) - 1)
            assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert engine.audit().ok

    def test_deleting_across_a_chunk_offset_drops_a_word(self):
        # 2^15 symbols fill 32 blocks of 1024 elements, each eight chunks of
        # the default S = 128, nine words.  The deletes at 320 cross the
        # chunk offsets 384..1023 of block 0, and the 128th of them takes it
        # to 896 elements, seven chunks: the last word is dropped.
        rng = random.Random(14)
        symbols = [rng.randrange(26) for _ in range(1 << 15)]
        engine = RangeModeEngine(symbols)
        oracle = NaiveSeq(symbols)
        seq = engine._seq
        assert engine.block_sizes()[:33] == [1024] * 32 + [0] and word_count(seq, 0) == 9
        for _ in range(127):
            assert engine.delete(320) == oracle.delete_at(320)
        assert word_count(seq, 0) == 9
        assert engine.delete(320) == oracle.delete_at(320)
        assert word_count(seq, 0) == 8 and engine.block_sizes()[0] == 896
        assert engine.reset_events == [] and engine.audit().ok
        n = len(oracle)
        ends = (0, 255, 256, 319, 320, 383, 384, 895, 896, n - 1)
        ranges = [(lo, hi) for lo in ends for hi in ends if lo <= hi]
        for _ in range(100):
            lo = rng.randrange(n)
            ranges.append((lo, rng.randint(lo, n - 1)))
        for lo, hi in ranges:
            assert engine.modes(lo, hi) == oracle.modes(lo, hi), (lo, hi)


class TestRelocate:
    def make_engine(self, n=300, config=None):
        # n0 = 300 fills 7 of 16 slots with 42 or 43 elements; capacity 129.
        rng = random.Random(n)
        return RangeModeEngine([rng.randrange(6) for _ in range(n)], config)

    def check(self, engine, src, dst):
        """Relocate on the engine and on the oracle; return the table edits it made."""
        oracle = NaiveSeq(engine.to_list())
        resets, n0 = list(engine.reset_events), engine.n0
        edits = []
        apply_point = multiset.PairTable.apply_point
        try:
            multiset.PairTable.apply_point = lambda self, *args: (
                edits.append(args) or apply_point(self, *args)
            )
            assert engine.relocate(src, dst) == oracle.relocate(src, dst)
        finally:
            multiset.PairTable.apply_point = apply_point
        assert engine.to_list() == oracle.to_list()
        assert (engine.reset_events, engine.n0) == (resets, n0)
        report = engine.audit()
        assert report.ok, report.message
        return edits

    def starts(self, engine):
        """The first position of each block."""
        return [0, *accumulate(engine.block_sizes())][:-1]

    @pytest.mark.parametrize("src, dst", [(5, 30), (30, 5), (0, 41), (41, 0)])
    def test_inside_one_block_edits_no_summary_cell(self, src, dst):
        engine = self.make_engine()
        assert engine.block_sizes()[0] == 43
        table = engine._table
        before = (bytes(table._counts), list(table._base), engine.block_sizes())
        assert self.check(engine, src, dst) == []
        assert (bytes(table._counts), list(table._base), engine.block_sizes()) == before

    def test_inside_one_block_adjusts_no_size(self):
        # The block sizes do not change, so the block ends stay the same
        # list with the same values.
        engine = self.make_engine()
        sizes, stored = engine.block_sizes(), ends(engine._seq)
        before = list(stored)
        for src, dst in [(5, 30), (30, 5), (0, 41), (41, 0), (12, 12)]:
            assert self.check(engine, src, dst) == []
        assert ends(engine._seq) is stored and stored == before
        assert engine.block_sizes() == sizes

    def test_across_chunks_keeps_every_chunk_offset(self, monkeypatch):
        # S = 2 from the build on: block 0's 43 elements lie in 22 chunks,
        # and a move inside it crosses up to 21 chunk offsets, changing
        # only the words there; the audit checks every word.
        monkeypatch.setattr(charseq, "CHUNK", 2)
        engine = self.make_engine()
        seq = engine._seq
        assert word_count(seq, 0) == 23
        rng = random.Random(3)
        crossed = 0
        for _ in range(200):
            src, dst = rng.randrange(43), rng.randrange(43)  # inside block 0
            crossed += sum(min(src, dst) < b <= max(src, dst) for b in range(2, 43, 2))
            assert self.check(engine, src, dst) == []
            assert word_count(seq, 0) == 23
        assert crossed > 1000

    @pytest.mark.parametrize("src, dst", [(5, 150), (150, 5)], ids=["up", "down"])
    def test_across_blocks_edits_two_blocks(self, src, dst):
        engine = self.make_engine()
        js, jd = engine._seq.locate(src)[0], engine._seq.locate(dst)[0]
        symbol = engine.to_list()[src]
        sizes = engine.block_sizes()
        assert self.check(engine, src, dst) == [(jd, symbol, 1, js, None)]
        sizes[js] -= 1
        sizes[jd] += 1
        assert engine.block_sizes() == sizes

    def test_from_the_first_element_of_a_block(self):
        engine = self.make_engine()
        first = self.starts(engine)[2]
        assert self.check(engine, first, first + 5) == []  # it stays in block 2
        first = self.starts(engine)[2]
        symbol = engine.to_list()[first]
        # Inserted before position first - 1, it joins the end of block 1.
        assert self.check(engine, first, first - 1) == [(1, symbol, 1, 2, None)]

    def test_to_the_ends(self):
        engine = self.make_engine()
        n = len(engine)
        for src, dst in [(100, 0), (100, n - 1), (0, n - 1), (n - 1, 0), (0, 0), (n - 1, n - 1)]:
            self.check(engine, src, dst)

    def test_to_itself(self):
        engine = self.make_engine()
        for pos in [0, 7, *self.starts(engine)[1:3], len(engine) - 1]:
            self.check(engine, pos, pos)
        one = RangeModeEngine([7])
        assert self.check(one, 0, 0) == []
        assert one.to_list() == [7] and one.reset_events == []

    def full_block_1(self):
        """An engine whose block 1 takes the elements of blocks 2 and 3 and
        is full, with block 2 below capacity."""
        engine = self.make_engine()
        sizes = engine.block_sizes()
        sizes[1:4] = [engine.capacity, sum(sizes[1:4]) - engine.capacity, 0]
        lay_out(engine, sizes)
        assert engine.block_sizes()[2] < engine.capacity
        return engine

    def test_into_a_full_block_rebuilds(self):
        # A relocation into block 1 from block 4 rebuilds the layout, which
        # spreads the elements evenly again.
        engine = self.full_block_1()
        oracle = NaiveSeq(engine.to_list())
        src, dst = self.starts(engine)[4], self.starts(engine)[1] + 10
        assert engine.relocate(src, dst) == oracle.relocate(src, dst)
        assert engine.reset_events == [("overflow", 300)]
        assert stored_layout(engine) == stored_layout(RangeModeEngine(oracle.to_list()))
        assert engine.audit().ok

    def test_to_the_end_of_a_full_block_joins_the_next(self, monkeypatch):
        # To the end of block 1, block 2 takes the element at its front,
        # with no boundary move and no reset.
        engine = self.full_block_1()
        sizes = engine.block_sizes()
        moves = count_moves(monkeypatch)
        src, dst = self.starts(engine)[4], self.starts(engine)[2]
        symbol = engine.to_list()[src]
        assert self.check(engine, src, dst) == [(2, symbol, 1, 4, None)]
        assert moves == [] and engine.block_sizes()[1:3] == [sizes[1], sizes[2] + 1]

    def test_to_the_end_of_a_full_block_from_the_front_of_the_next(self):
        # At alpha = 1/2 and n0 = 46, blocks of capacity 20.  Position 39,
        # the last of block 1, bound for position 20, the end of the full
        # block 0, goes to the front of block 1 instead, which it leaves:
        # a move inside block 1, with no rebuild.
        engine = RangeModeEngine(range(46), Config(alpha=Fraction(1, 2)))
        for k in range(46, 80):
            engine.insert(k, k)
        assert engine.capacity == 20
        lay_out(engine, [20] * 4)
        assert self.check(engine, 39, 20) == []
        assert engine.block_sizes()[:5] == [20] * 4 + [0]

    def test_random_relocations_match_the_oracle(self):
        engine = self.make_engine(2000)
        oracle = NaiveSeq(engine.to_list())
        rng = random.Random(5)
        for _ in range(500):
            n = len(oracle)
            src = rng.randrange(n)
            dst = min(max(src + rng.randint(-300, 300), 0), n - 1)
            assert engine.relocate(src, dst) == oracle.relocate(src, dst)
            lo = rng.randrange(n)
            hi = rng.randint(lo, n - 1)
            assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert engine.to_list() == oracle.to_list() and engine.audit().ok
        assert engine.reset_events == []

    @pytest.mark.parametrize(("bad", "error", "message"), [
        pytest.param(*case, id=str(case[0])) for case in [
            (True, TypeError, "position must be an int, got bool"),
            (-1, IndexError, "relocation {src} -> {dst} out of range (length 300)"),
            (300, IndexError, "relocation {src} -> {dst} out of range (length 300)"),
            ("3", TypeError, "position must be an int, got str"),
            (2.0, TypeError, "position must be an int, got float"),
        ]
    ])
    def test_bad_positions_change_nothing(self, bad, error, message):
        engine = self.make_engine()
        table = engine._table
        before = snapshot(engine), bytes(table._counts)
        for src, dst in [(bad, 5), (5, bad)]:
            want = re.escape(message.format(src=src, dst=dst))
            with pytest.raises(error, match=f"^{want}$"):
                engine.relocate(src, dst)
            assert (snapshot(engine), bytes(table._counts)) == before
        assert engine.audit().ok


class TestModes:
    def test_hand_counted(self):
        engine = RangeModeEngine([1, 2, 1, 2, 3])
        assert engine.modes(0, 4) == ModesResult(2, (1, 2))

    def test_singleton(self):
        engine = RangeModeEngine([9])
        assert engine.modes(0, 0) == ModesResult(1, (9,))

    def test_mode_inside_blocks_margin_empty(self):
        # Layout at n0=5 fills two slots as [b,a,a | a,b]; the full-range
        # query has no margin, so the answer must come from the summary's top
        # entry (the step the uncorrected scan-only computation would miss).
        b, a = 1, 0
        engine = RangeModeEngine([b, a, a, a, b])
        assert engine.block_sizes()[:2] == [3, 2]
        assert engine.modes(0, 4) == ModesResult(3, (a,))

    def test_mode_inside_blocks_with_margin(self):
        b, a = 1, 0
        engine = RangeModeEngine([b, a, a, a, b])
        # Range [1, 4]: only the second block is fully contained; the first
        # block's tail [a, a] lands in the margin.
        assert engine.modes(1, 4) == ModesResult(3, (a,))

    def test_margin_only_range(self):
        engine = RangeModeEngine([1, 2, 1, 2, 3])
        for lo in range(5):
            for hi in range(lo, 5):
                counted = {}
                for sym in engine.to_list()[lo : hi + 1]:
                    counted[sym] = counted.get(sym, 0) + 1
                top = max(counted.values())
                want = ModesResult(
                    top, tuple(sorted(s for s, c in counted.items() if c == top))
                )
                assert engine.modes(lo, hi) == want

    def test_bounds(self):
        engine = RangeModeEngine([1])
        with pytest.raises(IndexError):
            engine.modes(0, 1)
        with pytest.raises(IndexError):
            engine.modes(-1, 0)
        with pytest.raises(IndexError):
            RangeModeEngine().modes(0, 0)

    def test_mode_projection(self):
        assert RangeModeEngine([1, 2, 1]).mode(0, 2) == (2, 1)
        assert RangeModeEngine([9]).mode(0, 0) == (1, 9)
        # Smallest id among tied modes.
        assert RangeModeEngine([1, 0]).mode(0, 1) == (1, 0)


class TestMoves:
    def make_engine(self):
        # n0=3: [10,11,12] all in the first block, the rest empty.
        engine = packed_first([10, 11, 12])
        assert engine.block_sizes()[:2] == [3, 0]
        return engine

    def test_move_right_then_left_is_identity(self):
        engine = self.make_engine()
        before = engine.block_sizes()
        engine.move_right(0)
        assert engine.block_sizes()[:2] == [2, 1]
        assert engine.to_list() == [10, 11, 12]
        engine.move_left(1)
        assert engine.block_sizes() == before
        assert engine.audit().ok

    def test_move_updates_summary_cells(self):
        engine = self.make_engine()
        engine.move_right(0)
        table = engine._table
        assert table.cell(0, 0) == {10: 1, 11: 1}
        assert table.cell(1, 1) == {12: 1}

    def test_move_left_appends_to_previous(self):
        engine = self.make_engine()
        engine.move_right(0)  # blocks [10,11] [12]
        engine.move_left(1)  # first of right block joins the left
        assert engine.block_sizes()[:2] == [3, 0]
        assert engine.to_list() == [10, 11, 12]

    def test_move_bounds_and_empty_source(self):
        engine = RangeModeEngine([1, 2])
        lay_out(engine, [1, 0, 1])
        slots, before = len(engine.block_sizes()), snapshot(engine)
        for name, i in (("move_left", 0), ("move_left", slots), ("move_right", slots - 1),
                        ("move_right", -1)):
            message = rf"^{name} source {i} out of range \({slots} slots\)$"
            with pytest.raises(IndexError, match=message):
                getattr(engine, name)(i)
        for name in ("move_left", "move_right"):
            with pytest.raises(InvariantError, match=rf"^{name} from empty block 1$"):
                getattr(engine, name)(1)
        assert snapshot(engine) == before and engine.audit().ok

    @pytest.mark.parametrize(
        ("name", "i", "back", "sizes", "after"),
        [("move_left", 1, "move_right", [60, 40], [59, 41]),
         ("move_right", 0, "move_left", [40, 60], [41, 59])],
    )
    def test_move_into_a_full_block(self, name, i, back, sizes, after):
        # A move into a block that holds capacity would leave it over
        # capacity, failing audit(): it raises first, with nothing changed,
        # and the full block can still give an element back.
        engine = RangeModeEngine([k % 5 for k in range(100)])
        lay_out(engine, sizes)
        assert engine.capacity == 60
        before, full = snapshot(engine), 1 - i
        with pytest.raises(InvariantError, match=rf"^{name} into full block {full}$"):
            getattr(engine, name)(i)
        assert snapshot(engine) == before and engine.audit().ok
        getattr(engine, back)(full)
        assert engine.block_sizes()[:2] == after and engine.audit().ok

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None], ids=repr)
    @pytest.mark.parametrize("name", ["move_left", "move_right"])
    def test_move_slot_must_be_an_int(self, name, bad):
        # True would pass as slot 1: block 1's first element into block 0.
        engine = self.make_engine()
        engine.move_right(0)
        before = snapshot(engine)
        message = f"^block slot must be an int, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            getattr(engine, name)(bad)
        assert snapshot(engine) == before and engine.audit().ok


class TestFullBlockInserts:
    """Where an insert at a full block goes (alpha = 1/2): at its end, to the
    front of the next block while that has room, and otherwise nowhere, as
    the layout is rebuilt.

    At n0 = 46 every block has capacity 20; a rebuild fills slots 0..6,
    which hold 140 elements, half as many again as the 91 the sequence
    reaches before its doubling, so at most four of them are ever full.
    The sequence grows past n0 before the blocks are laid out, so that runs
    of them can be full.  :data:`SLOTS` is the layout's slot count.
    """

    SLOTS = slot_count(46, Fraction(1, 2))

    def laid_out(self, sizes):
        engine = RangeModeEngine(range(46), Config(alpha=Fraction(1, 2)))
        for k in range(46, sum(sizes)):
            engine.insert(k, k)
            assert_within_capacity(engine)
        assert engine.n0 == 46 and engine.capacity == 20
        assert len(engine.block_sizes()) == self.SLOTS
        lay_out(engine, sizes)
        return engine

    def padded(self, sizes):
        """``sizes`` for the leading slots, the rest of the layout empty."""
        return sizes + [0] * (self.SLOTS - len(sizes))

    def assert_rebuilt(self, engine, flat):
        """The last op rebuilt ``engine``, holding ``flat``, as a fresh build."""
        assert engine.reset_events == [("overflow", len(flat))] and engine.to_list() == flat
        assert stored_layout(engine) == stored_layout(
            RangeModeEngine(flat, Config(alpha=Fraction(1, 2)))
        )
        assert engine.audit().ok

    def test_the_next_block_takes_an_insert_at_the_end_of_a_full_one(self, monkeypatch):
        engine = self.laid_out([20, 19, 20, 20, 4])
        moves = count_moves(monkeypatch)
        engine.insert(20, 99)  # the end of block 0: block 1 has room
        assert engine.block_sizes() == self.padded([20] * 4 + [4])
        assert moves == [] and engine.reset_events == [] and engine.audit().ok
        engine.insert(40, 98)  # the end of block 1: block 2 is full too
        self.assert_rebuilt(engine, [*range(20), 99, *range(20, 39), 98, *range(39, 83)])
        assert moves == []

    def test_tie_goes_to_the_lower_slot(self):
        # The end of one block is the front of the next: an insert there
        # joins the lower slot, and the upper one only when the lower is full.
        engine = self.laid_out([20, 19, 20, 18, 10])
        engine.insert(39, 99)  # the end of block 1, which has room
        assert engine.block_sizes() == self.padded([20, 20, 20, 18, 10])
        engine.insert(60, 98)  # the end of block 2, which is full
        assert engine.block_sizes() == self.padded([20, 20, 20, 19, 10])
        assert engine.to_list() == [*range(39), 99, *range(39, 59), 98, *range(59, 87)]
        assert engine.reset_events == [] and engine.audit().ok

    def test_nearer_next_block_beats_room_in_cur(self):
        engine = self.laid_out([10, 0, 0] + [20] * 4)
        engine.insert(90, 99)  # the end of the full block 6: block 7 takes it, not block 1
        assert_within_capacity(engine)
        assert engine.block_sizes() == self.padded([10, 0, 0] + [20] * 4 + [1])
        assert engine.to_list() == [*range(90), 99]
        assert engine.audit().ok

    def test_saturated_cur_spills_to_the_nearest_next_block(self, monkeypatch):
        # Blocks 3..6 are full.  Appends walk on into block 7; an insert at
        # the end of block 5 would spill only into block 6, which is full.
        engine = self.laid_out([3, 3, 2] + [20] * 4)
        moves = count_moves(monkeypatch)
        for symbol in (97, 98):
            engine.insert(len(engine), symbol)
            assert_within_capacity(engine)
        assert engine.block_sizes() == self.padded([3, 3, 2] + [20] * 4 + [2])
        assert moves == [] and engine.reset_events == []
        engine.insert(68, 99)
        self.assert_rebuilt(engine, [*range(68), 99, *range(68, 88), 97, 98])

    def test_a_full_block_with_no_room_after_it_rebuilds(self):
        # An insert inside a full block, or at the end of the last slot.
        engine = self.laid_out([3, 3, 2] + [20] * 4)
        engine.insert(50, 99)
        self.assert_rebuilt(engine, [*range(50), 99, *range(50, 88)])
        engine = self.laid_out(self.padded([20, 6])[:-1] + [20])
        engine.insert(46, 99)
        self.assert_rebuilt(engine, [*range(46), 99])

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)], ids=str)
    def test_appends_from_any_rebuild_reach_the_doubling(self, alpha):
        # From a build, a halving and an overflow rebuild, appends walk
        # from full block to the next and rebuild only at the doubling.
        engine = RangeModeEngine([0] * 1000, Config(alpha=alpha))
        starts = [engine]
        engine = RangeModeEngine([0] * 1000, Config(alpha=alpha))
        while not engine.reset_events:
            engine.delete(0)
        starts.append(engine)
        engine = RangeModeEngine([0] * 1000, Config(alpha=alpha))
        while not engine.reset_events:
            engine.insert(0, 1)
        starts.append(engine)
        assert [engine.reset_events for engine in starts] == [
            [], [("halve", 500)], [("overflow", len(engine))]
        ]
        for engine in starts:
            resets, n0 = list(engine.reset_events), engine.n0
            while len(engine) < 2 * n0 - 1:
                engine.insert(len(engine), len(engine) % 7)
                assert_within_capacity(engine)
            assert engine.reset_events == resets
            engine.insert(len(engine), 7)
            assert engine.reset_events == [*resets, ("double", 2 * n0)] and engine.audit().ok

    def test_a_queue_walks_through_the_spare_slots(self):
        # Appends at the end and deletes at the front keep the length at n
        # and walk the elements up the slots: the appends fill the last
        # filled block and then each slot past it, and the append past the
        # last slot rebuilds the layout.  So a rebuild comes at least as
        # many appends after the one before as the slots past the filled
        # ones hold.
        n = 1 << 12
        engine = RangeModeEngine([k % 26 for k in range(n)])

        def room():
            slots, filled, cap = engine_module._layout(engine.n0, engine.config.alpha)
            return (slots - filled) * cap

        since, least = 0, room()
        for k in range(8 * n):
            resets = len(engine.reset_events)
            engine.insert(n, k % 26)
            engine.delete(0)
            since += 1
            if len(engine.reset_events) > resets:
                assert since >= least
                since, least = 0, room()
        assert {kind for kind, _ in engine.reset_events} == {"overflow"}
        assert len(engine.reset_events) <= -(-8 * n // least)
        assert engine.to_list() == [k % 26 for k in range(7 * n, 8 * n)]
        assert engine.audit().ok

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)], ids=str)
    def test_filled_blocks_take_inserts_up_to_capacity(self, alpha, monkeypatch):
        # The filled blocks, each grown to capacity in turn, hold the
        # sequence until its doubling without a boundary move, and room for
        # n0 more elements is left over.
        engine = RangeModeEngine([0] * 1000, Config(alpha=alpha))
        n0, filled, cap = engine.n0, filled_slots(engine), engine.capacity
        top = 2 * n0 - 1  # the longest sequence before the doubling
        assert top + n0 < filled * cap
        built = engine.block_sizes()
        moves = count_moves(monkeypatch)
        rng = random.Random(8)
        for k in range(filled):
            while (size := engine.block_sizes()[k]) < cap and len(engine) < top:
                # Position 0 joins block 0; just past the first element of a
                # nonempty block k joins block k.
                pos = 0 if k == 0 else sum(engine.block_sizes()[:k]) + 1
                engine.insert(pos, rng.randrange(26))
                assert engine.block_sizes()[k] == size + 1
        assert moves == [] and engine.reset_events == [] and len(engine) == top
        sizes = engine.block_sizes()
        full = sizes.count(cap)  # the blocks grown to capacity, then one grown part way
        assert 0 < full < filled - 1
        assert sizes[:full] == [cap] * full and built[full] < sizes[full] < cap
        assert sizes[full + 1 :] == built[full + 1 :] and not any(sizes[filled:])
        assert engine.audit().ok
        # The next insert doubles the length, and the rebuild fills the
        # first filled slots of the new layout.
        engine.insert(1, 99)
        assert engine.reset_events == [("double", 2 * n0)] and moves == []
        sizes = engine.block_sizes()
        assert_even(sizes[: filled_slots(engine)])
        assert not any(sizes[filled_slots(engine) :])
        assert engine.audit().ok


class TestFill:
    """How a rebuild spreads the elements over the blocks.

    ``cur`` in a test name means the slots every rebuild fills, the first
    ``ceil(n0^alpha)``.
    """

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
    @pytest.mark.parametrize("n", [1, 9, 46, 100, 1000])
    def test_construction_fills_cur_evenly(self, alpha, n):
        engine = RangeModeEngine(range(n), Config(alpha=alpha))
        filled = filled_slots(engine)
        sizes = engine.block_sizes()
        assert_even(sizes[:filled])
        assert not any(sizes[filled:])
        assert engine.to_list() == list(range(n))

    def test_halving_reset_fills_cur_evenly(self):
        engine = RangeModeEngine(range(200))
        rng = random.Random(5)
        while not engine.reset_events:
            engine.delete(rng.randrange(len(engine)))
            assert_within_capacity(engine)
        assert engine.reset_events == [("halve", 100)]
        filled = filled_slots(engine)
        sizes = engine.block_sizes()
        assert_even(sizes[:filled])
        assert not any(sizes[filled:])

    def test_doubling_reset_fills_cur_evenly(self):
        engine = RangeModeEngine(range(100))
        rng = random.Random(6)
        while not engine.reset_events:
            engine.insert(rng.randint(0, len(engine)), 100 + len(engine))
            assert_within_capacity(engine)
        assert engine.reset_events == [("double", 200)]
        filled = filled_slots(engine)
        sizes = engine.block_sizes()
        assert_even(sizes[:filled])
        assert not any(sizes[filled:])

    def regrow_without_moves(self, engine, rng, monkeypatch):
        """Insert at uniform random positions up to 2·n0 - 1, checking that
        no insert moves a boundary or overfills a block."""
        n0 = engine.n0
        moves = count_moves(monkeypatch)
        while len(engine) < 2 * n0 - 1:
            engine.insert(rng.randint(0, len(engine)), rng.randrange(26))
            assert moves == []
            assert_within_capacity(engine)
        monkeypatch.undo()
        assert engine.n0 == n0
        report = engine.audit()
        assert report.ok, report.message

    def test_inserts_after_a_doubling_make_no_boundary_move(self, monkeypatch):
        for alpha in [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]:
            engine = RangeModeEngine(range(512), Config(alpha=alpha))
            rng = random.Random(7)
            while not engine.reset_events:
                engine.insert(rng.randint(0, len(engine)), rng.randrange(26))
                assert_within_capacity(engine)
            assert engine.n0 == 1024
            self.regrow_without_moves(engine, rng, monkeypatch)

    def test_inserts_after_a_halving_make_no_boundary_move(self, monkeypatch):
        for alpha in [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]:
            engine = RangeModeEngine(range(2048), Config(alpha=alpha))
            rng = random.Random(9)
            while not engine.reset_events:
                engine.delete(rng.randrange(len(engine)))
                assert_within_capacity(engine)
            assert engine.reset_events == [("halve", 1024)]
            self.regrow_without_moves(engine, rng, monkeypatch)


class TestRegrowth:
    """A sequence that regrows to just below its doubling fits the filled
    slots with few boundary moves, after construction and after a halving."""

    def grow(self, engine, rng, monkeypatch):
        """Insert at uniform random positions up to 2·n0 − 2; the boundary moves made."""
        n0 = engine.n0
        moves = count_moves(monkeypatch)
        while len(engine) < 2 * n0 - 2:
            engine.insert(rng.randint(0, len(engine)), rng.randrange(26))
        monkeypatch.undo()
        assert engine.n0 == n0 and engine.audit().ok
        return len(moves)

    def test_regrowth_makes_few_boundary_moves(self, monkeypatch):
        rng = random.Random(3)
        engine = RangeModeEngine([rng.randrange(26) for _ in range(1024)])
        assert self.grow(engine, rng, monkeypatch) <= 400
        while engine.n0 == 1024:  # double to n0 = 2048, then halve back to 1024
            engine.insert(rng.randint(0, len(engine)), rng.randrange(26))
        while engine.n0 != 1024:
            engine.delete(rng.randrange(len(engine)))
        assert [kind for kind, _ in engine.reset_events] == ["double", "halve"]
        assert self.grow(engine, rng, monkeypatch) <= 400


class TestResets:
    def test_no_reset_strictly_inside_window(self):
        engine = RangeModeEngine(range(64))
        rng = random.Random(4)
        for _ in range(600):
            if len(engine) <= 50 or (len(engine) < 90 and rng.random() < 0.5):
                engine.insert(rng.randint(0, len(engine)), rng.randrange(4))
            else:
                engine.delete(rng.randrange(len(engine)))
            assert_within_capacity(engine)
        assert engine.reset_events == []
        assert engine.audit().ok

    def test_doubling_resets_walk_up(self):
        engine = RangeModeEngine()
        for k in range(70):
            engine.insert(len(engine), k % 3)
            assert_within_capacity(engine)
        kinds = [kind for kind, _ in engine.reset_events]
        assert "double" in kinds
        lengths = [length for kind, length in engine.reset_events if kind == "double"]
        assert lengths == [2, 4, 8, 16, 32, 64]

    def test_halving_resets_walk_down(self):
        engine = RangeModeEngine(range(64))
        while len(engine):
            engine.delete(len(engine) - 1)
            assert_within_capacity(engine)
        halvings = [length for kind, length in engine.reset_events if kind == "halve"]
        assert halvings[:4] == [32, 16, 8, 4]

    def test_failed_rebuild_changes_nothing(self, monkeypatch):
        engine = RangeModeEngine(range(64))
        while len(engine) > 33:
            engine.delete(0)
        monkeypatch.setattr(engine_module, "check_table_fits", refuse)
        with pytest.raises(MemoryError):
            engine.delete(0)  # the length would halve to 32, but the new layout does not fit
        assert len(engine) == 33 and engine.n0 == 64 and engine.reset_events == []
        assert engine.to_list() == list(range(31, 64)) and engine.audit().ok
        monkeypatch.undo()
        assert engine.delete(0) == 31
        assert engine.reset_events == [("halve", 32)] and engine.n0 == 32
        assert engine.to_list() == list(range(32, 64)) and engine.audit().ok

        while len(engine) < 63:
            engine.insert(len(engine), 7)
        monkeypatch.setattr(engine_module, "check_table_fits", refuse)
        with pytest.raises(MemoryError):
            engine.insert(0, 5)  # the length would double to 64
        assert len(engine) == 63 and engine.n0 == 32 and engine.reset_events == [("halve", 32)]
        assert engine.audit().ok
        monkeypatch.undo()
        engine.insert(0, 5)
        assert engine.reset_events == [("halve", 32), ("double", 64)] and engine.n0 == 64
        assert engine.to_list() == [5, *range(32, 64), *[7] * 31] and engine.audit().ok

    def test_front_inserts_double_within_capacity(self):
        # Every insert at the front joins block 0: one that finds it full
        # rebuilds the layout, and one that doubles the length too.
        engine = RangeModeEngine()
        for k in range(40):
            n0, resets = engine.n0, list(engine.reset_events)
            full = engine.block_sizes()[0] == engine.capacity
            engine.insert(0, k % 2)
            assert_within_capacity(engine)
            if len(engine) == 2 * n0:
                assert engine.reset_events == [*resets, ("double", len(engine))]
            elif full:
                assert engine.reset_events == [*resets, ("overflow", len(engine))]
            else:
                assert engine.reset_events == resets
        doublings = [("double", 2 ** k) for k in range(1, 5)]
        assert engine.reset_events == [*doublings, ("overflow", 27)]
        assert engine.to_list() == [1, 0] * 20 and engine.audit().ok

    # A layout; the position and symbol of the insert that rebuilds it, the
    # position and None of such a delete, or the positions and None of such
    # a relocation; the reset; and the symbols the op adds to the alphabet
    # or drops from it.
    REBUILDS = {
        # n0 = 32, one short of the doubling, the columns of 5 and 15 out of order.
        "doubling insert of a present symbol": (
            lambda: scrambled([40, 10, 30, 20] * 8, 10, [5, 35, 15], 63), 17, 30, "double", set(),
        ),
        "doubling insert of a new symbol": (
            lambda: scrambled([40, 10, 30, 20] * 8, 10, [5, 35, 15], 63), 17, 25, "double", {25},
        ),
        # n0 = 32 at length 60, blocks 0 and 1 packed to the capacity of 24.
        "overflow insert": (
            lambda: pack_front(scrambled([40, 10, 30, 20] * 8, 10, [5, 35, 15], 60)),
            17, 30, "overflow", set(),
        ),
        "overflow relocation": (
            lambda: pack_front(scrambled([40, 10, 30, 20] * 8, 10, [5, 35, 15], 60)),
            (59, 17), None, "overflow", set(),
        ),
        # n0 = 65, one above the halving: the delete takes the one copy of 7.
        "halving delete of a last copy": (
            lambda: scrambled([7] + [40, 10, 30, 20] * 16, 10, [35, 5], 33), 1, None, "halve", {7},
        ),
        # 256 columns of one-byte ids, the freed column of 0 taken by 300:
        # the 257th symbol rebuilds with four-byte ids.
        '"ids" insert': (
            lambda: scrambled(list(range(256)) * 2, 0, [300], 512), 100, 1000, "ids", {1000},
        ),
        # 300 symbols past 32 bits, four-byte ids before and after.
        "doubling insert of symbols past 32 bits": (
            lambda: scrambled([BIG + 3 * k for k in range(300)], BIG, [BIG + 1, BIG - 1], 599),
            250, BIG + 2, "double", {BIG + 2},
        ),
    }

    @pytest.mark.parametrize("chunk", [128, 2])
    @pytest.mark.parametrize("case", REBUILDS)
    def test_a_rebuild_equals_a_fresh_build(self, monkeypatch, case, chunk):
        monkeypatch.setattr(charseq, "CHUNK", chunk)
        build, pos, symbol, kind, change = self.REBUILDS[case]
        engine = build()
        flat, before = engine.to_list(), set(engine._seq.column)
        assert engine._seq.symbol != sorted(before)  # the columns are out of order
        if type(pos) is tuple:
            src, dst = pos
            assert engine.relocate(src, dst) == flat[src]
            flat.insert(dst, flat.pop(src))
        elif symbol is None:
            assert engine.delete(pos) == flat.pop(pos)
        else:
            engine.insert(pos, symbol)
            flat.insert(pos, symbol)
        assert [reset for reset, _ in engine.reset_events] == [kind]
        assert set(engine._seq.column) ^ before == change
        assert stored_layout(engine) == stored_layout(RangeModeEngine(flat))
        assert engine.audit().ok


class TestFailedOps:
    """An op that raises where it can fail for lack of memory changes nothing."""

    def engine_at(self, length):
        rng = random.Random(length)
        engine = RangeModeEngine([rng.randrange(6) for _ in range(64)])
        while len(engine) > length:
            engine.delete(rng.randrange(len(engine)))
        while len(engine) < length:
            engine.insert(rng.randint(0, len(engine)), rng.randrange(6))
        return engine

    def check_unchanged_then_fuzz(self, engine, monkeypatch, op):
        before = snapshot(engine)
        with pytest.raises((MemoryError, ValueError)):
            op(engine)
        assert snapshot(engine) == before
        monkeypatch.undo()
        assert engine.audit().ok
        oracle = NaiveSeq(engine.to_list())
        rng = random.Random(5)
        for _ in range(50):
            n = len(oracle)
            roll = rng.random()
            if n == 0 or roll < 0.4:
                pos, symbol = rng.randint(0, n), rng.randrange(8)
                engine.insert(pos, symbol)
                oracle.insert_at(pos, symbol)
            elif roll < 0.7:
                pos = rng.randrange(n)
                assert engine.delete(pos) == oracle.delete_at(pos)
            else:
                lo = rng.randrange(n)
                hi = rng.randint(lo, n - 1)
                assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert engine.to_list() == oracle.to_list() and engine.audit().ok

    @pytest.mark.parametrize("site", FAULTS)
    def test_doubling_insert(self, monkeypatch, site):
        engine = self.engine_at(127)
        FAULTS[site](monkeypatch)
        self.check_unchanged_then_fuzz(engine, monkeypatch, lambda e: e.insert(50, 9))

    @pytest.mark.parametrize("site", FAULTS)
    def test_halving_delete(self, monkeypatch, site):
        engine = self.engine_at(33)
        FAULTS[site](monkeypatch)
        self.check_unchanged_then_fuzz(engine, monkeypatch, lambda e: e.delete(20))

    @pytest.mark.parametrize("site", WIDEN_FAULTS)
    def test_new_symbol_insert(self, monkeypatch, site):
        engine = self.engine_at(80)
        assert engine._table._width == engine.sigma_prime == 6  # no column to spare
        WIDEN_FAULTS[site](monkeypatch)
        self.check_unchanged_then_fuzz(engine, monkeypatch, lambda e: e.insert(50, 99))

    @pytest.mark.parametrize("free", [False, True], ids=["appended", "free"])
    def test_a_failed_summary_add_frees_a_new_symbols_column(self, monkeypatch, free):
        # The summary add of a new symbol's insert raises, the symbol due to
        # take column 3, past the others, which widens the table, or from the
        # free list, where the delete of the only 4 put it.  The add is
        # computed before any store, so the op hands out no column: the
        # column map, both ways, the free list and the width are as they
        # were, and the next insert of the symbol takes column 3.
        engine = RangeModeEngine([1, 2, 3] * 10 + [4] * free)
        if free:
            engine.delete(30)
        table, before = engine._table, snapshot(engine)
        EDIT_FAULTS["slice compute"](monkeypatch)
        with pytest.raises(MemoryError):
            engine.insert(4, 99)
        assert snapshot(engine) == before and engine.audit().ok
        assert 99 not in engine._seq.column and engine.sigma_prime == 3
        assert (table._free, table._width) == (([3], 4) if free else ([], 3))
        monkeypatch.undo()
        engine.insert(4, 99)
        assert engine.to_list()[4] == 99 and engine._seq.column[99] == 3
        assert engine.sigma_prime == 4 and engine.audit().ok

    def test_no_edit_recounts(self, monkeypatch):
        # S = 2: inserts, deletes, relocations inside and across blocks and
        # boundary moves append and drop words all the time, and none of
        # them counts a chunk afresh.
        monkeypatch.setattr(charseq, "CHUNK", 2)
        rng = random.Random(8)
        engine = RangeModeEngine([rng.randrange(5) for _ in range(300)])
        oracle = NaiveSeq(engine.to_list())
        chunk_word = charseq.chunk_word
        monkeypatch.setattr(charseq, "chunk_word", refuse)
        for _ in range(300):
            n = len(oracle)
            roll = rng.random()
            if roll < 0.3:
                pos, symbol = rng.randint(0, n), rng.randrange(7)
                engine.insert(pos, symbol)
                oracle.insert_at(pos, symbol)
            elif roll < 0.6:
                pos = rng.randrange(n)
                assert engine.delete(pos) == oracle.delete_at(pos)
            elif roll < 0.9:
                src, dst = rng.randrange(n), rng.randrange(n)
                assert engine.relocate(src, dst) == oracle.relocate(src, dst)
            else:
                i = rng.randrange(1, len(engine.block_sizes()))
                if engine.block_sizes()[i] and engine.block_sizes()[i - 1] < engine.capacity:
                    engine.move_left(i)
        monkeypatch.setattr(charseq, "chunk_word", chunk_word)
        assert engine.to_list() == oracle.to_list() and engine.audit().ok

    @pytest.mark.parametrize("site", FAULTS)
    @pytest.mark.parametrize("op", ["insert", "relocate"])
    def test_a_failed_overflow_rebuild_changes_nothing(self, monkeypatch, op, site):
        # S = 2, so the layout keeps many words.  Block 0 holds capacity, and
        # an insert of a new symbol there, or a relocation from the last
        # block, rebuilds the layout; a failed rebuild claims no column.
        monkeypatch.setattr(charseq, "CHUNK", 2)
        engine = pack_front(self.engine_at(60))
        assert engine.block_sizes()[:3] == [48, 12, 0]
        free, width = list(engine._table._free), engine._table._width
        if op == "insert":
            run = lambda e: e.insert(5, 9)  # a new symbol
        else:
            run = lambda e: e.relocate(len(e) - 1, 5)
        with monkeypatch.context() as mp:
            FAULTS[site](mp)
            before = snapshot(engine)
            with pytest.raises((MemoryError, ValueError)):
                run(engine)
            assert snapshot(engine) == before
            assert (engine._table._free, engine._table._width) == (free, width)
        assert engine.audit().ok
        oracle = NaiveSeq(engine.to_list())
        if op == "insert":
            oracle.insert_at(5, 9)
        else:
            oracle.insert_at(5, oracle.delete_at(len(oracle) - 1))
        run(engine)
        assert engine.reset_events == [("overflow", 60 + (op == "insert"))]
        assert engine.to_list() == oracle.to_list() and engine.audit().ok


class TestAudit:
    def test_fresh_engine_passes(self):
        assert RangeModeEngine([1, 2, 3]).audit().ok

    def test_after_random_ops(self):
        rng = random.Random(11)
        engine = RangeModeEngine()
        for _ in range(400):
            n = len(engine)
            if n == 0 or rng.random() < 0.6:
                engine.insert(rng.randint(0, n), rng.randrange(6))
            else:
                engine.delete(rng.randrange(n))
        assert engine.audit().ok

    def test_detects_corrupted_cell(self):
        engine = RangeModeEngine([1, 2, 3, 4, 5])
        table = engine._table
        col, claim = table.claim_column(7)
        # No element counted in: the edit changes no block.
        table.store(table.apply_point(0, col, 1, None, claim), None, None, None, None, col)
        report = engine.audit()
        assert not report.ok
        assert "cell" in report.message

    # 8000 elements fill 20 blocks of 400: each four chunks, three of 128
    # and one of 16, and five words.

    def test_detects_corrupted_chunk_word(self):
        # The running word after chunk 1 counts one more of the symbol in
        # column 0, so chunk 1 reads one too many and chunk 2 one too few.
        engine = RangeModeEngine([k % 5 for k in range(8000)])
        seq = engine._seq
        sums = words(seq, 4)
        assert engine.block_sizes()[4] == 400 and len(sums) == 5
        assert engine.audit().ok
        sums[2][0] += 1
        set_words(seq, 4, sums)
        report = engine.audit()
        assert not report.ok
        assert report.message == "count word of chunk 1 of block 4 disagrees with a recount"

    def test_detects_chunk_words_not_from_0(self):
        # Every difference still agrees with a recount of its chunk.
        engine = RangeModeEngine([k % 5 for k in range(8000)])
        seq = engine._seq
        set_words(seq, 4, [[counts[0] + 1, *counts[1:]] for counts in words(seq, 4)])
        assert engine._seq.chunk_fault() == "the count words of block 4 do not start at 0"
        assert engine.audit().message == "the count words of block 4 do not start at 0"

    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, -1)], ids=["first", "last"])
    def test_detects_a_chunk_word_missing(self, cut):
        engine = RangeModeEngine([k % 5 for k in range(8000)])
        seq = engine._seq
        set_words(seq, 4, words(seq, 4)[cut])
        report = engine.audit()
        assert not report.ok
        assert report.message == "block 4 of 400 elements has 4 count words, not 5"

    def test_detects_a_chunk_word_too_many(self):
        # A word list one longer than the block's chunks, as if a delete that
        # took the length to a multiple of S had not dropped its last word.
        engine = RangeModeEngine([k % 5 for k in range(8000)])
        seq = engine._seq
        sums = words(seq, 4)
        set_words(seq, 4, [*sums, sums[-1]])
        assert engine.audit().message == "block 4 of 400 elements has 6 count words, not 5"

    def test_detects_a_block_of_the_wrong_type(self):
        engine = RangeModeEngine([1, 2, 3])
        blocks = engine._seq.blocks
        blocks[0] = array("I", blocks[0])  # three columns take 'B' ids
        assert engine.audit() == AuditReport(False, "block 0 holds 'I' ids, not 'B' for 3 columns")

    def test_detects_column_id_past_the_width(self):
        engine = RangeModeEngine([1, 2, 3])
        engine._seq.blocks[0][0] = 3  # three columns, 0..2, are handed out
        report = engine.audit()
        assert not report.ok
        assert report.message == "block 0 holds column id 3, past the width 3"

    def test_detects_stale_symbol_column(self):
        engine = RangeModeEngine([1, 2, 3, 4, 5])
        table = engine._table
        col, claim = table.claim_column(9)
        fields, _, *state = table.apply_point(0, col, 1, None, claim)
        # The claim, with a run that adds nothing and an edit that changes no block.
        table.store((fields, fields, *state), None, None, None, None, col)
        assert engine._seq.column[9] == col and table.copies(col) == 0
        report = engine.audit()
        assert not report.ok
        assert "distinct symbols" in report.message

    def test_detects_partition_drift(self):
        engine = RangeModeEngine([1, 2, 3])
        assert ends(engine._seq)[:2] == [2, 3]
        set_end(engine._seq, 0, 3)
        assert engine.audit() == AuditReport(False, "block 0 ends at 3, but blocks 0..0 hold 2")

    @pytest.mark.parametrize("slot", [3, 7, -1], ids=["filled", "empty", "last"])
    def test_reports_the_first_stale_block_end(self, slot):
        # Blocks 0..5 hold 5 elements each and the rest none.  One end is
        # off by one and every end after it by two: the audit names the first.
        engine = RangeModeEngine(range(30), Config(alpha=Fraction(1, 2)))
        seq = engine._seq
        good = list(ends(seq))
        slots = slot_count(30, Fraction(1, 2))
        assert good == [5, 10, 15, 20, 25] + [30] * (slots - 5) and 7 < slots - 1
        slot %= slots
        for k in range(slot, len(good)):
            set_end(seq, k, good[k] + (1 if k == slot else 2))
        end = good[slot]
        message = f"block {slot} ends at {end + 1}, but blocks 0..{slot} hold {end}"
        assert engine.audit() == AuditReport(False, message)

    def test_detects_symbol_added_to_a_block_list(self):
        engine = RangeModeEngine([1, 2, 3])
        engine._seq.blocks[0].append(2)  # bypass the block sizes and the table
        assert not engine.audit().ok

    def test_detects_block_list_disagreeing_with_its_size(self):
        engine = packed_first([1, 2, 3])
        blocks = engine._seq.blocks
        blocks[1].append(blocks[0].pop())  # same total, sizes no longer match
        report = engine.audit()
        assert not report.ok
        assert report.message == "block 0 ends at 3, but blocks 0..0 hold 2"

    def test_reports_block_over_capacity(self, monkeypatch):
        engine = RangeModeEngine(range(100))
        cap = engine.capacity
        while engine.block_sizes()[0] < cap:
            engine.insert(0, 7)
        assert engine.audit().ok
        # Block 0 takes the insert, full or not: the layout is not rebuilt.
        ignore_capacity(monkeypatch)
        engine.insert(0, 7)
        assert engine.audit() == AuditReport(False, f"block 0 holds {cap + 1}, outside [0, {cap}]")


class TestColumnStorage:
    """Each block is an array of column ids in the narrowest unsigned type
    that holds every column handed out, whatever the symbols."""

    @pytest.mark.parametrize("shift", [0, 40], ids=["small", "past-2^32"])
    def test_build_makes_no_copy_of_its_input(self, shift):
        # The build reads the caller's list block by block, so nothing of N
        # items outlives a block beside the engine; a copy of the list
        # alone would take 8·N bytes.  Symbols past 2^32 take the same
        # path as small ones.
        n = 1 << 16
        rng = random.Random(16)
        symbols = [rng.randrange(26) << shift for _ in range(n)]
        tracemalloc.start()
        try:
            engine = RangeModeEngine(symbols)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - size < n
        assert engine.to_list() == symbols and engine.audit().ok

    def test_symbol_size_does_not_reach_the_blocks(self):
        # Ids 2^32, 2^63 and MAX_SYMBOL among small ones, through inserts,
        # deletes, relocations inside one block and across blocks, one
        # doubling and one halving.
        alphabet = [1 << 32, 1 << 63, MAX_SYMBOL, 0, 1, 2, 5]
        rng = random.Random(23)
        initial = [rng.choice(alphabet) for _ in range(200)]
        engine, oracle = RangeModeEngine(initial), NaiveSeq(initial)
        paths = Counter()
        for grow in (True, False):
            kind = "double" if grow else "halve"
            while kind not in dict(engine.reset_events):
                n, roll = len(oracle), rng.random()
                if roll < 0.5 and (roll < 0.35) == grow:  # edits lean to the phase's way
                    pos, symbol = rng.randint(0, n), rng.choice(alphabet)
                    engine.insert(pos, symbol)
                    oracle.insert_at(pos, symbol)
                elif roll < 0.5:
                    pos = rng.randrange(n)
                    assert engine.delete(pos) == oracle.delete_at(pos)
                elif roll < 0.8:
                    src, dst = rng.randrange(n), rng.randrange(n)
                    seq = engine._seq
                    at = dst if dst <= src else dst + 1
                    paths[seq.locate(src)[0] == seq.insert_place(at)[0]] += 1
                    symbol = oracle.delete_at(src)
                    oracle.insert_at(dst, symbol)
                    assert engine.relocate(src, dst) == symbol
                else:
                    lo = rng.randrange(n)
                    hi = rng.randint(lo, n - 1)
                    assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert [kind for kind, _ in engine.reset_events] == ["double", "halve"]
        assert paths[True] and paths[False]  # both relocation paths
        assert engine.to_list() == oracle.to_list() and engine.audit().ok
        assert set(engine.to_list()) == set(alphabet) and engine.sigma_prime == 7
        assert all(code == "B" for code in typecodes(engine))  # 7 columns

    def test_a_257th_symbol_rewrites_every_block_as_four_byte_ids(self):
        # 256 symbols fill the one-byte ids.  The 257th, column 256, comes
        # in by an insert, which rebuilds the layout with every block as
        # 'I'; relocations then move it across blocks and inside one, among
        # random edits and queries.
        rng = random.Random(257)
        initial = list(range(256)) * 4
        rng.shuffle(initial)
        engine, oracle = RangeModeEngine(initial), NaiveSeq(initial)
        assert set(typecodes(engine)) == {"B"}
        engine.insert(500, 1000)
        oracle.insert_at(500, 1000)
        assert set(typecodes(engine)) == {"I"} and engine.reset_events == [("ids", 1025)]
        assert engine._seq.column[1000] == 256 and engine.audit().ok
        paths = Counter()
        for step in range(600):
            n = len(oracle)
            seq = engine._seq
            src = oracle.to_list().index(1000) if step % 3 == 0 else rng.randrange(n)
            dst = rng.randrange(n)
            roll = rng.random()
            if roll < 0.6:
                at = dst if dst <= src else dst + 1
                paths[seq.locate(src)[0] == seq.insert_place(at)[0]] += 1
                symbol = oracle.delete_at(src)
                oracle.insert_at(dst, symbol)
                assert engine.relocate(src, dst) == symbol
            elif roll < 0.8:
                symbol = rng.choice([1000, rng.randrange(256)])
                engine.insert(dst, symbol)
                oracle.insert_at(dst, symbol)
            else:
                lo, hi = sorted((src, dst))
                assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert paths[True] and paths[False]  # both relocation paths
        assert engine.to_list() == oracle.to_list() and engine.audit().ok
        assert engine.modes(0, len(oracle) - 1) == oracle.modes(0, len(oracle) - 1)
        assert set(typecodes(engine)) == {"I"} and len(engine.reset_events) == 1

    def test_column_256_rebuilds_the_layout_and_a_free_column_is_reused(self):
        # A symbol that would take column 256 of one-byte ids rebuilds the
        # layout, as a doubling does: one reset of kind "ids", at the new
        # length, which becomes n0, and every block 'I'.
        initial = [(k * 7) % 256 for k in range(768)]
        engine, oracle = RangeModeEngine(initial), NaiveSeq(initial)
        for pos, symbol in [(100, 5), (300, 1000), (0, 1001)]:
            engine.insert(pos, symbol)
            oracle.insert_at(pos, symbol)
        assert engine.reset_events == [("ids", 770)] and engine.n0 == 770
        assert set(typecodes(engine)) == {"I"} and engine.sigma_prime == 258
        assert engine.to_list() == oracle.to_list() and engine.audit().ok
        for lo in range(0, 672, 7):
            assert engine.modes(lo, lo + 99) == oracle.modes(lo, lo + 99)
        # With one symbol's every copy deleted, its column is free: the
        # 257th symbol takes it, with no rebuild, and the blocks stay 'B'.
        engine = RangeModeEngine(initial)
        for pos in reversed(range(3, 768, 256)):  # the copies of symbol 21
            engine.delete(pos)
        assert engine.sigma_prime == 255 and engine._table._free == [21]
        engine.insert(100, 1000)
        assert engine._seq.column[1000] == 21 and not engine._table._free
        assert engine.reset_events == [] and set(typecodes(engine)) == {"B"}
        assert engine.audit().ok

    @pytest.mark.parametrize("fault", ["guard", "copy"])
    def test_a_failed_rewrite_changes_nothing(self, monkeypatch, fault):
        # Column 256 needs the layout rebuilt with 'I' blocks.  The guard
        # refuses the 'I' arrays before any is written; or the tenth block
        # array of the build raises, after nine are built.  The old layout
        # stands, its 'B' blocks and its table, and nothing was widened.
        engine = RangeModeEngine(list(range(256)) * 2)
        seq, table = engine._seq, engine._table
        assert table._width == 256
        before = snapshot(engine)
        if fault == "guard":
            fits = engine_module.check_table_fits

            def refuse_i(*args):
                if args[-1] == "I":
                    raise MemoryError("refused")
                fits(*args)

            monkeypatch.setattr(engine_module, "check_table_fits", refuse_i)
        else:
            real, built = charseq.array, []

            def fail_tenth(code, *init):
                if code == "I" and not isinstance(init[0], bytes):  # a block, not a recount
                    built.append(code)
                    if len(built) == 10:
                        raise MemoryError("refused")
                return real(code, *init)

            monkeypatch.setattr(charseq, "array", fail_tenth)
        with pytest.raises(MemoryError):
            engine.insert(7, 256)
        assert snapshot(engine) == before and engine.audit().ok
        assert engine._seq is seq and engine._table is table and table._width == 256
        assert before["typecodes"] == ["B"] * len(before["typecodes"])
        monkeypatch.undo()
        engine.insert(7, 256)
        assert set(typecodes(engine)) == {"I"} and engine.reset_events == [("ids", 513)]
        assert engine.sigma_prime == 257 and engine.audit().ok

    @pytest.mark.parametrize("full", [False, True], ids=["insert", "overflow"])
    def test_a_failed_insert_at_column_256_changes_nothing(self, monkeypatch, full):
        # Column 256 rebuilds the layout with 'I' blocks.  The next new
        # symbol would claim column 257, which widens the table, and then its
        # array insert fails, with the column and the widening computed but
        # neither stored.  Or it goes into a full block 0, and the overflow
        # rebuild fails before any column is claimed.  Either way the next
        # insert of the symbol takes column 257.
        engine = RangeModeEngine(list(range(256)) * 2)
        engine.insert(0, 256)
        assert engine.reset_events == [("ids", 513)] and set(typecodes(engine)) == {"I"}
        if full:
            assert engine.capacity == 171
            lay_out(engine, [171, 0] + [57] * 6)
        seq, table = engine._seq, engine._table
        before, blocks, width = snapshot(engine), seq.blocks, table._width
        with monkeypatch.context() as mp:
            if full:
                FAULTS["CharSeq.__init__"](mp)
            else:
                EDIT_FAULTS["array insert"](mp)
            with pytest.raises(MemoryError):
                engine.insert(7, 1000)
        assert snapshot(engine) == before and engine.audit().ok
        assert seq.blocks is blocks and engine.sigma_prime == 257
        assert (table._free, table._width) == ([], width)
        engine.insert(7, 1000)
        assert engine.to_list()[7] == 1000
        assert engine.reset_events[1:] == ([("overflow", 514)] if full else [])
        assert engine._seq.column[1000] == 257 and not engine._table._free
        assert engine.sigma_prime == 258 and engine.audit().ok

    def test_a_halving_under_257_columns_rebuilds_one_byte_ids(self):
        # 300 symbols take 'I' ids.  Deleting every copy of 299 of them frees
        # their columns, but the columns handed out stay 300, and so do the
        # 'I' arrays; the halving rebuilds from the one symbol left.
        initial = list(range(300)) + [0] * 900
        engine = RangeModeEngine(initial)
        assert set(typecodes(engine)) == {"I"}
        for _ in range(299):
            engine.delete(1)
        assert engine.sigma_prime == 1 and not engine.reset_events
        assert set(typecodes(engine)) == {"I"}
        while not engine.reset_events:
            engine.delete(0)
        assert engine.reset_events == [("halve", 600)]
        assert set(typecodes(engine)) == {"B"}
        assert engine.to_list() == [0] * 600 and engine.audit().ok


class TestMemoryGuard:
    @pytest.mark.parametrize(
        "sigma, code, alpha",
        [(26, "B", Fraction(1, 3)), (300, "I", Fraction(1, 3)), (26, "B", Fraction(1, 8))],
    )
    def test_arrays_held_stay_within_their_price(self, sigma, code, alpha):
        # An array insert leaves spare room, which the guard prices from
        # a measurement of arrays up to 4 096 items.  An engine of n0 = 2^14
        # grows by random inserts to 2·n0 - 1 elements, the most before its
        # doubling; its arrays, with their headers and list slots, then take
        # more than their ids alone but no more than the price of the 2·n0
        # ids the guard counts.  At alpha = 1/8 the engine has 8 slots, and
        # its blocks grow past the measured 4 096 items.
        rng = random.Random(sigma)
        n0 = 1 << 14
        engine = RangeModeEngine([rng.randrange(sigma) for _ in range(n0)], Config(alpha=alpha))
        while len(engine) < 2 * n0 - 1:
            engine.insert(rng.randint(0, len(engine)), rng.randrange(sigma))
        seq, (bound, room, _) = engine._seq, engine._table._guard
        slots, itemsize = len(seq.blocks), array(code).itemsize
        assert engine.n0 == n0 and room == 2 * n0 and engine.sigma_prime == sigma
        assert set(typecodes(engine)) == {code}
        if alpha == Fraction(1, 8):
            assert max(engine.block_sizes()) > 4096
        held = held_bytes(engine)["arrays"]
        heads = slots * (sys.getsizeof(array(code)) + SLOT)
        price = priced_bytes(slots, sigma, bound, room, code)["arrays"]
        assert itemsize * len(engine) + heads < held <= price

    @pytest.mark.parametrize("n, sigma, code", [(1, 1, "B"), (5000, 26, "B"), (5000, 300, "I")])
    def test_a_fresh_build_sizes_each_block_exactly(self, n, sigma, code):
        # A freshly built block holds its ids and no spare room: one-byte
        # ids are copied out of the array that frombytes over-allocates,
        # four-byte ids come from a tuple of known length.
        rng = random.Random(n)
        engine = RangeModeEngine([rng.randrange(sigma) for _ in range(n)])
        assert set(typecodes(engine)) == {code}
        empty, itemsize = sys.getsizeof(array(code)), array(code).itemsize
        assert [sys.getsizeof(block) for block in engine._seq.blocks] == [
            empty + itemsize * size for size in engine.block_sizes()
        ]

    def test_oversized_table_is_refused_before_allocating(self):
        # RangeModeEngine(range(1 << 17)) would need gigabytes of counts for
        # its table alone, L(L+1)/2 cells of 2^17 columns for its L slots,
        # and 2·2^17/128 + L chunk words of that width beside it.  The build
        # prices both before it counts a chunk.
        pytest.importorskip("resource")
        code = textwrap.dedent(
            """
            import resource, time
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
            from rangemodes import RangeModeEngine
            start = time.perf_counter()
            try:
                RangeModeEngine(range(1 << 17))
            except MemoryError as exc:
                print(time.perf_counter() - start, exc)
            """
        )
        src = str(Path(engine_module.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert child.returncode == 0, child.stderr
        seconds, message = child.stdout.split(" ", 1)
        assert float(seconds) < 1.0
        # The L(L+1)/2 cells of 2^17 fields, the L offset words and the
        # 2·2^17/128 + L running chunk words, ints of 2^17 fields, and the
        # edit masks of all L slots, L·(L² + 2)/3 fields, far under the
        # table's own count; each of those ints also has a header and a
        # list slot, and each of the L word lists a header, a list slot
        # and a list slot for the 0 that leads it.  The L blocks are 'I'
        # arrays, as 2^17 columns are past 256, priced for the 2·2^17
        # column ids they hold before the next rebuild.
        slots = slot_count(1 << 17)
        parts = priced_bytes(slots, 1 << 17, 2 * (1 << 17) // 128 + slots, 2 * (1 << 17), "I")
        assert parts["table"] > 1 << 30
        assert f"needs {sum(parts.values())} bytes" in message

    @pytest.mark.parametrize("refusal", ["fields", "guard"])
    def test_a_layout_is_refused_before_the_sequence_is_built(self, monkeypatch, refusal):
        # The field bound and the memory guard judge the layout's shape, so
        # a sequence that cannot be built is never asked for: its own
        # refusal is not the one raised.
        FAULTS["CharSeq.__init__"](monkeypatch)
        if refusal == "fields":
            monkeypatch.setattr(engine_module, "MAX_COUNT", 7)
            with pytest.raises(ValueError, match="summary fields up to 9 exceed 7"):
                RangeModeEngine(range(3))
        else:
            monkeypatch.setattr(multiset, "_memory_limit", lambda: 1000)
            with pytest.raises(MemoryError, match=r"needs \d+ bytes, more than the 1000"):
                RangeModeEngine(range(3))

    def test_chunk_words_count_against_the_limit(self, monkeypatch):
        # The running words of S = 128 chunks are up to 2N/S + L ints of σ'
        # fields after the 0 that leads each block's list, beside the cells,
        # the L offset words and the L edit masks, L(L² + 2)/3 fields at
        # most cells·σ'; every int also has a header and a list slot, and
        # each word list a header, a list slot and a list slot for its
        # leading 0.  The L blocks are 'B' arrays of up to 2N column ids.
        symbols = [k % 40 for k in range(3000)]
        slots = len(RangeModeEngine(symbols).block_sizes())
        parts = priced_bytes(slots, 40, 2 * len(symbols) // 128 + slots, 2 * len(symbols), "B")
        word_bytes = parts["words"]
        table_bytes = sum(parts.values()) - word_bytes
        monkeypatch.setattr(multiset, "_memory_limit", lambda: table_bytes)
        with pytest.raises(MemoryError, match=f"needs {table_bytes + word_bytes} bytes"):
            RangeModeEngine(symbols)
        monkeypatch.setattr(multiset, "_memory_limit", lambda: table_bytes + word_bytes)
        engine = RangeModeEngine(symbols)
        assert engine.sigma_prime == 40 and engine.audit().ok

    @pytest.mark.parametrize("sigma", [1, 26, 256])
    def test_words_held_stay_within_the_word_bound(self, monkeypatch, sigma):
        # The guard prices word_bound(2·n0, L) words, ⌈c/S⌉ for a block of c summed
        # from the room the blocks have before the next rebuild, not from
        # the length.  S = 3 makes many chunks per block.  The length grows
        # from 600 past a doubling to 1500, then shrinks past a halving to
        # 500, with relocations among the edits.
        monkeypatch.setattr(charseq, "CHUNK", 3)
        rng = random.Random(sigma)
        engine = RangeModeEngine([rng.randrange(sigma) for _ in range(600)])
        for grow, until in [(0.8, lambda n: n >= 1500), (0.2, lambda n: n <= 500)]:
            while not until(len(engine)):
                n = len(engine)
                roll = rng.random()
                if roll < grow:
                    engine.insert(rng.randint(0, n), rng.randrange(sigma))
                elif roll < 0.9:
                    engine.delete(rng.randrange(n))
                else:
                    engine.relocate(rng.randrange(n), rng.randrange(n))
                seq = engine._seq
                held = sum(word_count(seq, k) - 1 for k in range(len(seq.blocks)))
                assert held <= engine._table._guard[0]
        assert [kind for kind, _ in engine.reset_events] == ["double", "halve"]
        assert engine.audit().ok

    def test_widening_past_the_limit_leaves_the_engine_unchanged(self, monkeypatch):
        engine = RangeModeEngine([1, 2, 3, 4, 1, 2])
        before = (engine.to_list(), engine.block_sizes(), engine.sigma_prime)
        table = engine._table
        monkeypatch.setattr(multiset, "_memory_limit", lambda: 4 * table.cell_count() * table._width)
        with pytest.raises(MemoryError):
            engine.insert(3, 9)  # a fifth symbol needs a wider table
        assert (engine.to_list(), engine.block_sizes(), engine.sigma_prime) == before
        assert engine.audit().ok
        assert engine.modes(0, 5) == ModesResult(2, (1, 2))
        monkeypatch.undo()
        engine.insert(3, 9)
        assert engine.to_list() == [1, 2, 3, 9, 4, 1, 2]
        assert engine.audit().ok

    def test_insert_whose_reset_would_not_fit_is_refused(self, monkeypatch):
        engine = RangeModeEngine([5] * 8)
        monkeypatch.setattr(multiset, "_memory_limit", lambda: 4 * engine._table.cell_count())
        for pos in range(7):
            engine.insert(pos, 5)
        before = (engine.to_list(), engine.block_sizes())
        with pytest.raises(MemoryError):
            engine.insert(0, 5)  # the length would double to 16: a rebuild for n0 = 16
        assert (engine.to_list(), engine.block_sizes()) == before
        assert engine.n0 == 8 and engine.reset_events == []
        assert engine.audit().ok
        monkeypatch.undo()
        engine.insert(0, 5)
        assert engine.n0 == 16 and engine.reset_events == [("double", 16)]
        assert engine.modes(0, 15) == ModesResult(16, (5,))


class TestEquivalence:
    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)])
    def test_oracle_equivalence_mini_fuzz(self, alpha):
        rng = random.Random(17)
        engine = RangeModeEngine((), Config(alpha=alpha))
        oracle = NaiveSeq()
        for step in range(1500):
            n = len(oracle)
            roll = rng.random()
            if n == 0 or (roll < 0.45 and n < 120):
                pos = rng.randint(0, n)
                sym = rng.randrange(5)
                engine.insert(pos, sym)
                oracle.insert_at(pos, sym)
                assert_within_capacity(engine)
            elif roll < 0.65:
                pos = rng.randrange(n)
                assert engine.delete(pos) == oracle.delete_at(pos)
                assert_within_capacity(engine)
            else:
                lo = rng.randrange(n)
                hi = rng.randint(lo, n - 1)
                assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert engine.audit().ok

    def test_sigma_prime_tracks_distinct_symbols(self):
        engine = RangeModeEngine([1, 1, 2, 5])
        assert engine.sigma_prime == 3
        engine.delete(3)
        assert engine.sigma_prime == 2

    def test_freed_symbol_column_is_reused(self):
        engine = RangeModeEngine([1, 2, 1, 3, 1, 4, 5, 6])
        for pos in (4, 2, 0):  # every copy of 1, without a halving reset
            assert engine.delete(pos) == 1
        assert engine.sigma_prime == 5
        engine.insert(1, 9)
        assert engine.sigma_prime == 6
        assert engine.audit().ok
        assert engine.modes(0, 5) == ModesResult(1, (2, 3, 4, 5, 6, 9))

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)]),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 4)), max_size=50),
    )
    def test_property_any_interleaving_matches_oracle(self, alpha, ops):
        engine = RangeModeEngine((), Config(alpha=alpha))
        oracle = NaiveSeq()
        for raw, sym in ops:
            n = len(oracle)
            action = raw % 5
            if n == 0 or action < 2:
                pos = raw % (n + 1)
                engine.insert(pos, sym)
                oracle.insert_at(pos, sym)
                assert_within_capacity(engine)
            elif action == 2:
                pos = raw % n
                assert engine.delete(pos) == oracle.delete_at(pos)
                assert_within_capacity(engine)
            else:
                lo = raw % n
                hi = lo + (raw // 7) % (n - lo)
                assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert engine.audit().ok
