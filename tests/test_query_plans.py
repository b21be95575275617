"""Which blocks a modes query reads from its summary cell, and which it counts.

Each partial end block of a query is counted on one side: "in" counts the
part inside the range and leaves the block out of the cell, "out" keeps the
block in the cell and subtracts the part outside.  These tests fix the block
layout by hand, record the cell and the counted ranges of each query, and
check the answer against :class:`NaiveSeq`.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from layout import lay_out
from rangemodes import CharSeq, Config, NaiveSeq, PairTable, RangeModeEngine, charseq

HALF = Config(alpha=Fraction(1, 2))

# 48 elements at alpha = 1/2: 17 slots of capacity 10, of which a rebuild
# fills slots 0..6.  Everything goes into the slots past those:
# block 7 = [0, 10), 8 = [10, 20), 9 empty, 10 = [20, 30), 11 = [30, 40),
# 12 = [40, 48).
SIZES = [0] * 7 + [10, 10, 0, 10, 10, 8] + [0] * 4


def laid_out(symbols, sizes=SIZES):
    engine = RangeModeEngine(symbols, HALF)
    lay_out(engine, sizes)
    assert engine.audit().ok
    return engine


@pytest.fixture
def plan(monkeypatch):
    """Record the cell read and the ranges counted by each query."""
    log = {"cells": [], "reads": [], "words": []}
    table_modes, access_range = PairTable.modes, CharSeq.access_range

    def modes(self, l, r, margin, minus=None, *words):
        if l is not None:  # a query that reads no cell passes its words alone
            log["cells"].append((l, r, Counter(margin), Counter(minus or {})))
        log["words"].append(words)
        return table_modes(self, l, r, margin, minus, *words)

    def read(self, lo, hi):
        log["reads"].append((lo, hi))
        return access_range(self, lo, hi)

    monkeypatch.setattr(PairTable, "modes", modes)
    monkeypatch.setattr(CharSeq, "access_range", read)

    def query(engine, lo, hi):
        for entries in log.values():
            entries.clear()
        assert engine.modes(lo, hi) == NaiveSeq(engine.to_list()).modes(lo, hi)
        cells = log["cells"]
        assert len(cells) <= 1
        return (cells[0] if cells else None), sorted(log["reads"])

    query.log = log
    return query


def two_symbols():
    rng = random.Random(5)
    return [rng.randrange(2) for _ in range(48)]


def counted(symbols, *ranges):
    return Counter(x for a, b in ranges for x in symbols[a:b])


class TestPlans:
    # With two symbols, "out" is taken when out + min(out, 6) < in: on a
    # block of 10, when at most 3 elements lie outside the range.  Every
    # block is one chunk, so no part of one holds a whole chunk.

    @pytest.fixture(autouse=True)
    def no_chunk_words(self, plan):
        yield
        assert not any(any(words) for words in plan.log["words"])

    def test_left_out(self, plan):
        symbols = two_symbols()
        engine = laid_out(symbols)
        cell, reads = plan(engine, 12, 39)
        assert cell == (8, 11, Counter(), counted(symbols, (10, 12)))
        assert reads == [(10, 11)]

    def test_right_out(self, plan):
        symbols = two_symbols()
        engine = laid_out(symbols)
        cell, reads = plan(engine, 20, 37)
        assert cell == (10, 11, Counter(), counted(symbols, (38, 40)))
        assert reads == [(38, 39)]

    def test_left_in_over_an_empty_block_right_out(self, plan):
        # Block 8 has 6 elements outside the range and 4 inside: "in", so the
        # cell starts at the empty block 9.
        symbols = two_symbols()
        engine = laid_out(symbols)
        cell, reads = plan(engine, 16, 37)
        assert cell == (9, 11, counted(symbols, (16, 20)), counted(symbols, (38, 40)))
        assert reads == [(16, 19), (38, 39)]

    def test_both_out_inside_one_block(self, plan):
        symbols = two_symbols()
        engine = laid_out(symbols)
        cell, reads = plan(engine, 31, 38)
        assert cell == (11, 11, Counter(), counted(symbols, (30, 31), (39, 40)))
        assert reads == [(30, 30), (39, 39)]

    def test_short_range_inside_one_block_is_margin_only(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 32, 35) == (None, [(32, 35)])

    def test_adjacent_blocks_fall_back_to_margin_only(self, plan):
        # Blocks 10 and 11 each have 5 elements on either side: both "in",
        # which leaves no cell between them.
        engine = laid_out(two_symbols())
        assert plan(engine, 25, 34) == (None, [(25, 29), (30, 34)])

    def test_adjacent_blocks_one_side_out(self, plan):
        symbols = two_symbols()
        engine = laid_out(symbols)
        cell, reads = plan(engine, 21, 34)
        assert cell == (10, 10, counted(symbols, (30, 35)), counted(symbols, (20, 21)))
        assert reads == [(20, 20), (30, 34)]

    @pytest.mark.parametrize("lo, hi, l, r", [(10, 29, 8, 10), (0, 47, 7, 12), (20, 29, 10, 10)])
    def test_edges_on_block_boundaries_count_nothing(self, plan, lo, hi, l, r):
        engine = laid_out(two_symbols())
        cell, reads = plan(engine, lo, hi)
        assert cell == (l, r, Counter(), Counter())
        assert reads == []

    def test_large_alphabet_keeps_the_in_plan(self, plan):
        # 48 distinct symbols: reading a one-block cell costs more than the
        # counting it saves, so these ranges stay margin-only...
        symbols = list(range(48))
        engine = laid_out(symbols)
        assert plan(engine, 31, 38) == (None, [(31, 38)])
        assert plan(engine, 21, 34) == (None, [(21, 29), (30, 34)])
        # ...while a side whose cell is read anyway still goes out.
        cell, reads = plan(engine, 12, 39)
        assert cell == (8, 11, Counter(), counted(symbols, (10, 12)))
        assert reads == [(10, 11)]

    def test_small_alphabet_takes_the_out_plan_on_the_same_layout(self, plan):
        symbols = [7] * 48
        engine = laid_out(symbols)
        cell, _ = plan(engine, 31, 38)
        assert cell == (11, 11, Counter(), Counter({7: 2}))


@pytest.mark.parametrize(
    "lo, hi, cell",
    [
        (12, 39, (8, 11)),
        (20, 37, (10, 11)),
        (16, 37, (9, 11)),
        (31, 38, (11, 11)),
        (21, 34, (10, 10)),
        (0, 47, (7, 12)),
        (32, 35, None),
        (25, 34, None),
    ],
)
def test_chunk_words_leave_the_plans_unchanged(plan, monkeypatch, lo, hi, cell):
    # S = 2: chunks of 1..4 elements, so most margins hold whole chunks.
    # The cost rule still sees elements, so each query reads the same cell
    # as in TestPlans, and only the loose ends are read one by one.
    monkeypatch.setattr(charseq, "CHUNK", 2)
    symbols = two_symbols()
    engine = laid_out(symbols)
    got, reads = plan(engine, lo, hi)
    assert (got and got[:2]) == cell
    counted = sum(b - a + 1 for a, b in reads)
    assert counted <= 4 * 2 * 2
    if cell is None:
        assert counted < hi - lo + 1  # the rest came as one word
    else:
        assert any(plan.log["words"][0]) == ((lo, hi) != (0, 47))  # (0, 47) has no margin


@pytest.mark.parametrize(
    "alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)], ids=str
)
def test_every_range_after_random_edits(alpha, monkeypatch):
    minus_sizes = Counter()
    table_modes = PairTable.modes

    def modes(self, l, r, margin, minus=None, *words):
        minus_sizes[bool(minus)] += 1
        return table_modes(self, l, r, margin, minus, *words)

    monkeypatch.setattr(PairTable, "modes", modes)
    rng = random.Random(alpha.denominator * 7 + alpha.numerator)
    symbols = [rng.randrange(4) for _ in range(300)]
    engine = RangeModeEngine(symbols, Config(alpha=alpha))
    oracle = NaiveSeq(symbols)
    for _ in range(60):
        if rng.random() < 0.5:
            pos, symbol = rng.randint(0, len(oracle)), rng.randrange(4)
            engine.insert(pos, symbol)
            oracle.insert_at(pos, symbol)
        else:
            pos = rng.randrange(len(oracle))
            assert engine.delete(pos) == oracle.delete_at(pos)
    n = len(oracle)
    for lo in range(n):
        for hi in range(lo, n):
            assert engine.modes(lo, hi) == oracle.modes(lo, hi), (lo, hi)
    assert minus_sizes[True] and minus_sizes[False]  # both kinds of plan ran
    assert engine.audit().ok
