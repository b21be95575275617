"""Which blocks a modes query reads from its summary cell, and which it counts.

A query reads the cell of the blocks that lie wholly inside its range and
counts the part inside the range of each partial end block: the cell is
(bl + 1, br) when block bl starts before the range and (bl, br - 1) when
block br ends after it.  A cell whose blocks are all empty is not read.  A
range inside one block reads a cell only when it covers that whole block.
These tests fix the block layout by hand, record the cell and the counted
ranges of each query, and check the answer against :class:`NaiveSeq`.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from probe import ends, lay_out
from rangemodes import CharSeq, Config, NaiveSeq, PairTable, RangeModeEngine, charseq
from rangemodes.multiset import unpack

HALF = Config(alpha=Fraction(1, 2))

# 48 elements at alpha = 1/2: 17 slots of capacity 14, of which a rebuild
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
    """Record the cell read and the ranges counted by each query, with the
    loose and the taken-away elements of each range."""
    log = {"cells": [], "counts": []}
    table_modes, count = PairTable.modes, CharSeq.count

    def modes(self, l, r, loose, taken, plus=0):
        if l is not None:  # a query that reads no cell passes its margin alone
            log["cells"].append((l, r))
        return table_modes(self, l, r, loose, taken, plus)

    def counted(self, k, lo, stop, loose, taken):
        before, before_taken = len(loose), len(taken)
        word = count(self, k, lo, stop, loose, taken)
        base = ends(self)[k - 1] if k else 0
        log["counts"].append((base + lo, base + stop, word, loose[before:], taken[before_taken:]))
        return word

    monkeypatch.setattr(PairTable, "modes", modes)
    monkeypatch.setattr(CharSeq, "count", counted)

    def query(engine, lo, hi):
        for entries in log.values():
            entries.clear()
        assert engine.modes(lo, hi) == NaiveSeq(engine.to_list()).modes(lo, hi)
        cells = log["cells"]
        assert len(cells) <= 1
        ranges = sorted((a, b) for a, b, *_ in log["counts"])
        return (cells[0] if cells else None), ranges

    query.log = log
    return query


def two_symbols():
    rng = random.Random(5)
    return [rng.randrange(2) for _ in range(48)]


def word_counts(engine, word):
    """The symbol counts of a count word of ``engine``'s column map."""
    table = engine._table
    return Counter(dict(zip(table._symbol, unpack(word, len(table._symbol)))))


class TestPlans:
    # Every block is one chunk, so each counted range is read element by
    # element and no count word comes with it.

    @pytest.fixture(autouse=True)
    def no_chunk_words(self, plan):
        yield
        assert not any(word or taken for _, _, word, _, taken in plan.log["counts"])
        assert all(len(loose) == b - a for a, b, _, loose, _ in plan.log["counts"])

    def test_left_out(self, plan):
        # Block 8 starts before the range: the cell leaves it out, and its
        # part inside the range is counted.
        engine = laid_out(two_symbols())
        assert plan(engine, 12, 39) == ((9, 11), [(12, 20)])

    def test_right_out(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 20, 37) == ((10, 10), [(30, 38)])

    def test_left_in_over_an_empty_block_right_out(self, plan):
        # Block 8 starts the range, so the cell keeps it and spans the empty
        # block 9; block 11 ends after the range and is left out.
        engine = laid_out(two_symbols())
        assert plan(engine, 10, 37) == ((8, 10), [(30, 38)])

    def test_both_ends_out_over_an_empty_block(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 16, 37) == ((9, 10), [(16, 20), (30, 38)])

    def test_an_empty_block_between_two_ends_is_not_read(self, plan):
        # The cell between the two partial end blocks is (9, 9), and block 9
        # is empty, so the query counts its two ends alone.
        engine = laid_out(two_symbols())
        assert plan(engine, 15, 24) == (None, [(15, 20), (20, 25)])

    def test_both_out_inside_one_block(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 31, 38) == (None, [(31, 39)])

    def test_short_range_inside_one_block_is_margin_only(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 32, 35) == (None, [(32, 36)])

    @pytest.mark.parametrize("lo, hi", [(20, 28), (21, 29), (20, 29)])
    def test_one_block_reads_its_cell_only_when_covered(self, plan, lo, hi):
        engine = laid_out(two_symbols())
        whole = (lo, hi) == (20, 29)
        assert plan(engine, lo, hi) == (((10, 10), []) if whole else (None, [(lo, hi + 1)]))

    def test_adjacent_blocks_fall_back_to_margin_only(self, plan):
        # Blocks 10 and 11 both lie partly outside the range: both are left
        # out, which leaves no cell between them.
        engine = laid_out(two_symbols())
        assert plan(engine, 25, 34) == (None, [(25, 30), (30, 35)])
        assert plan(engine, 21, 34) == (None, [(21, 30), (30, 35)])

    def test_adjacent_blocks_one_side_out(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 20, 34) == ((10, 10), [(30, 35)])
        assert plan(engine, 21, 39) == ((11, 11), [(21, 30)])

    @pytest.mark.parametrize("lo, hi, l, r", [(10, 29, 8, 10), (0, 47, 7, 12), (20, 29, 10, 10)])
    def test_edges_on_block_boundaries_count_nothing(self, plan, lo, hi, l, r):
        engine = laid_out(two_symbols())
        assert plan(engine, lo, hi) == ((l, r), [])

    def every_plan(self, plan, symbols):
        engine = laid_out(symbols)
        return [plan(engine, lo, hi) for lo in range(48) for hi in range(lo, 48)]

    def test_large_alphabet_keeps_the_in_plan(self, plan):
        # The plan does not depend on the symbols: 48 distinct ones take the
        # same plan as two on every range.
        assert self.every_plan(plan, list(range(48))) == self.every_plan(plan, two_symbols())

    def test_small_alphabet_takes_the_same_plan(self, plan):
        assert self.every_plan(plan, [7] * 48) == self.every_plan(plan, two_symbols())


@pytest.mark.parametrize(
    "lo, hi, cell",
    [
        (12, 39, (9, 11)),
        (20, 37, (10, 10)),
        (16, 37, (9, 10)),
        (31, 38, None),
        (21, 34, None),
        (0, 47, (7, 12)),
        (32, 35, None),
        (25, 34, None),
    ],
)
def test_chunk_words_leave_the_plans_unchanged(plan, monkeypatch, lo, hi, cell):
    # S = 2: chunks of 2 elements, so each margin here holds a whole
    # chunk.  The query reads the same cell and counts the same ranges as
    # with one chunk per block, but each inner end of a range reads at most
    # half the chunk it cuts, S/2 = 1 element: loose inside the range, or
    # taken away outside it.  A query has two inner ends at most.
    symbols = two_symbols()
    _, ranges = plan(laid_out(symbols), lo, hi)
    monkeypatch.setattr(charseq, "CHUNK", 2)
    engine = laid_out(symbols)
    assert plan(engine, lo, hi) == (cell, ranges)
    counts = plan.log["counts"]
    assert sum(len(loose) + len(taken) for *_, loose, taken in counts) <= 2 * 1
    for a, b, word, loose, taken in counts:
        assert word, (a, b)
        total = word_counts(engine, word) + Counter(loose)
        total.subtract(taken)  # keeps a count that falls to 0 or below
        assert {s: c for s, c in total.items() if c} == Counter(symbols[a:b]), (a, b)


@pytest.mark.parametrize(
    "alpha, chunk",
    [
        pytest.param(alpha, chunk, id=str(alpha) + ("" if chunk == charseq.CHUNK else f"-S{chunk}"))
        for chunk in (charseq.CHUNK, 2, 3)
        for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5))
    ],
)
def test_every_range_after_random_edits(alpha, chunk, monkeypatch):
    # At S = 2 and 3 the blocks hold many chunks.  At S = 3 the ends of a
    # counted part round both inwards and outwards.  At S = 2 an end that
    # cuts a chunk lies 1 from each of its boundaries, a tie, which rounds
    # inwards, so no end rounds outwards.
    monkeypatch.setattr(charseq, "CHUNK", chunk)
    cell_reads, rounded_out = Counter(), Counter()
    table_modes = PairTable.modes

    def modes(self, l, r, loose, taken, plus=0):
        cell_reads[l is not None] += 1
        if plus:
            rounded_out[bool(taken)] += 1
        return table_modes(self, l, r, loose, taken, plus)

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
    # Both queries that read a cell and queries that read none ran.
    assert 0 < cell_reads[True] < n * (n + 1) // 2
    if chunk == 3:  # queries with chunk words took elements away, and some took none
        assert rounded_out[True] and rounded_out[False]
    if chunk == 2:  # queries with chunk words, none of which took an element away
        assert rounded_out[False] and not rounded_out[True]
    assert engine.audit().ok
