"""Which blocks a modes query reads from its summary cell, and which it counts.

A query reads the cell of the blocks that lie wholly inside its range and
counts the part inside the range of each partial end block: the cell is
(bl + 1, br) when block bl starts before the range and (bl, br - 1) when
block br ends after it.  A cell whose blocks are all empty is not read.  A
range inside one block reads a cell only when it covers that whole block.
These tests fix the block layout by hand and record the cell each query
reads and the margin it passes, at :meth:`PairTable.modes` or, when it
reads no cell and no word, where it counts its slices alone.  Each end
counts the part of the range outside the cell's blocks, so the margin's
word plus the ids it adds, less those it takes away, must equal that
part's symbols.  Every answer is checked against :class:`NaiveSeq`.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from probe import ends, lay_out
import rangemodes.engine as engine_module
from rangemodes import Config, NaiveSeq, PairTable, RangeModeEngine, charseq
from rangemodes.multiset import unpack

HALF = Config(alpha=Fraction(1, 2))

# 48 elements at alpha = 1/2, in blocks of capacity 14, laid out past an
# empty block 0: block 1 = [0, 10), 2 = [10, 20), 3 empty, 4 = [20, 30),
# 5 = [30, 40), 6 = [40, 48), and every later slot empty.
SIZES = [0, 10, 10, 0, 10, 10, 8]

def laid_out(symbols, sizes=SIZES):
    engine = RangeModeEngine(symbols, HALF)
    lay_out(engine, sizes)
    assert engine.audit().ok
    return engine


def outside(engine, cell, lo, stop):
    """The parts of ``[lo, stop)`` outside the blocks of ``cell``, one for
    each block they meet: what the ends of a query that reads ``cell``
    count."""
    bounds = [0, *ends(engine._seq)]
    parts = []
    for k in range(len(bounds) - 1):
        a, b = max(lo, bounds[k]), min(stop, bounds[k + 1])
        if a < b and not (cell and cell[0] <= k <= cell[1]):
            parts.append((a, b))
    return parts


@pytest.fixture
def plan(monkeypatch):
    """Record the cell each query reads and its margin: the word of its
    whole chunks, the slices it adds and those it takes away."""
    log = {"cells": [], "margins": [], "alone": []}
    table_modes, count_elements = PairTable.modes, engine_module._count_elements

    def modes(self, l, r, word, add_l, add_r, sub_l, sub_r):
        if l is not None:  # a query that reads no cell passes its margin alone
            log["cells"].append((l, r))
        log["margins"].append((word, [add_l, add_r], [sub_l, sub_r]))
        return table_modes(self, l, r, word, add_l, add_r, sub_l, sub_r)

    def count_alone(counts, ids):  # a query with no cell and no word
        log["alone"].append(ids)
        return count_elements(counts, ids)

    monkeypatch.setattr(PairTable, "modes", modes)
    monkeypatch.setattr(engine_module, "_count_elements", count_alone)

    def query(engine, lo, hi):
        for entries in log.values():
            entries.clear()
        assert engine.modes(lo, hi) == NaiveSeq(engine.to_list()).modes(lo, hi)
        cells, margins = log["cells"], log["margins"]
        assert len(cells) <= 1 and len(margins) + bool(log["alone"]) <= 1
        cell = cells[0] if cells else None
        ranges = outside(engine, cell, lo, hi + 1)
        word, adds, subs = margins[0] if margins else (0, log["alone"][:], [])
        symbol = engine._seq.symbol
        total = word_counts(engine, word) + Counter(symbol[col] for ids in adds for col in ids)
        total.subtract(symbol[col] for ids in subs for col in ids)  # keeps counts at 0 or below
        symbols = engine.to_list()
        assert {s: c for s, c in total.items() if c} == Counter(
            s for a, b in ranges for s in symbols[a:b]
        ), (lo, hi)
        query.plans.append((ranges, word, adds, subs))
        return cell, ranges

    query.log, query.plans = log, []
    return query


def two_symbols():
    rng = random.Random(5)
    return [rng.randrange(2) for _ in range(48)]


def word_counts(engine, word):
    """The symbol counts of a count word of ``engine``'s column map."""
    table = engine._table
    return Counter(dict(zip(table._seq.symbol, unpack(word, len(table._seq.symbol)))))


class TestPlans:
    # Every block is one chunk, so each counted range is read element by
    # element and no count word comes with it.

    @pytest.fixture(autouse=True)
    def no_chunk_words(self, plan):
        yield
        for ranges, word, adds, subs in plan.plans:
            assert not word and not any(subs)
            assert sum(map(len, adds)) == sum(b - a for a, b in ranges)

    def test_left_out(self, plan):
        # Block 2 starts before the range: the cell leaves it out, and its
        # part inside the range is counted.
        engine = laid_out(two_symbols())
        assert plan(engine, 12, 39) == ((3, 5), [(12, 20)])

    def test_right_out(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 20, 37) == ((4, 4), [(30, 38)])

    def test_left_in_over_an_empty_block_right_out(self, plan):
        # Block 2 starts the range, so the cell keeps it and spans the empty
        # block 3; block 5 ends after the range and is left out.
        engine = laid_out(two_symbols())
        assert plan(engine, 10, 37) == ((2, 4), [(30, 38)])

    def test_both_ends_out_over_an_empty_block(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 16, 37) == ((3, 4), [(16, 20), (30, 38)])

    def test_an_empty_block_between_two_ends_is_not_read(self, plan):
        # The cell between the two partial end blocks is (3, 3), and block 3
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
        assert plan(engine, lo, hi) == (((4, 4), []) if whole else (None, [(lo, hi + 1)]))

    def test_adjacent_blocks_fall_back_to_margin_only(self, plan):
        # Blocks 4 and 5 both lie partly outside the range: both are left
        # out, which leaves no cell between them.
        engine = laid_out(two_symbols())
        assert plan(engine, 25, 34) == (None, [(25, 30), (30, 35)])
        assert plan(engine, 21, 34) == (None, [(21, 30), (30, 35)])

    def test_adjacent_blocks_one_side_out(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 20, 34) == ((4, 4), [(30, 35)])
        assert plan(engine, 21, 39) == ((5, 5), [(21, 30)])

    @pytest.mark.parametrize("lo, hi, l, r", [(10, 29, 2, 4), (0, 47, 1, 6), (20, 29, 4, 4)])
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
        (12, 39, (3, 5)),
        (20, 37, (4, 4)),
        (16, 37, (3, 4)),
        (31, 38, None),
        (21, 34, None),
        (0, 47, (1, 6)),
        (32, 35, None),
        (25, 34, None),
    ],
)
def test_chunk_words_leave_the_plans_unchanged(plan, monkeypatch, lo, hi, cell):
    # S = 2: chunks of 2 elements, so each margin here holds a whole
    # chunk.  The query reads the same cell and counts the same ranges as
    # with one chunk per block, but each inner end of a range reads at most
    # half the chunk it cuts, S/2 = 1 element: added inside the range, or
    # taken away outside it.  A query has two inner ends at most.
    symbols = two_symbols()
    _, ranges = plan(laid_out(symbols), lo, hi)
    monkeypatch.setattr(charseq, "CHUNK", 2)
    engine = laid_out(symbols)
    assert plan(engine, lo, hi) == (cell, ranges)
    _, word, adds, subs = plan.plans[-1]
    assert sum(map(len, adds + subs)) <= 2 * 1
    # Every counted range holds more than 2 elements, so one with no word
    # would add all of them, past the bound: each takes a word.  The query
    # checked that the word and the slices hold the ranges' symbols.
    assert all(b - a > 2 for a, b in ranges) and bool(word) == bool(ranges)


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

    def modes(self, l, r, word, add_l, add_r, sub_l, sub_r):
        cell_reads[l is not None] += 1
        if word:
            rounded_out[bool(sub_l or sub_r)] += 1
        return table_modes(self, l, r, word, add_l, add_r, sub_l, sub_r)

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
