"""Which summary cell and count word a modes query reads, and which ids it counts.

A query finds block bl, holding lo, and block br, holding hi.  When no
whole chunk of :class:`CharSeq` lies inside the range, it counts the ids
of the range alone, so its cost follows the symbols present, not σ'.
Otherwise each end of the range moves to the nearest boundary of the
chunk it cuts, a block's end counting as a boundary and a tie going
inwards, so each end steps at most S // 2 ids.  The span between the
moved ends is counted whole: when br > bl, the cell (bl, br - 1), read
only when a block strictly between bl and br holds an element, and
otherwise block bl's own word; plus and minus the running words of blocks
br and bl at the moved ends.  The ids between each end of the range and its moved end are added
inside the range or taken away outside it.  These tests fix the block
layout by hand and record, at :meth:`PairTable.modes` or where the query
counts its ids alone, what each query reads: the cell plus the word must
count the span, and the cell plus the word plus the added ids, less the
taken ones, must count the range.  Every answer is checked against
:class:`NaiveSeq`.
"""

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import pytest

from probe import ends, lay_out
import rangemodes.engine as engine_module
from rangemodes import Config, NaiveSeq, PairTable, RangeModeEngine, charseq
from rangemodes.multiset import _FIELD_BITS, unpack

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


def chunk_bounds(engine):
    """Every chunk boundary as a position: each multiple of S inside a
    block, counted from its start, and each block's end."""
    bounds, start = set(), 0
    for size in engine.block_sizes():
        bounds.update(range(start, start + size, charseq.CHUNK))
        bounds.add(start + size)
        start += size
    return sorted(bounds)


def nearest(at, inner, outer):
    """The boundary ``at`` moves to: ``outer`` when strictly nearer, else ``inner``."""
    return outer if abs(at - outer) < abs(inner - at) else inner


@pytest.fixture
def plan(monkeypatch):
    """Record the cell each query reads and its margin, the word and the
    slices it adds and takes away, or the ids it counts alone; check them
    against the rule, and return the cell and the span the cell and word
    count, (None, None) for a query that counts its ids alone."""
    log = {"cells": [], "margins": [], "alone": []}
    table_modes, count_elements = PairTable.modes, engine_module._count_elements

    def modes(self, l, r, word, add_l, add_r, sub_l, sub_r):
        if l is not None:
            log["cells"].append((l, r))
        log["margins"].append((word, add_l, add_r, sub_l, sub_r))
        return table_modes(self, l, r, word, add_l, add_r, sub_l, sub_r)

    def count_alone(counts, ids):  # a query with no whole chunk inside
        log["alone"].append(ids)
        return count_elements(counts, ids)

    monkeypatch.setattr(PairTable, "modes", modes)
    monkeypatch.setattr(engine_module, "_count_elements", count_alone)

    def query(engine, lo, hi):
        for entries in log.values():
            entries.clear()
        query.engine = engine
        assert engine.modes(lo, hi) == NaiveSeq(engine.to_list()).modes(lo, hi)
        stop, symbols, symbol = hi + 1, engine.to_list(), engine._seq.symbol
        blocks_end = ends(engine._seq)
        bl, br = bisect_right(blocks_end, lo), bisect_left(blocks_end, stop)
        bounds = chunk_bounds(engine)
        whole_chunk = bisect_right(bounds, stop) - bisect_left(bounds, lo) >= 2
        # Exactly one of the two: a call with the margin, or the ids alone.
        assert len(log["margins"]) == (not log["alone"]) == whole_chunk, (lo, hi)
        if not whole_chunk:
            assert not log["cells"]
            assert [symbol[col] for ids in log["alone"] for col in ids] == symbols[lo:stop]
            query.plans.append((lo, stop, None, None))
            return None, None
        # Each end moves to the nearest boundary of the chunk it cuts, ties inwards.
        x = nearest(lo, bounds[bisect_left(bounds, lo)], bounds[bisect_right(bounds, lo) - 1])
        y = nearest(stop, bounds[bisect_right(bounds, stop) - 1], bounds[bisect_left(bounds, stop)])
        assert max(abs(x - lo), abs(stop - y)) <= charseq.CHUNK // 2
        # The cell is (bl, br - 1), read only with an element strictly between.
        between = br > bl and blocks_end[br - 1] > blocks_end[bl]
        cell = (bl, br - 1) if between else None
        assert log["cells"] == ([cell] if cell else []), (lo, hi)
        word, add_l, add_r, sub_l, sub_r = log["margins"][0]
        counted = word_counts(engine, word + cell_word(engine, cell))
        assert +counted == Counter(symbols[x:y]), (lo, hi)
        sliced = [[symbol[col] for col in ids] for ids in (add_l, add_r, sub_l, sub_r)]
        assert sliced == [symbols[lo:x], symbols[y:stop], symbols[x:lo], symbols[stop:y]]
        # cell + word + added - taken = the range's counts; subtract keeps
        # counts at 0 or below.
        counted.update(s for ids in sliced[:2] for s in ids)
        counted.subtract(s for ids in sliced[2:] for s in ids)
        assert {s: c for s, c in counted.items() if c} == Counter(symbols[lo:stop]), (lo, hi)
        query.plans.append((lo, stop, cell, (x, y)))
        return cell, (x, y)

    query.log, query.plans = log, []
    return query


def two_symbols():
    rng = random.Random(5)
    return [rng.randrange(2) for _ in range(48)]


def word_counts(engine, word):
    """The symbol counts of a count word of ``engine``'s column map."""
    symbol = engine._seq.symbol
    return Counter(dict(zip(symbol, unpack(word, len(symbol)))))


def cell_word(engine, cell):
    """The count word of summary cell ``cell``, 0 for None.  A query's own
    word may have negative fields, which only the cell's word makes up."""
    column = engine._seq.column
    counts = engine._table.cell(*cell) if cell else {}
    return sum(count << _FIELD_BITS * column[s] for s, count in counts.items())


class TestPlans:
    # Every block is one chunk, so each end that moves goes to its block's
    # start or end, and the span takes the word of each block it covers
    # that the cell leaves out.

    @pytest.fixture(autouse=True)
    def ends_round_within_half_a_block(self, plan):
        yield
        starts = [0, *ends(plan.engine._seq)]
        for lo, stop, cell, span in plan.plans:
            if span is None:
                continue
            x, y = span
            assert x in starts and y in starts
            # A block of at most 10 is one short chunk: an end steps at most
            # half its block, 5 ids, within the bound of S // 2.
            assert abs(x - lo) <= 5 and abs(stop - y) <= 5 <= charseq.CHUNK // 2

    def test_left_end_rounds_out_of_the_range(self, plan):
        # lo = 12 lies 2 from block 2's start and 8 from its end: the span
        # starts at 10, and the cell (2, 4) holds block 2 whole, less
        # [10, 12) taken away; block 5's word ends the span.
        engine = laid_out(two_symbols())
        assert plan(engine, 12, 39) == ((2, 4), (10, 40))

    def test_right_end_rounds_out_with_no_block_between(self, plan):
        # No block lies between blocks 4 and 5, so no cell is read: block
        # 4's word and block 5's count the span, less [38, 40).
        engine = laid_out(two_symbols())
        assert plan(engine, 20, 37) == (None, (20, 40))

    def test_left_in_over_an_empty_block_right_out(self, plan):
        # Block 2 starts the range, so the cell (2, 4) spans the empty
        # block 3 and block 4, and block 5's word ends the span.
        engine = laid_out(two_symbols())
        assert plan(engine, 10, 37) == ((2, 4), (10, 40))

    def test_left_end_rounds_in_right_end_rounds_out(self, plan):
        # lo = 16 lies nearer block 2's end: the word takes block 2 away
        # from the cell (2, 4) and [16, 20) is added.
        engine = laid_out(two_symbols())
        assert plan(engine, 16, 37) == ((2, 4), (20, 40))

    def test_two_ends_with_no_whole_chunk_are_counted_alone(self, plan):
        # Only block 3, empty, lies between the two end blocks, so no whole
        # chunk lies inside: the query counts its ids alone.
        engine = laid_out(two_symbols())
        assert plan(engine, 15, 24) == (None, None)

    def test_both_out_inside_one_block(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 31, 38) == (None, None)

    def test_short_range_inside_one_block_is_margin_only(self, plan):
        engine = laid_out(two_symbols())
        assert plan(engine, 32, 35) == (None, None)

    @pytest.mark.parametrize("lo, hi", [(20, 28), (21, 29), (20, 29)])
    def test_one_block_takes_its_word_only_when_covered(self, plan, lo, hi):
        # A range that covers one whole block adds its word and reads no cell.
        engine = laid_out(two_symbols())
        whole = (lo, hi) == (20, 29)
        assert plan(engine, lo, hi) == ((None, (20, 30)) if whole else (None, None))

    def test_adjacent_blocks_with_no_whole_chunk_are_margin_only(self, plan):
        # Blocks 4 and 5 both lie partly outside the range: no whole chunk
        # lies inside.
        engine = laid_out(two_symbols())
        assert plan(engine, 25, 34) == (None, None)
        assert plan(engine, 21, 34) == (None, None)

    def test_adjacent_blocks_one_side_out(self, plan):
        # stop = 35 lies 5 from each end of block 5, a tie, which rounds
        # inwards: block 4's word and [30, 35) added.  lo = 21 rounds out
        # to 20, and blocks 4 and 5 come as their words.
        engine = laid_out(two_symbols())
        assert plan(engine, 20, 34) == (None, (20, 30))
        assert plan(engine, 21, 39) == (None, (20, 40))

    @pytest.mark.parametrize(
        "lo, hi, cell", [(10, 29, None), (0, 47, (1, 5)), (20, 29, None)]
    )
    def test_edges_on_block_boundaries_count_nothing(self, plan, lo, hi, cell):
        # Blocks 2 and 4 have only the empty block 3 between them, so the
        # span is their two words; (0, 47) reads (1, 5) and block 6's word.
        engine = laid_out(two_symbols())
        assert plan(engine, lo, hi) == (cell, (lo, hi + 1))
        assert not any(map(len, plan.log["margins"][0][1:]))

    def every_plan(self, plan, symbols):
        engine = laid_out(symbols)
        return [plan(engine, lo, hi) for lo in range(48) for hi in range(lo, 48)]

    def test_large_alphabet_keeps_the_in_plan(self, plan):
        # The plan does not depend on the symbols: 48 distinct ones take the
        # same plan as two on every range.
        assert self.every_plan(plan, list(range(48))) == self.every_plan(plan, two_symbols())

    def test_small_alphabet_takes_the_same_plan(self, plan):
        assert self.every_plan(plan, [7] * 48) == self.every_plan(plan, two_symbols())

    def test_cells_read_over_every_range(self, plan):
        # The fixture checks that each cell read is (bl, br - 1) with an
        # element strictly between.  End blocks 1 and 2, 2 and 4 (over the
        # empty block 3), 4 and 5, and 5 and 6 have none, and no range
        # inside one block reads a cell, so these six are all.
        cells = {cell for cell, _ in self.every_plan(plan, two_symbols())}
        assert cells == {None, (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5)}


@pytest.mark.parametrize(
    "lo, hi, cell",
    [
        (12, 39, (2, 4)),
        (20, 37, None),
        (16, 37, (2, 4)),
        (31, 38, None),
        (21, 34, None),
        (0, 47, (1, 5)),
        (32, 35, None),
        (25, 34, None),
    ],
)
def test_chunk_words_leave_the_cells_unchanged(plan, monkeypatch, lo, hi, cell):
    # S = 2: chunks of 2 elements, whose boundaries here are the even
    # positions, so each range here holds a whole chunk.  The query reads
    # the same cell as with one chunk per block, but each end steps at most
    # S/2 = 1 id: an odd end lies 1 from each boundary of its chunk, a tie,
    # which rounds inwards, so each end's id is added and none taken away.
    symbols = two_symbols()
    first, _ = plan(laid_out(symbols), lo, hi)
    monkeypatch.setattr(charseq, "CHUNK", 2)
    engine = laid_out(symbols)
    stop = hi + 1
    assert first == cell and plan(engine, lo, hi) == (cell, (lo + lo % 2, stop - stop % 2))
    word, *slices = plan.log["margins"][0]
    assert word and list(map(len, slices)) == [lo % 2, stop % 2, 0, 0]


@pytest.mark.parametrize("chunk", [2, 3, 4, 8])
def test_each_end_steps_at_most_half_a_chunk(plan, monkeypatch, chunk):
    # The fixture checks the bound of S // 2 ids on every range; it is met:
    # some end steps exactly S // 2, one of them outwards once S > 2.
    monkeypatch.setattr(charseq, "CHUNK", chunk)
    engine = laid_out(two_symbols())
    steps = Counter()
    for lo in range(48):
        for hi in range(lo, 48):
            _, span = plan(engine, lo, hi)
            if span:
                steps[span[0] - lo] += 1
                steps[hi + 1 - span[1]] += 1
    assert max(map(abs, steps)) == chunk // 2
    assert any(step < 0 for step in steps) == (chunk > 2)


def test_no_whole_chunk_counts_ids_alone_at_a_large_alphabet(plan, monkeypatch):
    # σ' = 300 columns, four-byte ids: a range with no whole chunk calls
    # _count_elements only and never PairTable.modes, whose cost is σ'.
    rng = random.Random(3)
    symbols = list(range(300)) + [rng.randrange(300) for _ in range(100)]
    engine = RangeModeEngine(symbols, HALF)
    monkeypatch.setattr(charseq, "CHUNK", 8)  # blocks of 25 hold whole chunks and cut ones
    lay_out(engine, [25] * 16)
    alone = worded = 0
    for lo in range(0, 100, 3):
        for hi in range(lo, min(lo + 30, 100)):
            _, span = plan(engine, lo, hi)
            alone += span is None
            worded += span is not None
    assert engine.sigma_prime == 300 and alone > 100 and worded > 100


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
    # range round both inwards and outwards.  At S = 2 an end that cuts a
    # chunk lies 1 from each of its boundaries, a tie, which rounds
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
