"""Regression tests for layout corner cases found during design analysis.

Each of these scenarios breaks a more literal reading of the maintenance
rules (room in the block after a full one, ceil-based halving
thresholds); the engine must handle all of them with clean audits.
"""

import random

import pytest

from probe import assert_within_capacity, lay_out
from rangemodes import NaiveSeq, RangeModeEngine


def test_insert_into_fully_packed_layout():
    # n0 = 28 gives blocks of capacity 21, and a rebuild fills the first
    # four slots, the fewest in which two full blocks stay below the
    # doubling at 2·n0.  Grown to 42 and packed to [21, 21, 0, ...], the
    # first two slots hold exactly their total capacity, so an insert into
    # block 0, even at its end, finds no room in the block after it and
    # rebuilds the layout.
    for pos in (3, 21):
        engine = RangeModeEngine([5] * 28)
        for _ in range(14):
            engine.insert(0, 5)
            assert_within_capacity(engine)
        assert engine.n0 == 28 and engine.capacity == 21 and not engine.reset_events
        lay_out(engine, [21, 21])
        engine.insert(pos, 7)
        assert engine.reset_events == [("overflow", 43)]
        sizes = engine.block_sizes()
        assert sizes[:4] == [11, 11, 11, 10] and not any(sizes[4:])
        assert engine.to_list() == [5] * pos + [7] + [5] * (42 - pos)
        assert engine.audit().ok


@pytest.mark.parametrize("n0", [3, 5, 7, 9, 11])
def test_pure_deletes_from_odd_reference_length(n0):
    # Odd reference lengths make the halving boundary land off the exact
    # half; every block must stay within capacity down to the empty sequence.
    engine = RangeModeEngine(range(n0))
    while len(engine):
        engine.delete(0)
        assert_within_capacity(engine)
    assert any(kind == "halve" for kind, _ in engine.reset_events)
    assert engine.audit().ok


def test_sawtooth_across_both_boundaries():
    # Repeatedly cross the doubling and halving thresholds with queries in
    # between; answers must track the oracle through every reset.
    engine = RangeModeEngine()
    oracle = NaiveSeq()
    rng = random.Random(21)
    for _ in range(4):
        while len(oracle) < 150:
            pos = rng.randint(0, len(oracle))
            sym = rng.randrange(6)
            engine.insert(pos, sym)
            oracle.insert_at(pos, sym)
            assert_within_capacity(engine)
        while len(oracle) > 20:
            pos = rng.randrange(len(oracle))
            assert engine.delete(pos) == oracle.delete_at(pos)
            assert_within_capacity(engine)
        lo = rng.randrange(len(oracle))
        hi = rng.randint(lo, len(oracle) - 1)
        assert engine.modes(lo, hi) == oracle.modes(lo, hi)
    assert len(engine.reset_events) >= 8
    assert engine.audit().ok


def test_large_symbol_ids_supported():
    big = (1 << 64) - 1
    engine = RangeModeEngine([big, 3, big])
    assert engine.modes(0, 2) == (2, (big,))
    assert engine.audit().ok
