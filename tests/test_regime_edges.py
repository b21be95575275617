"""Regression tests for layout corner cases found during design analysis.

Each of these scenarios breaks a more literal reading of the maintenance
rules (donor search confined to one region, ceil-based halving thresholds);
the engine must handle all of them with clean audits.
"""

import random

import pytest

from rangemodes import Config, NaiveSeq, RangeModeEngine


def test_insert_into_fully_packed_layout():
    # n0 = 8 packs the cur region to exactly its total capacity ([4, 4]),
    # so the very first insert has no donor inside cur and must spill.
    engine = RangeModeEngine([5] * 8, Config(audit_mode=True))
    engine.insert(3, 7)
    assert engine.to_list() == [5, 5, 5, 7, 5, 5, 5, 5, 5]
    assert engine.audit().ok


@pytest.mark.parametrize("n0", [3, 5, 7, 9, 11])
def test_pure_deletes_from_odd_reference_length(n0):
    # Odd reference lengths make the halving boundary land off the exact
    # half; every block must stay within capacity down to the empty sequence.
    engine = RangeModeEngine(range(n0), Config(audit_mode=True))
    while len(engine):
        engine.delete(0)
    assert any(kind == "halve" for kind, _ in engine.reset_events)
    assert engine.audit().ok


def test_sawtooth_across_both_boundaries():
    # Repeatedly cross the doubling and halving thresholds with queries in
    # between; answers must track the oracle through every reset.
    engine = RangeModeEngine((), Config(audit_mode=True))
    oracle = NaiveSeq()
    rng = random.Random(21)
    for _ in range(4):
        while len(oracle) < 150:
            pos = rng.randint(0, len(oracle))
            sym = rng.randrange(6)
            engine.insert(pos, sym)
            oracle.insert_at(pos, sym)
        while len(oracle) > 20:
            pos = rng.randrange(len(oracle))
            assert engine.delete(pos) == oracle.delete_at(pos)
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
