import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rangemodes.engine as engine_module
from rangemodes import multiset
from rangemodes import (
    AuditError,
    Config,
    InvariantError,
    ModesResult,
    NaiveSeq,
    RangeModeEngine,
)


def ceil_root(num: int, den: int, p: int, q: int) -> int:
    """Smallest k with k**q * den**p >= num**p (independent of the engine)."""
    k = 0
    while k**q * den**p < num**p:
        k += 1
    return k


def region_map(engine):
    return {r.name: r for r in engine.regions()}


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.alpha == Fraction(1, 3)
        assert not cfg.audit_mode

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
        cur = region_map(engine)["cur"]
        assert cur.slots == ceil_root(9, 1, 1, 3) == 3
        assert cur.capacity == ceil_root(9, 1, 2, 3) == 5
        sizes = engine.block_sizes()
        assert sizes[cur.start : cur.end] == [5, 4, 0]

    def test_len(self):
        assert len(RangeModeEngine([1, 2])) == 2

    def test_region_formulas(self):
        engine = RangeModeEngine(range(64))
        n0 = engine.n0
        assert n0 == 64
        regions = region_map(engine)
        for name, k in [("cur", 1), ("next", 2)]:
            assert regions[name].slots == ceil_root(n0 * k, 1, 1, 3), name
            assert regions[name].capacity == ceil_root(n0 * k, 1, 2, 3), name

    def test_layout_is_cur_then_next(self):
        engine = RangeModeEngine(range(10))
        regions = engine.regions()
        assert [r.name for r in regions] == ["cur", "next"]
        start = 0
        for region in regions:
            assert region.start == start, region.name
            start = region.end
        assert len(engine.block_sizes()) == start

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

    def test_length_must_fit_the_count_fields(self, monkeypatch):
        # A summary count reaches 2·n0 before the next rebuild.
        monkeypatch.setattr(engine_module, "MAX_COUNT", 7)
        assert RangeModeEngine(range(3)).audit().ok
        with pytest.raises(ValueError):
            RangeModeEngine(range(4))

    @pytest.mark.parametrize("bad", [1.0, True, "3", None, -1, 1 << 64])
    def test_rejected_symbol_leaves_engine_unchanged(self, bad):
        # Validation runs before the sequence, block sizes or summary cells
        # change, so a rejected insert leaves nothing half-updated.
        engine = RangeModeEngine(range(8))
        before = engine.to_list()
        for pos in (0, 3, 8):
            with pytest.raises((TypeError, ValueError)):
                engine.insert(pos, bad)
            assert engine.to_list() == before
            assert engine.audit().ok

    @pytest.mark.parametrize("bad", [2.0, "3", None, True])
    def test_rejected_position_leaves_engine_unchanged(self, bad):
        # A float position passes the range check; it must be refused before
        # the summary cells change, not by the sequence halfway through.
        engine = RangeModeEngine(range(20))
        before = engine.to_list()
        calls = [
            lambda: engine.insert(bad, 7),
            lambda: engine.delete(bad),
            lambda: engine.modes(bad, 5),
            lambda: engine.modes(0, bad),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
            assert engine.to_list() == before
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
        config = Config(audit_mode=True)
        engine = RangeModeEngine([0] * 16, config)
        oracle = NaiveSeq([0] * 16)
        rng = random.Random(2)
        for k in range(2 * engine.n0):
            pos = rng.randint(0, len(oracle))
            sym = rng.randrange(5)
            engine.insert(pos, sym)
            oracle.insert_at(pos, sym)
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
        config = Config(audit_mode=True)
        engine = RangeModeEngine(range(64), config)
        oracle = NaiveSeq(range(64))
        rng = random.Random(3)
        while len(oracle) > 30:
            pos = rng.randrange(len(oracle))
            assert engine.delete(pos) == oracle.delete_at(pos)
        assert any(kind == "halve" for kind, _ in engine.reset_events)
        for _ in range(20):
            lo = rng.randrange(len(oracle))
            hi = rng.randint(lo, len(oracle) - 1)
            assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert engine.audit().ok


class TestModes:
    def test_hand_counted(self):
        engine = RangeModeEngine([1, 2, 1, 2, 3])
        assert engine.modes(0, 4) == ModesResult(2, (1, 2))

    def test_singleton(self):
        engine = RangeModeEngine([9])
        assert engine.modes(0, 0) == ModesResult(1, (9,))

    def test_mode_inside_blocks_margin_empty(self):
        # Layout at n0=5 packs the cur region as [b,a,a | a,b]; the full-range
        # query has no margin, so the answer must come from the summary's top
        # entry (the step the uncorrected scan-only computation would miss).
        b, a = 1, 0
        engine = RangeModeEngine([b, a, a, a, b])
        cur = region_map(engine)["cur"]
        sizes = engine.block_sizes()
        assert sizes[cur.start : cur.end] == [3, 2]
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
        # n0=3 layout: cur region holds [10,11,12] in its first block.
        engine = RangeModeEngine([10, 11, 12])
        cur = region_map(engine)["cur"]
        assert engine.block_sizes()[cur.start : cur.end] == [3, 0]
        return engine, cur

    def test_move_right_then_left_is_identity(self):
        engine, cur = self.make_engine()
        before = engine.block_sizes()
        engine.move_right(cur.start)
        sizes = engine.block_sizes()
        assert sizes[cur.start : cur.end] == [2, 1]
        assert engine.to_list() == [10, 11, 12]
        engine.move_left(cur.start + 1)
        assert engine.block_sizes() == before
        assert engine.audit().ok

    def test_move_updates_summary_cells(self):
        engine, cur = self.make_engine()
        engine.move_right(cur.start)
        table = engine._table
        assert dict(table.cell(cur.start, cur.start).items()) == {10: 1, 11: 1}
        assert dict(table.cell(cur.start + 1, cur.start + 1).items()) == {12: 1}

    def test_move_left_appends_to_previous(self):
        engine, cur = self.make_engine()
        engine.move_right(cur.start)  # blocks [10,11] [12]
        engine.move_left(cur.start + 1)  # first of right block joins the left
        assert engine.block_sizes()[cur.start : cur.end] == [3, 0]
        assert engine.to_list() == [10, 11, 12]

    def test_move_from_empty_block(self):
        engine, cur = self.make_engine()
        with pytest.raises(InvariantError):
            engine.move_right(cur.start + 1)
        with pytest.raises(InvariantError):
            engine.move_left(cur.end)

    def test_move_bounds(self):
        engine, _ = self.make_engine()
        slots = len(engine.block_sizes())
        with pytest.raises(IndexError):
            engine.move_left(0)
        with pytest.raises(IndexError):
            engine.move_right(slots - 1)


class TestDonors:
    """Which block takes the overflow of a full block (alpha = 1/2).

    At n0 = 46 or 49, ``cur`` is slots 0..6 with capacity 7 and ``next`` is
    slots 7..16 with capacity 10.
    """

    HALF = Config(alpha=Fraction(1, 2), audit_mode=True)

    def test_donor_is_the_emptiest_block_of_its_region(self):
        engine = RangeModeEngine(range(46), self.HALF)
        engine.delete(10)  # block 1 has room, but block 6 is emptier
        assert engine.block_sizes() == [7, 6, 7, 7, 7, 7, 4] + [0] * 10
        engine.insert(0, 99)
        assert engine.block_sizes() == [7, 6, 7, 7, 7, 7, 5] + [0] * 10
        assert engine.to_list() == [99, *range(10), *range(11, 46)]
        assert engine.audit().ok

    def test_saturated_region_spills_to_the_lowest_emptiest_block(self):
        engine = RangeModeEngine(range(49), self.HALF)
        assert engine.block_sizes() == [7] * 7 + [0] * 10
        engine.insert(0, 97)
        engine.insert(0, 98)
        assert engine.block_sizes() == [7] * 7 + [1, 1] + [0] * 8
        engine.move_right(8)  # next reads [1, 0, 1, 0, ...]
        engine.insert(0, 99)
        assert engine.block_sizes() == [7] * 7 + [1, 1, 1] + [0] * 7
        assert engine.to_list() == [99, 98, 97, *range(49)]
        assert engine.audit().ok


class TestResets:
    def test_no_reset_strictly_inside_window(self):
        engine = RangeModeEngine(range(64), Config(audit_mode=True))
        rng = random.Random(4)
        for _ in range(600):
            if len(engine) <= 50 or (len(engine) < 90 and rng.random() < 0.5):
                engine.insert(rng.randint(0, len(engine)), rng.randrange(4))
            else:
                engine.delete(rng.randrange(len(engine)))
        assert engine.reset_events == []
        assert engine.audit().ok

    def test_doubling_resets_walk_up(self):
        engine = RangeModeEngine((), Config(audit_mode=True))
        for k in range(70):
            engine.insert(len(engine), k % 3)
        kinds = [kind for kind, _ in engine.reset_events]
        assert "double" in kinds
        lengths = [length for kind, length in engine.reset_events if kind == "double"]
        assert lengths == [2, 4, 8, 16, 32, 64]

    def test_halving_resets_walk_down(self):
        engine = RangeModeEngine(range(64), Config(audit_mode=True))
        while len(engine):
            engine.delete(len(engine) - 1)
        halvings = [length for kind, length in engine.reset_events if kind == "halve"]
        assert halvings[:4] == [32, 16, 8, 4]

    def test_simple_strategy_resets_too(self):
        engine = RangeModeEngine((), Config(audit_mode=True))
        for k in range(40):
            engine.insert(0, k % 2)
        assert ("double", 32) in engine.reset_events
        assert engine.audit().ok


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
        engine._table.apply_point(0, 7, 1)  # bypass the engine bookkeeping
        report = engine.audit()
        assert not report.ok
        assert "cell" in report.message

    def test_detects_stale_symbol_column(self):
        engine = RangeModeEngine([1, 2, 3, 4, 5])
        engine._table._claim_column(9)  # a column no element counts in
        report = engine.audit()
        assert not report.ok
        assert "distinct symbols" in report.message

    def test_detects_partition_drift(self):
        engine = RangeModeEngine([1, 2, 3])
        engine._sizes.adjust(0, 1)
        report = engine.audit()
        assert not report.ok
        assert "sum" in report.message

    def test_detects_symbol_added_to_a_block_list(self):
        engine = RangeModeEngine([1, 2, 3])
        engine._seq.blocks[0].append(2)  # bypass the block sizes and the table
        assert not engine.audit().ok

    def test_detects_block_list_disagreeing_with_its_size(self):
        engine = RangeModeEngine([1, 2, 3])
        blocks = engine._seq.blocks
        blocks[1].append(blocks[0].pop())  # same total, sizes no longer match
        report = engine.audit()
        assert not report.ok
        assert report.message == "block 0 holds 2 symbols but its size is 3"

    def test_capacity_checked_in_audit_mode(self):
        engine = RangeModeEngine([1, 2, 3], Config(audit_mode=True))
        cur = region_map(engine)["cur"]
        engine._sizes.adjust(cur.end - 1, cur.capacity + 1)
        with pytest.raises(AuditError):
            engine._check_capacities()


class TestMemoryGuard:
    def test_oversized_table_is_refused_before_allocating(self):
        # RangeModeEngine(range(1 << 17)) would need about 3.5 GB of counts.
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
        assert "needs 3497000960 bytes" in message

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
        engine = RangeModeEngine((), Config(alpha=alpha, audit_mode=True))
        oracle = NaiveSeq()
        for step in range(1500):
            n = len(oracle)
            roll = rng.random()
            if n == 0 or (roll < 0.45 and n < 120):
                pos = rng.randint(0, n)
                sym = rng.randrange(5)
                engine.insert(pos, sym)
                oracle.insert_at(pos, sym)
            elif roll < 0.65:
                pos = rng.randrange(n)
                assert engine.delete(pos) == oracle.delete_at(pos)
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
        engine = RangeModeEngine((), Config(alpha=alpha, audit_mode=True))
        oracle = NaiveSeq()
        for raw, sym in ops:
            n = len(oracle)
            action = raw % 5
            if n == 0 or action < 2:
                pos = raw % (n + 1)
                engine.insert(pos, sym)
                oracle.insert_at(pos, sym)
            elif action == 2:
                pos = raw % n
                assert engine.delete(pos) == oracle.delete_at(pos)
            else:
                lo = raw % n
                hi = lo + (raw // 7) % (n - lo)
                assert engine.modes(lo, hi) == oracle.modes(lo, hi)
        assert engine.audit().ok
