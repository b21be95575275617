"""Stateful fuzzing: the engine and :class:`NaiveSeq` in lockstep under Hypothesis.

Each rule edits or queries both and compares them; ``audit()`` runs after
every rule, so a failure shrinks to a minimal op trace.  The machine also
records which rare paths it reached (layout resets, boundary moves, a freed
summary column reused, a table widened for a new symbol); the test requires
every one of them, so the fuzzing cannot silently stop exercising them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from hypothesis import HealthCheck, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from rangemodes import Config, NaiveSeq, RangeModeEngine

ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5))
SYMBOLS = st.integers(0, 11)
POSITIONS = st.integers(0, 10**6)  # reduced modulo the current length


class EngineMachine(RuleBasedStateMachine):
    def __init__(self, reached: Counter | None = None) -> None:
        super().__init__()
        self.reached = Counter() if reached is None else reached

    def reach(self, path: str) -> None:
        self.reached[path] += 1
        event(path)

    @initialize(alpha=st.sampled_from(ALPHAS), initial=st.lists(SYMBOLS, max_size=24))
    def build(self, alpha, initial):
        self.engine = RangeModeEngine(initial, Config(alpha=alpha))
        self.naive = NaiveSeq(initial)
        self.reach(f"alpha={alpha}")

    def _insert(self, pos, symbol):
        engine = self.engine
        table, width, free = engine._table, engine._table._width, len(engine._table._free)
        new = symbol not in table._column
        j = engine._seq.insert_block(pos)
        size, resets = engine.block_sizes()[j], len(engine.reset_events)
        engine.insert(pos, symbol)
        self.naive.insert_at(pos, symbol)
        if engine._table is table and new:
            widened = table._width > width
            self.reach("column reused" if free else "table widened" if widened else "spare column")
        if len(engine.reset_events) == resets and engine.block_sizes()[j] == size:
            self.reach("boundary moves")  # block j overflowed and shed an element

    @rule(pos=POSITIONS, symbol=SYMBOLS)
    def insert(self, pos, symbol):
        self._insert(pos % (len(self.naive) + 1), symbol)

    @rule(symbols=st.lists(SYMBOLS, min_size=1, max_size=8))
    def insert_run(self, symbols):
        # Grows the sequence fast enough to reach doubling resets.
        for symbol in symbols:
            self._insert(len(self.naive) // 2, symbol)

    @precondition(lambda self: len(self.naive) > 0)
    @rule(pos=POSITIONS)
    def delete(self, pos):
        pos %= len(self.naive)
        assert self.engine.delete(pos) == self.naive.delete_at(pos)

    @precondition(lambda self: len(self.naive) > 0)
    @rule(count=st.integers(1, 8))
    def delete_run(self, count):
        # Shrinks the sequence fast enough to reach halving resets.
        for _ in range(min(count, len(self.naive))):
            assert self.engine.delete(0) == self.naive.delete_at(0)

    @precondition(lambda self: len(self.naive) > 0)
    @rule(a=POSITIONS, b=POSITIONS)
    def modes(self, a, b):
        n = len(self.naive)
        lo, hi = sorted((a % n, b % n))
        assert self.engine.modes(lo, hi) == self.naive.modes(lo, hi)

    @invariant()
    def agrees_with_the_oracle(self):
        assert self.engine.to_list() == self.naive.to_list()
        report = self.engine.audit()
        assert report.ok, report.message

    def teardown(self):
        for kind, _ in self.engine.reset_events:
            self.reach(f"{kind} reset")


def test_engine_matches_oracle_in_lockstep():
    reached: Counter = Counter()
    run_state_machine_as_test(
        lambda: EngineMachine(reached),
        settings=settings(
            max_examples=60,
            stateful_step_count=40,
            deadline=None,
            derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
    wanted = {f"alpha={alpha}" for alpha in ALPHAS} | {
        "double reset", "halve reset", "boundary moves", "column reused", "table widened",
    }
    assert wanted <= reached.keys(), wanted - reached.keys()
