"""Stateful fuzzing: the engine and :class:`NaiveSeq` in lockstep under Hypothesis.

Each rule edits or queries both and compares them; ``audit()`` runs after
every rule, so a failure shrinks to a minimal op trace.  One rule runs an
op with a fault patched in, where an op can fail for lack of memory, and
checks that an op that raises changes nothing.  The machine also records
which rare paths it reached (layout resets, an insert at the end of a full
block that the next block took, a freed summary column reused, a table
widened for a new symbol, a chunk word appended or dropped, an edit that
crosses a chunk offset, a relocation inside one block, one of those across
a chunk boundary, one across blocks, a failed doubling or halving, a failed
overflow rebuild, a failed rebuild at column 256, a failed insert of a new
column after one, a failed edit that does not rebuild, and a new symbol's
failed summary add); the test requires
every one of them, so the fuzzing cannot silently stop exercising them.
Its blocks hold a few dozen elements at most, so the test shrinks the
chunk size S from 128 to 2.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count

import pytest
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
from probe import EDIT_FAULTS, FAULTS, WIDEN_FAULTS, pack_front, snapshot, word_count

from rangemodes import Config, NaiveSeq, RangeModeEngine, charseq

ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5))
NARROW = 12  # the rules draw symbols 0..11; a "wide" stage adds fresh ones from 12 on
SYMBOLS = st.integers(0, NARROW - 1)
POSITIONS = st.integers(0, 10**6)  # reduced modulo the current length
FAULT_POINTS = [*EDIT_FAULTS, *FAULTS, *WIDEN_FAULTS]


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

    def _reach_words(self, k, off, stop, count):
        """Record the word paths of an edit at offset ``off`` of block ``k``
        that changed the words of the chunk offsets below ``stop``, and that
        had ``count`` words before."""
        if word_count(self.engine._seq, k) != count:
            self.reach("chunk word appended or dropped")
        if (off // charseq.CHUNK + 1) * charseq.CHUNK < stop:
            self.reach("edit crosses a chunk offset")

    def _insert(self, pos, symbol):
        engine = self.engine
        table, width, free = engine._table, engine._table._width, len(engine._table._free)
        new = symbol not in table._seq.column
        j, off = engine._seq.insert_place(pos)
        size, resets = engine.block_sizes()[j], len(engine.reset_events)
        count = word_count(engine._seq, j)
        engine.insert(pos, symbol)
        self.naive.insert_at(pos, symbol)
        if engine._table is table and new:
            widened = table._width > width
            self.reach("column reused" if free else "table widened" if widened else "spare column")
        if len(engine.reset_events) == resets:
            if engine.block_sizes()[j] == size:  # block j was full
                self.reach("the next block took an end insert")
            else:
                self._reach_words(j, off, size + 1, count)

    @rule(pos=POSITIONS, symbol=SYMBOLS)
    def insert(self, pos, symbol):
        self._insert(pos % (len(self.naive) + 1), symbol)

    @rule(symbols=st.lists(SYMBOLS, min_size=1, max_size=8))
    def insert_run(self, symbols):
        # Grows the sequence fast enough to reach doubling resets.
        for symbol in symbols:
            self._insert(len(self.naive) // 2, symbol)

    @rule()
    def pack(self):
        # A layout by hand fills the first blocks to capacity, so that an
        # insert there rebuilds the layout, or, at the end of one, joins the
        # next.
        pack_front(self.engine)

    def _delete(self, pos):
        resets = len(self.engine.reset_events)
        k, off = self.engine._seq.locate(pos)
        size, count = self.engine.block_sizes()[k], word_count(self.engine._seq, k)
        assert self.engine.delete(pos) == self.naive.delete_at(pos)
        if len(self.engine.reset_events) == resets:
            self._reach_words(k, off, size, count)

    @precondition(lambda self: len(self.naive) > 0)
    @rule(pos=POSITIONS)
    def delete(self, pos):
        self._delete(pos % len(self.naive))

    @precondition(lambda self: len(self.naive) > 0)
    @rule(count=st.integers(1, 8))
    def delete_run(self, count):
        # Shrinks the sequence fast enough to reach halving resets.
        for _ in range(min(count, len(self.naive))):
            self._delete(0)

    @precondition(lambda self: len(self.naive) > 0)
    @rule(a=POSITIONS, b=POSITIONS)
    def relocate(self, a, b):
        n = len(self.naive)
        src, dst = a % n, b % n
        seq = self.engine._seq
        js, off = seq.locate(src)
        count = word_count(seq, js)
        to = off + dst - src  # its offset if it stays in block js
        jd = seq.insert_place(dst if dst <= src else dst + 1)[0]
        assert self.engine.relocate(src, dst) == self.naive.relocate(src, dst)
        if jd == js:  # the block keeps its length, so its word count too
            assert word_count(seq, js) == count
            self.reach("relocate within a block")
            if off // charseq.CHUNK != to // charseq.CHUNK:
                self.reach("relocate within a block across a chunk boundary")
            return
        self.reach("relocate across blocks")

    def _narrow(self):
        """Delete the fresh symbols, then elements from the end until a
        halving has rebuilt the column map at ``NARROW`` columns or fewer."""
        fresh = [pos for pos, symbol in enumerate(self.naive.to_list()) if symbol >= NARROW]
        for pos in reversed(fresh):
            self._delete(pos)
        while len(self.engine._seq.symbol) > NARROW:
            self._delete(len(self.naive) - 1)

    @rule(
        op=st.sampled_from(["insert", "delete", "relocate"]),
        setup=st.sampled_from(["none", "edge", "full", "wide"]),
        a=POSITIONS,
        b=POSITIONS,
        symbol=SYMBOLS,
        fault=st.sampled_from(FAULT_POINTS),
    )
    def failing_op(self, op, setup, a, b, symbol, fault):
        """An op with one fault point patched in: a named place where an
        edit that does not rebuild, a rebuild or a new column can fail.  An
        op that raises must change nothing; one that never reaches the fault
        must match the oracle as usual.

        Fault-free edits first set the stage.  With ``setup`` "edge", they
        take the length to where an insert doubles or a delete halves it.
        With "full", they grow it past one block's capacity, short of its
        doubling, and a layout by hand packs the blocks full from block 0 on;
        the op is then an insert at the front or a relocation there from
        the last element, and either rebuilds the layout.  With "wide", they
        insert fresh symbols until 256 columns are handed out and none is
        free.  With a rebuild fault the op inserts one more, which would take
        column 256 and so rebuilds the layout with four-byte ids; with any
        other, that rebuild comes first, fault-free, and the op inserts the
        next fresh symbol, which claims a column past it.  The stage then
        deletes them again, which halves the layout back to a narrow column
        map, so that the audits of the rules after it stay cheap.
        """
        engine, naive = self.engine, self.naive
        wide = None  # what a failure of the op in the "wide" stage shows
        if setup == "edge" and op == "insert":
            while len(naive) < 2 * engine.n0 - 1:
                self._insert(len(naive), symbol)
        elif setup == "edge" and op == "delete":
            while len(naive) > engine.n0 // 2 + 1:
                self._delete(len(naive) - 1)
        elif setup == "full":
            while not engine.capacity < len(naive) < 2 * engine.n0 - 1:
                self._insert(len(naive), symbol)
            self.pack()
            op = "relocate" if op == "delete" else op
            a, b = 0, len(naive) - 1
        elif setup == "wide":
            fresh = (s for s in count(NARROW) if s not in engine._table._seq.column)
            while len(engine._seq.symbol) < 256 or engine._table._free:
                self._insert(len(naive) // 2, next(fresh))
            if len(engine._seq.symbol) == 256 and fault in FAULTS:
                wide = "a rebuild at column 256 failed"
            elif len(engine._seq.symbol) == 256:
                self._insert(len(naive) // 2, next(fresh))
                assert len(engine._seq.symbol) == 257 and not engine._table._free
                wide = "an insert of a new column after that rebuild failed"
            op, symbol = "insert", next(fresh)
        n = len(naive)
        if not n:
            op = "insert"
        if op == "insert":
            pos = a % (n + 1)
            run, mirror = lambda: engine.insert(pos, symbol), lambda: naive.insert_at(pos, symbol)
        elif op == "delete":
            pos = a % n
            run, mirror = lambda: engine.delete(pos), lambda: naive.delete_at(pos)
        else:
            src, dst = b % n, a % n
            run, mirror = lambda: engine.relocate(src, dst), lambda: naive.relocate(src, dst)
        new = op == "insert" and symbol not in engine._table._seq.column
        before = snapshot(engine)
        with pytest.MonkeyPatch.context() as mp:
            {**EDIT_FAULTS, **FAULTS, **WIDEN_FAULTS}[fault](mp)
            try:
                got = run()
            except (MemoryError, ValueError):
                failed = True
            else:
                failed = False
        if failed:
            assert snapshot(engine) == before
            report = engine.audit()
            assert report.ok, report.message
            if wide and fault not in WIDEN_FAULTS:
                self.reach(wide)
            elif fault in FAULTS:  # only a rebuild reaches these
                self.reach("an overflow rebuild failed" if setup == "full" else "a reset failed")
            elif fault in EDIT_FAULTS:  # a rebuild reaches none of these
                self.reach("a non-rebuilding edit failed")
            if fault == "slice compute" and new:
                self.reach("a new symbol's summary add failed")
        else:
            assert got == mirror()
        if setup == "wide":
            self._narrow()

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


def test_engine_matches_oracle_in_lockstep(monkeypatch):
    monkeypatch.setattr(charseq, "CHUNK", 2)
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
        "double reset", "halve reset", "ids reset", "overflow reset",
        "the next block took an end insert", "column reused",
        "table widened", "chunk word appended or dropped", "edit crosses a chunk offset",
        "relocate within a block", "relocate within a block across a chunk boundary",
        "relocate across blocks",
        "a reset failed", "an overflow rebuild failed", "a rebuild at column 256 failed",
        "an insert of a new column after that rebuild failed", "a new symbol's summary add failed",
        "a non-rebuilding edit failed",
    }
    assert wanted <= reached.keys(), wanted - reached.keys()
