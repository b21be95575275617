"""Stateful fuzzing: the engine and :class:`NaiveSeq` in lockstep under Hypothesis.

Each rule edits or queries both and compares them; ``audit()`` runs after
every rule, so a failure shrinks to a minimal op trace.  One rule runs an
op with a fault patched in, where an op can fail for lack of memory, and
checks that an op that raises changes nothing.  The machine also records
which rare paths it reached (layout resets, boundary moves, a freed summary
column reused, a table widened for a new symbol, a chunk word appended or
dropped, an edit that crosses a chunk offset, a relocation inside one
block, one of those across a chunk boundary, one across blocks, a failed
doubling or halving, a failed rebalance chain whose two moves or more
were undone, and a failed rewrite of the blocks at column 256 and a failed
insert right after one); the test requires every one of them, so the
fuzzing cannot silently stop exercising them.  Its blocks hold a few dozen
elements at most, so the test shrinks the chunk size S from 128 to 2.
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
from probe import (
    FAULTS, RETYPE_FAULTS, WIDEN_FAULTS, fail_nth_insert_at, lay_out, snapshot, word_count,
)

from rangemodes import Config, NaiveSeq, RangeModeEngine, charseq

ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5))
NARROW = 12  # the rules draw symbols 0..11; a "wide" stage adds fresh ones from 12 on
SYMBOLS = st.integers(0, NARROW - 1)
POSITIONS = st.integers(0, 10**6)  # reduced modulo the current length
INSERT_AT = 4  # faults at the first 4 calls of CharSeq.insert_at in one op
FAULT_POINTS = [*range(1, INSERT_AT + 1), *FAULTS, *WIDEN_FAULTS, *RETYPE_FAULTS]


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
        new = symbol not in table._column
        j, off = engine._seq.insert_place(pos)
        size, resets = engine.block_sizes()[j], len(engine.reset_events)
        count = word_count(engine._seq, j)
        engine.insert(pos, symbol)
        self.naive.insert_at(pos, symbol)
        if engine._table is table and new:
            widened = table._width > width
            self.reach("column reused" if free else "table widened" if widened else "spare column")
        if len(engine.reset_events) == resets:
            if engine.block_sizes()[j] == size:
                self.reach("boundary moves")  # block j overflowed and shed an element
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
        # Boundary moves fill the first blocks to capacity, so that an insert
        # there sheds its overflow along a chain of boundary moves.
        engine = self.engine
        sizes = [0] * len(engine.block_sizes())
        q, r = divmod(len(engine), engine.capacity)
        sizes[:q] = [engine.capacity] * q
        if r:
            sizes[q] = r
        lay_out(engine, sizes)

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
        setup=st.sampled_from(["none", "edge", "chain", "wide"]),
        a=POSITIONS,
        b=POSITIONS,
        symbol=SYMBOLS,
        fault=st.sampled_from(FAULT_POINTS),
    )
    def failing_op(self, op, setup, a, b, symbol, fault):
        """An op with one fault point patched in: the ``fault``-th call of
        :meth:`CharSeq.insert_at`, or a named place where a rebuild, a new
        column or the rewrite of the blocks at column 256 can fail.  An op
        that raises must change nothing; one that never reaches the fault
        must match the oracle as usual.

        Fault-free edits first set the stage.  With ``setup`` "edge", they
        take the length to where an insert doubles or a delete halves it.
        With "chain", they grow it until it fills n - 1 blocks for the n-th
        insert_at, two at least, through doublings where the layout is too
        small, short of the next one, and boundary moves pack those blocks
        full from block 0 on; the op then goes to the front.  An insert
        there, or a relocation from another block, sheds along a chain of
        as many moves, and the n-th insert_at is its (n-1)-th move: the
        n - 2 moves before it are undone.  With "wide", they insert fresh
        symbols until 256 columns are handed out and none is free, and the
        op inserts one more, which claims column 256; the stage then
        deletes them again, which halves the layout back to a narrow column
        map, so that the audits of the rules after it stay cheap.
        """
        engine, naive = self.engine, self.naive
        at_256 = False
        if setup == "edge" and op == "insert":
            while len(naive) < 2 * engine.n0 - 1:
                self._insert(len(naive), symbol)
        elif setup == "edge" and op == "delete":
            while len(naive) > engine.n0 // 2 + 1:
                self._delete(len(naive) - 1)
        elif setup == "chain":
            full = max(fault - 1, 2) if fault in range(1, INSERT_AT + 1) else 2
            while not full * engine.capacity <= len(naive) < 2 * engine.n0 - 1:
                self._insert(len(naive), symbol)
            self.pack()
            a = 0
        elif setup == "wide":
            fresh = (s for s in count(NARROW) if s not in engine._table._column)
            while len(engine._seq.symbol) < 256 or engine._table._free:
                self._insert(len(naive) // 2, next(fresh))
            op, symbol = "insert", next(fresh)
            at_256 = len(engine._seq.symbol) == 256
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
        before = snapshot(engine)
        with pytest.MonkeyPatch.context() as mp:
            if fault in FAULTS:
                FAULTS[fault](mp)
            elif fault in WIDEN_FAULTS:
                WIDEN_FAULTS[fault](mp)
            elif fault in RETYPE_FAULTS:
                RETYPE_FAULTS[fault](mp)
            else:
                fail_nth_insert_at(mp, fault)
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
            if fault in FAULTS:  # only a rebuild reaches these
                self.reach("a reset failed")
            elif setup == "chain" and fault in range(4, INSERT_AT + 1):  # two moves undone or more
                self.reach("a rebalance chain failed")
            elif at_256 and fault in RETYPE_FAULTS:
                self.reach("a rewrite at column 256 failed")
            elif at_256 and fault in range(1, INSERT_AT + 1):
                self.reach("an insert at column 256 failed")
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
        "double reset", "halve reset", "boundary moves", "column reused", "table widened",
        "chunk word appended or dropped", "edit crosses a chunk offset", "relocate within a block",
        "relocate within a block across a chunk boundary", "relocate across blocks",
        "a reset failed", "a rebalance chain failed", "a rewrite at column 256 failed",
        "an insert at column 256 failed",
    }
    assert wanted <= reached.keys(), wanted - reached.keys()
