"""One failed allocation at a time: an op that raises changes nothing.

``_testcapi.set_nomemory(n, n + 1)`` makes the allocation after the first
``n`` fail, and no other.  For each ``n`` from 0 up to the first at which
the op raises nothing, the op runs on a fresh engine: every raise must be
a :class:`MemoryError` that leaves the engine as it was and sound, and the
run that raises nothing must agree with :class:`NaiveSeq`.  The allocation
counts are not pinned; each sweep finds where its op stops raising.  The
ops are queries; the edits that rebuild the layout, which admit, build and
log a new layout before installing it: a doubling insert, a halving
delete, an insert of column 256, and an insert or a relocation into a full
block; and every kind of edit that does not rebuild, which computes every
new value before the one call that stores it, at two sizes and two values
of alpha.  Each edit, and each op but the "ids" insert, is also swept in a
fresh interpreter, where no function of its path has run: on some Python
versions a function's first calls allocate, and a sweep after warm calls
misses those allocations.  The garbage collector is off during a sweep, so
no collection runs inside an op.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from probe import pack_front, snapshot

from rangemodes import Config, NaiveSeq, RangeModeEngine, charseq

_testcapi = pytest.importorskip("_testcapi")


def grown(start, length, symbols=5):
    """An engine built from ``start`` elements, then grown or shrunk at its
    end to ``length``, with its :class:`NaiveSeq`."""
    engine = RangeModeEngine([k % symbols for k in range(start)])
    while len(engine) < length:
        engine.insert(len(engine), len(engine) % symbols)
    while len(engine) > length:
        engine.delete(len(engine) - 1)
    return engine, NaiveSeq(engine.to_list())


def packed(start, length):
    """:func:`grown`, with the blocks then packed full from block 0 on."""
    engine, naive = grown(start, length)
    return pack_front(engine), naive


CASES = {
    # n0 = 200 fills 6 slots of 33 or 34 elements: the first range reads
    # the cell of blocks 1..3, the second lies inside block 1.
    "modes of a cell": (lambda: grown(200, 200), lambda s: s.modes(3, 150), []),
    "modes inside a block": (lambda: grown(200, 200), lambda s: s.modes(40, 50), []),
    # Length 63 at n0 = 32: the insert doubles the length.
    "doubling insert": (lambda: grown(32, 63), lambda s: s.insert_at(20, 3), ["double"]),
    "doubling insert of a new symbol": (
        lambda: grown(32, 63), lambda s: s.insert_at(20, 99), ["double"],
    ),
    # Length 100 at n0 = 64, packed to blocks of [48, 48, 4]: the edit goes
    # into the full block 0, which rebuilds the layout.
    "overflow insert": (lambda: packed(64, 100), lambda s: s.insert_at(20, 3), ["overflow"]),
    "overflow insert of a new symbol": (
        lambda: packed(64, 100), lambda s: s.insert_at(20, 99), ["overflow"],
    ),
    "overflow relocation": (
        lambda: packed(64, 100), lambda s: s.relocate(99, 20), ["overflow"],
    ),
    # Length 33 at n0 = 64: the delete halves the length.
    "halving delete": (lambda: grown(64, 33), lambda s: s.delete_at(10), ["halve"]),
    # 256 columns of one-byte ids: a new symbol has the layout rebuilt with
    # four-byte ids.
    '"ids" insert': (lambda: grown(300, 300, 256), lambda s: s.insert_at(150, 256), ["ids"]),
}


class Engine:
    """The engine under :class:`NaiveSeq`'s op names."""

    def __init__(self, engine):
        self.modes = engine.modes
        self.insert_at = engine.insert
        self.delete_at = engine.delete
        self.relocate = engine.relocate


def faulted(op, engine, n):
    """``op`` on ``engine``, with the allocation after the first ``n`` failing."""
    _testcapi.set_nomemory(n, n + 1)
    try:
        return op(engine)
    finally:
        _testcapi.remove_mem_hooks()


@pytest.fixture
def no_gc():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def check(case, n):
    """Run ``case``, a build, an op and the resets it logs, with allocation
    ``n`` failing; True when it raised."""
    build, op, resets = case
    engine, naive = build()
    wrapped = Engine(engine)
    before = snapshot(engine)
    try:
        got = faulted(op, wrapped, n)
    except MemoryError:
        assert snapshot(engine) == before, n
        report = engine.audit()
        assert report.ok, (n, report.message)
        return True
    assert got == op(naive), n
    assert engine.to_list() == naive.to_list(), n
    assert [kind for kind, _ in engine.reset_events] == resets, n
    assert engine.audit().ok, n
    return False


def sweep(case, warm=True):
    """Check ``case`` with each allocation failing in turn, up to the first
    that its op does not reach, after a warm-up run of the op if ``warm``."""
    build, op, _ = case
    if warm:  # caches filled once do not count
        op(Engine(build()[0]))
    n = 0
    while check(case, n):
        n += 1
    assert n > 0  # the op allocates, so the first allocation failed


@pytest.mark.parametrize("case", [case for case in CASES if case != '"ids" insert'])
def test_every_failed_allocation_changes_nothing(no_gc, case):
    sweep(CASES[case])


def test_every_late_failed_allocation_of_an_ids_insert_changes_nothing(no_gc):
    # The rebuild makes about 10 000 allocations: find where it stops
    # raising, by doubling and then bisecting, and sweep the last 64 before
    # that in full, where the new layout is logged and installed, and the
    # rest at a stride.
    case = CASES['"ids" insert']
    build, op, _ = case
    op(Engine(build()[0]))
    hi = 1
    while check(case, hi):
        hi *= 2
    lo = hi // 2
    assert check(case, lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if check(case, mid):
            lo = mid
        else:
            hi = mid
    for n in [*range(0, lo - 64, 97), *range(max(lo - 64, 0), lo)]:
        check(case, n)


def built(n, alpha, *lone):
    """An engine at ``alpha`` built from ``n`` elements of five symbols, the
    last ones ``lone``, with its :class:`NaiveSeq`."""
    symbols = [k % 5 for k in range(n)]
    symbols[n - len(lone) :] = lone
    return RangeModeEngine(symbols, Config(alpha=alpha)), NaiveSeq(symbols)


def freed(n, alpha, *lone):
    """:func:`built` with the last ones ``lone`` and then a lone 9, which is
    deleted, so that its column is free."""
    engine, naive = built(n, alpha, *lone, 9)
    assert engine.delete(n - 1) == naive.delete_at(n - 1) == 9
    return engine, naive


# Each edit that does not rebuild: its build from (n, alpha), its op on a
# length n, and what it changes, from the snapshots before and after, so
# that each sweep takes the path it names.  A build's block 0 holds at
# least 10 elements, so a relocation from position 1 to 9 stays inside it,
# and with S = 4 crosses its chunk offsets 4 and 8.
EDITS = {
    "insert of a present symbol": (
        built, lambda s, n: s.insert_at(n // 2, 3), lambda a, b: a["symbol"] == b["symbol"],
    ),
    "insert of a new symbol into a free column": (
        freed,
        lambda s, n: s.insert_at(n // 2, 99),
        lambda a, b: (a["free"], b["free"], b["column"][99]) == ([5], [], 5),
    ),
    "insert of a new symbol with a widening": (
        built,
        lambda s, n: s.insert_at(n // 2, 99),
        lambda a, b: (a["free"], b["free"], b["column"][99]) == ([], [], 5),
    ),
    "delete of a symbol's last copy": (
        lambda n, alpha: built(n, alpha, 9),
        lambda s, n: s.delete_at(n - 1),
        lambda a, b: (a["free"], b["free"]) == ([], [5]),
    ),
    # 8 takes column 5 and 9 column 6, which its delete frees.
    "delete of a last copy beside a free column": (
        lambda n, alpha: freed(n, alpha, 8),
        lambda s, n: s.delete_at(n - 2),
        lambda a, b: (a["free"], b["free"]) == ([6], [6, 5]),
    ),
    "delete of one copy of many": (
        built, lambda s, n: s.delete_at(n // 2), lambda a, b: a["column"] == b["column"],
    ),
    # The edits at the two ends of the sequence, where the first and the
    # last filled block take or give an element at their outer ends.
    "insert at the front": (
        built, lambda s, n: s.insert_at(0, 3), lambda a, b: b["list"] == [3, *a["list"]],
    ),
    "insert at the end": (
        built, lambda s, n: s.insert_at(n, 3), lambda a, b: b["list"] == [*a["list"], 3],
    ),
    "delete at the front": (
        built, lambda s, n: s.delete_at(0), lambda a, b: b["list"] == a["list"][1:],
    ),
    "delete at the end": (
        built, lambda s, n: s.delete_at(n - 1), lambda a, b: b["list"] == a["list"][:-1],
    ),
    "relocation inside one block": (
        built, lambda s, n: s.relocate(1, 9), lambda a, b: a["sizes"] == b["sizes"],
    ),
    "relocation across blocks": (
        built, lambda s, n: s.relocate(1, n - 2), lambda a, b: a["sizes"] != b["sizes"],
    ),
    "relocation across blocks of a symbol's only copy": (
        lambda n, alpha: built(n, alpha, 9),
        lambda s, n: s.relocate(n - 1, 1),
        lambda a, b: (a["free"], b["free"], b["column"][9]) == ([], [], 5)
        and a["column"] == b["column"] and a["sizes"] != b["sizes"],
    ),
}


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1, 2)], ids=str)
@pytest.mark.parametrize("n", [100, 400])
@pytest.mark.parametrize("edit", EDITS)
def test_every_failed_allocation_of_an_edit_changes_nothing(no_gc, monkeypatch, edit, n, alpha):
    monkeypatch.setattr(charseq, "CHUNK", 4)
    build, op, changes = EDITS[edit]
    engine = build(n, alpha)[0]
    before = snapshot(engine)
    op(Engine(engine), n)
    assert changes(before, snapshot(engine)) and not engine.reset_events
    sweep((lambda: build(n, alpha), lambda s: op(s, n), []))


def cold_sweep(edit, n, alpha):
    """Sweep ``edit`` at ``n`` and ``alpha`` as the test above does, with
    S = 4, but with no warm-up and no first run of its op; in a fresh
    interpreter, the sweep then reaches the functions that only the op
    calls on their first calls."""
    charseq.CHUNK = 4
    build, op, _ = EDITS[edit]
    gc.disable()
    sweep((lambda: build(n, alpha), lambda s: op(s, n), []), warm=False)


def cold_case_sweep(case):
    """Sweep ``case`` of :data:`CASES` with no warm-up, as :func:`cold_sweep` does."""
    gc.disable()
    sweep(CASES[case], warm=False)


def run_fresh(call):
    """Run ``call``, Python source that calls into this module, in a fresh
    interpreter; assert that it exits cleanly."""
    tests = Path(__file__).resolve().parent
    path = [str(tests), str(Path(charseq.__file__).resolve().parents[1])]
    code = f"from fractions import Fraction\nimport test_faults\ntest_faults.{call}"
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert child.returncode == 0, child.stderr


@pytest.mark.parametrize(("n", "alpha"), [(100, Fraction(1, 3)), (400, Fraction(1, 2))], ids=str)
@pytest.mark.parametrize("edit", EDITS)
def test_every_failed_allocation_of_a_cold_edit_changes_nothing(edit, n, alpha):
    run_fresh(f"cold_sweep({edit!r}, {n}, {alpha!r})")


@pytest.mark.parametrize("case", [case for case in CASES if case != '"ids" insert'])
def test_every_failed_allocation_of_a_cold_op_changes_nothing(case):
    run_fresh(f"cold_case_sweep({case!r})")
