"""The four benchmark workloads: seeded inputs, one closed-loop round of ops,
and the oracle every answer is checked against outside the timed calls.

A workload object only describes inputs and ops; ``harness`` builds it,
times each op through a :class:`~harness.Recorder` and turns the samples
into metrics.  ``rounds_per_second`` sizes a run: rounds per second of op
time on the machine the benchmark was defined on (reference speed).  Every op draws its arguments from the workload's seeded
generator before the timed call, so one seed always gives the same op
sequence, however far a run gets through it.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from rangemodes import NaiveSeq, RangeModeEngine, SetFamily
from rangemodes.results import ModesResult

from harness import FAILED, Recorder


def _modes_op(rec: Recorder, engine, oracle, lo: int, hi: int) -> None:
    got = rec.call("modes", engine.modes, lo, hi)
    if got is not FAILED:
        want = oracle.modes(lo, hi)
        rec.check(got == want, f"modes({lo}, {hi}) = {got}, oracle {want}")


def _insert_op(rec: Recorder, engine, oracle: NaiveSeq, pos: int, symbol: int) -> None:
    if rec.call("insert", engine.insert, pos, symbol) is not FAILED:
        oracle.insert_at(pos, symbol)


def _delete_op(rec: Recorder, engine, oracle: NaiveSeq, pos: int) -> None:
    got = rec.call("delete", engine.delete, pos)
    if got is not FAILED:
        want = oracle.delete_at(pos)
        rec.check(got == want, f"delete({pos}) returned {got}, oracle {want}")


def _uniform_range(rng: random.Random, n: int) -> tuple[int, int]:
    a, b = rng.randrange(n), rng.randrange(n)
    return (a, b) if a <= b else (b, a)


class PrefixCounts:
    """Static oracle: symbol counts at every ``STEP``-th position.

    A range count is the difference of two checkpoints plus two partial
    scans shorter than ``STEP``, so checking a long range costs far less than
    the full scan of :class:`NaiveSeq`.  It shares no code with the engine.
    """

    STEP = 2048

    def __init__(self, symbols: list[int]) -> None:
        self._items = symbols
        step = self.STEP
        running: Counter[int] = Counter()
        self._marks = [Counter()]
        for at in range(0, len(symbols) - step + 1, step):
            running.update(symbols[at : at + step])
            self._marks.append(Counter(running))

    def modes(self, lo: int, hi: int) -> ModesResult:
        step, items = self.STEP, self._items
        first = -(-lo // step)  # checkpoints first..last lie inside [lo, hi + 1]
        last = (hi + 1) // step
        if first >= last:
            counts = Counter(items[lo : hi + 1])
        else:
            counts = self._marks[last] - self._marks[first]
            counts.update(items[lo : first * step])
            counts.update(items[last * step : hi + 1])
        top = max(counts.values())
        return ModesResult(top, tuple(sorted(s for s, c in counts.items() if c == top)))

    def to_list(self) -> list[int]:
        return list(self._items)


class _EngineWorkload:
    """Shared parts of the workloads that drive a bare engine over ``n`` symbols."""

    n: int
    SIGMA = 26

    def contents(self, rng: random.Random) -> list[int]:
        return [rng.randrange(self.SIGMA) for _ in range(self.n)]

    def build(self, contents: list[int]) -> RangeModeEngine:
        return RangeModeEngine(contents)

    def oracle(self, contents: list[int]):
        return NaiveSeq(contents)

    def engine(self, target: RangeModeEngine) -> RangeModeEngine:
        return target

    def finish(self, rec: Recorder, engine: RangeModeEngine, oracle) -> None:
        rec.check(engine.to_list() == oracle.to_list(), "final contents differ from the oracle")


class Churn(_EngineWorkload):
    """Update-heavy: equal thirds of insert, modes and delete at N near 2^17."""

    name = "churn"
    rounds_per_second = 52

    def __init__(self, n: int = 1 << 17, setup_repeats: int = 5) -> None:
        self.n, self.setup_repeats = n, setup_repeats

    def round(self, rec: Recorder, engine, oracle: NaiveSeq, rng: random.Random) -> None:
        _insert_op(rec, engine, oracle, rng.randint(0, len(oracle)), rng.randrange(self.SIGMA))
        _modes_op(rec, engine, oracle, *_uniform_range(rng, len(oracle)))
        _delete_op(rec, engine, oracle, rng.randrange(len(oracle)))


class Scan(_EngineWorkload):
    """Read-only: modes over log-uniform range lengths 1..N at N = 2^20.

    A round is one query from each of ``STRATA`` equal slices of log length,
    so every run sees nearly the same mix of short margin-only ranges and
    long interval-plus-margin ranges, and the median does not wander with
    the seed.
    """

    name = "scan"
    rounds_per_second = 18
    STRATA = 16

    def __init__(self, n: int = 1 << 20, setup_repeats: int = 3) -> None:
        self.n, self.setup_repeats = n, setup_repeats

    def oracle(self, contents: list[int]) -> PrefixCounts:
        return PrefixCounts(contents)

    def round(self, rec: Recorder, engine, oracle: PrefixCounts, rng: random.Random) -> None:
        n = self.n
        for stratum in range(self.STRATA):
            share = (stratum + rng.random()) / self.STRATA
            length = min(n, int(math.exp(share * math.log(n))))
            lo = rng.randint(0, n - length)
            _modes_op(rec, engine, oracle, lo, lo + length - 1)


class GrowShrink(_EngineWorkload):
    """Reset path: whole cycles from ``base`` up to 8 x ``base`` and back.

    Each phase is four edits to one modes query.  A round is one whole cycle,
    so every run samples the same mix of lengths and crosses three doubling
    and three halving resets per cycle.
    """

    name = "grow-shrink"
    rounds_per_second = 0.1

    def __init__(self, base: int = 1 << 10, setup_repeats: int = 9) -> None:
        self.n, self.top, self.setup_repeats = base, 8 * base, setup_repeats

    def round(self, rec: Recorder, engine, oracle: NaiveSeq, rng: random.Random) -> None:
        for growing in (True, False):
            step = 0
            # Stop at the first failure: a failed edit leaves the length where it was.
            while rec.failed == 0 and (len(oracle) < self.top if growing else len(oracle) > self.n):
                step += 1
                if step % 5 == 0:
                    _modes_op(rec, engine, oracle, *_uniform_range(rng, len(oracle)))
                elif growing:
                    pos, symbol = rng.randint(0, len(oracle)), rng.randrange(self.SIGMA)
                    _insert_op(rec, engine, oracle, pos, symbol)
                else:
                    _delete_op(rec, engine, oracle, rng.randrange(len(oracle)))
        report = engine.audit()
        rec.check(report.ok, f"audit after a cycle: {report.message}")


class Intersect:
    """SetFamily: half add/remove_member, half enumerate_intersection.

    Universe 256 and 64 sets of density ``DENSITY`` = 0.3 give N = 32768 and
    sigma' = 256.
    Updates remove a member or add a non-member with equal chance, so set
    sizes random-walk around their start and the density stays near 0.3.
    """

    name = "intersect"
    rounds_per_second = 55
    DENSITY = 0.3

    def __init__(self, universe: int = 256, sets: int = 64, setup_repeats: int = 5) -> None:
        self.universe, self.sets, self.setup_repeats = universe, sets, setup_repeats

    def contents(self, rng: random.Random) -> list[list[int]]:
        return [
            [x for x in range(self.universe) if rng.random() < self.DENSITY]
            for _ in range(self.sets)
        ]

    def build(self, contents: list[list[int]]) -> SetFamily:
        return SetFamily(contents, self.universe)

    def oracle(self, contents: list[list[int]]) -> list[set[int]]:
        return [set(members) for members in contents]

    def engine(self, target: SetFamily) -> RangeModeEngine:
        return target.engine

    def round(self, rec: Recorder, family: SetFamily, mirror: list[set[int]],
              rng: random.Random) -> None:
        k = rng.randint(1, self.sets)
        members = mirror[k - 1]
        if members and (rng.random() < 0.5 or len(members) == self.universe):
            x = rng.choice(sorted(members))
            if rec.call("update", family.remove_member, k, x) is not FAILED:
                members.discard(x)
        else:
            x = rng.choice([y for y in range(self.universe) if y not in members])
            if rec.call("update", family.add_member, k, x) is not FAILED:
                members.add(x)
        i, j = sorted(rng.sample(range(1, self.sets + 1), 2))
        got = rec.call("modes", family.enumerate_intersection, i, j)
        if got is not FAILED:
            want = mirror[i - 1] & mirror[j - 1]
            rec.check(got == want, f"enumerate_intersection({i}, {j}) = {got}, mirror {want}")

    def finish(self, rec: Recorder, family: SetFamily, mirror: list[set[int]]) -> None:
        """Compare the engine's whole sequence with the gadgets the mirror implies.

        Each set's gadget is its members, its non-members, the non-members
        again and the members again, all ascending.
        """
        want: list[int] = []
        for members in mirror:
            inside = sorted(members)
            outside = [x for x in range(self.universe) if x not in members]
            want += inside + outside + outside + inside
        rec.check(family.engine.to_list() == want, "final gadgets differ from the mirror")


WORKLOADS = {w.name: w for w in (Churn(), Scan(), GrowShrink(), Intersect())}
