"""Closed-loop runner: one client, one thread, each op sent when the last returns.

:func:`run` builds a workload from its seed, times the op stream and returns
the result object ``run.py`` prints.  The untraced run reports the
end-to-end metrics; the traced run reports the per-layer split of a second,
traced stream over the same inputs.

Op and build times are thread CPU time, so they leave out the time the OS
or the hypervisor ran something else.  They are also scaled to a reference
CPU speed: on a shared machine the speed this process gets switches between
states up to 2x apart every few hundred milliseconds, which moves raw times
between runs far more than any bound worth keeping.  A fixed,
interpreter-bound probe runs between ops, outside their timers, and each
op's time is multiplied by ``REFERENCE_PROBE_NS`` over the median probe time
around it.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from pathlib import Path

from tracer import Tracer

clock = time.perf_counter_ns
cpu_clock = time.thread_time_ns

REFERENCE_PROBE_NS = 60_000
"""Time of one probe at the reference speed: the fast state of the 2-vCPU
machine (Python 3.11) the benchmark was defined on."""

PROBE_EVERY_NS = 1_000_000  # op time between two probes
PROBE_WINDOW_NS = 20_000_000  # probes this close to an op give its speed
SETUP_PROBES = 15  # probes before and after each timed build

FAILED = object()
"""Returned by :meth:`Recorder.call` in place of the result of an op that raised."""


def _probe_work() -> None:
    counts: dict[int, int] = {}
    ranked: list[int] = []
    for i in range(200):
        key = i % 61
        counts[key] = counts.get(key, 0) + 1
        insort(ranked, (i * 7919) % 1000)


def probe() -> int:
    """Time the fixed probe work in ns, after one untimed pass warms the caches.

    Timing a warm pass measures the CPU speed the process gets, not how much
    of the caches the op before it evicted.
    """
    _probe_work()
    t0 = cpu_clock()
    _probe_work()
    return cpu_clock() - t0


class Recorder:
    """Op times, failures and speed probes of one op stream."""

    def __init__(self) -> None:
        self.kinds: list[str] = []  # per completed op
        self.starts: list[int] = []  # clock() at the call
        self.times: list[int] = []  # CPU time of the call
        self.walls: list[int] = []  # wall time of the call
        self.probe_at: list[int] = []
        self.probe_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0  # CPU time of all calls, which paces the probes
        self.first_failure: str | None = None
        self.peak_rss_mib = 0.0  # ru_maxrss before the final check
        self._next_probe = 0

    def call(self, kind: str, fn, *args):
        """Time one op; an op that raises counts as failed and is not sampled."""
        self.attempted += 1
        if self.busy_ns >= self._next_probe:
            self.probe_at.append(clock())
            self.probe_ns.append(probe())
            self._next_probe = self.busy_ns + PROBE_EVERY_NS
        t0 = clock()
        c0 = cpu_clock()
        try:
            result = fn(*args)
        except Exception as exc:  # every exception an op raises is a failed op
            self.busy_ns += cpu_clock() - c0
            self.fail(f"{kind}{args} raised {exc!r}")
            return FAILED
        elapsed = cpu_clock() - c0
        self.walls.append(clock() - t0)
        self.busy_ns += elapsed
        self.kinds.append(kind)
        self.starts.append(t0)
        self.times.append(elapsed)
        return result

    def check(self, ok: bool, what: str) -> None:
        """Count a wrong answer of an op that returned."""
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what

    def scaled(self) -> list[float]:
        """Each op's time in ns, scaled to the reference speed."""
        at, probes = self.probe_at, self.probe_ns
        out = []
        for start, elapsed in zip(self.starts, self.times):
            lo = bisect_left(at, start - PROBE_WINDOW_NS)
            hi = bisect_right(at, start + elapsed + PROBE_WINDOW_NS)
            near = probes[lo:hi] or probes[max(0, lo - 1) : lo + 1]
            out.append(elapsed * REFERENCE_PROBE_NS / statistics.median(near))
        return out

    def samples(self) -> dict[str, int]:
        return dict(Counter(self.kinds))


END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "modes_p50_us": "us",
    "modes_p99_us": "us",
    "op_p99_us": "us",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "charseq.self_us_per_op": "us/op",
    "charseq.margin_elems_per_modes": "elems/query",
    "blockindex.self_us_per_op": "us/op",
    "blockindex.calls_per_op": "calls/op",
    "pairtable.apply_point.self_us_per_op": "us/op",
    "pairtable.cells_touched_per_update": "cells/update",
    "pairtable.shift.self_us_per_op": "us/op",
    "pairtable.shift.calls": "count",
    "pairtable.build.self_s": "s",
    "pairtable.build.calls": "count",
    "pairtable.cells": "count",
    "countedset.read.self_us_per_op": "us/op",
    "countedset.ranked_reads_per_modes": "reads/query",
    "engine.modes.self_us_per_op": "us/op",
    "engine.update.self_us_per_op": "us/op",
    "engine.resets": "count",
    "engine.boundary_moves": "count",
    "engine.modes_output_per_query": "modes/query",
    "setintersect.self_us_per_op": "us/op",
    "shape.n": "count",
    "shape.slots": "count",
    "shape.sigma_prime": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

# Methods the workloads call as timed ops; spans outside them are not op time.
_OP_ENTRIES = frozenset({
    "RangeModeEngine.insert", "RangeModeEngine.delete", "RangeModeEngine.modes",
    "SetFamily.add_member", "SetFamily.remove_member", "SetFamily.enumerate_intersection",
})

# Layers whose self time is reported per op of the traced stream.
_SELF_TIME_LAYERS = (
    "charseq", "blockindex", "pairtable.apply_point", "pairtable.shift",
    "countedset.read", "engine.modes", "engine.update", "setintersect",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``0 < q <= 1``; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stream(workload, target, oracle, seed: int, seconds: float) -> Recorder:
    """Run the workload's rounds for ``seconds`` at its reference rate.

    The round count is fixed by ``seconds``, not by a clock: the engine's
    cost per op drifts while a fresh layout settles (churn starts with every
    block full), so a run that stopped on time would sample a different
    stretch of the stream whenever the machine or the code got faster.
    """
    rng = random.Random(f"{workload.name}:{seed}:ops")
    rec = Recorder()
    for _ in range(max(1, round(seconds * workload.rounds_per_second))):
        workload.round(rec, target, oracle, rng)
    # Read before the final check, whose whole-sequence copies are not the engine's memory.
    rec.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.finish(rec, target, oracle)
    return rec


def _timed_build(workload, contents):
    """Build once; return the target and its build time scaled to the reference speed."""
    before = [probe() for _ in range(SETUP_PROBES)]
    c0 = cpu_clock()
    target = workload.build(contents)
    elapsed = cpu_clock() - c0
    after = [probe() for _ in range(SETUP_PROBES)]
    return target, elapsed * REFERENCE_PROBE_NS / statistics.median(before + after)


def _shape(engine) -> dict[str, int]:
    return {
        "n": len(engine),
        "slots": len(engine.block_sizes()),
        "sigma_prime": engine.sigma_prime,
    }


def _untraced(workload, contents, seed: int, seconds: float) -> dict:
    setup = []
    target = None
    for _ in range(workload.setup_repeats):
        target = None  # release the previous build before timing the next
        target, elapsed = _timed_build(workload, contents)
        setup.append(elapsed)
    rec = _stream(workload, target, workload.oracle(contents), seed, seconds)
    scaled = rec.scaled()
    by_kind = {kind: [t for t, k in zip(scaled, rec.kinds) if k == kind] for kind in rec.samples()}
    modes = by_kind.get("modes", [])
    values = {
        "setup_s": percentile(setup, 0.5) / 1e9,
        "ops_per_s": _ratio(len(scaled), sum(scaled) / 1e9),
        "modes_p50_us": percentile(modes, 0.5) / 1e3,
        "modes_p99_us": percentile(modes, 0.99) / 1e3,
        "op_p99_us": percentile(scaled, 0.99) / 1e3,
        "peak_rss_mib": rec.peak_rss_mib,
    }
    latency = {kind: (percentile(ts, 0.5) / 1e3, percentile(ts, 0.99) / 1e3) for kind, ts in by_kind.items()}
    return _result(rec, values, END_TO_END, _shape(workload.engine(target)), latency)


def _traced(workload, contents, seed: int, seconds: float, span_file: Path | None) -> dict:
    """Half the time untraced, then half traced on a fresh build of the same inputs."""
    plain = _stream(workload, workload.build(contents), workload.oracle(contents), seed, seconds / 2)
    plain_scaled = plain.scaled()
    tracer = Tracer()
    tracer.install()
    try:
        target = workload.build(contents)
        first = tracer.mark()
        engine = workload.engine(target)
        resets_before = len(engine.reset_events)
        rec = _stream(workload, target, workload.oracle(contents), seed, seconds / 2)
        resets = len(engine.reset_events) - resets_before
    finally:
        tracer.uninstall()
    scaled = rec.scaled()
    # Spans are raw wall times; one factor per run puts them on the reference scale.
    speed = _ratio(sum(scaled), sum(rec.walls))
    self_ns, calls = tracer.self_times(first, _OP_ENTRIES)
    layer_ns: Counter = Counter()
    layer_calls: Counter = Counter()
    for name, ns in self_ns.items():
        layer_ns[tracer.layer_of[name]] += ns
        layer_calls[tracer.layer_of[name]] += calls[name]
    build_ns, build_calls = tracer.self_times(0)
    ops = len(scaled)
    modes_calls = calls["RangeModeEngine.modes"]
    counts = tracer.counts
    shape = _shape(engine)
    values = {
        f"{layer}.self_us_per_op": _ratio(layer_ns[layer] * speed / 1e3, ops)
        for layer in _SELF_TIME_LAYERS
    }
    values.update({
        "charseq.margin_elems_per_modes": _ratio(counts["margin_elems"], modes_calls),
        "blockindex.calls_per_op": _ratio(layer_calls["blockindex"], ops),
        "pairtable.cells_touched_per_update": _ratio(counts["cells_touched"], calls["PairTable.apply_point"]),
        "pairtable.shift.calls": layer_calls["pairtable.shift"],
        "pairtable.build.self_s": build_ns["PairTable.__init__"] * speed / 1e9,
        "pairtable.build.calls": build_calls["PairTable.__init__"],
        "pairtable.cells": tracer.table.cell_count(),
        "countedset.ranked_reads_per_modes": _ratio(
            calls["CountedSet.max_entry"] + calls["CountedSet.next_entry"], modes_calls),
        "engine.resets": resets,
        "engine.boundary_moves": calls["RangeModeEngine.move_left"] + calls["RangeModeEngine.move_right"],
        "engine.modes_output_per_query": _ratio(counts["modes_output"], modes_calls),
        "shape.n": shape["n"],
        "shape.slots": shape["slots"],
        "shape.sigma_prime": shape["sigma_prime"],
        # Traced over untraced ops_per_s; both sides scaled, so speed drift cancels.
        "trace.overhead": _ratio(ops / sum(scaled), len(plain_scaled) / sum(plain_scaled)),
        "trace.coverage": _ratio(sum(self_ns.values()), sum(rec.walls)),
    })
    if span_file is not None:
        tracer.write(span_file)
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.first_failure = plain.first_failure or rec.first_failure
    rec.kinds += plain.kinds
    return _result(rec, values, PER_LAYER, shape)


def _result(rec: Recorder, values: dict, units: dict, shape: dict, latency: dict | None = None) -> dict:
    """The printed result; only the first four keys go into the JSON line."""
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "samples": rec.samples(),
        "shape": shape,
        "first_failure": rec.first_failure,
        "latency_us": latency or {},
    }


def run(workload, seed: int, seconds: float, trace: bool, span_file: Path | None = None) -> dict:
    """Run one workload; the ``correct``/``attempted``/``failed``/``metrics`` keys are the result."""
    contents = workload.contents(random.Random(f"{workload.name}:{seed}:contents"))
    if trace:
        return _traced(workload, contents, seed, seconds, span_file)
    return _untraced(workload, contents, seed, seconds)
