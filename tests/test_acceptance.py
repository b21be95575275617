"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Timing-based checks use deliberately wide windows; the
correctness checks are exact.
"""

import random
import statistics
import time

from rangemodes import Config, ModesResult, NaiveSeq, RangeModeEngine, SetFamily
from rangemodes.cli import fit_loglog_slope, run_fuzz


def _pass(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_differential_correctness():
    """10k-op traces, alphabets {2, 5, 26, 1000}: exact match."""
    start = time.time()
    for alphabet in (2, 5, 26, 1000):
        report = run_fuzz(
            seed=1000 + alphabet,
            ops=10_000,
            max_len=2_000,
            alphabet=alphabet,
        )
        assert report.ok, f"alphabet={alphabet}: {report.failure}"
        assert report.queries > 3_000
    elapsed = time.time() - start
    _pass(
        1,
        f"4 x 10k-op differential traces exact (alphabets 2/5/26/1000) in {elapsed:.1f}s",
    )


def test_criterion_2_regime_stress():
    """Grow to 5000 and shrink to 8 with the per-edit capacity audit armed."""
    rng = random.Random(77)
    engine = RangeModeEngine((), Config(audit_mode=True))
    oracle = NaiveSeq()
    ops = 0

    def maybe_query():
        if ops % 50 == 0 and len(oracle):
            lo = rng.randrange(len(oracle))
            hi = rng.randint(lo, len(oracle) - 1)
            assert engine.modes(lo, hi) == oracle.modes(lo, hi), f"op {ops}"

    while len(oracle) < 5_000:
        pos = rng.randint(0, len(oracle))
        sym = rng.randrange(26)
        engine.insert(pos, sym)  # audit_mode asserts every block's capacity
        oracle.insert_at(pos, sym)
        ops += 1
        maybe_query()
    while len(oracle) > 8:
        pos = rng.randrange(len(oracle))
        assert engine.delete(pos) == oracle.delete_at(pos)
        ops += 1
        maybe_query()

    kinds = [kind for kind, _ in engine.reset_events]
    doublings, halvings = kinds.count("double"), kinds.count("halve")
    assert doublings >= 10, f"expected a full doubling ladder, saw {doublings}"
    assert halvings >= 8, f"expected a full halving ladder, saw {halvings}"
    assert engine.audit().ok
    _pass(
        2,
        f"grow/shrink 0->5000->8 with {doublings} doubling and {halvings} halving "
        f"resets, every 50th-op query exact, capacities asserted after each edit",
    )


def test_criterion_3_structural_audit():
    """Full audit every 100 ops stays clean on instances with N <= 300."""
    start = time.time()
    audits = 0
    for seed in (5, 6):
        rng = random.Random(seed)
        engine = RangeModeEngine((), Config(audit_mode=True))
        for step in range(2_500):
            n = len(engine)
            roll = rng.random()
            if n == 0 or (roll < 0.45 and n < 300):
                engine.insert(rng.randint(0, n), rng.randrange(12))
            elif roll < 0.65:
                engine.delete(rng.randrange(n))
            elif n:
                lo = rng.randrange(n)
                engine.modes(lo, rng.randint(lo, n - 1))
            if (step + 1) % 100 == 0:
                report = engine.audit()
                assert report.ok, f"seed={seed}/op={step}: {report.message}"
                audits += 1
    elapsed = time.time() - start
    assert elapsed < 30, f"structural audit criterion took {elapsed:.1f}s"
    _pass(3, f"{audits} full audits clean (partition, capacities, all cells) in {elapsed:.1f}s")


def test_criterion_4_update_scaling():
    """Median update time scales sublinearly: log-log slope in [0.4, 0.9]."""
    sizes = [2**14, 2**17, 2**20]
    reps = 33
    medians: dict[str, list[tuple[int, float]]] = {"insert": [], "delete": []}
    for n in sizes:
        rng = random.Random(4000 + n)
        engine = RangeModeEngine((rng.randrange(26) for _ in range(n)))
        assert engine.sigma_prime == 26
        samples: dict[str, list[int]] = {"insert": [], "delete": []}
        clock = time.perf_counter_ns
        for _ in range(reps):
            pos = rng.randint(0, len(engine))
            sym = rng.randrange(26)
            t0 = clock()
            engine.insert(pos, sym)
            samples["insert"].append(clock() - t0)
            t0 = clock()
            engine.delete(pos)
            samples["delete"].append(clock() - t0)
        for op, times in samples.items():
            medians[op].append((n, float(statistics.median(times))))
    lines = []
    for op, points in medians.items():
        slope = fit_loglog_slope(points)
        assert 0.4 <= slope <= 0.9, f"{op} slope {slope:.3f} outside [0.4, 0.9]: {points}"
        t14 = points[0][1]
        t20 = points[-1][1]
        linear_extrapolation = t14 * (2**20 / 2**14)
        assert t20 < 10 * linear_extrapolation, (
            f"{op} at 2^20 not sublinear: {t20}ns vs 10x linear {10 * linear_extrapolation}ns"
        )
        lines.append(f"{op} slope={slope:.2f}")
    _pass(4, f"update scaling sublinear with sigma'=26 ({', '.join(lines)}, target 2/3)")


def test_criterion_5_output_sensitivity():
    """Full-range modes with k equally frequent symbols: exact set, ~linear cost."""
    copies = 16
    reps = 25
    medians: dict[int, float] = {}
    for k in (1, 64, 4096):
        rng = random.Random(50 + k)
        symbols = [sym for sym in range(k) for _ in range(copies)]
        rng.shuffle(symbols)
        engine = RangeModeEngine(symbols)
        expected = ModesResult(copies, tuple(range(k)))
        times = []
        clock = time.perf_counter_ns
        for _ in range(reps):
            t0 = clock()
            result = engine.modes(0, len(symbols) - 1)
            times.append(clock() - t0)
            assert result == expected, f"k={k}: wrong mode set"
        medians[k] = float(statistics.median(times))
    ratio = medians[4096] / medians[64]
    assert 16 <= ratio <= 256, f"t(4096)/t(64) = {ratio:.1f} outside [16, 256]: {medians}"
    assert medians[64] > medians[1] * 0.5, f"timings non-monotonic: {medians}"
    _pass(
        5,
        f"output-sensitive enumeration exact for k=1/64/4096; "
        f"t(4096)/t(64) = {ratio:.1f} (within [16, 256])",
    )


def _random_family(rng: random.Random) -> SetFamily:
    universe = rng.randint(1, 30)
    count = rng.randint(2, 20)
    density = rng.uniform(0.1, 0.7)
    sets = [
        [x for x in range(universe) if rng.random() < density] for _ in range(count)
    ]
    return SetFamily(sets, universe)


def _check_family(family: SetFamily) -> int:
    checked = 0
    for i in range(1, family.num_sets + 1):
        set_i = set(family.members(i))
        for j in range(i + 1, family.num_sets + 1):
            want = set_i & set(family.members(j))
            assert family.intersect(i, j) == bool(want), (i, j)
            assert family.enumerate_intersection(i, j) == want, (i, j)
            checked += 1
    return checked


def test_criterion_6_set_intersection_reduction():
    """200 random families exact at build time and after 100 member updates."""
    start = time.time()
    rng = random.Random(31337)
    pairs = 0
    for _ in range(200):
        family = _random_family(rng)
        pairs += _check_family(family)
        universe = family.universe_size
        for _ in range(100):
            k = rng.randint(1, family.num_sets)
            members = family.members(k)
            if members and (len(members) == universe or rng.random() < 0.5):
                family.remove_member(k, rng.choice(members))
            else:
                absent = [x for x in range(universe) if x not in members]
                family.add_member(k, rng.choice(absent))
        pairs += _check_family(family)
    elapsed = time.time() - start
    assert elapsed < 60, f"set-intersection criterion took {elapsed:.1f}s"
    _pass(6, f"200 families, {pairs} pair checks exact before/after updates in {elapsed:.1f}s")

