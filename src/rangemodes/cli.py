"""Command-line surface: trace runner, differential fuzzer, benchmarks, sets.

Trace grammar (UTF-8 text, one operation per line, decimal 0-based fields):

    I <pos> <sym>    insert <sym> at position <pos>
    D <pos>          delete the element at <pos>
    Q <l> <r>        enumerate the modes of the inclusive range [l, r]

Lines starting with ``#`` and blank lines are skipped.  Each query emits one
output line: the multiplicity followed by the sorted mode ids, space
separated.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .engine import Config, RangeModeEngine
from .oracle import NaiveSeq
from .setintersect import SetFamily

_OP_KINDS = ("insert", "delete", "modes")


class TraceError(Exception):
    """A malformed or inapplicable trace line, with its 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ----------------------------------------------------------------------
# trace runner
# ----------------------------------------------------------------------


def run_trace(lines: Iterable[str], config: Config | None = None) -> Iterator[str]:
    """Execute a trace against a fresh engine, yielding one line per query."""
    engine = RangeModeEngine((), config)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "I" and len(parts) == 3:
                engine.insert(int(parts[1]), int(parts[2]))
            elif parts[0] == "D" and len(parts) == 2:
                engine.delete(int(parts[1]))
            elif parts[0] == "Q" and len(parts) == 3:
                result = engine.modes(int(parts[1]), int(parts[2]))
                yield " ".join([str(result.multiplicity), *map(str, result.modes)])
            else:
                raise TraceError(line_no, f"unrecognized operation {line!r}")
        except TraceError:
            raise
        except (IndexError, ValueError) as exc:
            raise TraceError(line_no, str(exc)) from exc


# ----------------------------------------------------------------------
# differential fuzzer
# ----------------------------------------------------------------------


def generate_trace(seed: int, ops: int, max_len: int, alphabet: int) -> list[str]:
    """Seeded random trace: ~40% inserts, ~20% deletes, ~40% queries."""
    if alphabet < 1:
        raise ValueError("alphabet must be at least 1")
    rng = random.Random(seed)
    lines: list[str] = []
    length = 0
    for _ in range(ops):
        roll = rng.random()
        if length == 0:
            kind = "I"
        elif length >= max_len:
            kind = "D" if roll < 1 / 3 else "Q"
        elif roll < 0.4:
            kind = "I"
        elif roll < 0.6:
            kind = "D"
        else:
            kind = "Q"
        if kind == "I":
            lines.append(f"I {rng.randint(0, length)} {rng.randrange(alphabet)}")
            length += 1
        elif kind == "D":
            lines.append(f"D {rng.randrange(length)}")
            length -= 1
        else:
            lo = rng.randrange(length)
            lines.append(f"Q {lo} {rng.randint(lo, length - 1)}")
    return lines


@dataclass
class FuzzReport:
    """Outcome of one differential fuzz run (deterministic per seed)."""

    ok: bool
    ops: int
    queries: int
    resets: int
    failure: str = ""
    reproducer: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "OK" if self.ok else f"DIVERGENCE ({self.failure})"
        return (
            f"ops={self.ops} queries={self.queries} resets={self.resets} "
            f"result: {status}"
        )


def run_fuzz(
    seed: int,
    ops: int,
    max_len: int,
    alphabet: int,
    config: Config | None = None,
    audit_every: int = 0,
    engine_factory: Callable[[], RangeModeEngine] | None = None,
) -> FuzzReport:
    """Run a seeded trace against the engine and the naive oracle in lockstep."""
    config = config if config is not None else Config()
    if engine_factory is None:
        engine = RangeModeEngine((), config)
    else:
        engine = engine_factory()
    oracle = NaiveSeq()
    trace = generate_trace(seed, ops, max_len, alphabet)
    executed: list[str] = []
    queries = 0
    for step, line in enumerate(trace):
        executed.append(line)
        parts = line.split()
        if parts[0] == "I":
            pos, sym = int(parts[1]), int(parts[2])
            engine.insert(pos, sym)
            oracle.insert_at(pos, sym)
        elif parts[0] == "D":
            pos = int(parts[1])
            engine.delete(pos)
            oracle.delete_at(pos)
        else:
            lo, hi = int(parts[1]), int(parts[2])
            got = engine.modes(lo, hi)
            want = oracle.modes(lo, hi)
            queries += 1
            if got != want:
                return FuzzReport(
                    False,
                    step + 1,
                    queries,
                    len(engine.reset_events),
                    failure=f"op {step}: {line} -> engine={got} oracle={want}",
                    reproducer=executed,
                )
        if audit_every and (step + 1) % audit_every == 0:
            report = engine.audit()
            if not report.ok:
                return FuzzReport(
                    False,
                    step + 1,
                    queries,
                    len(engine.reset_events),
                    failure=f"op {step}: audit failed: {report.message}",
                    reproducer=executed,
                )
    return FuzzReport(True, len(trace), queries, len(engine.reset_events))


# ----------------------------------------------------------------------
# benchmark harness
# ----------------------------------------------------------------------


def fit_loglog_slope(points: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log(t) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1.0)) for _, t in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom


def run_bench(
    sizes: Sequence[int],
    alphabet: int,
    mix: Sequence[str] = _OP_KINDS,
    repetitions: int = 33,
    seed: int = 0,
    config: Config | None = None,
) -> Iterator[str]:
    """Yield CSV rows of per-operation medians, then slope summary comments."""
    yield "n,sigma_prime,op,median_ns,output_size"
    for op in mix:
        if op not in _OP_KINDS:
            raise ValueError(f"unknown op kind {op!r}")
    if repetitions <= 0:
        return
    medians: dict[str, list[tuple[int, float]]] = {op: [] for op in mix}
    clock = time.perf_counter_ns
    for n in sizes:
        rng = random.Random(seed ^ n)
        engine = RangeModeEngine((rng.randrange(alphabet) for _ in range(n)), config)
        for op in mix:
            times: list[int] = []
            out_size = 0
            for _ in range(repetitions):
                if op == "insert":
                    pos = rng.randint(0, len(engine))
                    sym = rng.randrange(alphabet)
                    t0 = clock()
                    engine.insert(pos, sym)
                    times.append(clock() - t0)
                    engine.delete(pos)  # untimed restore
                elif op == "delete":
                    pos = rng.randrange(len(engine))
                    t0 = clock()
                    sym = engine.delete(pos)
                    times.append(clock() - t0)
                    engine.insert(pos, sym)  # untimed restore
                else:
                    lo = rng.randrange(len(engine))
                    hi = rng.randint(lo, len(engine) - 1)
                    t0 = clock()
                    result = engine.modes(lo, hi)
                    times.append(clock() - t0)
                    out_size = len(result.modes)
            median = int(statistics.median(times))
            medians[op].append((n, float(median)))
            yield f"{n},{engine.sigma_prime},{op},{median},{out_size}"
    if len(sizes) >= 2:
        for op in mix:
            slope = fit_loglog_slope(medians[op])
            yield f"# slope,{op},{slope:.3f}"


# ----------------------------------------------------------------------
# set-intersection command
# ----------------------------------------------------------------------


def load_family(lines: Iterable[str], config: Config | None = None) -> SetFamily:
    """Parse a family file: ``<universe> <num_sets>`` then one set per line.

    Each set line is ``<m> <x1> ... <xm>``; ``#`` and blank lines are skipped.
    """
    rows: list[tuple[int, list[int]]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise TraceError(line_no, f"non-numeric field: {exc}") from exc
        rows.append((line_no, fields))
    if not rows:
        raise TraceError(1, "family file is empty")
    line_no, header = rows[0]
    if len(header) != 2:
        raise TraceError(line_no, "expected header '<universe_size> <num_sets>'")
    universe, count = header
    if len(rows) - 1 != count:
        raise TraceError(line_no, f"expected {count} set lines, found {len(rows) - 1}")
    sets: list[list[int]] = []
    for line_no, fields in rows[1:]:
        if not fields or fields[0] != len(fields) - 1:
            raise TraceError(line_no, "set line must read '<m> <member>*m'")
        sets.append(fields[1:])
    try:
        return SetFamily(sets, universe, config)
    except (ValueError, IndexError) as exc:
        raise TraceError(rows[0][0], str(exc)) from exc


def run_intersect(
    family: SetFamily, queries: Iterable[str]
) -> Iterator[str]:
    """Process ``? i j`` / ``+ k x`` / ``- k x`` lines against a family."""
    for line_no, raw in enumerate(queries, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "?" and len(parts) == 3:
                members = family.enumerate_intersection(int(parts[1]), int(parts[2]))
                yield " ".join(map(str, sorted(members))) if members else "-"
            elif parts[0] == "+" and len(parts) == 3:
                family.add_member(int(parts[1]), int(parts[2]))
            elif parts[0] == "-" and len(parts) == 3:
                family.remove_member(int(parts[1]), int(parts[2]))
            else:
                raise TraceError(line_no, f"unrecognized query {line!r}")
        except TraceError:
            raise
        except (IndexError, ValueError) as exc:
            raise TraceError(line_no, str(exc)) from exc


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _config_from_args(args: argparse.Namespace) -> Config:
    return Config(
        alpha=args.alpha,
        audit_mode=getattr(args, "audit", False),
    )


def _alpha(text: str) -> Fraction:
    """Parse ``--alpha`` through ``Config``, which holds the rules it must meet."""
    try:
        return Config(alpha=Fraction(text)).alpha
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _sizes(text: str) -> list[int]:
    """Parse ``--sizes``: a comma list of positive ints."""
    sizes = [_positive_int(tok) for tok in text.split(",") if tok]
    if not sizes:
        raise argparse.ArgumentTypeError("expected at least one size")
    return sizes


def _mix(text: str) -> list[str]:
    """Parse ``--mix``: a comma list of op kinds."""
    mix = [tok for tok in text.split(",") if tok]
    if not mix or not set(mix) <= set(_OP_KINDS):
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected a comma list of {', '.join(_OP_KINDS)}"
        )
    return mix


def _open_input(parser: argparse.ArgumentParser, flag: str, path: str) -> TextIO:
    """Open an input path for reading, ``-`` being stdin.

    An unreadable file is a usage error (exit 2), like any bad argument.
    """
    if path == "-":
        return sys.stdin
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        parser.error(f"argument {flag}: can't open '{path}': {exc}")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha", type=_alpha, default="1/3", help="block-count exponent (rational)"
    )
    parser.add_argument("--audit", action="store_true", help="enable audit mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangemodes",
        description="Dynamic range mode enumeration: traces, fuzzing, benchmarks, sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="run a trace file (default stdin)")
    p_trace.add_argument("file", nargs="?", default="-", help="trace file or - for stdin")
    _add_engine_flags(p_trace)

    p_fuzz = sub.add_parser("fuzz", help="differential fuzz against the naive oracle")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--ops", type=int, default=10000)
    p_fuzz.add_argument("--max-len", type=int, default=2000)
    p_fuzz.add_argument("--alphabet", type=_positive_int, default=26)
    p_fuzz.add_argument(
        "--audit-every", type=int, default=0, help="audit the engine every N ops"
    )
    p_fuzz.add_argument(
        "--dump", default="", help="write the reproducer trace here on divergence"
    )
    _add_engine_flags(p_fuzz)

    p_bench = sub.add_parser("bench", help="emit per-op median timings as CSV")
    p_bench.add_argument("--sizes", type=_sizes, default="16384,131072,1048576")
    p_bench.add_argument("--alphabet", type=_positive_int, default=26)
    p_bench.add_argument("--mix", type=_mix, default="insert,delete,modes")
    p_bench.add_argument("--repetitions", type=_positive_int, default=33)
    p_bench.add_argument("--seed", type=int, default=0)
    _add_engine_flags(p_bench)

    p_inter = sub.add_parser("intersect", help="answer set-intersection queries")
    p_inter.add_argument("--family", required=True, help="family definition file")
    p_inter.add_argument("file", nargs="?", default="-", help="query file or - for stdin")
    _add_engine_flags(p_inter)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "trace":
            with _open_input(parser, "file", args.file) as trace:
                for line in run_trace(trace, _config_from_args(args)):
                    print(line)
        elif args.command == "fuzz":
            config = _config_from_args(args)
            report = run_fuzz(
                seed=args.seed,
                ops=args.ops,
                max_len=args.max_len,
                alphabet=args.alphabet,
                config=config,
                audit_every=args.audit_every,
            )
            print(
                f"fuzz seed={args.seed} ops={args.ops} max_len={args.max_len} "
                f"alphabet={args.alphabet} alpha={config.alpha} audit={config.audit_mode}"
            )
            print(report.summary())
            if not report.ok:
                if args.dump:
                    with open(args.dump, "w", encoding="utf-8") as fh:
                        fh.write("\n".join(report.reproducer) + "\n")
                    print(f"reproducer written to {args.dump}", file=sys.stderr)
                else:
                    print("# reproducer trace:", file=sys.stderr)
                    for line in report.reproducer:
                        print(line, file=sys.stderr)
                return 1
        elif args.command == "bench":
            rows = run_bench(
                args.sizes,
                args.alphabet,
                args.mix,
                args.repetitions,
                args.seed,
                _config_from_args(args),
            )
            for row in rows:
                print(row)
        elif args.command == "intersect":
            with _open_input(parser, "--family", args.family) as family_file, _open_input(
                parser, "file", args.file
            ) as queries:
                family = load_family(family_file, _config_from_args(args))
                for line in run_intersect(family, queries):
                    print(line)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
