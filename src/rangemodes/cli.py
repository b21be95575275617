"""Command-line surface: trace runner, differential fuzzer, set intersections.

Trace grammar (UTF-8 text, one operation per line, decimal 0-based fields):

    I <pos> <sym>    insert <sym> at position <pos>
    D <pos>          delete the element at <pos>
    R <src> <dst>    move the element at <src> so that it becomes the element at <dst>
    Q <l> <r>        enumerate the modes of the inclusive range [l, r]

Lines starting with ``#`` and blank lines are skipped.  Each query emits one
output line: the multiplicity followed by the sorted mode ids, space
separated.

A line that cannot be applied, for want of memory too, is a :class:`TraceError`
with its line number.  The fuzzer compares every op's result with the naive
oracle's, a delete's removed symbol included, and checks after every op that
no block holds more than the block capacity; an engine exception is a divergence.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from .engine import Config, RangeModeEngine
from .oracle import NaiveSeq
from .setintersect import SetFamily

class TraceError(Exception):
    """A malformed or inapplicable trace line, with its 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ----------------------------------------------------------------------
# line reader and op applier
# ----------------------------------------------------------------------

Ops = dict[str, tuple[int, Callable[..., Any]]]


def _fields(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_no, fields)`` for each line that is neither blank nor a ``#`` comment."""
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            yield line_no, fields


def _apply(lines: Iterable[str], ops: Ops, kind: str = "operation") -> Iterator[tuple[str, Any]]:
    """Call ``ops[name] = (field count, function)`` on each line's int fields, yielding
    ``(name, result)``; ``kind`` names the line in an unknown-op or field-count error."""
    for line_no, (name, *args) in _fields(lines):
        arity, op = ops.get(name, (-1, None))
        if len(args) != arity:
            raise TraceError(line_no, f"unrecognized {kind} {' '.join([name, *args])!r}")
        try:
            result = op(*map(int, args))
        except (IndexError, ValueError, MemoryError) as exc:
            raise TraceError(line_no, str(exc)) from exc
        yield name, result


def _trace_ops(insert: Callable, delete: Callable, relocate: Callable, modes: Callable) -> Ops:
    """The trace grammar over one sequence's insert, delete, relocate and modes."""
    return {"I": (2, insert), "D": (1, delete), "R": (2, relocate), "Q": (2, modes)}


# ----------------------------------------------------------------------
# trace runner
# ----------------------------------------------------------------------


def run_trace(lines: Iterable[str], config: Config | None = None) -> Iterator[str]:
    """Execute a trace against a fresh engine, yielding one line per query."""
    engine = RangeModeEngine((), config)
    ops = _trace_ops(engine.insert, engine.delete, engine.relocate, engine.modes)
    for name, result in _apply(lines, ops):
        if name == "Q":
            yield " ".join([str(result.multiplicity), *map(str, result.modes)])


# ----------------------------------------------------------------------
# differential fuzzer
# ----------------------------------------------------------------------


def generate_trace(seed: int, ops: int, max_len: int, alphabet: int) -> list[str]:
    """Seeded random trace: ~40% inserts, ~20% deletes, ~32% queries, ~8% relocations.

    Half the relocations move at most 16 positions, so many of those stay
    inside one block; the others move anywhere.  Once the length reaches
    ``max_len`` the mix turns delete-heavy (~40% deletes, ~20% inserts)
    until it falls to ``max_len // 4``, so a long run cycles through
    halvings and chunk word drops as well as doublings.
    """
    for name, value in (("ops", ops), ("max_len", max_len), ("alphabet", alphabet)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    rng = random.Random(seed)
    lines: list[str] = []
    length = 0
    shrinking = False
    for _ in range(ops):
        roll = rng.random()
        if length >= max_len:
            shrinking = True
        elif length <= max_len // 4:
            shrinking = False
        if length == 0:
            kind = "I"
        elif roll < 0.4:
            kind = "D" if shrinking else "I"
        elif roll < 0.6:
            kind = "I" if shrinking and length < max_len else "D"
        else:
            kind = "R" if roll < 0.68 else "Q"
        if kind == "I":
            lines.append(f"I {rng.randint(0, length)} {rng.randrange(alphabet)}")
            length += 1
        elif kind == "D":
            lines.append(f"D {rng.randrange(length)}")
            length -= 1
        elif kind == "R":
            src = rng.randrange(length)
            near = rng.random() < 0.5
            dst = min(max(src + rng.randint(-16, 16), 0), length - 1) if near else rng.randrange(length)
            lines.append(f"R {src} {dst}")
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
) -> FuzzReport:
    """Run a seeded trace on the engine and the naive oracle in lockstep, comparing every op.

    After every op the largest block must be within the block capacity, and
    every ``audit_every`` ops (0: never) the full :meth:`RangeModeEngine.audit` must pass.
    """
    if audit_every < 0:
        raise ValueError(f"audit_every must be at least 0, got {audit_every}")
    trace = generate_trace(seed, ops, max_len, alphabet)
    engine = RangeModeEngine((), config)
    oracle = NaiveSeq()
    got_results = _apply(
        trace, _trace_ops(engine.insert, engine.delete, engine.relocate, engine.modes)
    )
    want_results = _apply(
        trace, _trace_ops(oracle.insert_at, oracle.delete_at, oracle.relocate, oracle.modes)
    )
    queries = 0
    for step, (line, (name, want)) in enumerate(zip(trace, want_results)):
        queries += name == "Q"
        try:
            got = next(got_results)[1]
        except Exception as exc:
            failure = f"{line} -> engine raised {exc!r}"
        else:
            failure = "" if got == want else f"{line} -> engine={got} oracle={want}"
            if not failure and (largest := max(engine.block_sizes())) > engine.capacity:
                failure = f"{line} -> a block holds {largest}, over capacity {engine.capacity}"
        if not failure and audit_every and (step + 1) % audit_every == 0:
            report = engine.audit()
            failure = "" if report.ok else f"audit failed: {report.message}"
        if failure:
            resets, reproducer = len(engine.reset_events), trace[: step + 1]
            return FuzzReport(False, step + 1, queries, resets, f"op {step}: {failure}", reproducer)
    return FuzzReport(True, len(trace), queries, len(engine.reset_events))


# ----------------------------------------------------------------------
# set-intersection command
# ----------------------------------------------------------------------


def load_family(lines: Iterable[str], config: Config | None = None) -> SetFamily:
    """Parse a family file: ``<universe> <num_sets>`` then one set per line.

    Each set line is ``<m> <x1> ... <xm>``; ``#`` and blank lines are skipped.
    """
    rows: list[tuple[int, list[int]]] = []
    for line_no, fields in _fields(lines):
        try:
            rows.append((line_no, [int(tok) for tok in fields]))
        except ValueError as exc:
            raise TraceError(line_no, f"non-numeric field: {exc}") from exc
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
    except (ValueError, IndexError, MemoryError) as exc:
        raise TraceError(rows[0][0], str(exc)) from exc


def run_intersect(family: SetFamily, queries: Iterable[str]) -> Iterator[str]:
    """Process ``? i j`` / ``+ k x`` / ``- k x`` lines against a family."""
    ops: Ops = {
        "?": (2, family.enumerate_intersection),
        "+": (2, family.add_member),
        "-": (2, family.remove_member),
    }
    for name, members in _apply(queries, ops, "query"):
        if name == "?":
            yield " ".join(map(str, sorted(members))) if members else "-"


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _alpha(text: str) -> Fraction:
    """Parse ``--alpha`` through ``Config``, which holds the rules it must meet."""
    try:
        return Config(alpha=Fraction(text)).alpha
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from exc


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


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


def _add_alpha_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha", type=_alpha, default="1/3", help="block-count exponent (rational)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangemodes",
        description="Dynamic range mode enumeration: traces, fuzzing, set intersections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviations, so that a removed flag is rejected, not taken for a longer one.
    p_trace = sub.add_parser("trace", allow_abbrev=False, help="run a trace file (default stdin)")
    p_trace.add_argument("file", nargs="?", default="-", help="trace file or - for stdin")
    _add_alpha_flag(p_trace)

    p_fuzz = sub.add_parser(
        "fuzz", allow_abbrev=False, help="differential fuzz against the naive oracle"
    )
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--ops", type=_positive_int, default=10000)
    p_fuzz.add_argument("--max-len", type=_positive_int, default=2000)
    p_fuzz.add_argument("--alphabet", type=_positive_int, default=26)
    p_fuzz.add_argument(
        "--audit-every",
        type=_non_negative_int,
        default=0,
        help="audit the engine every N ops (0: never)",
    )
    p_fuzz.add_argument(
        "--dump", default="", help="write the reproducer trace here on divergence"
    )
    _add_alpha_flag(p_fuzz)

    p_inter = sub.add_parser(
        "intersect", allow_abbrev=False, help="answer set-intersection queries"
    )
    p_inter.add_argument("--family", required=True, help="family definition file")
    p_inter.add_argument("file", nargs="?", default="-", help="query file or - for stdin")
    _add_alpha_flag(p_inter)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "trace":
            with _open_input(parser, "file", args.file) as trace:
                for line in run_trace(trace, Config(args.alpha)):
                    print(line)
        elif args.command == "fuzz":
            config = Config(args.alpha)
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
                f"alphabet={args.alphabet} alpha={config.alpha}"
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
        elif args.command == "intersect":
            with _open_input(parser, "--family", args.family) as family_file, _open_input(
                parser, "file", args.file
            ) as queries:
                family = load_family(family_file, Config(args.alpha))
                for line in run_intersect(family, queries):
                    print(line)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
