"""Closed-loop benchmark of the rangemodes engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The package is imported from ``src/`` of that checkout.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs each workload
in a child process of its own, so ``peak_rss_mib`` stays per workload.  The
exit code is 1 when any op raised or returned a wrong answer, and 2 when the
checkout holds no ``src/rangemodes``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("churn", "scan", "grow-shrink", "intersect")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="op time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_result(name: str, result: dict) -> None:
    shape = result["shape"]
    samples = ", ".join(f"{kind} {count}" for kind, count in sorted(result["samples"].items()))
    print(f"{name}: {result['attempted']} ops attempted ({samples}), {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']}; "
          f"N={shape['n']} slots={shape['slots']} sigma'={shape['sigma_prime']}")
    for kind, (p50, p99) in sorted(result["latency_us"].items()):
        print(f"  {kind}: p50 {p50:.1f} us, p99 {p99:.1f} us")
    if result["first_failure"]:
        print(f"  first failure: {result['first_failure']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']} {entry['unit']}")


def _run_all(args: argparse.Namespace) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 2
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "rangemodes" / "__init__.py").is_file():
        print(f"perfbench: no rangemodes package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(src))
    import harness
    from workloads import WORKLOADS

    span_file = HERE / "traces" / f"{args.workload}.csv" if args.trace else None
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), span_file)
    _print_result(args.workload, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
