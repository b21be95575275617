"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
from rangemodes import BlockSizeIndex, CharSeq, CountedSet, PairTable, RangeModeEngine, SetFamily
from rangemodes.results import ModesResult
from workloads import WORKLOADS, Churn, GrowShrink, Intersect, Scan

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = [
    Churn(n=600, setup_repeats=2),
    Scan(n=1 << 12, setup_repeats=2),
    GrowShrink(base=32, setup_repeats=2),
    Intersect(universe=16, sets=6, setup_repeats=2),
]


def test_command_line_names_every_workload():
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def _methods() -> dict:
    classes = (BlockSizeIndex, CharSeq, CountedSet, PairTable, RangeModeEngine, SetFamily)
    return {(cls, name): value for cls in classes for name, value in vars(cls).items()}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    before = _methods()
    result = harness.run(workload, seed=3, seconds=0.05, trace=trace, span_file=tmp_path / "spans.csv")
    assert _methods() == before  # tracing put every method back
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["first_failure"]
    assert result["correct"]
    if trace:
        assert (tmp_path / "spans.csv").read_text().startswith("id,parent,name,start_ns,end_ns\n")


def test_wrong_answers_are_counted(monkeypatch):
    monkeypatch.setattr(RangeModeEngine, "modes", lambda self, lo, hi: ModesResult(0, ()))
    result = harness.run(Churn(n=600, setup_repeats=1), seed=3, seconds=0.05, trace=False)
    assert result["failed"] > 0
    assert not result["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
