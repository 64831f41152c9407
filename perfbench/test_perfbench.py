"""Self-test of the benchmark, at the tiny size.

Run from the repository root with ``python3 -m pytest perfbench -q``.  It runs
every workload untraced on two seeds and traced twice on one, then checks the
result line against ``BENCHMARK.json``, that the seed reaches the inputs,
that tracing changes no output and repeats its counts exactly, and that the
benchmark modifies no file of the program.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
PROGRAM_DIRS = ("src", "tests", "configs", "scripts")

sys.path.insert(0, str(HERE))
from tracing import EXACT_COUNTS  # noqa: E402


def _snapshot() -> dict[str, str]:
    files = {}
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files[str(path.relative_to(ROOT))] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
    return files


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _parse(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return {
        "result": json.loads(lines[-1]),
        "printed": {line.split()[1]: line.split()[-1] for line in lines
                    if line.startswith("metric ")},
        "digest": next(line.split()[1] for line in lines if line.startswith("digest ")),
    }


@pytest.fixture(scope="module")
def runs():
    before = _snapshot()
    out = {
        w: {
            "seed1": _parse(_run(w, 1, 0)),
            "seed2": _parse(_run(w, 2, 0)),
            "traced": _parse(_run(w, 1, 1)),
            "traced_again": _parse(_run(w, 1, 1)),
        }
        for w in WORKLOADS
    }
    return out, before, _snapshot()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_follows_the_contract(runs, workload):
    for run in runs[0][workload].values():
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_printed_metric_is_declared(runs, workload):
    for kind, declared in (("seed1", "end_to_end"), ("traced", "per_layer")):
        units = {m["name"]: m["unit"] for m in DECLARED[declared]}
        run = runs[0][workload][kind]
        assert set(run["result"]["metrics"]) == set(units)
        assert set(run["printed"]) == set(units)
        for name, metric in run["result"]["metrics"].items():
            assert metric["unit"] == units[name] == run["printed"][name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_reaches_the_inputs(runs, workload):
    assert runs[0][workload]["seed1"]["digest"] != runs[0][workload]["seed2"]["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_output(runs, workload):
    assert runs[0][workload]["traced"]["digest"] == runs[0][workload]["seed1"]["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(runs, workload):
    first = runs[0][workload]["traced"]["result"]["metrics"]
    again = runs[0][workload]["traced_again"]["result"]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == again[name]["value"], name


def test_no_program_file_is_modified(runs):
    _, before, after = runs
    assert before == after


def test_outside_a_checkout_it_fails_without_a_result():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(WORKLOADS[0], 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
