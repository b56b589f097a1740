"""The benchmark's own checks.

Run from the repository root (about 2 minutes)::

    python3 -m pytest perfbench/test_determinism.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
from layertrace import INSTRUMENTATION, OTHER, Attributor  # noqa: E402


def _run(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _traced(workload: str) -> dict:
    proc = _run("--workload", workload, "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_deterministic_counters_repeat(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["sim.events"] > 0
    for name in bench.DETERMINISTIC:
        assert first[name] == second[name], name


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.GATED)
    assert spec["run_seconds"] == bench.RUN_SECONDS
    tables = {"end_to_end": bench.END_TO_END, "per_layer": bench.PER_LAYER}
    for key, table in tables.items():
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == {name: unit for name, (unit, _) in table.items()}


def test_refuses_to_run_without_sources(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "fault_matrix", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_library_time_is_charged_to_the_calling_layer(tmp_path):
    src = tmp_path / "src"
    sim = str(src / "repro" / "sim" / "core.py")
    net = str(src / "repro" / "net" / "fabric.py")
    prof = str(src / "repro" / "sim" / "profile.py")
    machine = str(src / "repro" / "machine.py")
    helper = str(src / "repro" / "intervals.py")
    lib = ("~", 0, "<built-in method numpy.sum>")
    stats = {
        (sim, 1, "step"): (1, 1, 2.0, 9.0, {}),
        (net, 1, "solve"): (1, 1, 1.0, 5.0, {(sim, 1, "step"): (1, 1, 1.0, 5.0)}),
        (helper, 1, "merge"): (1, 1, 0.5, 1.5, {(net, 1, "solve"): (1, 1, 0.5, 1.5)}),
        lib: (
            4,
            4,
            4.0,
            4.0,
            {
                (helper, 1, "merge"): (1, 1, 1.0, 1.0),
                (sim, 1, "step"): (3, 3, 3.0, 3.0),
            },
        ),
        (prof, 1, "count"): (1, 1, 0.25, 0.25, {(sim, 1, "step"): (1, 1, 0.25, 0.25)}),
        (machine, 1, "__init__"): (1, 1, 0.75, 0.75, {}),
    }
    seconds = Attributor(str(src), str(BENCH_DIR)).attribute(stats)
    assert seconds == {"sim": 5.0, "net": 2.5, INSTRUMENTATION: 0.25, OTHER: 0.75}
