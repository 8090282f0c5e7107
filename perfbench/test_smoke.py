"""Smoke test of the benchmark itself, at tiny sizes (A3, B3, D4; seconds).

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload untraced and traced, checks that each metric named in
BENCHMARK.json is printed with its unit and that no operation failed, and
that the benchmark refuses to run where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(stdout: str) -> tuple[dict, dict]:
    *lines, last = stdout.strip().splitlines()
    table = {}
    for line in lines:
        name, value, unit = line.split()
        table[name] = (value, unit)
    return json.loads(last), table


def test_spec_matches_runner():
    sys.path.insert(0, str(HERE))
    import run

    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["enum", "cli", "queries"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["enum", "cli", "queries"])
def test_workload_prints_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result, table = parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]][1] == m["unit"]
    if trace == 0:
        assert float(table["error_rate"][0]) == 0.0
        assert result["metrics"]["ok_rate"]["value"] == 1.0
    elif workload == "queries":
        # The lattice is built in set-up; the timed pass never sweeps.
        assert float(table["setup:flats.build_lattice.self_s"][0]) > 0
        assert float(table["pass:flats.build_lattice.self_s"][0]) == 0
        assert float(table["pass:flats.enumerate_rank_counts.self_s"][0]) == 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("enum", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
