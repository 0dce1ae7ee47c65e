"""Smoke test of the benchmark: one block of ops per workload, every metric emitted.

A block issues one op per input of the workload.  ``--seconds 0`` stops each
closed loop after its first block, so this runs in well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_and_no_op_fails(trace, group):
    proc = run_benchmark(ROOT, "--workload", "all", "--seed", "0", "--seconds", "0",
                         "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(SPEC["workloads"])

    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[group]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert math.isfinite(metric["value"]), name

    reports = [json.loads(line[len("report "):]) for line in lines
               if line.startswith("report ")]
    assert [r["workload"] for r in reports] == [w["name"] for w in SPEC["workloads"]]
    for report in reports:
        assert report["failure_count"] == 0, report
        env = report["env"]
        assert env["backend"] in ("numpy", "numba")
        assert {"numba_importable", "python", "numpy", "nproc", "git_commit",
                "source_sha256", "seed"} <= set(env)
        if trace == 0:
            assert report["details"]["error_ratio"]["value"] == 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in SPEC["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                         "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
