"""Tiny-scale smoke test of the benchmark.

Every workload runs untraced and traced on the tiny dataset and must
answer every request correctly, print exactly the metrics
``BENCHMARK.json`` names, and exit 0. Run from the checkout root::

    python -m pytest e2ebench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "e2ebench/run.py",
            "--workload", workload,
            "--seed", "5",
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_answers_correctly(workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert result["metrics"]["success_ratio"]["value"] == 1.0
        for name in ("setup_s", "query_p50_ms", "query_p99_ms", "query_rps"):
            assert result["metrics"][name]["value"] > 0


def test_refuses_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "e2ebench", tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(tmp_path, "hot-needs", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
