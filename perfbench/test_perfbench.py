"""Smoke tests of the benchmark, at tiny sizes.

Every metric ``BENCHMARK.json`` declares must be emitted with its unit and
no operation or check may fail.  Run from the repository root with::

    python3 -m pytest perfbench
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


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(
        argv + (["--smoke"] if smoke else []),
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["expm.matvecs_counted"] == metrics["expm.matvecs_planned"]
        if workload == "dense_eig":
            assert metrics["expm.apply_calls"] == 0
            assert metrics["sparse.matvec_calls"] == 0
    else:
        assert all(value > 0 for value in metrics.values())


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = _run(tmp_path, "state_chain", 0, smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
