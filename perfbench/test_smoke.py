"""Smoke check of the benchmark itself, at a size that runs in seconds.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced with --size tiny; each
run must pass its oracles and report exactly the metrics, with their units,
that BENCHMARK.json names.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_reports_every_metric(workload, trace, group):
    res = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_frozen_oracles_match_independent_route():
    res = subprocess.run([sys.executable, os.path.join(HERE, "oracles.py"), "--check"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("--workload", "convolve-exact", "--seconds", "1", cwd=str(tmp_path))
    assert res.returncode != 0
    assert res.stdout.strip() == ""
