"""Smoke test of the benchmark itself, at a tiny batch size.

    python3 -m pytest bench/test_smoke.py

Runs every workload once untraced and once traced and checks that the result
line carries every metric BENCHMARK.json names, each with its unit, that the
report line states error_rate and the tail percentile, and that the benchmark
refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=ROOT / "bench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    env = json.loads(lines[-3])["env"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))

    rate = report["error_rate"]
    assert rate["unit"] == "fraction"
    if trace == 0:
        assert rate["value"] == result["failed"] / result["attempted"]
    assert 0 < report["tail_percentile"] <= 100 and report["items"] >= 1
    if trace == 1:
        for layer in ("dist", "gallery", "symmetry", "extremes", "stochorder",
                      "contlab.normal", "contlab.elliptical", "contlab.montecarlo", "cli"):
            assert report["per_layer"][f"{layer}.self_s"]["unit"] == "s"
    for key in ("python", "numpy", "nproc", "cpu", "seed", "items", "src_lines"):
        assert env[key] is not None


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
