"""Output self-test: a reduced-size run of the benchmark command.

Checks that the printed metric names and units are exactly those
declared in ``BENCHMARK.json``, that every value is finite and above 0,
and that attempted and failed counts are present for every workload;
and that the command fails, printing no result, where only the
benchmark's own files exist.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_prints_declared_metrics(trace, key):
    proc = run("--workload", "all", "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "quick")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert set(summary["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in summary["workloads"].items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], (name, proc.stderr)
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert isinstance(result["failed"], int) and result["failed"] == 0
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        assert got == declared, name
        for metric, v in result["metrics"].items():
            assert math.isfinite(v["value"]) and v["value"] > 0, (name, metric, v)
    assert not list((ROOT / ".perfbench").glob("*-3-*")), "scratch left behind"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "week_batch", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
