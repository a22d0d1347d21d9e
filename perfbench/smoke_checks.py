"""Fast checks of the benchmark itself, at the tiny scale.

Run from the root of a checkout with:

    python3 -m pytest -q perfbench/smoke_checks.py

The file name keeps these checks out of the repository's own test run.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(check.WORKLOADS)
    names = []
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", check.WORKLOADS)
def test_tiny_run_reports_the_declared_metrics(workload, trace):
    res = check.bench(workload, seed=5, trace=trace, seconds=0.5, scale="tiny")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert ({n: m["unit"] for n, m in res["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        assert m["value"] > 0 or trace


@pytest.mark.parametrize("workload", check.WORKLOADS)
def test_tiny_counts_repeat_and_a_second_seed_runs_cleanly(workload):
    assert check.shared_inputs("tiny", 1, 3) == []
    assert check.check_workload(workload, seed=1, seed2=3, seconds=0.5, scale="tiny") == []


def test_check_refuses_a_second_seed_with_shared_inputs(capsys):
    # mc_sweep: seed 1 runs program seeds 1-7, seed 65 the same ones mod 64
    for seed2 in (1, 5, 65):
        with pytest.raises(SystemExit) as exc:
            check.main(["--seed", "1", "--seed2", str(seed2)])
        assert exc.value.code == 2
    assert "lagselect data seed 1" in capsys.readouterr().err


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "asv_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
