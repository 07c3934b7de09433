"""``BENCHMARK.json`` keeps the contract, and a run emits exactly its names."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def catalogue():
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_meets_the_contract(catalogue):
    assert set(catalogue) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert catalogue["paths"] == ["benchmarks/e2e"]
    assert 1 <= catalogue["run_seconds"] <= 60
    assert 2 <= len(catalogue["workloads"]) <= 8
    assert 1 <= len(catalogue["end_to_end"]) <= 16
    assert 1 <= len(catalogue["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in catalogue[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in catalogue["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in catalogue["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in catalogue["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in catalogue["end_to_end"] + catalogue["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in catalogue["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in catalogue["end_to_end"])


def test_workloads_match_the_code(catalogue):
    assert [(w["name"], w["why"]) for w in catalogue["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_a_smoke_run_emits_exactly_the_declared_names(catalogue, trace, kind):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload", "live4_dense",
         "--seed", "3", "--smoke", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in catalogue[kind]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    if kind == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_with_repro_obs_set(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "counters")
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload", "live4_dense", "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60, cwd=ROOT,
    )
    assert done.returncode != 0 and "REPRO_OBS" in done.stderr
    assert done.stdout == ""
