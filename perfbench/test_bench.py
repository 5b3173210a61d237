"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Run from the repository root.  Each workload runs one pass per mode,
so the whole file takes about a minute on two cores.
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
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["perfbench"], json.loads(result_line)


_cache: dict = {}


def cached(workload: str, trace: int, seed: int = 7):
    key = (workload, trace, seed)
    if key not in _cache:
        _cache[key] = parse(run(workload, trace, seed))
    return _cache[key]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    _, res = cached(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_counts_repeat(workload):
    _, first = cached(workload, 1)
    _, second = parse(run(workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["correct"] is True
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert sum(calls.values()) > 0
    assert first["metrics"]["trace.overhead"]["value"] > 0


def test_verify_all_fails_exactly_the_sum_rule_records():
    info, res = cached("verify-all", 0)
    assert info["per_pass"] == {"attempted": 86, "failed": 3}
    assert all(f.startswith("exp-sum-rule [mu=") for f in info["failures"])
    assert len(info["failures"]) == 3


def test_tabulate_wide_fails_exactly_the_known_defect_tables():
    info, res = cached("tabulate-wide", 0)
    assert info["per_pass"]["failed"] == 2
    assert len(info["failures"]) == 2
    weight = [f for f in info["failures"] if " weight " in f]
    cs = [f for f in info["failures"] if " cs-density " in f]
    assert len(weight) == 1 and "--u 400:400.5:0.5 --v 400:400:1" in weight[0]
    assert "non-finite" in weight[0]
    assert len(cs) == 1 and "OverflowError" in cs[0]


def test_dirac_scan_has_no_failures():
    info, res = cached("dirac-scan", 0)
    assert res["failed"] == 0 and info["failures"] == []


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 3) == workloads.make_inputs(workload, 3)
    assert workloads.make_inputs("tabulate-wide", 3) != workloads.make_inputs("tabulate-wide", 4)
    assert workloads.make_inputs("dirac-scan", 3) != workloads.make_inputs("dirac-scan", 4)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("verify-all", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
