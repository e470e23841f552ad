"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench

Runs every workload for one second, untraced and traced, and checks that
every metric BENCHMARK.json names is printed with its unit, that the traced
and untraced runs report the same end-to-end names, and that the benchmark
refuses to run without the pedalrl source next to it.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(root, workload, trace):
    cmd = [
        sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
        "--seed", "5", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result(root, workload, trace):
    out = run(root, workload, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for metric in res["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    return res


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload):
    plain = result(ROOT, workload, 0)
    traced = result(ROOT, workload, 1)
    assert units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    with open(os.path.join(ROOT, ".perfbench_out", "result_%s.json" % workload)) as fh:
        record = json.load(fh)
    assert set(record["info"]["traced_end_to_end"]) == set(plain["metrics"])
    assert set(record["info"]["untraced_end_to_end"]) == set(plain["metrics"])
    overhead = {n.split("trace.overhead.", 1)[1] for n in traced["metrics"] if "overhead" in n}
    assert overhead == set(plain["metrics"])


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
