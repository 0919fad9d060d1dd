"""Self-test of the end-to-end benchmark at smoke sizing.

Not part of tier-1 (pytest collects only ``tests/``); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py

Smoke sizing keeps every workload on its code paths: n=30 worlds, and
n=600 for the scale path (above the sparse switch, so the CSR branch
runs).
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _load(name: str):
    """A sibling module, loaded by path under a private name.

    ``benchmarks/e2e/trace.py`` must not shadow the standard library's
    ``trace`` module inside the test process.
    """
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _run(*argv: str, cwd: Path = ROOT, timeout: float = 150.0):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload, untraced then traced, at smoke sizing."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = _run("--smoke", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(out.read_text(encoding="utf-8"))


def test_every_benchmark_metric_is_printed_with_its_unit(traced):
    stdout, _ = traced
    printed = {tuple(line.split()[:4]) for line in stdout.splitlines()
               if len(line.split()) >= 4}
    for workload in WORKLOADS:
        for spec in BENCH["end_to_end"] + BENCH["per_layer"]:
            matches = [p for p in printed if p[:2] == (workload, spec["name"])]
            assert matches, f"{workload} {spec['name']} not printed"
            assert matches[0][3] == spec["unit"]
            float(matches[0][2])
    last = json.loads(stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1


def test_traced_pass_reproduces_untraced_digests(traced):
    _, results = traced
    for workload in WORKLOADS:
        child = results["workloads"][workload]["child"]
        assert child["failed"] == 0, child["problems"]
        assert child["traced"]["digest"] == child["untraced"]["digest"]


def test_self_times_sum_to_traced_wall(traced):
    tracing = _load("trace")
    _, results = traced
    for workload in WORKLOADS:
        record = results["workloads"][workload]
        wall = record["child"]["traced"]["coverage"]["traced_wall_s"]
        self_sum = sum(record["per_layer"][m]
                       for m in tracing.SELF_TIME_METRICS.values())
        assert abs(self_sum - wall) <= 0.02 * wall, workload


def test_untraced_run_prints_end_to_end_metrics_last():
    proc = _run("--smoke", "--workload", "paper-viewsync", "--seed", "3",
                "--seconds", "1", "--trace", "0", "--out", "/dev/null")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for spec in BENCH["end_to_end"]:
        metric = last["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_wrappers_are_gone_after_a_traced_pass():
    tracing, workloads = _load("trace"), _load("workloads")
    owners = [(t.resolve(), t.attr) for t in tracing.layer_targets()]

    def state():
        return [(attr in vars(owner), vars(owner).get(attr)) for owner, attr in owners]

    before = state()
    tracer = tracing.Tracer()
    with tracer.installed():
        wrapped = state()
    assert all(w != b for w, b in zip(wrapped, before))
    assert state() == before
    op = workloads.run_op("paper-viewsync", 1, tracer, smoke=True)
    assert state() == before
    assert op.failed == 0 and tracer.tally["protocols.select"][0] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run("--workload", "paper-viewsync", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60.0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
