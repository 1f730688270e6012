"""Tests of the benchmark itself, on its smoke-sized workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: Work counters that must repeat exactly between traced runs.
REPEATING = ("stacked.builds", "rng.streams", "engine.shards", "sink.rows", "bender.acts")


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, attempt: int = 0) -> dict:
    """One smoke run of ``run.py``; returns its result line and stdout."""
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["stdout"] = out.stdout
    return result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert result["correct"], result["stdout"]
    assert result["failed"] == 0, result["stdout"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in expected.items():
        assert f"{name}: " in result["stdout"] and f" {unit} " in result["stdout"]
    assert "failed_frac: " in result["stdout"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_counters_and_sum_self_times(workload):
    first, second = bench(workload, 1), bench(workload, 1, attempt=1)
    # run.py fails ``correct`` when a traced command's layer self times
    # plus its unattributed time miss the command's time by over 1 us.
    assert first["correct"] and second["correct"], first["stdout"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name in REPEATING:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_known_preflight_failure_is_expected_not_failed():
    result = bench("table2-all", 0)
    assert result["correct"]
    assert result["failed"] == 0
    assert "expected preflight S3: known failure" in result["stdout"]


def test_uninstall_restores_every_original_object():
    for target in tracer.TARGETS:
        tracer._resolve(target.path)  # imports every wrapped module

    def snapshot():
        objects = {}
        for module in tracer._program_modules():
            for name, value in vars(module).items():
                objects[(module.__name__, name)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        objects[(module.__name__, name, attr)] = member
        objects[("os", "fsync")] = os.fsync
        return objects

    before = snapshot()
    t = tracer.Tracer()
    t.install()
    assert tracer.wrappers_installed() > len(tracer.TARGETS)
    t.uninstall()
    after = snapshot()
    assert tracer.wrappers_installed() == 0
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)


def test_tracer_self_times_sum_to_root():
    from repro.core import stacked

    t = tracer.Tracer(targets=(
        tracer.Target("stacked", "repro.core.stacked:role_names"),
        tracer.Target("rng", "repro.rng:derive_seed", count="rng.seeds"),
    ))
    t.install()
    start = time.monotonic()
    t.begin_root(start)
    try:
        stacked.role_names((-1, 1, 2))
        from repro import rng

        rng.derive_seed("a", 1)
    finally:
        t.uninstall()
    t.end_root(time.monotonic())
    assert t.counters["rng.seeds"] == 1
    assert abs(sum(t.self_s.values()) + t.unattributed_s - t.root_s) < 1e-9


def test_untraced_command_installs_nothing(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    status = subprocess.run(
        [sys.executable, os.path.join(BENCH, "command.py"), "--workload",
         "mitigate", "--seed", "0", "--spawn", repr(time.monotonic()),
         "--smoke"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert status.returncode == 0, status.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["tracer_imported"] is False
    assert result["wrappers_left"] == 0
    assert "layers" not in result


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mitigate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_seed_permutes_inputs_but_not_work():
    a = workloads.permuted(workloads.ALL_MODULES, 1)
    assert sorted(a) == sorted(workloads.ALL_MODULES)
    assert a == workloads.permuted(workloads.ALL_MODULES, 1)
    assert a != workloads.permuted(workloads.ALL_MODULES, 2)
