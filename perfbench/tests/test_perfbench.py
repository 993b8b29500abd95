"""Tests of the benchmark itself: metrics, output check, absent layers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NON_DEFAULT_SEED = 5


def _tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(
        w,
        values={**w.values, "iterations": "300", "switch_iteration": "150", "trials": "2"},
    )


def _bench(capsys, *args: str) -> tuple[dict, str]:
    assert run.main(list(args)) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.fixture
def one_call(monkeypatch):
    monkeypatch.setattr(run, "MIN_PROCESSES", 1)
    monkeypatch.setattr(run, "PROCESS_BUDGET_S", 0.0)


@pytest.fixture
def quick(one_call, monkeypatch):
    for name in WORKLOADS:
        monkeypatch.setitem(WORKLOADS, name, _tiny(name))


def _corrupt(monkeypatch, edit) -> None:
    spawn = run.spawn_child

    def spawn_then_corrupt(mode, config, out, budget, timeout):
        result = spawn(mode, config, out, budget, timeout)
        for path in out.glob("*/trace.csv"):
            path.write_text(edit(path.read_text()))
        return result

    monkeypatch.setattr(run, "spawn_child", spawn_then_corrupt)


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, *_) in spans.PER_LAYER.items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(quick, capsys, name):
    result, out = _bench(capsys, "--workload", name, "--seed", str(NON_DEFAULT_SEED), "--seconds", "0")
    assert (result["correct"], result["failed"]) == (True, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac" in out

    result, out = _bench(
        capsys, "--workload", name, "--seed", str(NON_DEFAULT_SEED), "--seconds", "0", "--trace", "1"
    )
    assert (result["correct"], result["failed"]) == (True, 0)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        k: unit for k, (unit, *_) in spans.PER_LAYER.items()
    }
    assert all(v["value"] is not None for v in metrics.values())
    for name_printed in metrics:
        assert f" {name_printed} " in out
    bs_calls = metrics["filters.calls.bs_gains"]["value"]
    assert bs_calls == 0 if name == "single_wav" else bs_calls > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_output_matches_the_recorded_digests(one_call, capsys, name):
    result, _ = _bench(capsys, "--workload", name, "--seconds", "0")
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)


def test_a_changed_digit_fails_the_digest_check(one_call, monkeypatch, capsys):
    # Row 1 stays well formed and finite; only the recorded digest can catch it.
    _corrupt(monkeypatch, lambda text: text.replace("\n1,", "\n1,-", 1))
    result, out = _bench(capsys, "--workload", "single_wav", "--seconds", "0")
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "differs from the recorded digest" in out


def test_a_corrupted_trace_sets_failed_frac_to_one(quick, monkeypatch, capsys):
    monkeypatch.setattr(run, "PROCESS_BUDGET_S", 0.5)
    _corrupt(monkeypatch, lambda text: text.replace("\n7,", "\n7,nan,", 1))
    result, out = _bench(capsys, "--workload", "echo512", "--seed", str(NON_DEFAULT_SEED), "--seconds", "0")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 1
    failed_frac = next(line for line in out.splitlines() if "failed_frac" in line)
    assert failed_frac.split()[1] == "1"


def test_every_call_of_a_process_is_checked(quick, monkeypatch, capsys):
    monkeypatch.setattr(run, "PROCESS_BUDGET_S", 0.5)
    result, _ = _bench(capsys, "--workload", "single_wav", "--seed", str(NON_DEFAULT_SEED), "--seconds", "0")
    assert result["correct"] is True
    assert result["attempted"] > 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "echo512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_a_removed_layer_function_is_reported_absent():
    script = """
import json
import apsabench.cli, apsabench.filters as filters
import spans
del filters.shift_memory, filters.STEPPERS
tracer = spans.Tracer()
installed = spans.install(tracer)
print(json.dumps(spans.layer_metrics(tracer.summary(), installed, wall_s=1.0, import_s=1.0,
                                     trials=1, iterations=1, bytes_written=1)))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert set(metrics) == set(spans.PER_LAYER)
    absent = {k for k, v in metrics.items() if v is None}
    assert {"filters.memory_us", "filters.calls.shift_memory", "filters.step_us.apsa"} <= absent
    assert metrics["filters.update_us"] == 0.0  # still wrapped, never called
