"""Cut-down checks of the benchmark harness (seconds, not minutes).

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import child
import run
import spans
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _run_benchmark(*args: str) -> tuple[int, dict, str]:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--seconds", "0", *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["bound"] == \
        next(m["bound"] for m in spec["end_to_end"]
             if m["name"] == "setup_s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload, networks", [
    ("table2-full", "LSTM,ResNet50"),
    ("compile-full", "LSTM,ResNet50"),
    ("tune-layout", "VGG16"),
])
def test_workload_smoke(workload, networks):
    code, result, text = _run_benchmark("--workload", workload, "--limit",
                                        "1", "--networks", networks)
    assert code == 0, text
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, (unit, better) in {**run.END_TO_END, **run.REPORTED}.items():
        assert any(line.startswith(name) and unit in line and better in line
                   for line in text.splitlines()), name


@pytest.mark.parametrize("workload", ["table2-full", "compile-full"])
def test_traced_ledger_adds_up_to_the_wall_time(workload):
    code, result, text = _run_benchmark("--workload", workload, "--limit",
                                        "1", "--networks", "LSTM,ResNet50",
                                        "--trace", "1")
    assert code == 0, text
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(values) == set(run.PER_LAYER)
    timed = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS
                if layer != "verify")
    assert timed + values["unattributed_s"] == \
        pytest.approx(values["traced_wall_s"], abs=1e-6)
    assert values["trace_overhead"] > 0
    if workload == "compile-full":
        assert values["gpu.simulate.self_s"] == 0
        assert values["verify.self_s"] > 0


def test_self_times_partition_nested_spans():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        time.sleep(0.01)

    recorder.wrap("outer", outer_body)()
    seconds, calls, covered = spans.self_times(recorder.spans)
    assert calls["outer"] == calls["inner"] == 1
    assert seconds["outer"] + seconds["inner"] == pytest.approx(covered)
    assert seconds["inner"] >= 0.01 and seconds["outer"] >= 0.01


def test_oracle_finding_fails_the_run(tmp_path, monkeypatch, capsys):
    import repro.verify.oracle
    monkeypatch.setattr(repro.verify.oracle, "differential_oracle",
                        lambda kernel, pipeline=None: ["injected finding"])
    out = tmp_path / "result.json"
    assert child.main(["--root", ROOT, "--workload", "compile-full",
                       "--networks", "LSTM", "--limit", "1",
                       "--scratch", str(tmp_path), "--out", str(out),
                       "--spawned-at", repr(time.monotonic())]) == 0
    result = json.loads(out.read_text())
    assert result["failed"] and "injected finding" in result["failed"][0]
    code = run.report("compile-full", 0, [result], [result],
                      reference=None, diffs=[])
    assert code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_calibration_scales_latencies_by_the_local_host_speed():
    clock = workloads.OpClock()
    clock.ops = [[10.0, 10.2, 0.0], [20.0, 20.13, 0.03]]
    slow = workloads.CAL_REF_S * 2
    clock.samples = [[9.9, workloads.CAL_REF_S], [10.3, workloads.CAL_REF_S],
                     [19.95, slow], [20.15, slow], [20.2, slow]]
    fast, slowed = clock.scaled_latencies()
    assert fast == pytest.approx(0.2)
    assert slowed == pytest.approx(0.1 * 0.5 ** workloads.CAL_ELASTICITY)
    # No sample near the operation: the nearest one scales it.
    clock.ops = [[40.0, 40.1, 0.0]]
    assert clock.scaled_latencies() == [pytest.approx(slowed)]


def test_child_environment_drops_program_settings(monkeypatch):
    for name in ("REPRO_SOLVER", "REPRO_SIM", "REPRO_FAULT_PLAN",
                 "REPRO_RUNS_DIR", "REPRO_TABLE2_LIMIT"):
        monkeypatch.setenv(name, "x")
    env = run.child_env(ROOT)
    assert not [name for name in env if name.startswith("REPRO_")]
    assert env["PYTHONPATH"] == os.path.join(ROOT, "src")


def test_temporary_directories_are_removed(tmp_path):
    harness = run.Harness(str(tmp_path), "compile-full", 0, "", 0)
    assert os.path.isdir(harness.tmp)
    harness.close()
    assert not os.path.exists(harness.tmp)


def test_nondeterminism_is_flagged(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    first = {"quality": {"geomean_speedup": 1.2},
             "counters": {"solver.pivots": 10}, "ops_digest": "abc"}
    assert run.check_determinism(str(tmp_path), "k", [first]) == []
    assert run.check_determinism(str(tmp_path), "k", [first]) == []
    drifted = dict(first, counters={"solver.pivots": 11})
    assert run.check_determinism(str(tmp_path), "k", [drifted]) == \
        ["counters.solver.pivots"]
    # A change to the program sources starts a fresh record.
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert run.check_determinism(str(tmp_path), "k", [drifted]) == []
