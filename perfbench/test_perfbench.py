"""Smoke test of the benchmark itself: python3 -m pytest -q perfbench

Runs every workload at smoke size in both modes and checks that exactly
the metrics named in BENCHMARK.json are printed, with their units; that a
corrupted model file trips a gate; and that the benchmark refuses to run
without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_corrupted_model_trips_a_gate(tmp_path):
    wl = run.smoke(run.WORKLOADS["wide-dense"])
    run.write_csv(tmp_path / "raw.csv", wl.gen, run.generate(wl.gen, 5), None)
    d = tmp_path / "pass0"
    d.mkdir()
    with run.Runner(ROOT) as runner:
        for step, argv in run.pipeline(wl, 5, tmp_path / "raw.csv", d, d).items():
            assert runner.run(step, argv, d).code == 0, step
        gates, _ = run.gates_for(runner, wl, 5, d, trace=False)
        assert gates.failed == 0, gates.results

        # Nudge one off-diagonal weight, the last value of B before the
        # file's end (the dense model file ends with B when it has no
        # mean or weight vectors).
        raw = bytearray((d / "model.ease").read_bytes())
        weight = np.frombuffer(raw[-16:-8], "<f8")[0]
        raw[-16:-8] = np.float64(weight + 0.5).astype("<f8").tobytes()
        (d / "model.ease").write_bytes(bytes(raw))
        gates, _ = run.gates_for(runner, wl, 5, d, trace=False)
    failed = {name for name, ok, _ in gates.results if not ok}
    assert "dense_stationarity" in failed


def test_refuses_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "wide-dense", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
