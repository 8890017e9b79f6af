"""Smoke test of the benchmark: every workload at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that a run prints exactly the metrics BENCHMARK.json names, with
their units, and that a deliberately corrupted ``Ybar`` is counted as a
failed operation.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(K=200, stream_K=40, stream_drives=3, setup_probes=1)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed(workload, trace):
    result, report = run.run_workload(workload, seed=3, seconds=0, trace=bool(trace), sizes=TINY)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(v > 0 for v in report["end_to_end"].values())


def test_workload_names_match_the_spec():
    assert NAMES == sorted(w["name"] for w in SPEC["workloads"])


BUMP = 1e-3


def corrupt_hour(monkeypatch, bc):
    original = bc.run_offline

    def run_offline(cfg, traj):
        out = original(cfg, traj)
        return dataclasses.replace(out, Ybar=out.Ybar + BUMP)

    monkeypatch.setattr(bc, "run_offline", run_offline)


def corrupt_stream(monkeypatch, bc):
    original = bc.DistortionEngine.step

    def step(self, u, y, x=None):
        out = original(self, u, y, x)
        return out if out is None else (out[0], out[1] + BUMP)

    monkeypatch.setattr(bc.DistortionEngine, "step", step)


def corrupt_cli(monkeypatch, bc):
    original = workloads.read_emitted_y
    monkeypatch.setattr(workloads, "read_emitted_y", lambda path: original(path) + BUMP)


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_ybar_is_a_failure(monkeypatch, workload):
    bc = workloads.import_package()
    {"hour": corrupt_hour, "stream": corrupt_stream, "cli": corrupt_cli}[workload](monkeypatch, bc)
    result, report = run.run_workload(workload, seed=3, seconds=0, trace=False, sizes=TINY)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("cloak") for line in report["failures"])
