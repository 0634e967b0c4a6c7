"""Smoke test of the benchmark: every workload at tiny sizes, in seconds.

Checks that each run emits exactly the metrics ``BENCHMARK.json`` names,
with their units, that outputs verify, and that a wrong output injected
here is counted as a failed op.  The timed runner itself
(``perfbench/run.py``) is not a test module, so Tier-1 never runs it at
full length.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run as bench
from perfbench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def _run(tmp_path, workload, traced, seed=3):
    return bench.run_benchmark(workload, seed, 0.2, traced, small=True,
                               parts=2, out_dir=tmp_path, log=lambda *_: None)


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
def test_every_metric_emitted_with_unit(tmp_path, monkeypatch, workload, traced):
    # Keep autotune races short: the smoke test checks plumbing, not speed.
    monkeypatch.setenv("REPRO_AUTOTUNE_BUDGET", "0.01")
    result = _run(tmp_path, workload, traced)
    expected = _units("per_layer" if traced else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]), name
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    json.dumps(result)  # the CLI prints exactly this object
    if traced:
        spans = json.loads(
            (tmp_path / f"spans-{workload}-seed3.json").read_text())
        assert spans["spans"] and spans["self_seconds"]
    assert not list(tmp_path.glob("tmp-*"))  # temporary stores removed


def test_injected_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    """Every third call returns a corrupted output; the parts a run is
    made of must count those ops as failed, and only those."""
    from repro.api import Compiled

    from perfbench.workloads import combine_parts, measure_part

    real_call = Compiled.__call__
    calls = [0]

    def corrupting_call(self, *args):
        out = real_call(self, *args)
        calls[0] += 1
        if calls[0] % 3 == 0:
            out.data[0, 0] += 1.0
        return out

    monkeypatch.setattr(Compiled, "__call__", corrupting_call)
    parts = [measure_part("dispatch-chain", 3, k, 0.2, str(tmp_path), small=True)
             for k in range(2)]
    tally = combine_parts(parts).tally
    assert 0 < tally.failed < tally.attempted


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark fails fast, printing no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
