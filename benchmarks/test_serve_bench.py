"""Serve bench: the async front-end under concurrent closed-loop load.

Runs :func:`repro.serve.bench.serve_bench` — the same dispatch-bound
workload as the runtime bench, driven through the full serving stack
(admission → coalescer → dispatch thread → engine) — and records the
``serve_*`` numbers into ``.benchmarks/BENCH_runtime.json`` (gitignored;
the committed ``BENCH_runtime.json`` baseline is never rewritten).

Acceptance gates (the ISSUE's serving criteria):

* coalesced wave occupancy is > 1 under concurrent closed-loop load —
  independent requests really do share waves;
* sustained coalesced throughput is at least the one-request-at-a-time
  sequential baseline through the same serve path;
* p50/p99 latency percentiles are recorded (and gated against the
  committed baseline by ``check_bench_regression.py``).

The JSON write is a read-merge-write: ``test_runtime_bench.py`` owns
the file and overwrites it wholesale, so this module must run after it
(pytest's alphabetical collection order guarantees that when both run
in one invocation, and the CI steps order them explicitly).

Environment knobs:

``REPRO_SERVE_REQUESTS``     total requests per timed run (default 192)
``REPRO_SERVE_CONCURRENCY``  closed-loop clients (default 8)
``REPRO_BENCH_SHARDS``       worker processes for wave execution
                             (default 2; ``0`` keeps waves in-process)
``REPRO_BENCH_LOOPS``        chain length of the workload (default 12)
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.serve.bench import serve_bench

REQUESTS = int(os.environ.get("REPRO_SERVE_REQUESTS", "192"))
CONCURRENCY = int(os.environ.get("REPRO_SERVE_CONCURRENCY", "8"))
SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", "2"))
LOOPS = int(os.environ.get("REPRO_BENCH_LOOPS", "12"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_OUT = ROOT / ".benchmarks" / "BENCH_runtime.json"


@pytest.fixture(scope="module")
def result():
    return serve_bench(
        requests=REQUESTS,
        concurrency=CONCURRENCY,
        shards=SHARDS or None,
        loops=LOOPS,
    )


def test_serve_bench_records_json(result):
    """Merge the serve numbers into the fresh BENCH_runtime.json without
    touching the runtime keys already recorded there."""
    payload = json.loads(BENCH_OUT.read_text()) if BENCH_OUT.exists() else {}
    payload.update(result.numbers)
    BENCH_OUT.parent.mkdir(exist_ok=True)
    BENCH_OUT.write_text(json.dumps(payload, indent=2))
    n = result.numbers
    assert n["serve_requests"] == REQUESTS
    assert n["serve_shards"] == SHARDS


def test_all_requests_complete(result):
    for report in (result.sequential, result.coalesced):
        assert report.completed == REQUESTS
        assert report.rejected == 0
        assert report.failed == 0


def test_waves_coalesce_above_occupancy_one(result):
    """Under concurrent closed-loop load, independent submissions must
    share waves — the whole point of the coalescer."""
    n = result.numbers
    assert n["serve_wave_occupancy_mean"] > 1.0, (
        f"waves never coalesced: mean occupancy "
        f"{n['serve_wave_occupancy_mean']:.2f}"
    )
    assert n["serve_wave_occupancy_max"] <= n["serve_max_wave"]


def test_coalesced_throughput_at_least_sequential(result):
    """Coalesced serving must sustain at least the one-request-at-a-time
    baseline through the same serve path (in practice it is a multiple:
    the per-wave overhead amortizes across the wave)."""
    n = result.numbers
    assert n["serve_coalescing_speedup"] >= 1.0, (
        f"coalescing made serving slower: "
        f"{n['serve_sequential_rps']:.0f} -> "
        f"{n['serve_throughput_rps']:.0f} req/s"
    )


def test_latency_percentiles_recorded(result):
    n = result.numbers
    assert 0.0 < n["serve_p50_latency_seconds"] <= n[
        "serve_p99_latency_seconds"
    ] <= n["serve_p999_latency_seconds"]
    # Closed-loop depth is bounded by the client count.
    assert n["serve_queue_depth_high_water"] <= CONCURRENCY
