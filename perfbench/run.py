"""Benchmark entry point: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dispatch-chain --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, from a separate run that
wraps each layer's public call in a span (the spans are written to
``.perfbench/`` when the run ends).  Human-readable notes go first; the
last line of standard output is the JSON result.  BLAS is pinned to one
thread, and load comes from one process and one thread at a time.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where runs leave spans and temporary plan stores (git-ignored).
OUT_DIR = ROOT / ".perfbench"
#: Fresh processes an untraced run's timed phase is split over.
PARTS = 5
#: Longest a part may take before the run is abandoned.
PART_TIMEOUT_S = 120

_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _measure_in_fresh_processes(workload: str, seed: int, seconds: float,
                                tmp_root: pathlib.Path, small: bool,
                                parts: int):
    """The untraced timed phase, split over ``parts`` processes run one
    after another, each spawned fresh for its single part.

    A Python process's speed depends on its own address-space layout and
    hash seed; on a 2-vCPU VM identical one-process runs differed by up
    to a third.  Medians over fresh processes average that out, as
    pyperf does.  Only one process runs at a time, so load still comes
    from one process and one thread.
    """
    from perfbench.workloads import combine_parts, part_entry

    ctx = multiprocessing.get_context("spawn")
    outcomes = []
    for part in range(parts):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=part_entry, args=(
            send, workload, seed, part, seconds / parts, str(tmp_root), small,
        ))
        proc.start()
        send.close()
        try:
            if not recv.poll(PART_TIMEOUT_S):
                raise RuntimeError(
                    f"part {part} sent no result in {PART_TIMEOUT_S} s")
            status, payload = recv.recv()
        except EOFError:
            status, payload = "error", f"exit code {proc.exitcode}"
        finally:
            recv.close()
            proc.join(timeout=PART_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
        if status != "ok":
            raise RuntimeError(f"part {part} failed: {payload}")
        outcomes.append(payload)
    return combine_parts(outcomes)


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool,
                  *, small: bool = False, parts: int = PARTS,
                  out_dir: pathlib.Path = OUT_DIR, log=print) -> dict:
    """Run one workload; returns the result object the CLI prints.

    ``small`` shrinks every program and ``parts`` sets the processes an
    untraced run uses (both for the smoke test); the timed phases still
    last ``seconds``.  Spans and temporary plan stores go under
    ``out_dir``.
    """
    import numpy as np

    from perfbench import harness as H
    from perfbench import layers
    from perfbench.workloads import make

    out_dir.mkdir(exist_ok=True)
    tmp_root = out_dir / f"tmp-{os.getpid()}"
    tmp_root.mkdir()
    machine = H.machine_reference()
    log(f"workload {workload}, seed {seed}")
    log(f"machine: sgemm 16x16 {machine['sgemm_ref_us']:.3f} us, "
        f"n=512 {machine['sgemm_gflops']:.2f} GFLOP/s (1 thread)")
    wl = None
    try:
        if traced:
            wl = make(workload, seed, str(tmp_root), small)
            rec = H.SpanRecorder()
            metrics, tally = layers.traced_run(
                wl, seconds, np.random.default_rng(seed), rec, machine,
                str(tmp_root), seed, small,
            )
            spans = out_dir / f"spans-{workload}-seed{seed}.json"
            rec.dump(spans)
            log(f"spans: {len(rec.spans)} written to {spans}")
            for name, self_s in sorted(rec.self_times().items()):
                log(f"  self time {name:<28} {self_s * 1e3:10.3f} ms")
        else:
            result = _measure_in_fresh_processes(
                workload, seed, seconds, tmp_root, small, parts
            )
            tally = result.tally
            metrics = result.metrics()
            for note in result.notes:
                log(note)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(tmp_root, ignore_errors=True)
        # Shard pools start multiprocessing's resource-tracker helper; stop
        # it and wait for it, so no process outlives the run.  A later
        # shared-memory user restarts it on demand.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    failed_ratio = tally.failed / max(1, tally.attempted)
    log(f"failed_ratio {failed_ratio:.6f} ({tally.failed} of "
        f"{tally.attempted} ops failed)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: _metric(v, u) for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
