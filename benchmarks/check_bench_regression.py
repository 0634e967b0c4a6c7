"""Compare a freshly recorded ``BENCH_runtime.json`` against the committed one.

The CI bench-smoke job runs the benchmark suite, then calls this script
with the repository's committed JSON as the baseline: a regression beyond
the tolerance in either the fused+arena execution time or its allocation
peak fails the job.  Timings are only comparable on the same workload, so
the check is skipped (with a notice, exit 0) when the workload shape
differs — e.g. when ``REPRO_BENCH_LOOPS`` shrank the graph.

The committed baseline is recorded on a developer machine while CI runs
on whatever runner it gets, so absolute seconds are not directly
comparable.  Both JSONs carry ``machine_ref_sgemm_out_seconds`` — a raw
BLAS-call probe at the bench operand size — and timing limits are scaled
by the fresh/baseline ratio of that probe (clamped to [0.2, 5]×): a
runner half as fast gets a limit twice as high.  Byte-count metrics are
machine-independent and compared unscaled.

Usage::

    python benchmarks/check_bench_regression.py baseline.json fresh.json \
        [--tolerance 0.20]
"""

from __future__ import annotations

import argparse
import json
import sys

#: Metrics gated against the committed baseline (higher = worse).
GATED_KEYS = (
    "plan_exec_fused_arena_seconds",
    "alloc_peak_bytes_fused_arena",
    "plan_exec_donated_seconds",
    "batch_64_feeds_sharded_seconds",
    "sharded_supervised_seconds",
    "serve_p50_latency_seconds",
    "plan_store_warm_start_seconds",
    "autotuned_exec_seconds",
)

#: Keys a runner may legitimately not produce (sharding disabled via
#: ``REPRO_BENCH_SHARDS=0``, serve bench not run, or recorded as
#: ``null``): absence from the *fresh* results skips the key with a
#: notice instead of failing — mirroring the workload-mismatch skip.
#: Absence from an older *baseline* is already tolerated for every key.
OPTIONAL_KEYS = (
    "batch_64_feeds_sharded_seconds",
    "sharded_supervised_seconds",
    "serve_p50_latency_seconds",
)

#: Keys only comparable when both runs used the same shard count.
SHARD_KEYS = (
    "batch_64_feeds_sharded_seconds",
    "sharded_supervised_seconds",
)

#: ``serve_*`` keys are only comparable when both serve benches drove
#: the same load shape (shards, concurrency, coalescer ceiling) — p50
#: under a different wave size is a different experiment, not a
#: regression.
SERVE_KEYS = (
    "serve_p50_latency_seconds",
)
SERVE_SHAPE = ("serve_shards", "serve_concurrency", "serve_max_wave")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_runtime.json")
    parser.add_argument("fresh", help="freshly recorded BENCH_runtime.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative regression (default 0.20)")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    base_wl = baseline.get("workload", {})
    fresh_wl = fresh.get("workload", {})
    if base_wl.get("nodes") != fresh_wl.get("nodes") or \
            base_wl.get("operand_n") != fresh_wl.get("operand_n"):
        print(
            f"bench-regression: workload differs (baseline {base_wl}, "
            f"fresh {fresh_wl}) — timings not comparable, skipping check"
        )
        return 0
    # Shard timings are only comparable at the same worker count (a
    # 1-shard run is legitimately ~2x a 2-shard baseline) — mirror the
    # workload-mismatch skip for the shard-dependent keys.
    shard_comparable = (
        baseline.get("shard_workers") == fresh.get("shard_workers")
    )
    if not shard_comparable:
        print(
            f"bench-regression: shard_workers differ (baseline "
            f"{baseline.get('shard_workers')}, fresh "
            f"{fresh.get('shard_workers')}) — skipping shard metrics"
        )
    # Serve latencies are load-shape dependent the same way.  An older
    # baseline with no serve keys at all compares as shape (None,...) ==
    # (None,...) here and is then skipped per-key by the absent-from-
    # baseline rule below.
    serve_comparable = all(
        baseline.get(k) == fresh.get(k) for k in SERVE_SHAPE
    )
    if not serve_comparable:
        print(
            "bench-regression: serve load shape differs (baseline "
            f"{[baseline.get(k) for k in SERVE_SHAPE]}, fresh "
            f"{[fresh.get(k) for k in SERVE_SHAPE]}) — skipping serve "
            "metrics"
        )

    # Machine-speed normalization for wall-clock metrics.
    base_ref = baseline.get("machine_ref_sgemm_out_seconds")
    fresh_ref = fresh.get("machine_ref_sgemm_out_seconds")
    if base_ref and fresh_ref:
        scale = min(5.0, max(0.2, fresh_ref / base_ref))
        print(
            f"bench-regression: machine ref {base_ref:.3g}s -> "
            f"{fresh_ref:.3g}s; timing limits scaled by {scale:.3g}"
        )
    else:
        scale = 1.0
        print("bench-regression: no machine reference in one of the "
              "JSONs; comparing timings unscaled")

    failures = []
    for key in GATED_KEYS:
        if key in SHARD_KEYS and not shard_comparable:
            continue
        if key in SERVE_KEYS and not serve_comparable:
            continue
        base = baseline.get(key)
        new = fresh.get(key)
        if base is None:
            print(f"bench-regression: {key} absent from baseline, skipping")
            continue
        if new is None:
            if key in OPTIONAL_KEYS:
                print(
                    f"bench-regression: {key} absent from fresh results "
                    "(optional metric — e.g. sharding disabled on this "
                    "runner), skipping"
                )
                continue
            failures.append(f"{key}: missing from fresh results")
            continue
        limit = base * (1.0 + args.tolerance)
        if key.endswith("_seconds"):
            limit *= scale
        verdict = "OK" if new <= limit else "REGRESSED"
        print(
            f"bench-regression: {key}: baseline={base:.6g} fresh={new:.6g} "
            f"(limit {limit:.6g}) {verdict}"
        )
        if new > limit:
            failures.append(
                f"{key} regressed: {new:.6g} > {base:.6g} "
                f"(+{(new / base - 1.0):.1%}, tolerance {args.tolerance:.0%})"
            )
    # Structural (machine-independent) gate: a plan-store warm start must
    # beat the cold compile it replaces *within the same run* — both
    # numbers come from the same process moments apart, so no scaling or
    # tolerance applies.  Skipped when the fresh results predate the
    # store metrics.
    warm = fresh.get("plan_store_warm_start_seconds")
    cold = fresh.get("plan_store_cold_compile_seconds")
    if warm is None or cold is None:
        print("bench-regression: plan-store metrics absent from fresh "
              "results, skipping warm-vs-cold check")
    else:
        verdict = "OK" if warm < cold else "REGRESSED"
        print(
            f"bench-regression: plan_store warm={warm:.6g} cold={cold:.6g} "
            f"(warm must be < cold) {verdict}"
        )
        if warm >= cold:
            failures.append(
                f"plan_store_warm_start_seconds {warm:.6g} not below "
                f"plan_store_cold_compile_seconds {cold:.6g}"
            )
    # Structural autotune gate, same shape: the promoted plan's steady
    # state must not exceed the canonical plan's, measured in the same
    # run.  Skipped when the fresh results predate the autotune metrics.
    tuned = fresh.get("autotuned_exec_seconds")
    canonical = fresh.get("autotune_canonical_exec_seconds")
    if tuned is None or canonical is None:
        print("bench-regression: autotune metrics absent from fresh "
              "results, skipping tuned-vs-canonical check")
    else:
        verdict = "OK" if tuned <= canonical else "REGRESSED"
        print(
            f"bench-regression: autotune tuned={tuned:.6g} "
            f"canonical={canonical:.6g} (tuned must be <= canonical) "
            f"{verdict}"
        )
        if tuned > canonical:
            failures.append(
                f"autotuned_exec_seconds {tuned:.6g} above "
                f"autotune_canonical_exec_seconds {canonical:.6g}"
            )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("bench-regression: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
