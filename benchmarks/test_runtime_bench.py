"""Runtime benchmark: compiled plans vs the reference interpreter.

Demonstrates the tentpole claims — compile-once/execute-many beats
re-interpreting the graph per call, and the fused/arena engine beats the
plain plan executor — and records the numbers to
``.benchmarks/BENCH_runtime.json`` (plan-compile time, cached-exec time,
interpreter-exec time, per-mode exec times, allocation peaks via
``tracemalloc``, batch throughput), which the CI benchmarks jobs compare
against the committed ``BENCH_runtime.json`` baseline and upload as
artifacts.  Running the suite never rewrites a tracked file.

The workload is deliberately dispatch-bound (many small kernels on small
operands): that is the regime where per-call graph walking, liveness
rebuilding, kernel re-selection, per-node closure launches and
per-intermediate allocation dominate, i.e. exactly the overhead plans,
fusion and the preallocated arena remove.  Kernel-bound workloads
converge to the same BLAS time in every path.

Environment knobs (used by the CI smoke job to keep PR feedback fast):

``REPRO_BENCH_REPS``    timed repetitions per measurement (default 50)
``REPRO_BENCH_LOOPS``   chain length of the workload (default 12)
``REPRO_BENCH_SHARDS``  worker processes for the sharded batch workload
                        (default 2; ``0`` skips the shard benchmarks)
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.bench.timing import measure
from repro.frameworks import tfsim
from repro.ir import Interpreter, trace
from repro.passes import aware_pipeline, default_pipeline
from repro.runtime import (
    PlanCache,
    PlanStore,
    ShardPool,
    compile_plan,
    execute_batch,
)
from repro.tensor import (
    random_general,
    random_lower_triangular,
    random_tridiagonal,
    random_vector,
)

REPS = int(os.environ.get("REPRO_BENCH_REPS", "50"))
LOOPS = int(os.environ.get("REPRO_BENCH_LOOPS", "12"))
SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", "2"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where fresh numbers land (gitignored); the committed baseline at the
#: repo root is only ever read.
BENCH_OUT = ROOT / ".benchmarks" / "BENCH_runtime.json"


def _dispatch_bound_graph(optimized: bool = True):
    """~50 tiny ops: a chain of products and sums on 16x16 operands.

    ``optimized=False`` returns the raw trace — what a ``Session`` keys
    plan-store aliases by, and the starting point of both sides of the
    store's warm-vs-cold comparison.
    """

    def fn(a, b, c):
        acc = a
        for _ in range(LOOPS):
            acc = (acc @ b + c - a) @ a.T
        return acc + acc.T

    args = [random_general(16, seed=s) for s in (1, 2, 3)]
    graph = trace(fn, args)
    if optimized:
        graph = default_pipeline().run(graph)
    return graph, [t.data for t in args]


def _loop_graph():
    """Power iteration (normalization folded into a constant scale): a
    ``fori_loop`` whose body is a GEMV + scale — the workload whose
    per-iteration allocations the arena'd loop bodies eliminate."""
    a = random_general(64, seed=1)
    v = random_vector(64, seed=2)

    def body(i, x, aa):
        return 0.05 * (aa @ x)

    def fn(p, q):
        return tfsim.fori_loop(20, body, q, [p])

    graph = default_pipeline().run(trace(fn, [a, v]))
    return graph, [a.data, v.data]


def _structured_graph():
    """Structured-matrix chain (TRMM + tridiagonal special): exercises the
    destination-aware structured kernels instead of compute-then-copy."""
    l_mat = random_lower_triangular(48, seed=5)
    t = random_tridiagonal(48, seed=9)
    b = random_general(48, seed=2)
    graph = aware_pipeline().run(
        trace(lambda l, tt, p: l @ (tt @ p), [l_mat, t, b])
    )
    return graph, [l_mat.data, t.data, b.data]


def _sink_graph():
    """A GEMM whose beta-foldable ``add`` is *not* adjacent in the
    schedule (the dead addend's producer lands between them) — the shape
    the fold-aware scheduler exists for."""
    args = [random_general(24, seed=s) for s in (4, 5, 6)]

    def fn(a, b, c):
        return a @ b + (c - a)

    graph = default_pipeline().run(trace(fn, args))
    return graph, [t.data for t in args]


def _alloc_peak(fn, reps=20, collect=False):
    """Peak traced bytes across ``reps`` calls (one warm call first).

    ``collect=True`` runs ``gc.collect()`` between calls: f2py's per-call
    result wrappers land on numpy's object freelist, which tracemalloc
    keeps counting until a collection clears it — without collecting, a
    loop workload's *object-header* churn accumulates across reps and
    drowns the actual signal (ndarray data allocations, which the strict
    numpy-domain tests pin at zero).  The collected peak is the honest
    per-call transient high-water mark.
    """
    fn()
    if collect:
        gc.collect()
    tracemalloc.start()
    tracemalloc.reset_peak()
    for _ in range(reps):
        fn()
        if collect:
            gc.collect()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def workload():
    return _dispatch_bound_graph()


def _machine_ref_seconds():
    """Best-of-N direct BLAS call on the bench operand size — a
    machine-speed reference recorded next to the timings so the CI
    regression gate can normalize wall-clock numbers measured on
    different hardware (committed baseline vs CI runner)."""
    import time

    from scipy.linalg import blas as _blas

    a = np.asfortranarray(np.ones((16, 16), dtype=np.float32))
    b = np.asfortranarray(np.ones((16, 16), dtype=np.float32))
    c = np.empty((16, 16), dtype=np.float32, order="F")
    best = float("inf")
    for _ in range(2000):
        t0 = time.perf_counter()
        _blas.sgemm(1.0, a, b, beta=0.0, c=c, overwrite_c=1)
        best = min(best, time.perf_counter() - t0)
    return best


def _interleaved_rounds(arms, rounds=41, calls=20):
    """Per-call seconds of each arm, one entry per round: every round
    times ``calls`` back-to-back calls of each arm in turn."""
    import time

    for fn in arms.values():
        fn()  # warm
    out = {name: [] for name in arms}
    for _ in range(rounds):
        for name, fn in arms.items():
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            out[name].append((time.perf_counter() - t0) / calls)
    return out


def _median_ratio(num, den):
    """Median over rounds of ``num[i] / den[i]``."""
    return float(np.median(np.asarray(num) / np.asarray(den)))


@pytest.fixture(scope="module")
def timings(workload):
    graph, feeds = workload
    interp = Interpreter(record=True)

    compile_time = measure(
        lambda: compile_plan(graph), label="plan-compile", repetitions=10
    )
    plan = compile_plan(graph)
    fused = compile_plan(graph, fusion=True)
    arena = plan.new_arena()
    fused_arena = fused.new_arena()
    plan.execute(feeds, arena=arena)        # warm the arenas before timing
    fused.execute(feeds, arena=fused_arena)
    cache = PlanCache()
    cache.get(graph)  # warm
    cache_hit = measure(
        lambda: cache.get(graph), label="plan-cache-hit", repetitions=REPS
    )
    interp_exec = measure(
        lambda: interp.run(graph, feeds), label="interpreter-exec",
        repetitions=REPS,
    )
    plan_exec = measure(
        lambda: plan.execute(feeds), label="plan-exec", repetitions=REPS
    )
    serving_exec = measure(
        lambda: plan.execute(feeds, record=False), label="plan-exec-norecord",
        repetitions=REPS,
    )
    fused_exec = measure(
        lambda: fused.execute(feeds, record=False),
        label="plan-exec-fused", repetitions=REPS,
    )
    arena_exec = measure(
        lambda: plan.execute(feeds, record=False, arena=arena),
        label="plan-exec-arena", repetitions=REPS,
    )
    fused_arena_exec = measure(
        lambda: fused.execute(feeds, record=False, arena=fused_arena),
        label="plan-exec-fused-arena", repetitions=REPS,
    )
    # "Donated" arms: the same arena runs with layout-matched
    # (Fortran-ordered) feeds, which the plan's feed rule aliases instead
    # of staging.  The gated number gets a deeper sample than the
    # headline metrics: best-of-N only converges below scheduler noise
    # with a few hundred reps.
    feeds_f = [np.asfortranarray(f) for f in feeds]
    donated_arena = fused.new_arena()
    fused.execute(feeds_f, record=False, arena=donated_arena)
    donated_exec = measure(
        lambda: fused.execute(feeds_f, record=False, arena=donated_arena),
        label="plan-exec-donated", repetitions=max(REPS, 200),
    )
    # Feed-staging traffic: bytes memcpy'd per call with staged and with
    # aliased feeds (the aliased path must not copy at all).
    before = fused_arena.bytes_copied
    fused.execute(feeds, record=False, arena=fused_arena)
    bytes_copied = fused_arena.bytes_copied - before
    before = donated_arena.bytes_copied
    fused.execute(feeds_f, record=False, arena=donated_arena)
    bytes_copied_donated = donated_arena.bytes_copied - before
    batch = measure(
        lambda: execute_batch(plan, [feeds] * 8, workers=4),
        label="batch-8x-4workers", repetitions=10,
    )
    arena_batch = measure(
        lambda: execute_batch(fused, [feeds] * 8, workers=4,
                              arena="preallocated"),
        label="batch-8x-4workers-fused-arena", repetitions=10,
    )
    # The shard comparison point: the same 64-feed batch through the
    # 4-worker *thread* pool (GIL-bound on this dispatch-heavy workload),
    # the fused+arena thread pool, and the shard pool.  The
    # threaded-vs-sharded pair is sampled *interleaved* — alternating
    # one run of each per round — so slow machine drift (thermal, noisy
    # neighbors) hits both sides equally instead of biasing whichever
    # was measured later.
    import time as _time

    def _best(fn, rounds):
        best = float("inf")
        for _ in range(rounds):
            t0 = _time.perf_counter()
            fn()
            best = min(best, _time.perf_counter() - t0)
        return best

    arena_batch64 = measure(
        lambda: execute_batch(fused, [feeds] * 64, workers=4,
                              arena="preallocated"),
        label="batch-64x-4workers-fused-arena", repetitions=10,
    )
    run_threaded64 = lambda: execute_batch(plan, [feeds] * 64, workers=4)
    shard_best = None
    shard_bytes = None
    # Supervised sharding (PR 9): the same 64-feed batch through a pool
    # with wave deadlines and respawn armed.  The clean path pays one
    # poll() per wave reply instead of a blocking recv — the gated
    # ratio proves supervision is (and stays) nearly free.  Both pools
    # are sampled in the same interleaved rounds as the thread pool.
    supervised_best = None
    supervised_ratio = None
    recovery_seconds = None
    recovery_hangs = None
    recovery_respawns = None
    if SHARDS > 0:
        from repro import faults as _faults

        dtype = np.asarray(feeds[0]).dtype
        with ShardPool(fused, shards=SHARDS, ring_slots=32,
                       dtype=dtype) as pool, \
                ShardPool(fused, shards=SHARDS, ring_slots=32, dtype=dtype,
                          respawn=True, wave_deadline=5.0) as sup_pool:
            batch64 = _interleaved_rounds({
                "threaded": run_threaded64,
                "sharded": lambda: pool.run([feeds] * 64),
                "supervised": lambda: sup_pool.run([feeds] * 64),
            }, rounds=15, calls=1)
            pool.run([feeds] * 64)
            # Worker-side staging bytes for a whole 64-feed batch: the
            # shared-memory ring views alias, so nothing is copied.
            shard_bytes = pool.bytes_copied_last_run
        batch64_best = min(batch64["threaded"])
        shard_best = min(batch64["sharded"])
        supervised_best = min(batch64["supervised"])
        supervised_ratio = _median_ratio(batch64["supervised"],
                                         batch64["sharded"])
    else:
        batch64_best = _best(run_threaded64, 10)
    if SHARDS > 0:
        # Hung-worker recovery: worker 0 ignores SIGTERM and sleeps on
        # the first entry of the *measured* run (its warm run consumed
        # hits 1..chunk), so the run pays the full cycle — deadline
        # detection, terminate grace, kill escalation, respawn, wave
        # replay (whose fresh worker stays under the trigger).
        chunk = -(-64 // SHARDS)  # worker 0's share of 64 feeds
        _faults.install(f"worker.exec:hang(30)@{chunk + 1}w0")
        try:
            with ShardPool(fused, shards=SHARDS, ring_slots=32,
                           dtype=np.asarray(feeds[0]).dtype,
                           respawn=True, wave_deadline=0.4) as pool:
                pool.run([feeds] * 64)
                recovery_seconds = _best(lambda: pool.run([feeds] * 64), 1)
                recovery_hangs = pool.hangs_detected
                recovery_respawns = pool.respawns
        finally:
            _faults.clear()
    # Loop-heavy workload: allocation-free iteration through the
    # ping-pong child arenas.
    loop_graph, loop_feeds = _loop_graph()
    loop_plan = compile_plan(loop_graph, fusion=True)
    loop_arena = loop_plan.new_arena()
    for _ in range(3):  # warm both child arenas
        loop_plan.execute(loop_feeds, record=False, arena=loop_arena)
    loops = _interleaved_rounds({
        "per-call": lambda: loop_plan.execute(loop_feeds, record=False),
        "arena": lambda: loop_plan.execute(loop_feeds, record=False,
                                           arena=loop_arena),
    }, calls=5)
    # Structured-matrix workload: destination-aware TRMM + tridiagonal.
    s_graph, s_feeds = _structured_graph()
    s_plan = compile_plan(s_graph, fusion=True)
    s_arena = s_plan.new_arena()
    s_plan.execute(s_feeds, record=False, arena=s_arena)
    # Same workload, layout-matched "donated" feeds (the serving shape):
    # per-slot orders come from the plan, so the tridiagonal inputs ride
    # C-contiguous and the TRMM operand Fortran-contiguous — all aliased.
    s_feeds_ordered = [
        np.asfortranarray(f) if s_plan.slot_orders[spec.slot] == "F"
        else np.ascontiguousarray(f)
        for spec, f in zip(s_plan.inputs, s_feeds)
    ]
    s_donate_arena = s_plan.new_arena()
    s_plan.execute(s_feeds_ordered, record=False, arena=s_donate_arena)
    # The three arms sit within ~10-35% of each other, so they are sampled
    # as interleaved rounds (machine drift hits every arm of a round
    # alike) and gated on the median of per-round ratios.
    structured = _interleaved_rounds({
        "plain": lambda: s_plan.execute(s_feeds, record=False),
        "arena": lambda: s_plan.execute(s_feeds, record=False,
                                        arena=s_arena),
        "donated": lambda: s_plan.execute(s_feeds_ordered, record=False,
                                          arena=s_donate_arena),
    })
    # Fold-aware scheduling: a non-adjacent gemm→add pair that only beta-
    # folds because the scheduler sank the GEMM next to its consumer.
    sink_graph, _ = _sink_graph()
    sink_stats = compile_plan(sink_graph, fusion=True).fusion_stats
    # Persistent plan store (PR 8): both sides start from the raw trace.
    # Cold runs the optimization pipeline and lowers; warm jumps through
    # the trace alias to the stored optimized graph (mmap consts) and
    # lowers.  The delta is the build cost the store removes from every
    # session/worker cold start.
    import tempfile

    raw_graph, _ = _dispatch_bound_graph(optimized=False)
    with tempfile.TemporaryDirectory() as store_dir:
        store = PlanStore(store_dir)
        tkey = store.trace_key(
            raw_graph, backend="tfsim", pipeline="default",
            fold_constants=False, fusion=True,
        )
        store.put_alias(tkey, store.put_plan(fused))
        store_cold = measure(
            lambda: compile_plan(
                default_pipeline().run(raw_graph), fusion=True
            ),
            label="plan-store-cold-compile", repetitions=10,
        )
        store_warm = measure(
            lambda: compile_plan(store.load_graph(tkey), fusion=True),
            label="plan-store-warm-start", repetitions=10,
        )
    # Online autotuning (PR 10): the (A @ B) @ x chain on integer-valued
    # feeds — reassociation is bit-exact there, so the right-association
    # derivation passes the bit-identity gate and promotes.  Canonical
    # steady state is measured in a plain session, tuned steady state
    # after the race promoted; the overhead key is the wall clock the
    # race itself consumed (what a serving process pays once per hot
    # signature).
    from repro import api
    from repro.tensor.tensor import Tensor

    at_n = 128
    at_rng = np.random.default_rng(11)
    at_feeds = [
        Tensor(at_rng.integers(0, 4, (at_n, at_n)).astype(np.float32)),
        Tensor(at_rng.integers(0, 4, (at_n, at_n)).astype(np.float32)),
        Tensor(at_rng.integers(0, 4, (at_n, 1)).astype(np.float32)),
    ]

    def _at_chain(p, q, v):
        return (p @ q) @ v

    with api.Session() as plain_session:
        chain = plain_session.compile(_at_chain)
        chain(*at_feeds)
        at_canonical = measure(
            lambda: chain(*at_feeds), label="autotune-canonical-exec",
            repetitions=REPS,
        )
    with api.Session(autotune={"hot_threshold": 2,
                               "budget_seconds": 0.1}) as tuned_session:
        chain = tuned_session.compile(_at_chain)
        for _ in range(3):
            chain(*at_feeds)  # crosses the threshold; races inline
        at_stats = tuned_session.stats().autotune
        at_tuned = measure(
            lambda: chain(*at_feeds), label="autotune-tuned-exec",
            repetitions=REPS,
        )
    return {
        "plan_compile_seconds": compile_time.best,
        "plan_cache_hit_seconds": cache_hit.best,
        "interpreter_exec_seconds": interp_exec.best,
        "plan_exec_seconds": plan_exec.best,
        "plan_exec_norecord_seconds": serving_exec.best,
        "plan_exec_fused_seconds": fused_exec.best,
        "plan_exec_arena_seconds": arena_exec.best,
        "plan_exec_fused_arena_seconds": fused_arena_exec.best,
        "plan_exec_donated_seconds": donated_exec.best,
        "bytes_copied_per_call": bytes_copied,
        "bytes_copied_per_call_donated": bytes_copied_donated,
        "loop_exec_seconds": min(loops["per-call"]),
        "loop_exec_arena_seconds": min(loops["arena"]),
        "loop_arena_over_per_call_median_ratio": _median_ratio(
            loops["arena"], loops["per-call"]),
        "loop_alloc_peak_bytes": _alloc_peak(
            lambda: loop_plan.execute(loop_feeds, record=False,
                                      arena=loop_arena),
            collect=True,
        ),
        "loop_alloc_peak_bytes_per_call": _alloc_peak(
            lambda: loop_plan.execute(loop_feeds, record=False),
            collect=True,
        ),
        "structured_exec_seconds": min(structured["plain"]),
        "structured_exec_arena_seconds": min(structured["arena"]),
        "structured_exec_donated_seconds": min(structured["donated"]),
        "structured_arena_over_plain_median_ratio": _median_ratio(
            structured["arena"], structured["plain"]),
        "structured_donated_over_plain_median_ratio": _median_ratio(
            structured["donated"], structured["plain"]),
        "gemm_beta_fold_sinks": sink_stats.fold_sinks,
        "gemm_beta_folds_sunk_workload": sink_stats.gemm_beta_folds,
        "batch_8_feeds_4_workers_seconds": batch.best,
        "batch_8_feeds_4_workers_fused_arena_seconds": arena_batch.best,
        "batch_64_feeds_4_workers_seconds": batch64_best,
        "batch_64_feeds_4_workers_fused_arena_seconds": arena_batch64.best,
        "batch_64_feeds_sharded_seconds": shard_best,
        "sharded_supervised_seconds": supervised_best,
        "sharded_supervised_over_sharded_median_ratio": supervised_ratio,
        "hung_worker_recovery_seconds": recovery_seconds,
        "hung_worker_recovery_hangs": recovery_hangs,
        "hung_worker_recovery_respawns": recovery_respawns,
        "shard_workers": SHARDS,
        "shard_bytes_copied_per_batch": shard_bytes,
        "alloc_peak_bytes_per_call": _alloc_peak(
            lambda: plan.execute(feeds, record=False), collect=True
        ),
        "alloc_peak_bytes_fused_arena": _alloc_peak(
            lambda: fused.execute(feeds, record=False, arena=fused_arena),
            collect=True,
        ),
        "fused_sites": fused.fusion_stats.sites,
        "plan_store_cold_compile_seconds": store_cold.best,
        "plan_store_warm_start_seconds": store_warm.best,
        "autotune_canonical_exec_seconds": at_canonical.best,
        "autotuned_exec_seconds": at_tuned.best,
        "autotune_overhead_seconds": at_stats.tuning_seconds,
        "autotune_promotions": at_stats.promotions,
        "machine_ref_sgemm_out_seconds": _machine_ref_seconds(),
    }


def test_cached_plan_beats_interpreter_and_records_json(timings, workload):
    graph, feeds = workload
    speedup = (
        timings["interpreter_exec_seconds"] / timings["plan_exec_seconds"]
    )
    fused_arena_speedup = (
        timings["interpreter_exec_seconds"]
        / timings["plan_exec_fused_arena_seconds"]
    )
    payload = {
        "workload": {
            "nodes": len(graph),
            "op_counts": graph.op_counts(),
            "operand_n": 16,
            "repetitions": REPS,
        },
        **timings,
        "plan_over_interpreter_speedup": speedup,
        "fused_arena_over_interpreter_speedup": fused_arena_speedup,
    }
    BENCH_OUT.parent.mkdir(exist_ok=True)
    BENCH_OUT.write_text(json.dumps(payload, indent=2))
    # The acceptance claim: repeated execution of a cached plan beats
    # re-running the reference interpreter on the same graph.
    assert timings["plan_exec_seconds"] < timings["interpreter_exec_seconds"]
    # A cache hit is far cheaper than recompiling.
    assert timings["plan_cache_hit_seconds"] < timings["plan_compile_seconds"]


def test_fused_arena_at_or_below_plain_plan(timings):
    """The fused + preallocated engine must run at or below the PR-1
    ``plan_exec_norecord_seconds`` baseline on the dispatch-bound
    workload — fewer closure launches, zero intermediate allocations."""
    assert (
        timings["plan_exec_fused_arena_seconds"]
        <= timings["plan_exec_norecord_seconds"]
    )


def test_donated_feeds_skip_every_copy(timings):
    """Layout-matched feeds are aliased, which removes the last per-call
    memcpys: zero bytes staged.  The timing comparison gets a noise
    margin — the two measurements run at different moments and the
    staging saved is a single-digit percent of the call, well inside
    shared-runner jitter; the hard zero-copy guarantee is the byte
    counter."""
    assert timings["bytes_copied_per_call_donated"] == 0
    assert timings["bytes_copied_per_call"] > 0
    assert (
        timings["plan_exec_donated_seconds"]
        <= timings["plan_exec_fused_arena_seconds"] * 1.15
    )


def test_arena_loop_bodies_beat_per_call_loops(timings):
    """The arena'd loop executes its body allocation-free and must not be
    slower than per-call sub-plan execution (small noise margin, on the
    median of interleaved per-round ratios); the allocation peak contrast
    shows the per-iteration intermediates disappeared."""
    assert timings["loop_arena_over_per_call_median_ratio"] <= 1.1
    assert (
        timings["loop_alloc_peak_bytes"]
        < timings["loop_alloc_peak_bytes_per_call"] / 2
    )


def test_structured_arena_within_budget(timings):
    """The per-slot layout preferences (tridiagonal destinations and
    operands ride C-ordered, BLAS slots stay F) brought arena mode from
    ~1.55x the plain path down to near parity.  The arena path with
    layout-matched (aliased) feeds — the serving configuration — must be
    at or below plain (small noise margin); the staged path keeps paying
    a C->F boundary copy per call (the TRMM operand's F-ordered L feed),
    documented here and gated at a modest factor rather than hidden.
    Both gates read the median of interleaved per-round ratios."""
    assert timings["structured_donated_over_plain_median_ratio"] <= 1.10
    assert timings["structured_arena_over_plain_median_ratio"] <= 1.35


def test_fold_aware_scheduling_enables_beta_fold(timings):
    """The sunk workload's gemm→add pair is non-adjacent in the raw
    schedule; the fold only exists because the scheduler hoisted the
    dead addend's producer above the GEMM."""
    assert timings["gemm_beta_fold_sinks"] >= 1
    assert timings["gemm_beta_folds_sunk_workload"] >= 1


def test_plan_store_warm_start_beats_cold_compile(timings):
    """The store's reason to exist: rebuilding a plan from a disk
    artifact (alias lookup + payload decode + lower) must cost less than
    re-deriving it (optimization pipeline + lower) — on this workload the
    pipeline is ~3/4 of the cold build, so the margin is structural, not
    noise."""
    assert (
        timings["plan_store_warm_start_seconds"]
        < timings["plan_store_cold_compile_seconds"]
    )


def test_autotuned_chain_beats_canonical(timings):
    """The PR-10 acceptance claim: on the structured (A @ B) @ x chain
    the promoted right-association derivation executes strictly faster
    than the canonical left-association — the win is structural
    (~2n^2 vs n^3 FLOPs at n=128), not measurement noise — and the race
    actually promoted (a silent no-promotion run would compare the
    canonical plan against itself and "pass")."""
    assert timings["autotune_promotions"] >= 1
    assert (
        timings["autotuned_exec_seconds"]
        < timings["autotune_canonical_exec_seconds"]
    )


@pytest.mark.skipif(SHARDS < 2, reason="sharding disabled or single shard")
def test_sharded_batch_scales_over_thread_pool(timings):
    """The acceptance bar for the GIL-free dispatch path, at 64 feeds,
    with zero worker-side staging bytes (feeds alias shared memory,
    outputs land in shared memory).  Two comparisons, stated precisely:

    * >= 2.5x over ``batch_64_feeds_4_workers_seconds`` — the 4-worker
      thread pool in the PR-1 serving configuration (plain plan, no
      arena), i.e. the number the ISSUE's "only ~2x the serial cost"
      motivation refers to.  This measures the whole serving stack
      (sharding + each worker's fused turbo arena with aliased feeds), not
      process-parallelism alone.
    * strictly faster than
      ``batch_64_feeds_4_workers_fused_arena_seconds`` — the *best*
      in-process configuration (fused plan, per-thread arenas): on the
      same plan configuration, moving dispatch out of the GIL must win
      outright.

    The 2.5x bar needs a second CPU: with >= 2 cores, worker processes
    execute in true parallel while the thread pool stays GIL-bound.  On
    a single-core machine the processes time-slice one core, so the only
    available win is removing GIL thrash — measured ~2.4-2.8x there,
    straddling the bar with scheduler noise — hence the relaxed 2.0x
    floor when parallelism is physically impossible."""
    assert timings["batch_64_feeds_sharded_seconds"] is not None
    speedup = (
        timings["batch_64_feeds_4_workers_seconds"]
        / timings["batch_64_feeds_sharded_seconds"]
    )
    multicore = (os.cpu_count() or 1) >= 2
    floor = 2.5 if multicore else 2.0
    assert speedup >= floor, (
        f"sharded 64-feed batch only {speedup:.2f}x over the thread pool "
        f"(floor {floor}x on {os.cpu_count()} cpus)"
    )
    if multicore:
        assert (
            timings["batch_64_feeds_sharded_seconds"]
            < timings["batch_64_feeds_4_workers_fused_arena_seconds"]
        ), "sharding must beat the best threaded configuration outright"
    assert timings["shard_bytes_copied_per_batch"] == 0


@pytest.mark.skipif(SHARDS < 1, reason="sharding disabled")
def test_supervised_sharding_overhead_is_small(timings):
    """Wave deadlines replace blocking recv() with poll(timeout) — one
    extra syscall per wave reply.  The supervised clean path must stay
    within a modest factor of the unsupervised pool, on the median of
    interleaved per-round ratios (the margin is noise budget, not a real
    overhead allowance); the CI regression gate holds the absolute
    number to the committed baseline at 20%."""
    assert timings["sharded_supervised_seconds"] is not None
    assert timings["sharded_supervised_over_sharded_median_ratio"] <= 1.25


@pytest.mark.skipif(SHARDS < 1, reason="sharding disabled")
def test_hung_worker_recovery_is_bounded(timings):
    """The full hang-recovery cycle — deadline detection (0.4 s),
    terminate grace against a SIGTERM-ignoring worker (2 s), kill,
    respawn, wave replay — must complete well under the 10 s bound:
    a hung worker costs seconds, never a stuck batch."""
    assert timings["hung_worker_recovery_seconds"] is not None
    assert timings["hung_worker_recovery_seconds"] < 10.0
    assert timings["hung_worker_recovery_hangs"] == 1
    assert timings["hung_worker_recovery_respawns"] == 1


def test_arena_is_allocation_free_and_per_call_is_not(timings, workload):
    """Relative gate only: the 16x16 bench operands (1 KiB) sit too close
    to Python-object churn for a tight absolute bound to be stable across
    CPython/allocator versions.  The strict absolute zero-allocation
    proof lives in tests/test_runtime_arena.py at N=64 (16 KiB margin)."""
    assert (
        timings["alloc_peak_bytes_fused_arena"]
        < timings["alloc_peak_bytes_per_call"] / 2
    )


@pytest.mark.benchmark(group="runtime-plans")
def test_interpreter_exec(benchmark, workload):
    graph, feeds = workload
    interp = Interpreter(record=True)
    benchmark(lambda: interp.run(graph, feeds))


@pytest.mark.benchmark(group="runtime-plans")
def test_plan_exec(benchmark, workload):
    graph, feeds = workload
    plan = compile_plan(graph)
    benchmark(lambda: plan.execute(feeds))


@pytest.mark.benchmark(group="runtime-plans")
def test_plan_exec_norecord(benchmark, workload):
    graph, feeds = workload
    plan = compile_plan(graph)
    benchmark(lambda: plan.execute(feeds, record=False))


@pytest.mark.benchmark(group="runtime-plans")
def test_plan_exec_fused_arena(benchmark, workload):
    graph, feeds = workload
    plan = compile_plan(graph, fusion=True)
    arena = plan.new_arena()
    plan.execute(feeds, arena=arena)
    benchmark(lambda: plan.execute(feeds, record=False, arena=arena))
