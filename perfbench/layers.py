"""The traced run: per-layer metrics from spans around public calls.

The workload's own programs go through each layer's public function in
turn — ``ir.trace``, the backend's pass pipeline, ``compile_plan``,
``PlanCache``, ``PlanStore``, ``Plan.execute`` (three ways), the
``repro.kernels`` calls a recorded execution names, ``Compiled``,
``Session.run_batch`` and ``Server.submit`` — each call inside a span
recorded by this file.  Layer costs are medians over interleaved
rounds, so a slow moment on the box hits every layer alike.

Nothing inside ``repro`` is instrumented: a span covers a whole public
call, and a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import statistics
import time

import numpy as np

from repro import api, kernels, serve
from repro.ir import trace
from repro.kernels import blas1
from repro.runtime import PlanCache, PlanStore, compile_plan

from . import harness as H
from . import programs as P

#: Op ids carry their round so per-round means can be grouped.
ROUND = 1_000_000
#: The layer ladder, bottom rung first; each reports its ratio to the
#: rung below it.
LADDER = (
    ("plan.turbo", "plan.exec", "exec_over_turbo"),
    ("plan.exec", "plan.exec_record", "exec_record_over_exec"),
    ("plan.exec_record", "api.call", "call_over_exec_record"),
    ("api.call", "api.run_batch1", "run_batch1_over_call"),
    ("api.run_batch1", "serve.submit", "submit_over_run_batch1"),
)
#: Feed sets per ``run_batch`` call in the batched rungs.
BATCH = 64
#: At most this many programs (evenly spaced) take the 64-set rungs.
BATCH_PROGRAMS = 4
#: At most this many programs take part in the autotune probe.
AUTOTUNE_PROGRAMS = 26
#: Requests the serve probe's closed loop keeps outstanding.
SERVE_OUTSTANDING = 8


def _round_means(rec: H.SpanRecorder, name: str) -> list[float]:
    """Per round: mean duration of ``name`` spans in that round."""
    rounds: dict[int, list[float]] = {}
    for n, start, end, _, op in rec.spans:
        if n == name:
            rounds.setdefault(op // ROUND, []).append(end - start)
    return [statistics.fmean(v) for v in rounds.values()]


def _median_mean(rec: H.SpanRecorder, name: str) -> float:
    means = _round_means(rec, name)
    return statistics.median(means) if means else float("nan")


def _spaced(items: list, count: int) -> list:
    if len(items) <= count:
        return list(items)
    step = len(items) / count
    return [items[int(i * step)] for i in range(count)]


# -- build layers: ir, passes, compiler, fusion, cache, store --------------------------

def _build_layers(subjects, options, rec, store_root, rounds) -> dict:
    choice = options.pipeline
    counts = {"nodes": [], "rewrites": [], "instructions": [], "sites": [],
              "flops_default": 0, "flops_aware": 0}
    hits, lookups, written = [], [], []
    for r in range(rounds):
        cache = PlanCache()
        store_dir = os.path.join(store_root, f"build{r}")
        writer = PlanStore(store_dir)
        keys = []
        for k, (prog, feed_sets) in enumerate(subjects):
            op = r * ROUND + k
            profile = api.backend(prog.backend)
            with rec.span("build", op):
                with rec.span("ir.trace", op):
                    graph = trace(prog.fn(), feed_sets[0])
                with rec.span("passes.optimize", op):
                    pipeline = profile.pipeline(choice)
                    optimized = pipeline.run(graph)
                with rec.span("runtime.compile_plan", op):
                    plan = compile_plan(optimized)
                with rec.span("runtime.cache", op):
                    cache.get(optimized)
                with rec.span("runtime.store.put", op):
                    key = writer.trace_key(
                        graph, backend=prog.backend, pipeline=choice,
                        fold_constants=False, fusion=False,
                    )
                    writer.put_alias(key, writer.put_plan(plan))
            keys.append(key)
            if r == 0:
                counts["nodes"].append(len(graph))
                counts["rewrites"].append(
                    sum(s.rewrites for s in pipeline.history)
                )
                counts["instructions"].append(len(plan.instructions))
                counts["sites"].append(
                    compile_plan(optimized, fusion=True).fusion_stats.sites
                )
                for name in ("default", "aware"):
                    counts[f"flops_{name}"] += compile_plan(
                        profile.pipeline(name).run(graph)
                    ).flops
        reader = PlanStore(store_dir)
        for k, key in enumerate(keys):
            with rec.span("runtime.store.load", r * ROUND + k):
                reader.load_graph_with_record(key)
        hits.append(cache.stats.hits)
        lookups.append(cache.stats.lookups)
        written.append(reader.disk_stats()[1] / len(subjects))
        store_hit_ratio = reader.stats.hit_rate
    return {
        "ir.trace_ms": (_median_mean(rec, "ir.trace") * 1e3, "ms"),
        "ir.nodes": (statistics.fmean(counts["nodes"]), "count"),
        "passes.optimize_ms": (_median_mean(rec, "passes.optimize") * 1e3, "ms"),
        "passes.rewrites": (statistics.fmean(counts["rewrites"]), "count"),
        "passes.flops_saved_ratio": (
            counts["flops_default"] / max(1, counts["flops_aware"]), "ratio"
        ),
        "compiler.compile_ms": (
            _median_mean(rec, "runtime.compile_plan") * 1e3, "ms"
        ),
        "compiler.instructions": (
            statistics.fmean(counts["instructions"]), "count"
        ),
        "fusion.sites": (statistics.fmean(counts["sites"]), "count"),
        "cache.hit_ratio": (sum(hits) / max(1, sum(lookups)), "ratio"),
        "store.put_ms": (_median_mean(rec, "runtime.store.put") * 1e3, "ms"),
        "store.load_ms": (_median_mean(rec, "runtime.store.load") * 1e3, "ms"),
        "store.hit_ratio": (store_hit_ratio, "ratio"),
        "store.bytes_written": (statistics.fmean(written), "bytes"),
    }


# -- kernels: replay each recorded call through repro.kernels ---------------------------

def _replayer(call, dtype, rng):
    """``(fn, bytes)`` re-running one recorded kernel call on fresh
    same-shaped operands, or ``(None, 0)`` for calls with no kernel
    work (views, identities, slices).  Bytes are computed from the
    dims: operands read plus result written."""
    k, d = call.kernel, tuple(call.dims)
    size = np.dtype(dtype).itemsize

    def mat(m, n):
        return np.asfortranarray(rng.random((m, n)).astype(dtype))

    if k == "gemm":
        m, kk, n = d
        a, b = mat(m, kk), mat(kk, n)
        return (lambda: kernels.gemm(a, b)), size * (m * kk + kk * n + m * n)
    if k == "gemv":
        m, n = d
        a, x = mat(m, n), rng.random(n).astype(dtype)
        return (lambda: kernels.gemv(a, x)), size * (m * n + n + m)
    if k in ("trmm", "trmm_right"):
        n, m = d
        lo, b = np.asfortranarray(np.tril(mat(n, n))), mat(n, m)
        return (lambda: kernels.trmm(lo, b)), size * (n * (n + 1) // 2 + 2 * n * m)
    if k == "syrk":
        n, kk = d
        a = mat(n, kk)
        return (lambda: kernels.syrk(a)), size * (n * kk + n * n)
    if k == "symm":
        n, m = d
        a, b = mat(n, n), mat(n, m)
        a = np.asfortranarray(a + a.T)
        return (lambda: kernels.symm(a, b)), size * (n * n + 2 * n * m)
    if k == "tridiagonal_matmul":
        n, m = d
        t = P.T.random_tridiagonal(n, dtype=dtype, seed=1).data
        b = mat(n, m)
        return (lambda: kernels.tridiagonal_matmul(t, b)), size * (3 * n + 2 * n * m)
    if k == "diag_matmul":
        n, m = d
        dm, b = np.diag(rng.random(n).astype(dtype)), mat(n, m)
        return (lambda: kernels.diag_matmul(dm, b)), size * (n + 2 * n * m)
    if k in ("add", "sub"):
        m, n = d
        x, y = mat(m, n), mat(m, n)
        fn = blas1.add if k == "add" else blas1.sub
        return (lambda: fn(x, y)), size * 3 * m * n
    if k in ("scale", "neg"):
        m, n = d
        x, out = mat(m, n), mat(m, n)
        if k == "neg":
            return (lambda: blas1.neg(x, out=out)), size * 2 * m * n
        return (lambda: kernels.scal(2.0, x, out=out)), size * 2 * m * n
    if k == "dot":
        (n,) = d
        x, y = rng.random(n).astype(dtype), rng.random(n).astype(dtype)
        return (lambda: kernels.dot(x, y)), size * 2 * n
    if k == "transpose":
        m, n = d
        x = mat(m, n)
        return (lambda: np.ascontiguousarray(x.T)), size * 2 * m * n
    return None, 0


# -- execution ladder ------------------------------------------------------------------

class _Entry:
    """One program prepared for every execution rung."""

    def __init__(self, prog, feed_sets, plain, turbo, server, rng,
                 replay_cache: dict) -> None:
        self.feed_sets = feed_sets
        self.datas = [[t.data for t in fs] for fs in feed_sets]
        self.f = plain.compile(prog.fn(), backend=prog.backend)
        self.plan = self.f.get_concrete(*feed_sets[0]).plan
        ft = turbo.compile(prog.fn(), backend=prog.backend)
        self.turbo_plan = ft.get_concrete(*feed_sets[0]).plan
        self.arena = self.turbo_plan.new_arena()
        for d in self.datas[:2]:
            self.turbo_plan.execute(d, arena=self.arena, record=False)
        _, report = self.plan.execute(self.datas[0])
        self.flops = report.total_flops
        self.peak_bytes = report.peak_bytes
        self.calls = len(report.calls)
        dtype = self.datas[0][0].dtype
        replays = []
        for c in report.calls:
            # Same-shaped calls share operands across the workload's
            # programs: a mix of n=512 products would not fit otherwise.
            key = (c.kernel, tuple(c.dims), dtype)
            if key not in replay_cache:
                replay_cache[key] = _replayer(c, dtype, rng)
            replays.append(replay_cache[key])
        self.replays = [(c.kernel, fn) for c, (fn, _) in zip(report.calls, replays)
                        if fn is not None]
        self.bytes = sum(b for _, b in replays)
        self.serve_fn = prog.fn()
        self.server = server
        self.plain = plain

    def rungs(self, loop):
        plan, tplan, arena, f = self.plan, self.turbo_plan, self.arena, self.f
        server, fn, plain = self.server, self.serve_fn, self.plain
        return {
            "plan.turbo": lambda j: tplan.execute(
                self.datas[j], arena=arena, record=False),
            "plan.exec": lambda j: plan.execute(self.datas[j], record=False),
            "plan.exec_record": lambda j: plan.execute(self.datas[j]),
            "api.call": lambda j: f(*self.feed_sets[j]),
            "api.run_batch1": lambda j: plain.run_batch(f, [self.feed_sets[j]]),
            "serve.submit": lambda j: loop.run_until_complete(
                server.submit(fn, self.feed_sets[j])),
        }


def _exec_ladder(subjects, options, rec, budget, rng) -> dict:
    plain = api.Session(options)
    turbo = api.Session(options.replace(fusion=True, arena="preallocated"))
    loop = asyncio.new_event_loop()
    server = loop.run_until_complete(serve.Server(options).start())
    try:
        cache: dict = {}
        entries = [_Entry(p, fs, plain, turbo, server, rng, cache)
                   for p, fs in subjects]
        rung_fns = [e.rungs(loop) for e in entries]
        names = [lo for lo, _, _ in LADDER] + [LADDER[-1][1]]
        for fns in rung_fns:  # warm every rung once
            for name in names:
                fns[name](0)
        deadline = time.perf_counter() + budget
        r = 0
        while r < 3 or time.perf_counter() < deadline:
            for name in names + ["kernels.replay"]:
                for k, e in enumerate(entries):
                    for j in range(len(e.feed_sets)):
                        op = r * ROUND + k * 1000 + j
                        if name == "kernels.replay":
                            with rec.span(name, op):
                                for kname, fn in e.replays:
                                    with rec.span(f"kernels.{kname}", op):
                                        fn()
                        else:
                            with rec.span(name, op):
                                rung_fns[k][name](j)
            r += 1
        batch_entries = _spaced(entries, BATCH_PROGRAMS)
        for r in range(3):
            for k, e in enumerate(batch_entries):
                sets = [e.feed_sets[j % len(e.feed_sets)] for j in range(BATCH)]
                with rec.span("api.run_batch64", r * ROUND + k):
                    plain.run_batch(e.f, sets)
    finally:
        loop.run_until_complete(server.stop())
        loop.close()
        plain.close()
        turbo.close()

    us = {name: _median_mean(rec, name) * 1e6 for name in names}
    busy = _round_means_busy(rec)

    def per_op(attr):
        """Mean of an entry attribute over ops (one op per feed set)."""
        return sum(getattr(e, attr) * len(e.feed_sets) for e in entries) / sum(
            len(e.feed_sets) for e in entries)

    flops = per_op("flops")
    out = {
        "plan.exec_us": (us["plan.exec"], "us"),
        "plan.exec_record_us": (us["plan.exec_record"], "us"),
        "plan.turbo_us": (us["plan.turbo"], "us"),
        "plan.peak_bytes": (per_op("peak_bytes"), "bytes"),
        "kernels.calls_per_op": (per_op("calls"), "count"),
        "kernels.busy_us_per_op": (busy * 1e6, "us"),
        "kernels.dispatch_fraction": (1.0 - busy * 1e6 / us["plan.exec"], "ratio"),
        "kernels.gflops": (flops / busy / 1e9 if busy else 0.0, "GFLOP/s"),
        "kernels.bytes_moved_per_op": (per_op("bytes"), "bytes-computed"),
        "api.call_us": (us["api.call"], "us"),
        "api.over_plan_ratio": (us["api.call"] / us["plan.turbo"], "ratio"),
        "api.run_batch1_us_per_set": (us["api.run_batch1"], "us"),
        "api.run_batch64_us_per_set": (
            _median_mean(rec, "api.run_batch64") * 1e6 / BATCH, "us"),
        "serve.submit_us": (us["serve.submit"], "us"),
    }
    for lo, hi, ratio in LADDER:
        out[f"ladder.{ratio}"] = (us[hi] / us[lo], "ratio")
    return out


def _round_means_busy(rec: H.SpanRecorder) -> float:
    """Median over rounds of the mean kernel time per replayed op: the
    children of each ``kernels.replay`` span, summed."""
    busy: dict[int, float] = {}
    replay_ops: dict[int, set] = {}
    parents = {i for i, s in enumerate(rec.spans) if s[0] == "kernels.replay"}
    for i in parents:
        replay_ops.setdefault(rec.spans[i][4] // ROUND, set()).add(i)
    for name, start, end, parent, op in rec.spans:
        if parent in parents:
            busy[op // ROUND] = busy.get(op // ROUND, 0.0) + end - start
    means = [busy.get(r, 0.0) / len(ids) for r, ids in replay_ops.items()]
    return statistics.median(means) if means else 0.0


# -- batch threads and shards: always the dispatch chain ---------------------------------

def _batch_layers(seed: int, small: bool, rec) -> dict:
    prog, feed_sets = P.dispatch_chain(
        seed, sets=4 if small else P.CHAIN_FEED_SETS,
        loops=3 if small else P.CHAIN_LOOPS,
    )
    sets = [feed_sets[j % len(feed_sets)] for j in range(BATCH)]
    plain = api.Session()
    sharded = api.Session(shards=2)
    try:
        f = plain.compile(prog.fn())
        fs = sharded.compile(prog.fn())
        plain.run_batch(f, sets, workers=2)
        start = time.perf_counter()
        sharded.run_batch(fs, sets)
        first = time.perf_counter() - start
        for r in range(5):
            with rec.span("batch.threads", r * ROUND):
                plain.run_batch(f, sets, workers=2)
            with rec.span("shard.run_batch", r * ROUND):
                sharded.run_batch(fs, sets)
    finally:
        sharded.close()
        plain.close()
    steady = _median_mean(rec, "shard.run_batch")
    return {
        "batch.threads_us_per_set": (
            _median_mean(rec, "batch.threads") * 1e6 / BATCH, "us"),
        "shard.us_per_set": (steady * 1e6 / BATCH, "us"),
        "shard.spawn_s": (first - steady, "s"),
    }


# -- autotune ----------------------------------------------------------------------

def _autotune_layer(subjects, options, rec) -> dict:
    subjects = _spaced(subjects, AUTOTUNE_PROGRAMS)
    tuned = api.Session(options.replace(autotune=True))
    plain = api.Session(options)
    try:
        pairs = []
        for prog, feed_sets in subjects:
            pairs.append((
                tuned.compile(prog.fn(), backend=prog.backend),
                plain.compile(prog.fn(), backend=prog.backend),
                feed_sets[0],
            ))
        # Past the default hot threshold (16 executions), so every hot
        # signature races its candidates inline.
        for _ in range(20):
            for ft, fp, feeds in pairs:
                ft(*feeds)
                fp(*feeds)
        for r in range(9):
            with rec.span("autotune.canonical", r * ROUND):
                for _, fp, feeds in pairs:
                    fp(*feeds)
            with rec.span("autotune.tuned", r * ROUND):
                for ft, _, feeds in pairs:
                    ft(*feeds)
        promotions = tuned.stats().autotune.promotions
    finally:
        tuned.close()
        plain.close()
    return {
        "autotune.promotions": (promotions, "count"),
        "autotune.speedup": (
            _median_mean(rec, "autotune.canonical")
            / _median_mean(rec, "autotune.tuned"), "ratio"),
    }


# -- serve: a closed then an open phase over the workload's programs ---------------------

async def _serve_layer(subjects, options, seconds, rng, rec) -> dict:
    server = await serve.Server(options).start()
    try:
        ops = []
        for prog, feed_sets in subjects:
            fn = prog.fn()  # one per program: the server coalesces by function
            ops += [(fn, feeds) for feeds in feed_sets]
        for fn, feeds in ops:
            await server.submit(fn, feeds)

        def submit(i):
            fn, feeds = ops[i % len(ops)]
            return server.submit(fn, feeds)

        loop = asyncio.get_running_loop()
        counter = itertools.count()
        done = [0]
        deadline = loop.time() + seconds / 2

        async def client():
            while loop.time() < deadline:
                i = next(counter)
                start = loop.time()
                await submit(i)
                rec.add("serve.submit.closed", start, loop.time(), i)
                done[0] += 1

        start = loop.time()
        await asyncio.gather(*(client() for _ in range(SERVE_OUTSTANDING)))
        capacity = done[0] / (loop.time() - start)
        lags = await H.open_loop(capacity / 2, seconds / 2, submit, rng)
    finally:
        await server.stop()
    m = server.metrics
    return {
        "serve.queue_wait_p99_ms": (m.queue_wait.p99 * 1e3, "ms"),
        "serve.wave_occupancy_mean": (m.wave_occupancy.mean, "count"),
        "serve.waves": (m.waves, "count"),
        "serve.queue_depth_max": (m.queue_depth.high_water, "count"),
        "serve.rejected": (m.rejected, "count"),
        "loadgen.lag_p99_ms": (H.percentile_ms(lags, 99), "ms"),
    }


def traced_run(workload, seconds: float, rng, rec, machine: dict,
               tmp_root: str, seed: int, small: bool) -> tuple[dict, H.Tally]:
    """Every per-layer metric for ``workload``; returns (metrics, tally)
    where the tally counts the checked ops of set-up and the timed loops."""
    _, checked = workload.setup()
    # Alternate short untraced and traced loops, so drift on the box
    # lands on both sides of the overhead ratio alike.
    untraced, traced = H.Tally(), H.Tally()
    for _ in range(4):
        untraced.merge(workload.timed_loop(0.05 * seconds, rng))
        traced.merge(workload.timed_loop(0.05 * seconds, rng, rec))
    metrics = {
        "trace.overhead_ratio": (
            (traced.ok / traced.elapsed) / (untraced.ok / untraced.elapsed),
            "ratio"),
    }
    subjects = workload.subjects()
    options = workload.options
    metrics.update(_build_layers(subjects, options, rec, tmp_root, rounds=3))
    metrics.update(_exec_ladder(subjects, options, rec, 0.2 * seconds, rng))
    metrics.update(_batch_layers(seed, small, rec))
    metrics.update(_autotune_layer(subjects, options, rec))
    metrics.update(asyncio.run(
        _serve_layer(subjects, options, 0.2 * seconds, rng, rec)))
    metrics["machine.sgemm_ref_us"] = (machine["sgemm_ref_us"], "us")
    metrics["machine.sgemm_gflops"] = (machine["sgemm_gflops"], "GFLOP/s")
    metrics["kernels.peak_fraction"] = (
        metrics["kernels.gflops"][0] / machine["sgemm_gflops"], "ratio")
    checked.merge(untraced)
    checked.merge(traced)
    return metrics, checked
