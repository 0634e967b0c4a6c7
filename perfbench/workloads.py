"""The benchmark's workloads, each timed through the public API.

Every workload builds its programs from the run's seed, checks every
distinct program's first output against ``Compiled.interpret`` (bit for
bit) and against a float64 NumPy evaluation (within
:data:`~perfbench.programs.F32_RTOL`), then times its ops.  Sessions use
``Options()`` defaults unless the workload says otherwise, so the
numbers are what ``api.Session()`` gives a user.

:func:`measure_part` times one process's share of an untraced run and
:func:`combine_parts` turns the shares into the end-to-end
:class:`Result`; the traced run (:mod:`perfbench.layers`) reuses
``setup()``, ``timed_loop()`` and ``subjects()``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import resource
import shutil
import statistics
import time
import traceback

import numpy as np

from repro import api

from . import harness as H
from . import programs as P

@dataclasses.dataclass
class Result:
    """End-to-end outcome of one untraced run."""

    tally: H.Tally
    setup_s: float
    p50_ms: float
    p99_ms: float
    throughput: float
    flops_per_op: float
    rss_mb: float
    notes: list = dataclasses.field(default_factory=list)

    def metrics(self) -> dict:
        return {
            "setup_s": (self.setup_s, "s"),
            "throughput_ops_s": (self.throughput, "ops/s"),
            "latency_p50_ms": (self.p50_ms, "ms"),
            "latency_p99_ms": (self.p99_ms, "ms"),
            "flops_per_op": (self.flops_per_op, "count"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }


def _first_output_ok(out, interpreted: np.ndarray, ref: np.ndarray) -> bool:
    data = out.data
    return bool(np.array_equal(data, interpreted)) and P.close_to_reference(
        data, ref
    )


def measure_part(name: str, seed: int, part: int, seconds: float,
                 tmp_root: str, small: bool = False):
    """One process's share of an untraced run: set up, then time one
    window of ``seconds``.

    Returns ``(setup seconds, set-up tally, timed tally, peak RSS MB)``.
    Run once per fresh process (see ``perfbench/run.py``).
    """
    wl = make(name, seed, tmp_root, small)
    try:
        setup_s, first = wl.setup()
        timed = wl.timed_loop(seconds, np.random.default_rng([seed, part]))
    finally:
        wl.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return setup_s, first, timed, rss_mb


def part_entry(conn, *args) -> None:
    """Entry point of a part's process: sends ``("ok", outcome)`` of
    :func:`measure_part`, or ``("error", traceback)``, over ``conn``."""
    try:
        conn.send(("ok", measure_part(*args)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        raise
    finally:
        conn.close()


def combine_parts(parts: list) -> Result:
    """The end-to-end result over :func:`measure_part` outcomes.

    Set-up time, throughput and latency percentiles are medians over the
    parts, so one slow process or slow spell on a shared box moves one
    part, not the result.  FLOPs per op are a geometric mean over all
    good ops.
    """
    total = H.Tally()
    for _, first, timed, _ in parts:
        total.merge(first)
        total.merge(timed)
    windows = [timed for _, _, timed, _ in parts if timed.latencies]
    if not windows:
        return Result(total, float("inf"), float("inf"), float("inf"), 0.0, 0.0, 0.0)
    lats = [w.latencies for w in windows]
    samples = sum(map(len, lats))
    return Result(
        tally=total,
        setup_s=statistics.median(p[0] for p in parts),
        p50_ms=statistics.median(H.percentile_ms(x, 50) for x in lats),
        p99_ms=statistics.median(H.percentile_ms(x, 99) for x in lats),
        throughput=statistics.median(w.ok / w.elapsed for w in windows),
        flops_per_op=math.exp(sum(w.log_flops for w in windows) / samples),
        rss_mb=max(p[3] for p in parts),
        notes=[f"{samples} latency samples in {len(parts)} processes, >= "
               f"{min(map(H.beyond_p99, lats))} beyond p99 in each"],
    )


class _CompiledWorkload:
    """Shared shape of paper-mix and dispatch-chain: a fixed list of
    (program, feeds) ops called through ``Compiled.__call__``."""

    name = ""
    setup_reps = 9
    #: Options every Session of the workload is built with.
    options = api.Options()

    def __init__(self) -> None:
        #: (program, feed set) per distinct op, in calling order.
        self.ops: list[tuple[P.Program, list]] = []

    def _prepare(self) -> None:
        """Reference outputs, computed once and outside any timing."""
        ref_session = api.Session(self.options)
        self.interpreted, self.refs = [], []
        for prog, feeds in self.ops:
            f = ref_session.compile(prog.fn(), backend=prog.backend)
            self.interpreted.append(f.interpret(*feeds).data)
            self.refs.append(prog.reference(feeds))
        ref_session.close()

    def _build(self):
        session = api.Session(self.options)
        fns = {}
        calls = []
        for prog, feeds in self.ops:
            f = fns.get(id(prog))
            if f is None:
                f = fns[id(prog)] = session.compile(
                    prog.fn(), backend=prog.backend
                )
            calls.append((f, feeds))
        first = H.Tally()
        for k, (f, feeds) in enumerate(calls):
            first.attempted += 1
            if not _first_output_ok(f(*feeds), self.interpreted[k], self.refs[k]):
                first.failed += 1
        return session, calls, first

    def setup(self) -> tuple[float, H.Tally]:
        self._prepare()

        def build():
            self.close()  # the previous repetition's session
            self.session, self.calls, first = self._build()
            return first

        return H.median_setup(build, self.setup_reps)

    def _op(self, i: int):
        f, feeds = self.calls[i % len(self.calls)]
        out = f(*feeds)
        return out, f.last_report.total_flops

    def _check(self, i: int, out) -> bool:
        return bool(np.array_equal(out.data, self.interpreted[i % len(self.ops)]))

    def timed_loop(self, seconds: float, rng, rec=None) -> H.Tally:
        op = self._op
        if rec is not None:
            def op(i, _op=self._op):
                with rec.span("api.call", i):
                    return _op(i)
        return H.closed_loop(seconds, op, self._check, rng)

    def subjects(self) -> list[tuple[P.Program, list[list]]]:
        """Distinct programs with every feed set they are called with."""
        by_prog: dict[int, tuple[P.Program, list]] = {}
        for prog, feeds in self.ops:
            by_prog.setdefault(id(prog), (prog, []))[1].append(feeds)
        return list(by_prog.values())

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()


class PaperMix(_CompiledWorkload):
    name = "paper-mix"
    setup_reps = 5
    options = api.Options(pipeline="aware")

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        progs = P.paper_mix(seed, n=48 if small else P.PAPER_N)
        self.ops = [(p, p.args) for p in progs]


class DispatchChain(_CompiledWorkload):
    name = "dispatch-chain"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        prog, feed_sets = P.dispatch_chain(
            seed, sets=4 if small else P.CHAIN_FEED_SETS,
            loops=3 if small else P.CHAIN_LOOPS,
        )
        self.ops = [(prog, feeds) for feeds in feed_sets]


class CompileChurn:
    """Distinct generated programs: each built cold into a plan store,
    then built again warm from it, each time in a fresh Session."""

    name = "compile-churn"
    setup_reps = 15
    options = api.Options(pipeline="aware")

    def __init__(self, seed: int, tmp_root: str, small: bool = False) -> None:
        self.seed = seed
        self.tmp_root = tmp_root
        self.max_dim = 12 if small else 96
        self._dirs = itertools.count()

    def _stream(self, catalogue: int) -> P.ChurnStream:
        return P.ChurnStream(self.seed * 7919 + catalogue, catalogue,
                             self.max_dim)

    def _store_dir(self) -> str:
        return os.path.join(self.tmp_root, f"store{next(self._dirs)}")

    def _build_and_call(self, prog: P.Program, store: str):
        """One op: fresh Session over ``store``, compile, first call."""
        session = api.Session(self.options, plan_store=store)
        try:
            f = session.compile(prog.fn(), backend=prog.backend)
            out = f(*prog.args)
            return out.data, f.last_report.total_flops, f
        finally:
            session.close()

    def _pair(self, prog: P.Program, rng, check_all: bool, rec=None,
              op: int = 0) -> H.Tally:
        """Cold op then warm op over one fresh store, each checked against
        the float64 reference, the warm one also against the cold one."""
        tally = H.Tally()
        store = self._store_dir()
        ref = prog.reference()
        first = None
        try:
            for phase in ("cold", "warm"):
                tally.attempted += 1
                start = H.op_clock()
                try:
                    if rec is None:
                        out, flops, f = self._build_and_call(prog, store)
                    else:
                        with rec.span(f"api.build_{phase}", op):
                            out, flops, f = self._build_and_call(prog, store)
                except Exception:
                    tally.failed += 1
                    continue
                dt = H.op_clock() - start
                ok = P.close_to_reference(out, ref)
                if first is None:
                    first = out
                else:
                    ok = ok and np.array_equal(out, first)
                if ok and (check_all or rng.random() < H.CHECK_SHARE):
                    ok = np.array_equal(out, f.interpret(*prog.args).data)
                if ok:
                    tally.latencies.append(dt)
                    tally.log_flops += math.log(max(flops, 1))
                    tally.elapsed += dt
                else:
                    tally.failed += 1
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return tally

    def setup(self) -> tuple[float, H.Tally]:
        """The untimed warm-up program, built cold then warm and checked."""
        warmup = self._stream(1).next()
        return H.median_setup(
            lambda: self._pair(warmup, None, check_all=True), self.setup_reps
        )

    def timed_loop(self, seconds: float, rng, rec=None) -> H.Tally:
        stream = self._stream(0)
        tally = H.Tally()
        deadline = time.perf_counter() + seconds
        op = 0
        while time.perf_counter() < deadline:
            tally.merge(self._pair(stream.next(), rng, False, rec, op))
            op += 1
        return tally

    def subjects(self, count: int = 24) -> list[tuple[P.Program, list[list]]]:
        stream = self._stream(2)
        progs = [stream.next() for _ in range(count)]
        return [(p, [p.args]) for p in progs]

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (PaperMix, DispatchChain, CompileChurn)}


def make(name: str, seed: int, tmp_root: str, small: bool = False):
    """The workload ``name`` over inputs drawn from ``seed``; plan stores
    it writes go under ``tmp_root``."""
    cls = WORKLOADS[name]
    if cls is CompileChurn:
        return cls(seed, tmp_root, small=small)
    return cls(seed, small=small)
