"""Measurement plumbing shared by the workloads and the traced run.

Closed-loop and open-loop load generation, percentile summaries,
repeated set-up timing, the machine reference, and the span
recorder the traced run uses.  Nothing here knows about one workload.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import statistics
import time
from collections.abc import Callable

import numpy as np

from repro import kernels

#: Share of timed ops whose output is re-checked bit for bit while timing
#: (drawn from the run's seeded generator).
CHECK_SHARE = 0.25

#: The clock ops and set-up are timed with: wall time.  Work a later
#: change hands to another thread or process, and any wait on a lock or
#: a sleep, is charged to the op, as a user would see it.  Steal on a
#: shared machine is absorbed by the medians over fresh processes
#: (``perfbench/run.py``), not by the clock.
op_clock = time.perf_counter


def percentile_ms(latencies: list[float], q: float) -> float:
    """The ``q``-th percentile of second-valued samples, in ms."""
    return float(np.percentile(np.asarray(latencies), q)) * 1e3


def beyond_p99(latencies: list[float]) -> int:
    """Samples strictly above the p99; a p99 is trusted from ten up."""
    if not latencies:
        return 0
    p99 = np.percentile(np.asarray(latencies), 99)
    return int(np.sum(np.asarray(latencies) > p99))


@dataclasses.dataclass
class Tally:
    """Ops attempted, ops failed, and the latency of every good op."""

    attempted: int = 0
    failed: int = 0
    latencies: list = dataclasses.field(default_factory=list)
    #: Sum of ln(modelled FLOPs) over the good ops: FLOPs per op are
    #: reported as a geometric mean, which a few huge programs in a
    #: generated mix cannot swamp.
    log_flops: float = 0.0
    #: Seconds the good ops took, by :data:`op_clock`.
    elapsed: float = 0.0

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies += other.latencies
        self.log_flops += other.log_flops
        self.elapsed += other.elapsed


def closed_loop(
    seconds: float,
    op: Callable[[int], tuple[object, int]],
    check: Callable[[int, object], bool],
    rng: np.random.Generator,
    *,
    check_all: bool = False,
) -> Tally:
    """One caller, next op only after the previous one returns.

    ``op(i)`` runs op ``i`` and returns ``(output, flops)``;
    ``check(i, output)`` verifies it.  Only the op is timed, with
    :data:`op_clock`: the seeded sample of checks runs between ops, and
    ``elapsed`` is the sum of op latencies, so throughput is ops per
    second of calling.
    An op that raises or fails its check counts as failed.
    """
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        tally.attempted += 1
        start = op_clock()
        try:
            out, flops = op(i)
        except Exception:
            tally.failed += 1
            i += 1
            continue
        dt = op_clock() - start
        if (check_all or rng.random() < CHECK_SHARE) and not check(i, out):
            tally.failed += 1
        else:
            tally.latencies.append(dt)
            tally.log_flops += math.log(max(flops, 1))
            tally.elapsed += dt
        i += 1
    return tally


async def open_loop(
    rate: float,
    seconds: float,
    submit: Callable[[int], "asyncio.Future"],
    rng: np.random.Generator,
) -> list[float]:
    """Seeded Poisson arrivals at ``rate``/s for ``seconds``; returns how
    late the generator sent each request after its due time (seconds).

    The schedule is drawn up front and every request is awaited before
    returning, so a stalled generator shows as lateness, not as a
    quieter schedule.
    """
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    dues = np.cumsum(gaps)
    loop = asyncio.get_running_loop()
    lags: list[float] = []
    pending: set = set()
    t0 = loop.time()
    for i, offset in enumerate(dues[dues < seconds]):
        due = t0 + float(offset)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, loop.time() - due))
        task = asyncio.ensure_future(submit(i))
        pending.add(task)
        task.add_done_callback(pending.discard)
    await asyncio.gather(*pending)
    return lags


def median_setup(build: Callable[[], Tally], reps: int) -> tuple[float, Tally]:
    """Run ``build`` ``reps`` times; median seconds and the tally of the
    checks of every repetition, merged.

    ``build`` must construct everything afresh and end with verified
    outputs, returned as a :class:`Tally`; what an earlier repetition
    built is closed by ``build`` itself when it owns resources.
    """
    times, tally = [], Tally()
    for _ in range(reps):
        start = op_clock()
        result = build()
        times.append(op_clock() - start)
        tally.merge(result)
    return statistics.median(times), tally


def machine_reference() -> dict:
    """Single-threaded sgemm on this machine, measured now.

    For reading results across machines only — never used to rescale an
    end-to-end metric, since both sides of a comparison run on one box.
    """
    rng = np.random.default_rng(0)
    small = [np.asfortranarray(rng.random((16, 16), dtype=np.float32))
             for _ in range(2)]
    big = [np.asfortranarray(rng.random((512, 512), dtype=np.float32))
           for _ in range(2)]
    batches = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(200):
            kernels.gemm(*small)
        batches.append((time.perf_counter() - start) / 200)
    kernels.gemm(*big)
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        kernels.gemm(*big)
        runs.append(time.perf_counter() - start)
    return {
        "sgemm_ref_us": statistics.median(batches) * 1e6,
        "sgemm_gflops": 2 * 512**3 / statistics.median(runs) / 1e9,
    }


# -- spans ----------------------------------------------------------------------

class SpanRecorder:
    """In-memory spans: (name, start, end, parent index, op id).

    ``span()`` nests through a stack (synchronous code); ``add()``
    records an already-timed interval with an explicit parent, for
    spans that interleave on an event loop.  Nothing is written until
    :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, op: int,
            parent: int | None = None) -> int:
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    def span(self, name: str, op: int) -> "_Span":
        return _Span(self, name, op)

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name: each span's duration minus
        the part of its interval that its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def dump(self, path) -> None:
        import json

        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "self_seconds": self.self_times(),
            }, fh)


class _Span:
    __slots__ = ("_rec", "_name", "_op", "_idx")

    def __init__(self, rec: SpanRecorder, name: str, op: int) -> None:
        self._rec, self._name, self._op = rec, name, op

    def __enter__(self) -> int:
        rec = self._rec
        parent = rec._stack[-1] if rec._stack else None
        self._idx = rec.add(self._name, time.perf_counter(), 0.0, self._op,
                            parent)
        rec._stack.append(self._idx)
        return self._idx

    def __exit__(self, *exc: object) -> None:
        rec = self._rec
        rec.spans[self._idx][2] = time.perf_counter()
        rec._stack.pop()
