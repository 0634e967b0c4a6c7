"""Batched plan execution: one compiled plan over many feed sets.

This is the throughput-serving shape the ROADMAP's north star asks for:
compile once, then stream independent requests through the plan.  Two
strategies:

* sequential — lowest latency variance, no thread overhead;
* thread pool — the BLAS substrate releases the GIL inside kernels, so
  independent feeds genuinely overlap on multicore for kernel-bound
  workloads.

Every feed set gets its own slot table and its own
:class:`~repro.ir.interpreter.ExecutionReport`, so results and accounting
are identical to running the plan once per feed set (order included).

With ``arena="preallocated"`` the batch executes through
:class:`~repro.runtime.plan.PlanArena` buffers — **one arena per worker**
(one total when sequential), created lazily per thread and reused across
every feed that worker serves, instead of materializing a fresh
intermediate list per feed.  Outputs are copied out of the arena before
the next feed overwrites it, so per-feed results are exactly what the
per-call mode returns.  A feed that raises (bad shape, kernel error)
propagates to the caller; feeds already executed are unaffected, and the
worker arenas stay valid — every buffer is fully rewritten on the next
execution.
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import GraphError
from ..ir.interpreter import ExecutionReport
from .plan import Plan

FeedSet = Sequence[object] | Mapping[object, object]

#: Arena strategies ``execute_batch`` (and ``Options.arena``) accept.
ARENA_MODES = ("per-call", "preallocated")


@dataclasses.dataclass
class BatchResult:
    """Outputs and per-feed reports of one batched execution."""

    outputs: list[list[np.ndarray]]
    reports: list[ExecutionReport]

    def __len__(self) -> int:
        return len(self.outputs)

    @property
    def total_flops(self) -> int:
        return sum(r.total_flops for r in self.reports)

    def first_outputs(self) -> list[np.ndarray]:
        """Column of each feed set's first graph output."""
        return [outs[0] for outs in self.outputs]


def execute_batch(
    plan: Plan,
    feed_sets: Sequence[FeedSet],
    *,
    workers: int | None = None,
    record: bool = False,
    arena: str = "per-call",
    shards: int | None = None,
) -> BatchResult:
    """Run ``plan`` over every feed set in ``feed_sets``.

    ``workers=None``/``0``/``1`` runs sequentially; ``workers=k`` uses a
    thread pool of ``k`` threads.  ``record`` defaults to False — serving
    workloads usually don't want per-request kernel accounting; switch it
    on for parity checks and experiments.  ``arena="preallocated"``
    executes through one reused :class:`~repro.runtime.plan.PlanArena` per
    worker (outputs are copied out, so results match per-call mode
    bit-for-bit); feeds already in their input slot's layout are aliased,
    the rest staged (see *Feed aliasing* in :mod:`repro.runtime.plan`).

    ``shards=N`` leaves the thread pool behind entirely: the batch runs
    through a transient N-process :class:`~repro.runtime.shard.ShardPool`
    (shared-memory rings, ``record`` unsupported — the shard path is the
    serving path).  It is mutually exclusive with the in-process knobs —
    ``workers`` and a non-default ``arena`` — rather than silently
    overriding them: the shard workers always execute arena'd with feeds
    aliased from shared memory.  A fresh pool per call pays worker startup every time; for
    repeated batches hold a ``ShardPool`` (or use
    ``Session.run_sharded``, which caches one per plan).
    """
    if workers is not None and workers < 0:
        raise GraphError(f"workers must be >= 0, got {workers}")
    if arena not in ARENA_MODES:
        raise GraphError(f"arena must be one of {ARENA_MODES}, got {arena!r}")
    if shards is not None:
        if record:
            raise GraphError(
                "shards= is the serving path and cannot record reports; "
                "use workers= for recorded batches"
            )
        if workers is not None or arena != "per-call":
            raise GraphError(
                "shards= is mutually exclusive with workers=/arena= — "
                "shard workers always execute arena'd with feeds aliased "
                "from shared memory"
            )
        from .shard import ShardPool  # deferred: multiprocessing import

        feed_sets = list(feed_sets)
        first = feed_sets[0] if feed_sets else None
        dtype = None
        if first is not None and not isinstance(first, Mapping):
            probe = next(iter(first), None)
            if probe is not None:
                probe = getattr(probe, "data", probe)
                dtype = np.asarray(probe).dtype
        with ShardPool(plan, shards=shards, dtype=dtype) as pool:
            return pool.run(feed_sets)
    feed_sets = list(feed_sets)

    if arena == "preallocated":
        worker_state = threading.local()

        def one(feeds: FeedSet) -> tuple[list[np.ndarray], ExecutionReport]:
            worker_arena = getattr(worker_state, "arena", None)
            if worker_arena is None:
                worker_arena = worker_state.arena = plan.new_arena()
            outs, rep = plan.execute(feeds, record=record, arena=worker_arena)
            # Detach from arena storage: the next feed through this worker
            # rewrites the buffers the outputs alias.
            return [out.copy() for out in outs], rep
    else:
        def one(feeds: FeedSet) -> tuple[list[np.ndarray], ExecutionReport]:
            return plan.execute(feeds, record=record)

    if workers in (None, 0, 1) or len(feed_sets) <= 1:
        results = [one(feeds) for feeds in feed_sets]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, feed_sets))
    return BatchResult(
        outputs=[outs for outs, _ in results],
        reports=[rep for _, rep in results],
    )
