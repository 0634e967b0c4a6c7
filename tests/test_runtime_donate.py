"""Feed aliasing: the arena's one feed rule.

The contract under test: in arena mode a feed that is contiguous in its
input slot's declared order is aliased into the slot table — no staging
memcpys, no allocations, bit-identical outputs — and any other feed is
staged (copied into the arena's input buffer).  Aliased feeds are read,
never mutated, and a feed backed by the arena's own output storage is
staged, because the run may overwrite it before reading it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigError
from repro.ir import trace
from repro.passes import default_pipeline
from repro.runtime import compile_plan, execute_batch
from repro.tensor import Tensor, random_general

N = 64


def _workload():
    ops = [random_general(N, seed=s) for s in (1, 2, 3)]

    def fn(a, b, c):
        acc = a
        for _ in range(4):
            acc = (acc @ b + c - a) @ a.T
        return 2.0 * acc + b - (-c) * 0.5

    graph = default_pipeline().run(trace(fn, ops))
    return graph, [t.data for t in ops]


@pytest.fixture(scope="module")
def workload():
    return _workload()


def _alloc_peak(fn, reps=30):
    fn()
    tracemalloc.start()
    tracemalloc.reset_peak()
    for _ in range(reps):
        fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


class TestPlanDonation:
    @pytest.mark.parametrize("fusion", [False, True], ids=["plain", "fused"])
    def test_donated_feeds_are_aliased_not_copied(self, workload, fusion):
        graph, feeds = workload
        plan = compile_plan(graph, fusion=fusion)
        arena = plan.new_arena()
        ref, _ = plan.execute(feeds, record=False)
        feeds_f = [np.asfortranarray(f) for f in feeds]
        for _ in range(3):
            outs, _ = plan.execute(feeds_f, record=False, arena=arena)
            assert outs[0].tobytes() == ref[0].tobytes()
        # The aliasing is real: no bytes were staged, and no arena buffer
        # was ever materialized for the input slots.
        assert arena.bytes_copied == 0
        for spec in plan.inputs:
            assert arena.buffers[spec.slot] is None

    def test_donation_is_zero_allocation_after_warmup(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph, fusion=True)
        arena = plan.new_arena()
        feeds_f = [np.asfortranarray(f) for f in feeds]
        for _ in range(3):
            plan.execute(feeds_f, record=False, arena=arena)
        warm = arena.allocations
        peak = _alloc_peak(
            lambda: plan.execute(feeds_f, record=False, arena=arena)
        )
        assert peak < feeds[0].nbytes, f"aliased execution allocated: {peak}"
        assert arena.allocations == warm
        # ...and strictly: zero ndarray *data* allocations survive, with
        # and without the (stored) report.
        tracemalloc.start()
        for _ in range(10):
            plan.execute(feeds_f, record=False, arena=arena)
            plan.execute(feeds_f, arena=arena)
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(
                inclusive=True, domain=np.lib.tracemalloc_domain)]
        )
        tracemalloc.stop()
        assert sum(s.size for s in snap.statistics("lineno")) == 0

    def test_fallback_copies_rejected_layouts(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph, fusion=True)
        arena = plan.new_arena()
        ref, _ = plan.execute(feeds, record=False)
        mixed = [np.asfortranarray(feeds[0]), feeds[1], feeds[2]]
        outs, _ = plan.execute(mixed, record=False, arena=arena)
        assert outs[0].tobytes() == ref[0].tobytes()
        # Exactly the two C-ordered feeds were staged; the F one aliased.
        assert arena.bytes_copied == feeds[1].nbytes + feeds[2].nbytes
        assert arena.buffers[plan.inputs[0].slot] is None

    def test_output_fed_back_is_staged(self, workload):
        """Iterating ``x = plan(x)`` through one arena: the output is
        arena storage the next run overwrites, so it must be staged even
        though its layout matches."""
        graph, feeds = workload
        plan = compile_plan(graph, fusion=True)
        arena = plan.new_arena()
        out_slot = plan.output_slots[0]
        x_ref = x = np.asfortranarray(feeds[0])
        for _ in range(3):
            (x_ref,), _ = plan.execute([x_ref, *feeds[1:]], record=False)
            before = arena.bytes_copied
            (x,), _ = plan.execute([x, *feeds[1:]], record=False,
                                   arena=arena)
            assert x is arena.buffers[out_slot]
            assert x.tobytes() == x_ref.tobytes()
        assert arena.bytes_copied - before == (
            x.nbytes + feeds[1].nbytes + feeds[2].nbytes
        )

    def test_donated_record_mode_keeps_report_parity(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph)
        _, rep_ref = plan.execute(feeds)
        arena = plan.new_arena()
        feeds_f = [np.asfortranarray(f) for f in feeds]
        for _ in range(2):  # the warming (recording) pass, then turbo
            _, rep = plan.execute(feeds_f, arena=arena)
            assert rep == rep_ref

    def test_donated_feeds_are_read_not_mutated(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph, fusion=True)
        arena = plan.new_arena()
        feeds_f = [np.asfortranarray(f) for f in feeds]
        before = [f.copy() for f in feeds_f]
        for _ in range(2):
            plan.execute(feeds_f, record=False, arena=arena)
        for f, b in zip(feeds_f, before):
            assert f.tobytes() == b.tobytes()


class TestBatchDonation:
    def test_batch_donated_matches_per_call(self, workload):
        graph, feeds = workload
        plan = compile_plan(graph, fusion=True)
        feeds_f = [np.asfortranarray(f) for f in feeds]
        ref = execute_batch(plan, [feeds] * 4)
        res = execute_batch(plan, [feeds_f] * 4, arena="preallocated")
        for a, b in zip(ref.outputs, res.outputs):
            assert a[0].tobytes() == b[0].tobytes()


class TestSessionDonation:
    def test_options_gate(self):
        """The feed rule replaced the donation knob: asking for it fails
        loudly instead of being silently ignored."""
        with pytest.raises(ConfigError, match="donate_feeds"):
            api.Options().replace(arena="preallocated", donate_feeds=True)
        api.Options().replace(arena="preallocated")

    def test_session_donated_run_matches_plain(self):
        a = Tensor(np.asfortranarray(random_general(16, seed=1).data))
        b = Tensor(np.asfortranarray(random_general(16, seed=2).data))
        fn = lambda p, q: (p @ q + p).T @ q  # noqa: E731
        with api.Session() as plain:
            ref = plain.run(fn, a, b)
        with api.Session(fusion=True, arena="preallocated") as s:
            f = s.compile(fn)
            for _ in range(3):
                out = f(a, b)
                assert out.data.tobytes() == ref.data.tobytes()
            assert f.get_concrete(a, b).arena.bytes_copied == 0
