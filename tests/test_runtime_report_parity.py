"""Report parity of every execution configuration left after the executor
collapse, checked through the public API against ``Compiled.interpret``.

Plans compute their ``ExecutionReport`` once per input-dtype signature
and hand out copies, so the first call (the recording pass) and every
later call (the unrecorded loops plus a stored copy) must both match the
reference interpreter.  An arena that served repeat calls through an
unrecorded fast path used to report ``total_flops == 0`` — the regression
this pins down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.frameworks import tfsim
from repro.tensor import Tensor, random_general


def _chain(a, b, c):
    acc = a
    for _ in range(3):
        acc = (acc @ b + c - a) @ a.T
    return 2.0 * acc + b


def _loop_body(i, x, aa, bb):
    return 0.5 * ((aa @ x + bb) @ (x - aa))


def _loop(a, b, c):
    # The body's own high-water mark on top of the carried values still
    # live from earlier trips sets the peak: nested reports must compose.
    return tfsim.fori_loop(4, _loop_body, c, [a, b])


def _tensors(layout):
    arrays = [random_general(16, seed=s).data for s in (1, 2, 3)]
    if layout == "F":
        arrays = [np.asfortranarray(x) for x in arrays]
    return [Tensor(x) for x in arrays]


#: name → (Options overrides, program, feed layout, via run_batch).
CONFIGS = {
    "per-call": ({}, _chain, "C", False),
    "arena-staged": ({"arena": "preallocated"}, _chain, "C", False),
    "arena-aliased": ({"arena": "preallocated"}, _chain, "F", False),
    "fori-loop": ({"arena": "preallocated"}, _loop, "F", False),
    "run-batch": ({"arena": "preallocated"}, _chain, "C", True),
}


@pytest.mark.parametrize("fusion", [False, True], ids=["plain", "fused"])
@pytest.mark.parametrize("config", CONFIGS, ids=list(CONFIGS))
def test_report_matches_interpreter_first_and_later_calls(config, fusion):
    overrides, fn, layout, batched = CONFIGS[config]
    args = _tensors(layout)
    with api.Session(fusion=fusion, **overrides) as session:
        f = session.compile(fn)
        if layout == "F":
            assert args[0].data.flags.f_contiguous
        ref_out = f.interpret(*args)
        ref = f.last_report
        assert ref.total_flops > 0
        for call in ("first", "later", "later"):
            if batched:
                result = session.run_batch(f, [args, args], record=True)
                out = Tensor(result.outputs[-1][0])
                reports = result.reports
            else:
                out = f(*args)
                reports = [f.last_report]
            assert out.data.tobytes() == ref_out.data.tobytes(), call
            for rep in reports:
                if fusion:
                    assert rep.total_flops == ref.total_flops, call
                    assert rep.peak_bytes == ref.peak_bytes, call
                else:
                    assert rep == ref, call
