"""perfbench — the repository's end-to-end benchmark.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
times one seeded workload through the public API (``api.Session`` →
``Compiled.__call__``), checks the outputs it times, and prints the
metrics named in ``BENCHMARK.json``:

``paper-mix``       the paper's test expressions (Tables II-VI, Fig. 1)
                    at n=512, aware passes, both backends — kernel-bound;
                    the only workload whose FLOPs the passes change.
``dispatch-chain``  ~50 16x16 ops per call — the per-call cost of
                    ``api`` and ``runtime.plan``; kernels barely matter.
``compile-churn``   distinct generated programs built cold into a plan
                    store, then warm from it — trace, passes, compile and
                    store dominate.

``--trace 1`` is a separate run that sends the workload's programs
through each layer's public function inside spans, including
``Session.run_batch`` and ``serve.Server.submit``, and prints per-layer
metrics (:mod:`perfbench.layers`).
"""
