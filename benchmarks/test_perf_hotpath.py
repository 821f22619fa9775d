"""Benchmark: single-run hot-path throughput (instructions per second).

The repo's first *performance trajectory* point: one ``repro run``-shaped
simulation (swim on TON) timed end to end, with throughput recorded in
``benchmark.extra_info`` so the pytest-benchmark JSON doubles as the
historical record.  No pass/fail threshold — regressions are caught by
watching the trajectory, not by a flaky absolute gate.

Reference trajectory on the development machine (swim, TON, 100k):

* pre-optimization seed: ~137k instr/s
* after the static-structure memoization + batch-executor PR: ~455k instr/s
* the columnar and compiled execution backends that followed were
  removed again: they won on this warmed single cell but not on the
  end-to-end grid, so the scalar path above is the only one left.

Scale follows ``REPRO_BENCH_LENGTH`` (default 20000) so CI can run a tiny
smoke variant of the same benchmark.
"""

from __future__ import annotations

import os

from repro.core.simulator import ParrotSimulator, RunOptions
from repro.models.configs import model_config
from repro.workloads.suite import application

LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", "20000"))


def _simulate(source, config, options, **kwargs):
    return ParrotSimulator(config).simulate(source, options, **kwargs)


def test_single_run_throughput(benchmark):
    app = application("swim")
    config = model_config("TON")
    options = RunOptions()
    _simulate(app, config, options, length=LENGTH)  # warm flyweights+caches

    result = benchmark(_simulate, app, config, options, length=LENGTH)

    # ``--benchmark-disable`` runs the function once and keeps no stats.
    if benchmark.stats is not None:
        seconds = benchmark.stats.stats.mean
        benchmark.extra_info["instructions"] = LENGTH
        benchmark.extra_info["instructions_per_second"] = round(
            LENGTH / seconds
        )

    # Sanity only — the benchmark is a trajectory, not a gate.
    assert result.ipc > 0
    assert result.cycles > 0
