"""The workload process: one fresh interpreter per measured repetition.

``python -m perfbench.child grid OUT SPEC [--trace]`` evaluates one
model x app grid through the engine entry ``repro sweep`` uses
(``ExperimentRunner.grid``), against the store and artifact cache under
``$REPRO_CACHE_DIR``, then writes to OUT the moment the last store write
finished, every cell's result digest and store-record digest, and (with
``--trace``) the spans.

``python -m perfbench.child serve OUT -- ARGS...`` runs ``repro serve
ARGS...`` with tracing installed and writes the spans to OUT when the
server shuts down.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from perfbench import hooks
from perfbench.oracle import digest
from perfbench.spans import Recorder


def _import_cli(rec: Recorder | None) -> None:
    if rec is None:
        import repro.cli  # noqa: F401
    else:
        with rec.span("cli.import", root=True):
            import repro.cli  # noqa: F401
    import repro

    source = pathlib.Path(repro.__file__).resolve()
    expected = pathlib.Path("src").resolve()
    if expected not in source.parents:
        raise SystemExit(f"imported repro from {source}, not from {expected}")


def run_grid(spec: dict, out: pathlib.Path, trace: bool) -> None:
    rec = Recorder() if trace else None
    _import_cli(rec)
    from repro.experiments.engine import (
        ResultStore, Scale, resolve_run_options, run_key,
    )
    from repro.experiments.runner import ExperimentRunner
    from repro.models.configs import model_config
    from repro.workloads.suite import application

    if rec is not None:
        hooks.install(rec)
    options = resolve_run_options(spec["sampling"] or "off", None)
    scale = Scale(apps=None, length=spec["length"], jobs=spec["jobs"],
                  sampling=options.sampling)
    runner = ExperimentRunner.from_scale(scale)
    apps = [application(name) for name in spec["apps"]]
    grid = runner.grid(spec["models"], apps)
    done = time.perf_counter()
    spans = list(rec.spans) if rec is not None else None

    store = ResultStore()
    cells = {}
    for model in spec["models"]:
        for app, result in zip(apps, grid[model]):
            stored = store.load(run_key(model_config(model), app.name,
                                        spec["length"], options.sampling))
            cells[f"{model}/{app.name}"] = {
                "suite": app.suite,
                "digest": digest(result.to_dict()),
                "stored": None if stored is None else digest(stored.to_dict()),
                "instructions": result.instructions,
                "ipc": result.ipc,
                "epi": result.total_energy / result.instructions,
            }
    out.write_text(json.dumps({
        "pid": os.getpid(),
        "done": done,
        "cells": cells,
        "spans": spans,
    }))


def run_serve(out: pathlib.Path, argv: list[str]) -> int:
    rec = Recorder()
    _import_cli(rec)
    import repro.cli

    hooks.install(rec)
    code = repro.cli.main(["serve", *argv])
    out.write_text(json.dumps({"pid": os.getpid(), "spans": rec.spans}))
    return code


def main(argv: list[str]) -> int:
    mode, out = argv[0], pathlib.Path(argv[1])
    if mode == "grid":
        spec = json.loads(pathlib.Path(argv[2]).read_text())
        run_grid(spec, out, trace="--trace" in argv[3:])
        return 0
    if mode == "serve":
        return run_serve(out, argv[argv.index("--") + 1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
