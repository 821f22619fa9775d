"""Regenerate the reference digests in ``refs/``.

Usage, from the repository root::

    python3 perfbench/regen.py [grid] [sampled] [serve]

(all three when none is named).  ``grid`` simulates all 7 models x 44
apps at the grid length; ``sampled`` runs every cell the sampled
workload can pick, sampled and in full detail (the reference for the
sampling error, several minutes); ``serve`` prefills a store the way
``serve_reads`` does and records the body of every result and figure
response.  Regenerating the references is a benchmark change: a change
that only makes the program faster must reproduce them as they are.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

if not __package__:  # run as a script: make the package importable
    sys.path[0] = str(pathlib.Path(__file__).resolve().parent.parent)

from perfbench import inputs, loadgen, oracle, procs  # noqa: E402
from perfbench.procs import CHECKOUT  # noqa: E402
from perfbench.run import prefill  # noqa: E402

#: Seconds the full-detail reference grids may take.
REGEN_TIMEOUT = 3600.0


def roster() -> dict[str, list[str]]:
    sys.path.insert(0, str(CHECKOUT / "src"))
    from repro.workloads.suite import benchmark_suite

    suites: dict[str, list[str]] = {}
    for app in benchmark_suite():
        suites.setdefault(app.suite, []).append(app.name)
    return suites


def grid_cells(work, tag, models, apps, length, sampling) -> dict:
    spec = {"models": list(models), "apps": apps, "length": length,
            "sampling": sampling, "jobs": inputs.JOBS}
    _, data = procs.run_grid(work, tag, spec, timeout=REGEN_TIMEOUT)
    return data["cells"]


def regen_grid(work, suites) -> dict:
    apps = [app for names in suites.values() for app in names]
    cells = grid_cells(work, "grid", inputs.MODELS, apps,
                       inputs.GRID_LENGTH, None)
    return {
        "command": "python3 perfbench/regen.py grid",
        "length": inputs.GRID_LENGTH,
        "suites": suites,
        "cells": {key: {"digest": cell["digest"]}
                  for key, cell in sorted(cells.items())},
    }


def regen_sampled(work, suites) -> dict:
    apps = [app for suite in inputs.SAMPLED_SUITE_COUNTS
            for app in suites[suite]]
    sampled = grid_cells(work, "sampled", inputs.SAMPLED_MODELS, apps,
                         inputs.SAMPLED_LENGTH, inputs.SAMPLED_SPEC)
    full = grid_cells(work, "full", inputs.SAMPLED_MODELS, apps,
                      inputs.SAMPLED_LENGTH, None)
    return {
        "command": "python3 perfbench/regen.py sampled",
        "length": inputs.SAMPLED_LENGTH,
        "sampling": inputs.SAMPLED_SPEC,
        "suites": suites,
        "cells": {key: {k: cell[k] for k in ("digest", "ipc", "epi")}
                  for key, cell in sorted(sampled.items())},
        "full": {key: {k: cell[k] for k in ("ipc", "epi")}
                 for key, cell in sorted(full.items())},
    }


def regen_serve(work, suites) -> dict:
    store = work / "store"
    prefill(store, work)
    requests = [inputs.Request("result", f"{model}/{app}")
                for model in inputs.MODELS
                for names in suites.values() for app in names]
    requests += [inputs.Request("figure", name) for name in inputs.FIGURES]
    server = procs.Server(procs.serve_cmd(store, None), procs.child_env(),
                          work / "serve.txt")
    try:
        batch = loadgen.run_batch(server.port, requests, 1)
    finally:
        server.stop()
    tables: dict[str, dict] = {"results": {}, "figures": {}}
    for outcome in batch.outcomes:
        request = outcome.request
        payload = json.loads(outcome.body or b"null")
        if outcome.status != 200 or (request.kind == "figure"
                                     and payload.get("simulated") != 0):
            raise procs.WorkloadError(f"{request.key}: {outcome.status} "
                                      f"{outcome.error or payload}")
        table = tables["figures" if request.kind == "figure" else "results"]
        table[request.key] = oracle.response_digest(request.kind, payload)
    return {"command": "python3 perfbench/regen.py serve",
            "length": inputs.GRID_LENGTH, **tables}


def main(argv: list[str]) -> int:
    parts = argv or ["grid", "sampled", "serve"]
    builders = {"grid": regen_grid, "sampled": regen_sampled,
                "serve": regen_serve}
    unknown = [part for part in parts if part not in builders]
    if unknown:
        print(f"unknown part(s) {unknown}; known: {list(builders)}",
              file=sys.stderr)
        return 2
    suites = roster()
    work = CHECKOUT / ".perfbench_work" / "regen"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for part in parts:
            refs = builders[part](work, suites)
            path = oracle.REFS / f"{part}.json"
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(CHECKOUT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
