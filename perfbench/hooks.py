"""Span wrappers around the public entry points of each ``repro`` layer.

:func:`install` replaces those functions with timing wrappers, in the
process that calls it and in every worker it forks afterwards.  Only the
benchmark's own traced processes call it; nothing under ``src/`` changes.

Pool workers run :func:`repro.experiments.engine.simulate_chunk`; its
wrapper returns the chunk's spans inside the pickled result, and
unpickling that result in the parent hands them to the parent's
recorder, where the enclosing ``engine.run`` span adopts them.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import pathlib
import warnings

from perfbench.spans import Recorder

#: The recorder of this process once :func:`install` ran.  Monkeypatching
#: is process-wide, so the recorder it feeds is too.
_ACTIVE: Recorder | None = None


class ShippedPayload(dict):
    """A worker's chunk result carrying the worker's spans home."""

    def __init__(self, payload: dict, spans: list[dict]):
        super().__init__(payload)
        self.spans = spans

    def __reduce__(self):
        return _receive, (dict(self), self.spans)


def _receive(payload: dict, spans: list[dict]) -> dict:
    if _ACTIVE is not None:
        for span in spans:
            span["remote"] = True
        _ACTIVE.spans.extend(spans)
    return payload


def _dir_bytes(path) -> int:
    return sum(
        part.stat().st_size for part in pathlib.Path(path).iterdir()
        if part.is_file()
    )


def install(rec: Recorder) -> None:
    """Wrap every traced layer entry point so it records into ``rec``."""
    global _ACTIVE
    _ACTIVE = rec

    from repro.core.results import SimulationResult
    from repro.core.simulator import ParrotSimulator
    from repro.errors import SamplingWarning
    from repro.experiments import engine, figures
    from repro.serve import http
    from repro.serve.service import ReproService
    from repro.workloads import tracefile

    def timed(name):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with rec.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return wrap

    def timed_classmethod(cls, attr, name):
        func = cls.__dict__[attr].__func__
        setattr(cls, attr, classmethod(timed(name)(func)))

    # -- experiments.engine ------------------------------------------------
    run = engine.ExperimentEngine.run

    @functools.wraps(run)
    def engine_run(self, tasks):
        before = self.simulations_run
        with rec.span("engine.run") as span:
            mark = len(rec.spans)
            try:
                return run(self, tasks)
            finally:
                span["simulated"] = self.simulations_run - before
                span["jobs"] = self.jobs
                for child in rec.spans[mark:]:
                    if child.get("remote") and child["parent"] is None:
                        child["parent"] = span["id"]

    engine.ExperimentEngine.run = engine_run

    chunk = engine.simulate_chunk

    @functools.wraps(chunk)
    def simulate_chunk(cells, *args, **kwargs):
        mark = len(rec.spans)
        with rec.span("engine.chunk", tag=cells[0][1], root=True):
            payload = chunk(cells, *args, **kwargs)
        shipped = rec.spans[mark:]
        del rec.spans[mark:]
        return ShippedPayload(payload, shipped)

    engine.simulate_chunk = simulate_chunk

    # -- store ---------------------------------------------------------------
    load = engine.ResultStore.load

    @functools.wraps(load)
    def store_load(self, key):
        lru0 = self.lru_hits
        with rec.span("store.load") as span:
            result = load(self, key)
        span["hit"] = result is not None
        span["lru"] = self.lru_hits > lru0
        return result

    engine.ResultStore.load = store_load
    engine.ResultStore.store = timed("store.store")(engine.ResultStore.store)
    SimulationResult.to_dict = timed("store.to_dict")(SimulationResult.to_dict)
    timed_classmethod(SimulationResult, "from_dict", "store.from_dict")

    # -- workloads -----------------------------------------------------------
    tracefile.ArtifactCache.get_or_compile = timed("workloads.artifact_get")(
        tracefile.ArtifactCache.get_or_compile
    )
    compile_artifact = tracefile.compile_artifact

    @functools.wraps(compile_artifact)
    def traced_compile(app, seed, length, **kwargs):
        with rec.span("workloads.artifact_compile") as span:
            artifact = compile_artifact(app, seed, length, **kwargs)
        span["bytes"] = _dir_bytes(artifact.path)
        return artifact

    tracefile.compile_artifact = traced_compile
    timed_classmethod(tracefile.TraceArtifact, "load", "workloads.artifact_load")

    # -- trace ---------------------------------------------------------------
    tracefile.TraceArtifact.segments = timed("trace.segments")(
        tracefile.TraceArtifact.segments
    )

    # -- core and sampling -----------------------------------------------------
    simulate = ParrotSimulator.simulate

    @functools.wraps(simulate)
    def traced_simulate(self, source, options=None, **kwargs):
        app = getattr(source, "app_name", None) or getattr(source, "name", "?")
        sampled = (options is not None and options.sampling is not None
                   and not options.estimate)
        with rec.span("core.simulate", tag=f"{self.config.name}/{app}") as span:
            if not sampled:
                result = simulate(self, source, options, **kwargs)
            else:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    run = simulate(
                        self, source,
                        dataclasses.replace(options, estimate=True), **kwargs
                    )
                result, estimate = run.result, run.estimate
                span["detail_instructions"] = estimate.detail_instructions
                span["represented_instructions"] = estimate.total_instructions
                span["detail_intervals"] = len(estimate.intervals)
                span["phases"] = len(estimate.phases)
                span["unmet_phase_warnings"] = sum(
                    1 for item in caught
                    if issubclass(item.category, SamplingWarning)
                    and "unmet" in str(item.message)
                )
                for item in caught:
                    warnings.warn_explicit(item.message, item.category,
                                           item.filename, item.lineno)
        span["model"] = self.config.name
        span["instructions"] = result.instructions
        return result

    ParrotSimulator.simulate = traced_simulate

    # -- serve and figures -------------------------------------------------------
    request_ids = itertools.count(1)
    handle_client = http.handle_client

    @functools.wraps(handle_client)
    async def traced_handle_client(service, reader, writer):
        with rec.span("serve.request", tag=f"req-{next(request_ids)}",
                      root=True):
            await handle_client(service, reader, writer)

    http.handle_client = traced_handle_client
    ReproService.lookup = timed("serve.result")(ReproService.lookup)

    # Figures render on the service's executor thread, which does not see
    # the request task's context; this FIFO hands each render its request
    # span in submission order.
    renders: collections.deque = collections.deque()
    figure = ReproService.figure

    @functools.wraps(figure)
    async def traced_figure(self, name, params):
        with rec.span("serve.figure") as span:
            entry = (span["id"], span["tag"])
            renders.append(entry)
            try:
                return await figure(self, name, params)
            finally:
                try:
                    renders.remove(entry)
                except ValueError:
                    pass

    ReproService.figure = traced_figure

    def traced_generator(generator):
        @functools.wraps(generator)
        def render(runner):
            try:
                parent, tag = renders.popleft()
            except IndexError:
                parent, tag = None, None
            with rec.span("figures.render", tag=tag, parent=parent):
                return generator(runner)
        return render

    for fig_name, generator in list(figures.FIGURE_GENERATORS.items()):
        figures.FIGURE_GENERATORS[fig_name] = traced_generator(generator)
