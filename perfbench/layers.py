"""Per-layer metrics, computed from the spans of one traced repetition.

Times are host seconds summed over the repetition.  ``core.simulate_s``,
``engine.self_s`` and ``workloads.artifact_compile_s`` are self times
(the span minus what its child spans cover); the other ``_s`` metrics
are whole span durations, so a parent's time includes its children's.
``LAYERS.md`` maps each metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import re
import statistics

from perfbench.inputs import MODELS
from perfbench.spans import merged_length, self_times

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "workloads.artifact_compile_s": "s",
    "workloads.artifact_compiles": "count",
    "workloads.artifact_load_s": "s",
    "workloads.artifact_hits": "count",
    "workloads.artifact_bytes": "bytes",
    "trace.segments_s": "s",
    "trace.segment_lists": "count",
    "core.simulate_s": "s",
    "core.simulate_calls": "count",
    "core.instr_per_s": "instr/s",
    **{f"core.simulate_s.{model}": "s" for model in MODELS},
    "sampling.detail_fraction": "fraction",
    "sampling.detail_intervals": "count",
    "sampling.phases": "count",
    "sampling.unmet_phase_warnings": "count",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.simulations_run": "count",
    "engine.parallel_efficiency": "fraction",
    "store.load_s": "s",
    "store.loads": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.lru_hits": "count",
    "store.lru_hit_ratio": "fraction",
    "store.from_dict_s": "s",
    "store.store_s": "s",
    "store.writes": "count",
    "store.to_dict_s": "s",
    "figures.render_s": "s",
    "serve.result_s": "s",
    "serve.figure_s": "s",
    "serve.http_s": "s",
    "serve.requests": "count",
    "serve.errors": "count",
    "serve.client_cpu_share": "fraction",
    "trace_run.overhead_frac": "fraction",
    "trace_run.unattributed_frac": "fraction",
}

_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of ``repro.cli`` and of ``numpy`` from
    one ``python -X importtime -c 'import repro.cli'`` stderr."""
    found = {}
    for match in _IMPORT_LINE.finditer(stderr):
        module = match.group(4)
        if module in ("repro.cli", "numpy") and module not in found:
            found[module] = int(match.group(2)) / 1e6
    return {"cli.import_s": found.get("repro.cli", 0.0),
            "cli.import_numpy_s": found.get("numpy", 0.0)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[dict], *, main_pid: int, window: tuple[float, float],
              client: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``window`` is the timed part of the repetition on the shared
    monotonic clock; for a serve batch only spans starting inside it
    count.
    ``client`` carries the load generator's view of a serve batch:
    ``latency_s`` (sum over requests), ``errors`` and ``cpu_share``.
    """
    lo, hi = window
    if client is not None:
        spans = [s for s in spans if lo <= s["start"] <= hi]
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_total(name, where=lambda s: True):
        return sum(own[s["id"]] for s in named(name) if where(s))

    simulate = named("core.simulate")
    sim_total = total("core.simulate")
    sampled = [s for s in simulate if "represented_instructions" in s]
    loads = named("store.load")
    jobs = max((s.get("jobs", 1) for s in named("engine.run")), default=1)
    roots = [(s["start"], s["end"]) for s in spans
             if s["parent"] is None and s["pid"] == main_pid]

    metrics = {
        "workloads.artifact_compile_s": self_total("workloads.artifact_compile"),
        "workloads.artifact_compiles": len(named("workloads.artifact_compile")),
        "workloads.artifact_load_s": total("workloads.artifact_load"),
        "workloads.artifact_hits": (len(named("workloads.artifact_get"))
                                    - len(named("workloads.artifact_compile"))),
        "workloads.artifact_bytes": sum(
            s.get("bytes", 0) for s in named("workloads.artifact_compile")),
        "trace.segments_s": total("trace.segments"),
        "trace.segment_lists": len(named("trace.segments")),
        "core.simulate_s": self_total("core.simulate"),
        "core.simulate_calls": len(simulate),
        "core.instr_per_s": _ratio(
            sum(s.get("instructions", 0) for s in simulate), sim_total),
        **{
            f"core.simulate_s.{model}": self_total(
                "core.simulate", lambda s, m=model: s.get("model") == m)
            for model in MODELS
        },
        "sampling.detail_fraction": _ratio(
            sum(s["detail_instructions"] for s in sampled),
            sum(s["represented_instructions"] for s in sampled)),
        "sampling.detail_intervals": sum(
            s["detail_intervals"] for s in sampled),
        "sampling.phases": sum(s["phases"] for s in sampled),
        "sampling.unmet_phase_warnings": sum(
            s["unmet_phase_warnings"] for s in sampled),
        "engine.run_s": total("engine.run"),
        "engine.self_s": self_total("engine.run"),
        "engine.simulations_run": sum(
            s.get("simulated", 0) for s in named("engine.run")),
        "engine.parallel_efficiency": _ratio(sim_total, jobs * (hi - lo)),
        "store.load_s": total("store.load"),
        "store.loads": len(loads),
        "store.hits": sum(1 for s in loads if s.get("hit")),
        "store.misses": sum(1 for s in loads if not s.get("hit")),
        "store.lru_hits": sum(1 for s in loads if s.get("lru")),
        "store.lru_hit_ratio": _ratio(
            sum(1 for s in loads if s.get("lru")), len(loads)),
        "store.from_dict_s": total("store.from_dict"),
        "store.store_s": total("store.store"),
        "store.writes": len(named("store.store")),
        "store.to_dict_s": total("store.to_dict"),
        "figures.render_s": total("figures.render"),
        "serve.result_s": total("serve.result"),
        "serve.figure_s": total("serve.figure"),
        "serve.requests": len(named("serve.request")),
        "trace_run.unattributed_frac": 1.0 - _ratio(
            merged_length(roots, lo, hi), hi - lo),
    }
    if client is not None:
        metrics["serve.http_s"] = client["latency_s"] - (
            metrics["serve.result_s"] + metrics["serve.figure_s"])
        metrics["serve.errors"] = client["errors"]
        metrics["serve.client_cpu_share"] = client["cpu_share"]
    return metrics


def combine(reps: list[dict[str, float]], overhead_frac: float,
            imports: dict[str, float]) -> dict[str, float]:
    """Median of each metric over traced repetitions, plus the run-level
    ones; metrics a workload never reaches read 0."""
    combined = {}
    for name in UNITS:
        values = [rep[name] for rep in reps if name in rep]
        value = statistics.median(values) if values else 0
        if UNITS[name] == "count" and float(value).is_integer():
            value = int(value)
        combined[name] = value
    combined.update(imports)
    combined["trace_run.overhead_frac"] = overhead_frac
    return combined
