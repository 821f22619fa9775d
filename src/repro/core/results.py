"""Simulation results: everything the experiment harness reads.

One :class:`SimulationResult` per (application, machine) run, carrying the
performance, energy and PARROT-characterisation statistics every figure of
the paper is computed from.

Results round-trip exactly through ``to_dict()``/``from_dict()`` (all
fields are JSON-representable), which is what the parallel experiment
engine uses both for worker IPC and for the persistent on-disk result
store.  ``SCHEMA_VERSION`` stamps every serialized record; bumping it
invalidates stored results wholesale (the store keys on it), so bump it
whenever a field is added, removed or reinterpreted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.power.energy import EnergyResult
from repro.power.metrics import PerformanceEnergyPoint
from repro.trace.tid import TraceId

#: Version of the serialized result schema (worker IPC + result store).
#: v2: hot-path rework (batched executors, per-TID plan caches) — results
#: are parity-checked bit-identical, but stored records predating the
#: parity gate are retired rather than trusted.
#: v3: the simulate()/RunOptions API unification.  Run keys now derive
#: from RunOptions (sampling + prewarm), so pre-unification records are
#: retired.
SCHEMA_VERSION = 3


def _encode_exec_key(key: "TraceId | int") -> str:
    """One execution-count key as text (JSON objects key on strings)."""
    if isinstance(key, TraceId):
        return (f"{key.start}:{key.directions}:{key.num_branches}"
                f":{key.num_instructions}")
    return str(key)


def _decode_exec_key(text: str) -> "TraceId | int":
    if ":" in text:
        start, directions, branches, instructions = map(int, text.split(":"))
        return TraceId(start, directions, branches, instructions)
    return int(text)


@dataclass(slots=True)
class TraceUnitStats:
    """Aggregate statistics of the trace machinery in one run."""

    segments: int = 0                 #: trace-shaped segments committed
    traces_constructed: int = 0
    traces_optimized: int = 0
    optimizations_dropped: int = 0    #: blazing triggers lost to a busy optimizer
    hot_executions: int = 0
    optimized_executions: int = 0
    trace_mispredicts: int = 0        #: confident wrong next-TID predictions acted on
    tcache_miss_on_predict: int = 0
    #: execution-weighted optimizer impact (Figure 4.9)
    weighted_uop_reduction: float = 0.0
    weighted_dep_reduction: float = 0.0
    #: per-optimized-trace dynamic execution counts, keyed by the trace's
    #: :class:`~repro.trace.tid.TraceId` (Figure 4.10)
    optimized_exec_counts: dict[TraceId, int] = field(default_factory=dict)

    @property
    def mean_optimized_reuse(self) -> float:
        """Mean dynamic executions per optimized trace (Figure 4.10)."""
        if not self.optimized_exec_counts:
            return 0.0
        total = sum(self.optimized_exec_counts.values())
        return total / len(self.optimized_exec_counts)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-representable snapshot (exact ``from_dict`` round trip)."""
        return {
            "segments": self.segments,
            "traces_constructed": self.traces_constructed,
            "traces_optimized": self.traces_optimized,
            "optimizations_dropped": self.optimizations_dropped,
            "hot_executions": self.hot_executions,
            "optimized_executions": self.optimized_executions,
            "trace_mispredicts": self.trace_mispredicts,
            "tcache_miss_on_predict": self.tcache_miss_on_predict,
            "weighted_uop_reduction": self.weighted_uop_reduction,
            "weighted_dep_reduction": self.weighted_dep_reduction,
            # JSON objects key on strings; the TraceId keys are packed as
            # "start:directions:num_branches:num_instructions".
            "optimized_exec_counts": {
                _encode_exec_key(tid): count
                for tid, count in self.optimized_exec_counts.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TraceUnitStats":
        """Rebuild from a ``to_dict()`` payload."""
        return cls(
            segments=payload["segments"],
            traces_constructed=payload["traces_constructed"],
            traces_optimized=payload["traces_optimized"],
            optimizations_dropped=payload["optimizations_dropped"],
            hot_executions=payload["hot_executions"],
            optimized_executions=payload["optimized_executions"],
            trace_mispredicts=payload["trace_mispredicts"],
            tcache_miss_on_predict=payload["tcache_miss_on_predict"],
            weighted_uop_reduction=payload["weighted_uop_reduction"],
            weighted_dep_reduction=payload["weighted_dep_reduction"],
            optimized_exec_counts={
                _decode_exec_key(tid): count
                for tid, count in payload["optimized_exec_counts"].items()
            },
        )


@dataclass(slots=True)
class SimulationResult:
    """Outcome of simulating one application on one machine model."""

    app_name: str
    suite: str
    model_name: str

    instructions: int = 0
    cycles: float = 0.0
    uops_cold: int = 0
    uops_hot: int = 0
    uops_wasted: int = 0              #: flushed hot work (trace mispredicts)
    hot_instructions: int = 0         #: instructions committed from the hot pipeline

    #: front-end behaviour (Figure 4.7), events per 1000 instructions
    cold_branch_mispredicts: int = 0
    cold_branch_predictions: int = 0
    trace_predictions: int = 0
    trace_mispredictions: int = 0

    energy: EnergyResult | None = None
    trace_stats: TraceUnitStats = field(default_factory=TraceUnitStats)
    events: dict[str, float] = field(default_factory=dict)

    # -- derived metrics ------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Committed macro-instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of instructions committed from the hot pipeline (Fig 4.8)."""
        if not self.instructions:
            return 0.0
        return self.hot_instructions / self.instructions

    @property
    def total_energy(self) -> float:
        """Total (dynamic + leakage) energy."""
        return self.energy.total if self.energy is not None else 0.0

    @property
    def cold_mispredicts_per_kinstr(self) -> float:
        """Cold-pipeline branch mispredicts per 1000 committed instructions."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.cold_branch_mispredicts / self.instructions

    @property
    def trace_mispredicts_per_kinstr(self) -> float:
        """Trace mispredicts per 1000 committed instructions."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.trace_mispredictions / self.instructions

    @property
    def point(self) -> PerformanceEnergyPoint:
        """The (instructions, cycles, energy) triple for metric computation."""
        return PerformanceEnergyPoint(
            instructions=self.instructions,
            cycles=self.cycles,
            energy=self.total_energy,
        )

    @property
    def uop_reduction(self) -> float:
        """Execution-weighted uop reduction over hot executions (Fig 4.9)."""
        stats = self.trace_stats
        if not stats.hot_executions:
            return 0.0
        return stats.weighted_uop_reduction / stats.hot_executions

    @property
    def dependency_reduction(self) -> float:
        """Execution-weighted critical-path reduction (Fig 4.9)."""
        stats = self.trace_stats
        if not stats.hot_executions:
            return 0.0
        return stats.weighted_dep_reduction / stats.hot_executions

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-representable snapshot, stamped with ``SCHEMA_VERSION``.

        The round trip through ``from_dict`` is exact: every field is an
        int, float, str or a (nested) dict of those, and JSON preserves
        Python floats bit-for-bit via ``repr``.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "app_name": self.app_name,
            "suite": self.suite,
            "model_name": self.model_name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "uops_cold": self.uops_cold,
            "uops_hot": self.uops_hot,
            "uops_wasted": self.uops_wasted,
            "hot_instructions": self.hot_instructions,
            "cold_branch_mispredicts": self.cold_branch_mispredicts,
            "cold_branch_predictions": self.cold_branch_predictions,
            "trace_predictions": self.trace_predictions,
            "trace_mispredictions": self.trace_mispredictions,
            "energy": None if self.energy is None else self.energy.to_dict(),
            "trace_stats": self.trace_stats.to_dict(),
            "events": dict(self.events),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SimulationResult":
        """Rebuild from a ``to_dict()`` payload.

        Raises :class:`ValueError` when the payload's schema version does
        not match :data:`SCHEMA_VERSION` (a stale store record or a
        mismatched worker).
        """
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"result schema version {version!r} != {SCHEMA_VERSION}"
            )
        energy = payload["energy"]
        return cls(
            app_name=payload["app_name"],
            suite=payload["suite"],
            model_name=payload["model_name"],
            instructions=payload["instructions"],
            cycles=payload["cycles"],
            uops_cold=payload["uops_cold"],
            uops_hot=payload["uops_hot"],
            uops_wasted=payload["uops_wasted"],
            hot_instructions=payload["hot_instructions"],
            cold_branch_mispredicts=payload["cold_branch_mispredicts"],
            cold_branch_predictions=payload["cold_branch_predictions"],
            trace_predictions=payload["trace_predictions"],
            trace_mispredictions=payload["trace_mispredictions"],
            energy=None if energy is None else EnergyResult.from_dict(energy),
            trace_stats=TraceUnitStats.from_dict(payload["trace_stats"]),
            events=dict(payload["events"]),
        )
