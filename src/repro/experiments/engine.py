"""Parallel experiment engine with a persistent result store.

Every figure and table of the evaluation is a view over the same
(application x model) grid, and one grid cell — a simulation run — is a
pure function of (model configuration, application, run length, generator
seed).  That purity buys two things:

* **fan-out**: cells evaluate in parallel on a
  :class:`~concurrent.futures.ProcessPoolExecutor` with per-run crash
  retry and a stall timeout (:class:`ExperimentEngine`);
* **persistence**: finished cells land in a content-keyed on-disk JSON
  store (:class:`ResultStore`), so a repeated sweep/figure/benchmark
  invocation re-reads results instead of re-simulating.

The store key is a SHA-256 digest over the full model configuration
(``repr`` of the frozen :class:`~repro.core.config.MachineConfig`
dataclass tree), the application name, its generator seed, the run length,
:data:`~repro.core.results.SCHEMA_VERSION` and the run regime carried by
:class:`~repro.core.simulator.RunOptions` (sampling fingerprint, prewarm
when disabled) — any change to a model parameter, a workload
profile seed or the result schema silently keys to fresh entries, so
stale records can never be served.

A third property — every model of an application consumes the
bit-identical dynamic stream — drives the scheduler: missing cells are
grouped into per-application **chunks**, each submitted to the pool as one
call, so a worker resolves the application's compiled trace artifact
(:class:`~repro.workloads.tracefile.ArtifactCache`), its shared segment
partition and a :class:`~repro.core.simulator.ColdPlanCache` over it once,
and replays them for every model in the chunk (models with equal fetch
parameters share compiled cold plans through the cache).
Workers are reused processes, so per-worker memos also amortise model
configs, simulators and applications across everything a worker executes.
The serial path (one job, or a single missing cell) runs the same chunks
in-process through the same :func:`simulate_chunk`.

Scale knobs (application count, run length, worker count, cache on/off,
artifact cache on/off, sampling regime) are unified in the
:class:`Scale` dataclass; :func:`resolve_run_options` is the single
seam where sampling specs from the environment
(``REPRO_BENCH_*``) or CLI arguments become a
:class:`~repro.core.simulator.RunOptions`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.config import MachineConfig
from repro.core.results import SCHEMA_VERSION, SimulationResult
from repro.core.simulator import ColdPlanCache, ParrotSimulator, RunOptions
from repro.errors import ExperimentError
from repro.models.configs import MODEL_NAMES, model_config
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import Application, app_seed, application
from repro.workloads.tracefile import ArtifactCache, TraceArtifact

#: Environment variables controlling benchmark scale and the result store.
ENV_APPS = "REPRO_BENCH_APPS"
ENV_LENGTH = "REPRO_BENCH_LENGTH"
ENV_JOBS = "REPRO_BENCH_JOBS"
ENV_CACHE = "REPRO_BENCH_CACHE"
ENV_TIMEOUT = "REPRO_BENCH_TIMEOUT"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_SAMPLING = "REPRO_BENCH_SAMPLING"
ENV_ARTIFACTS = "REPRO_BENCH_ARTIFACTS"

DEFAULT_APPS = 15
DEFAULT_LENGTH = 20_000

#: One grid cell: (model name, application name).
Task = tuple[str, str]
#: Progress callback: (completed, total, "model/app", source) where source
#: is ``"run"`` for a fresh simulation and ``"store"`` for a disk hit.
ProgressFn = Callable[[int, int, str, str], None]


def default_jobs() -> int:
    """Worker count: ``REPRO_BENCH_JOBS`` if set, else the usable cores.

    "Usable" respects the process CPU-affinity mask
    (``os.sched_getaffinity``) where the platform exposes one: a
    containerized CI shard pinned to 2 of a 64-core host gets 2 workers
    instead of oversubscribing 64.  Platforms without affinity (macOS,
    Windows) fall back to ``os.cpu_count()``.
    """
    raw = os.environ.get(ENV_JOBS, "").strip()
    if raw:
        jobs = int(raw)
        if jobs < 1:
            raise ValueError(f"{ENV_JOBS} must be >= 1, got {jobs}")
        return jobs
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - affinity query denied
            pass
    return os.cpu_count() or 1


def parse_apps(text: str) -> int | None:
    """Parse an application-count spec; ``all``/``full``/``44`` -> None."""
    if str(text).lower() in ("all", "full", "44"):
        return None
    count = int(text)
    if count < 1:
        raise ValueError(f"application count must be >= 1, got {count}")
    return count


def _env_flag(name: str, default: bool = True) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


def resolve_run_options(
    sampling_spec: str | None = None,
    backend_spec: str | None = None,
) -> RunOptions:
    """Parse a user-facing sampling spec into a :class:`RunOptions`.

    The single spec-parsing seam shared by the CLI, the engine and the
    benchmark runner: ``sampling_spec`` follows
    :meth:`~repro.sampling.config.SamplingConfig.parse` (falling back to
    ``REPRO_BENCH_SAMPLING``).  ``backend_spec`` remains for callers
    written when the simulator had several execution backends; only
    ``None`` and ``"scalar"``, the one remaining path, are accepted.
    """
    if backend_spec is not None and backend_spec != "scalar":
        raise ValueError(
            f"unknown execution backend {backend_spec!r}; the simulator "
            f"has one execution path (scalar)"
        )
    if sampling_spec is None:
        sampling_spec = os.environ.get(ENV_SAMPLING)
    return RunOptions(sampling=SamplingConfig.parse(sampling_spec))


@dataclass(frozen=True, slots=True)
class Scale:
    """The unified scale knobs of one experiment-grid evaluation.

    ``apps`` is the balanced application-subset size (``None`` = the full
    44-app roster), ``length`` the instructions simulated per application,
    ``jobs`` the process-pool width, ``cache`` whether runs are served
    from / written to the persistent result store, ``sampling`` the
    sampled-simulation regime (``None`` = full detail), and ``artifacts``
    whether runs ingest compiled trace artifacts instead of re-walking the
    workload generator per cell.
    """

    apps: int | None = DEFAULT_APPS
    length: int = DEFAULT_LENGTH
    jobs: int = field(default_factory=default_jobs)
    cache: bool = True
    sampling: SamplingConfig | None = None
    artifacts: bool = True

    def run_options(self) -> RunOptions:
        """The per-run regime knobs as a :class:`RunOptions`."""
        return RunOptions(sampling=self.sampling)

    @classmethod
    def from_environment(cls) -> "Scale":
        """Resolve every knob from the ``REPRO_BENCH_*`` variables.

        ``REPRO_BENCH_APPS`` (count or ``all``), ``REPRO_BENCH_LENGTH``,
        ``REPRO_BENCH_JOBS`` (default: all cores), ``REPRO_BENCH_CACHE``
        (``0`` disables the result store), ``REPRO_BENCH_SAMPLING``
        (``off``/``on``/``D:G:W[:F][:CONF]``; see
        :meth:`~repro.sampling.config.SamplingConfig.parse`),
        and ``REPRO_BENCH_ARTIFACTS`` (``0`` disables the artifact fast
        path).
        """
        options = resolve_run_options()
        return cls(
            apps=parse_apps(os.environ.get(ENV_APPS, str(DEFAULT_APPS))),
            length=int(os.environ.get(ENV_LENGTH, str(DEFAULT_LENGTH))),
            jobs=default_jobs(),
            cache=_env_flag(ENV_CACHE),
            sampling=options.sampling,
            artifacts=_env_flag(ENV_ARTIFACTS),
        )

    @classmethod
    def from_args(cls, args: Any) -> "Scale":
        """Resolve from parsed CLI arguments (``--apps/--length/--jobs/
        --no-cache/--sampling/--no-artifacts``); unset ``--jobs`` falls
        back to the environment, and an absent ``--sampling`` falls back
        to ``REPRO_BENCH_SAMPLING``."""
        jobs = getattr(args, "jobs", None)
        no_cache = bool(getattr(args, "no_cache", False))
        no_artifacts = bool(getattr(args, "no_artifacts", False))
        options = resolve_run_options(getattr(args, "sampling", None))
        return cls(
            apps=parse_apps(args.apps),
            length=args.length,
            jobs=default_jobs() if jobs is None else jobs,
            cache=not no_cache and _env_flag(ENV_CACHE),
            sampling=options.sampling,
            artifacts=not no_artifacts and _env_flag(ENV_ARTIFACTS),
        )


# -- the persistent result store ---------------------------------------------


def config_fingerprint(config: MachineConfig) -> str:
    """Deterministic text fingerprint of a full machine configuration.

    ``MachineConfig`` is a frozen dataclass of frozen dataclasses and
    scalars, so its ``repr`` enumerates every parameter in declaration
    order — any microarchitectural change alters the fingerprint.
    """
    return repr(config)


def run_key(
    config: MachineConfig,
    app_name: str,
    length: int,
    options: "SamplingConfig | RunOptions | None" = None,
) -> str:
    """Content key of one simulation run in the result store.

    The key material carries the simulation regime — ``sampling=off`` for
    full detail, the full :meth:`~repro.sampling.config.SamplingConfig.
    fingerprint` otherwise — so a sampled estimate can never be served
    where a full-detail result was asked for (or vice versa), and two
    different sampling configurations never collide either.

    ``options`` accepts either a bare :class:`SamplingConfig` (historical
    call shape) or a full :class:`RunOptions`.  Of the run options, only
    the result-affecting regime knobs enter the key: sampling always,
    prewarm when disabled.
    """
    prewarm = True
    if isinstance(options, RunOptions):
        sampling = options.sampling
        prewarm = options.prewarm
    else:
        sampling = options
    parts = [
        f"schema={SCHEMA_VERSION}",
        f"model={config_fingerprint(config)}",
        f"app={app_name}",
        f"seed={app_seed(app_name)}",
        f"length={length}",
        f"sampling={'off' if sampling is None else sampling.fingerprint()}",
    ]
    if not prewarm:
        parts.append("prewarm=0")
    material = "|".join(parts)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def default_store_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR, "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True, slots=True)
class StoreInfo:
    """A snapshot of the result store's contents.

    ``stale_tmp`` counts orphaned ``.tmp.<pid>`` files from crashed
    writers that the snapshot swept away.
    """

    path: Path
    entries: int
    total_bytes: int
    schema_version: int = SCHEMA_VERSION
    stale_tmp: int = 0


def _result_digest(payload: dict) -> str:
    """Canonical content digest of one stored record's result payload."""
    material = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass
class MergeReport:
    """Audit trail of one :meth:`ResultStore.merge_from` pass.

    ``copied`` records were new to the destination, ``identical`` existed
    with a byte-equal result payload (skipped — the merge is idempotent),
    ``conflicts`` lists keys that existed with a *different* payload
    (skipped too — the destination wins — but surfaced for audit: with
    content-derived keys a conflict means corruption or a schema lie),
    and ``quarantined`` counts source records that failed to parse or
    whose embedded key contradicted their filename (deleted best-effort).
    """

    source: Path
    copied: int = 0
    identical: int = 0
    conflicts: list[str] = field(default_factory=list)
    quarantined: int = 0

    @property
    def scanned(self) -> int:
        """Source records examined in this pass."""
        return (self.copied + self.identical + len(self.conflicts)
                + self.quarantined)


class ResultStore:
    """Content-keyed persistent store of simulation results.

    One JSON file per run, sharded by the first two hex digits of the key
    (``<root>/<k[:2]>/<k>.json``).  Writes are atomic (temp file +
    ``os.replace``), so a crashed or parallel writer can never leave a
    half-written record; unreadable records are treated as misses.

    Several processes may share one root (grid shards, the serve front
    end, a concurrent ``cache clear``): every directory scan and unlink
    tolerates entries deleted underneath it mid-walk.

    ``lru`` > 0 adds an in-process LRU over deserialized results, so a
    repeated ``load`` of a warm key skips disk and JSON decode entirely
    (the serve front end's hot path).  LRU hits still count as ``hits``;
    they are additionally tallied in ``lru_hits``.
    """

    def __init__(self, root: str | Path | None = None, *, lru: int = 0):
        self.root = Path(root) if root is not None else default_store_root()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.lru_hits = 0
        self._lru_limit = max(0, int(lru))
        self._lru: OrderedDict[str, SimulationResult] = OrderedDict()
        self._lru_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _lru_get(self, key: str) -> SimulationResult | None:
        if not self._lru_limit:
            return None
        with self._lru_lock:
            result = self._lru.get(key)
            if result is not None:
                self._lru.move_to_end(key)
            return result

    def _lru_put(self, key: str, result: SimulationResult) -> None:
        if not self._lru_limit:
            return
        with self._lru_lock:
            self._lru[key] = result
            self._lru.move_to_end(key)
            while len(self._lru) > self._lru_limit:
                self._lru.popitem(last=False)

    def load(self, key: str) -> SimulationResult | None:
        """The stored result under ``key``, or ``None`` on any miss."""
        cached = self._lru_get(key)
        if cached is not None:
            self.hits += 1
            self.lru_hits += 1
            return cached
        try:
            payload = json.loads(self._path(key).read_text())
            result = SimulationResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        self._lru_put(key, result)
        return result

    def store(self, key: str, result: SimulationResult) -> None:
        """Persist ``result`` under ``key`` (atomic, last writer wins)."""
        self._write_record(key, {
            "key": key,
            "model": result.model_name,
            "app": result.app_name,
            "result": result.to_dict(),
        })
        self._lru_put(key, result)
        self.writes += 1

    def _write_record(self, key: str, record: dict) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(record, sort_keys=True))
        os.replace(tmp, path)

    def _scan(self, match: Callable[[str], bool]) -> list[Path]:
        """Record paths whose filename satisfies ``match``.

        Built on explicit ``os.scandir`` walks with per-directory
        tolerance: a shard directory (or the root) deleted by a
        concurrent ``clear()``/sweeper between listing and scanning is
        skipped, where ``Path.glob`` would raise ``FileNotFoundError``
        mid-iteration — a latent race once N shard processes share one
        cache root.
        """
        try:
            shards = sorted(
                entry.path for entry in os.scandir(self.root)
                if entry.is_dir(follow_symlinks=False)
            )
        except OSError:
            return []
        found: list[Path] = []
        for shard in shards:
            try:
                entries = sorted(
                    entry.path for entry in os.scandir(shard)
                    if entry.is_file(follow_symlinks=False)
                    and match(entry.name)
                )
            except OSError:
                continue  # shard swept by a concurrent deleter mid-walk
            found.extend(Path(path) for path in entries)
        return found

    def _records(self) -> list[Path]:
        return self._scan(lambda name: name.endswith(".json"))

    def keys(self) -> list[str]:
        """Keys of every record currently on disk (sorted)."""
        return [record.name[:-len(".json")] for record in self._records()]

    def _sweep_stale_tmp(self) -> int:
        """Remove ``.tmp.<pid>`` files orphaned by crashed writers.

        A writer that dies between ``write_text`` and ``os.replace`` leaks
        its temp file forever (no retry ever reuses the name, and ``clear``
        would fail to ``rmdir`` the shard around it).  Returns the number
        swept; a tmp file concurrently renamed or deleted mid-sweep is
        skipped, so N processes may sweep one root at once.
        """
        swept = 0
        for tmp in self._scan(lambda name: ".tmp." in name):
            try:
                tmp.unlink()
                swept += 1
            except OSError:
                pass  # renamed into place or swept by a concurrent process
        return swept

    def info(self) -> StoreInfo:
        """Entry count and on-disk footprint of the store.

        Also sweeps stale writer temp files and reports how many it found.
        """
        stale = self._sweep_stale_tmp()
        records = self._records()
        total = 0
        entries = 0
        for record in records:
            try:
                total += record.stat().st_size
            except OSError:
                continue  # deleted since the scan: not an entry anymore
            entries += 1
        return StoreInfo(path=self.root, entries=entries,
                         total_bytes=total, stale_tmp=stale)

    def clear(self) -> int:
        """Delete every stored record; returns the number removed.

        Stale writer temp files are swept too (they are not counted — they
        were never entries), so emptied shards always ``rmdir`` cleanly.
        Safe to race against concurrent writers and other clearers: an
        entry deleted underneath us is simply not counted.
        """
        self._sweep_stale_tmp()
        removed = 0
        for record in self._records():
            try:
                record.unlink()
                removed += 1
            except OSError:
                pass
        try:
            shards = [entry.path for entry in os.scandir(self.root)
                      if entry.is_dir(follow_symlinks=False)]
        except OSError:
            shards = []
        for shard in shards:
            try:
                os.rmdir(shard)
            except OSError:
                pass
        with self._lru_lock:
            self._lru.clear()
        return removed

    # -- scale-out merge ---------------------------------------------------

    def merge_from(self, source: "ResultStore | str | Path",
                   *, quarantine: bool = True) -> MergeReport:
        """Merge another store's records into this one, idempotently.

        Records are matched by run key (the filename).  A key new to this
        store is copied (atomic write); a key present in both with a
        byte-identical result payload is skipped, so re-running a merge —
        or merging A into B and B into A — converges on the same store.
        A key present in both with a *different* payload is a conflict:
        the destination record wins (skip-on-conflict) and the key lands
        in :attr:`MergeReport.conflicts` for audit — run keys are derived
        from the full content of the run request, so a genuine conflict
        means a corrupt record or an implementation that lied about its
        schema, never a benign difference.

        Source records that fail to parse, decode to no result, or carry
        an embedded key contradicting their filename are quarantined:
        counted in :attr:`MergeReport.quarantined` and (with
        ``quarantine=True``) deleted from the source best-effort so the
        next merge pass does not trip over them again.
        """
        src = source if isinstance(source, ResultStore) else ResultStore(source)
        report = MergeReport(source=src.root)
        for record_path in src._records():
            key = record_path.name[:-len(".json")]
            try:
                record = json.loads(record_path.read_text())
                payload = record["result"]
                if record.get("key") != key:
                    raise ValueError(
                        f"embedded key {record.get('key')!r} contradicts "
                        f"filename {key!r}"
                    )
                SimulationResult.from_dict(payload)  # validate schema
            except FileNotFoundError:
                continue  # deleted by a concurrent merger: nothing to do
            except (OSError, ValueError, KeyError, TypeError):
                report.quarantined += 1
                if quarantine:
                    try:
                        record_path.unlink()
                    except OSError:
                        pass
                continue
            mine = self._path(key)
            try:
                existing = json.loads(mine.read_text())["result"]
            except (OSError, ValueError, KeyError):
                existing = None
            if existing is None:
                self._write_record(key, record)
                report.copied += 1
            elif _result_digest(existing) == _result_digest(payload):
                report.identical += 1
            else:
                report.conflicts.append(key)
        return report


# -- the process-pool engine --------------------------------------------------

# Pool workers are reused processes, so module-level memos amortise the
# per-cell setup cost across every cell a worker ever executes: model
# configs and simulators by model name, Application handles by app name,
# and the two most recent (artifact, shared segment partition, cold-plan
# memo) entries by (cache root, app, length).  The serial engine path runs
# the same chunks in-process and clears the artifact memo after each pass.
# ParrotSimulator keeps no state across runs (everything lives in a
# per-run machine), so sharing one instance per model is safe; the
# artifact memo is a tiny LRU because one artifact plus its segment
# partition is the only per-app state worth holding, and chunk scheduling
# gives each worker app affinity.
_WORKER_SIMULATORS: dict[str, ParrotSimulator] = {}
_WORKER_APPS: dict[str, Application] = {}
_WORKER_ARTIFACT_CACHES: dict[str, ArtifactCache] = {}
_WORKER_ARTIFACTS: OrderedDict[tuple[str, str, int], list] = OrderedDict()
_WORKER_ARTIFACT_LIMIT = 2
_SERIAL_PASS = threading.Lock()


def _worker_simulator(model_name: str) -> ParrotSimulator:
    simulator = _WORKER_SIMULATORS.get(model_name)
    if simulator is None:
        simulator = ParrotSimulator(model_config(model_name))
        _WORKER_SIMULATORS[model_name] = simulator
    return simulator


def _worker_application(app_name: str) -> Application:
    app = _WORKER_APPS.get(app_name)
    if app is None:
        app = application(app_name)
        _WORKER_APPS[app_name] = app
    return app


def _worker_artifact_cache(root: str) -> ArtifactCache:
    cache = _WORKER_ARTIFACT_CACHES.get(root)
    if cache is None:
        cache = ArtifactCache(root)
        _WORKER_ARTIFACT_CACHES[root] = cache
    return cache


def _worker_artifact(
    cache: ArtifactCache,
    app_name: str,
    length: int,
    want_segments: bool,
) -> tuple[TraceArtifact, list | None, ColdPlanCache | None]:
    """The (artifact, shared segments, plan cache) for one worker-memoized app.

    The segment partition is model-independent (the selector segments the
    raw dynamic stream before any model state exists), so it is resolved
    once per (app, length) via :meth:`TraceArtifact.segments` and replayed
    for every model — but only in full-detail mode (``want_segments``);
    sampled runs drive their own interval schedule off the stream.  The
    :class:`~repro.core.simulator.ColdPlanCache` is bound to that segment
    list and partitions plans by fetch parameters; it lives and
    dies with the entry, so plans can never leak across applications.
    """
    memo_key = (str(cache.root), app_name, length)
    entry = _WORKER_ARTIFACTS.get(memo_key)
    if entry is None:
        artifact = cache.get_or_compile(_worker_application(app_name), length)
        entry = [artifact, None, None]
        _WORKER_ARTIFACTS[memo_key] = entry
        while len(_WORKER_ARTIFACTS) > _WORKER_ARTIFACT_LIMIT:
            _WORKER_ARTIFACTS.popitem(last=False)
    else:
        _WORKER_ARTIFACTS.move_to_end(memo_key)
    artifact = entry[0]
    if not want_segments:
        return artifact, None, None
    if entry[1] is None:
        entry[1] = artifact.segments()
        entry[2] = ColdPlanCache(entry[1])
    return artifact, entry[1], entry[2]


def simulate_task(
    model_name: str,
    app_name: str,
    length: int,
    sampling: SamplingConfig | None = None,
) -> dict:
    """Worker entry point: run one grid cell, return its serialized result.

    Executes in a pool worker; the payload crosses the process boundary as
    a ``SimulationResult.to_dict()`` dict (the same schema the result
    store persists), keeping worker IPC and the store on one format.  With
    ``sampling`` set the run is sampled and the payload is the
    extrapolated result.  The simulator and application handle come from
    the worker-local memos, so a reused worker never rebuilds them.
    """
    result = _worker_simulator(model_name).simulate(
        _worker_application(app_name),
        RunOptions(sampling=sampling),
        length=length,
    )
    return result.to_dict()


def simulate_chunk(
    cells: Sequence[Task],
    length: int,
    sampling: SamplingConfig | None = None,
    artifact_root: str | None = None,
    task_fn: Callable[..., dict] | None = None,
) -> dict:
    """Run a chunk of grid cells: one pool call, or one serial step.

    ``cells`` share one application by construction (see
    ``ExperimentEngine._plan_chunks``), so with ``artifact_root`` set the
    worker resolves the app's compiled trace artifact and shared segment
    partition once and replays them for every model in the chunk.  With
    ``artifact_root=None`` (artifacts disabled) each cell runs through the
    generator path; a custom ``task_fn`` (test harnesses) is called per
    cell exactly as the unchunked engine did, and its exceptions propagate
    raw so the engine can attribute them.

    Returns ``{"results": [...], "artifact_hits": h, "artifact_compiles": c}``
    with one serialized result per cell, in cell order.
    """
    if task_fn is not None:
        extra = () if sampling is None else (sampling,)
        return {
            "results": [
                task_fn(model, app, length, *extra) for model, app in cells
            ],
            "artifact_hits": 0,
            "artifact_compiles": 0,
        }
    if artifact_root is None:
        return {
            "results": [
                simulate_task(model, app, length, sampling)
                for model, app in cells
            ],
            "artifact_hits": 0,
            "artifact_compiles": 0,
        }
    cache = _worker_artifact_cache(artifact_root)
    hits0, compiles0 = cache.hits, cache.compiles
    results = []
    for model_name, app_name in cells:
        artifact, segments, plan_cache = _worker_artifact(
            cache, app_name, length, want_segments=sampling is None
        )
        result = _worker_simulator(model_name).simulate(
            artifact,
            RunOptions(
                sampling=sampling, segments=segments, cold_plans=plan_cache,
            ),
        )
        results.append(result.to_dict())
    return {
        "results": results,
        "artifact_hits": cache.hits - hits0,
        "artifact_compiles": cache.compiles - compiles0,
    }


class ExperimentEngine:
    """Evaluate (application x model) grid cells, in parallel, cached.

    The engine owns the two cross-cutting counters the harness and the
    acceptance tests read: ``cache_hits`` (runs served from the persistent
    store) and ``simulations_run`` (runs actually simulated, in-process or
    in a worker).

    Fault handling in the parallel path:

    * a crashed worker (``BrokenProcessPool``) triggers one pool rebuild
      and resubmission of the unfinished cells; a second crash raises
      :class:`~repro.errors.ExperimentError`;
    * any other worker exception is a real simulation failure: the
      surviving workers are terminated and the grid fails with an
      :class:`~repro.errors.ExperimentError` naming the failing
      (model, app) cell, the worker traceback chained as ``__cause__``;
    * ``timeout`` bounds the wait for the *next* completion — if no run
      finishes within it the surviving workers are terminated and the
      grid fails (a deterministic simulator either finishes or is hung).

    Progress reported through ``progress`` is clamped monotonic across
    crash retries.
    """

    def __init__(
        self,
        length: int = DEFAULT_LENGTH,
        *,
        jobs: int = 1,
        store: ResultStore | None = None,
        timeout: float | None = None,
        progress: ProgressFn | None = None,
        task_fn: Callable[..., dict] = simulate_task,
        mp_context: Any | None = None,
        sampling: SamplingConfig | None = None,
        artifacts: bool = True,
        artifact_root: str | Path | None = None,
        shard: str | None = None,
    ):
        if timeout is None:
            raw = os.environ.get(ENV_TIMEOUT, "").strip()
            timeout = float(raw) if raw else None
        self.length = length
        self.jobs = max(1, jobs)
        self.store = store
        self.timeout = timeout
        self.progress = progress
        self.task_fn = task_fn
        self.mp_context = mp_context
        self.sampling = sampling
        self.shard = shard
        self.artifact_cache = ArtifactCache(artifact_root) if artifacts else None
        self.simulations_run = 0
        self._configs: dict[str, MachineConfig] = {}
        self._artifact_hits = 0
        self._artifact_compiles = 0
        self._reported_done = 0

    # -- bookkeeping -------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Runs served from the persistent store instead of simulated."""
        return self.store.hits if self.store is not None else 0

    @property
    def artifact_hits(self) -> int:
        """Compiled trace artifacts loaded from disk (in-process + workers)."""
        return self._artifact_hits

    @property
    def artifact_compiles(self) -> int:
        """Compiled trace artifacts built from scratch (in-process + workers)."""
        return self._artifact_compiles

    def _config(self, model_name: str) -> MachineConfig:
        if model_name not in MODEL_NAMES:
            raise ExperimentError(
                f"unknown model {model_name!r}; known: {MODEL_NAMES}"
            )
        if model_name not in self._configs:
            self._configs[model_name] = model_config(model_name)
        return self._configs[model_name]

    def _key(self, task: Task) -> str:
        model_name, app_name = task
        return run_key(self._config(model_name), app_name, self.length,
                       self.sampling)

    # -- execution ---------------------------------------------------------

    def run_one(self, model_name: str, app_name: str) -> SimulationResult:
        """One grid cell: store lookup, else an in-process simulation."""
        return self.run([(model_name, app_name)])[(model_name, app_name)]

    def run(self, tasks: Sequence[Task]) -> dict[Task, SimulationResult]:
        """Evaluate ``tasks``; returns ``{(model, app): result}``.

        Store hits are collected first; the remainder is simulated — on
        the process pool when ``jobs > 1`` and more than one cell is
        missing, in-process otherwise.
        """
        tasks = list(dict.fromkeys(tasks))
        self._reported_done = 0
        results: dict[Task, SimulationResult] = {}
        missing: list[Task] = []
        for task in tasks:
            cached = self.store.load(self._key(task)) if self.store else None
            if cached is not None:
                results[task] = cached
                self._report(len(results), len(tasks), task, "store")
            else:
                missing.append(task)
        if missing:
            if self.jobs > 1 and len(missing) > 1:
                fresh = self._run_parallel(missing, done=len(results),
                                           total=len(tasks))
            else:
                fresh = self._run_serial(missing, done=len(results),
                                         total=len(tasks))
            for task, result in fresh.items():
                if self.store is not None:
                    self.store.store(self._key(task), result)
                results[task] = result
        return results

    def _report(self, done: int, total: int, task: Task, source: str,
                chunk: str = "") -> None:
        if self.progress is not None:
            # Reported progress is clamped monotonic: a pool-crash retry
            # replays its pass from the pre-crash count, and completed
            # work is never "un-done" from the caller's point of view.
            done = max(done, self._reported_done)
            self._reported_done = done
            label = f"{task[0]}/{task[1]}"
            if chunk:
                # The serial and parallel paths both annotate runs with
                # their chunk, so multi-host shard logs line up 1:1.
                label = f"{label} [{chunk}]"
            if self.shard:
                label = f"{self.shard}:{label}"
            self.progress(done, total, label, source)

    def _chunk_args(self) -> tuple[Callable[..., dict] | None, str | None]:
        """The ``(task_fn, artifact_root)`` every :func:`simulate_chunk` gets.

        A custom task_fn (test harness) is forwarded per cell inside the
        chunk call; the default path replays artifacts when they are on.
        """
        custom = None if self.task_fn is simulate_task else self.task_fn
        root = (
            str(self.artifact_cache.root)
            if custom is None and self.artifact_cache is not None
            else None
        )
        return custom, root

    def _collect(self, payload: dict, chunk: list[Task], tag: str,
                 results: dict[Task, SimulationResult], done: int,
                 total: int) -> int:
        """Fold one chunk's payload into ``results``; returns the new count."""
        self._artifact_hits += payload["artifact_hits"]
        self._artifact_compiles += payload["artifact_compiles"]
        for task, cell in zip(chunk, payload["results"]):
            results[task] = SimulationResult.from_dict(cell)
            self.simulations_run += 1
            done += 1
            self._report(done, total, task, "run", chunk=tag)
        return done

    def _run_serial(
        self, tasks: list[Task], *, done: int, total: int
    ) -> dict[Task, SimulationResult]:
        for model_name, _ in tasks:
            self._config(model_name)  # validate names before simulating
        # The pool path's per-application chunks, run in-process through
        # the workers' own simulate_chunk: the artifact and its shared
        # segment partition resolve once per app, a custom task_fn runs
        # per cell, and progress lines carry the same chunk labels.
        chunks = self._plan_chunks(tasks, 1)
        custom, root = self._chunk_args()
        results: dict[Task, SimulationResult] = {}
        # The worker memos are process-wide, so serial passes on different
        # threads (the serve front end's job lane) take turns.
        with _SERIAL_PASS:
            try:
                for index, chunk in enumerate(chunks):
                    payload = simulate_chunk(
                        chunk, self.length, self.sampling,
                        artifact_root=root, task_fn=custom,
                    )
                    done = self._collect(payload, chunk,
                                         f"chunk {index + 1}/{len(chunks)}",
                                         results, done, total)
            finally:
                # A pool worker's artifact memo dies with its pass; so
                # does this process's, so a later pass re-resolves (and
                # counts) its artifacts exactly as a fresh pool would.
                _WORKER_ARTIFACTS.clear()
        return results

    def _run_parallel(
        self, tasks: list[Task], *, done: int, total: int
    ) -> dict[Task, SimulationResult]:
        for model_name, _ in tasks:
            self._config(model_name)  # validate names before forking
        results: dict[Task, SimulationResult] = {}
        pending = list(tasks)
        start = done
        for attempt in (0, 1):
            try:
                done = self._pool_pass(pending, results, done=done, total=total)
                return results
            except BrokenProcessPool:
                pending = [t for t in tasks if t not in results]
                if not pending:
                    return results
                if attempt == 1:
                    raise ExperimentError(
                        f"worker pool crashed twice; {len(pending)} of "
                        f"{len(tasks)} runs unfinished"
                    )
                done = start + len(results)
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _plan_chunks(tasks: list[Task], jobs: int) -> list[list[Task]]:
        """Group cells into per-application chunks, balanced across jobs.

        One chunk = one pool call = one application, so a worker resolves
        the app's artifact and segment partition once per chunk.  If that
        yields fewer chunks than workers, the largest chunks are split in
        half (still single-app) until every worker has something to do —
        worker-affinity matters less than keeping the pool saturated.
        """
        by_app: dict[str, list[Task]] = {}
        for task in tasks:
            by_app.setdefault(task[1], []).append(task)
        chunks = list(by_app.values())
        while len(chunks) < min(jobs, len(tasks)):
            largest = max(range(len(chunks)), key=lambda i: len(chunks[i]))
            chunk = chunks[largest]
            if len(chunk) < 2:
                break
            mid = len(chunk) // 2
            chunks[largest] = chunk[:mid]
            chunks.append(chunk[mid:])
        return chunks

    @staticmethod
    def _chunk_label(chunk: list[Task]) -> str:
        if len(chunk) == 1:
            return f"{chunk[0][0]}/{chunk[0][1]}"
        models = ", ".join(model for model, _ in chunk)
        return f"{chunk[0][1]} x [{models}]"

    def _pool_pass(
        self,
        tasks: list[Task],
        results: dict[Task, SimulationResult],
        *,
        done: int,
        total: int,
    ) -> int:
        chunks = self._plan_chunks(tasks, self.jobs)
        workers = min(self.jobs, len(chunks))
        custom, root = self._chunk_args()
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=self.mp_context
        ) as pool:
            futures: dict[Future, tuple[str, list[Task]]] = {
                pool.submit(
                    simulate_chunk, chunk, self.length, self.sampling,
                    artifact_root=root, task_fn=custom,
                ): (f"chunk {index + 1}/{len(chunks)}", chunk)
                for index, chunk in enumerate(chunks)
            }
            pending = set(futures)
            while pending:
                finished, pending = wait(
                    pending, timeout=self.timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not finished:
                    self._terminate(pool)
                    abandoned = sum(len(futures[f][1]) for f in pending)
                    raise ExperimentError(
                        f"no simulation finished within {self.timeout}s; "
                        f"{abandoned} runs abandoned"
                    )
                broken: BrokenProcessPool | None = None
                for future in finished:
                    tag, chunk = futures[future]
                    try:
                        payload = future.result()
                    except BrokenProcessPool as exc:
                        # Record the batch's surviving results first; the
                        # crash-retry logic in _run_parallel resubmits only
                        # what is genuinely unfinished.
                        broken = exc
                        continue
                    except Exception as exc:
                        # A worker exception that is not a pool crash is a
                        # real simulation failure: name the chunk, stop the
                        # survivors, chain the original traceback.
                        self._terminate(pool)
                        raise ExperimentError(
                            f"simulation of {self._chunk_label(chunk)} "
                            f"failed: {type(exc).__name__}: {exc}"
                        ) from exc
                    done = self._collect(payload, chunk, tag, results,
                                         done, total)
                if broken is not None:
                    raise broken
        return done

    @staticmethod
    def _terminate(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a pool whose workers are hung (timeout path)."""
        # Snapshot first: shutdown() drops the executor's process table.
        processes = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
