"""End-to-end benchmark of ``repro``: one workload, one seed, one report.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn and prints a report
for each.

Workloads (see ``LAYERS.md`` for why each was chosen):

* ``grid_cold``    7 models x 8 seed-chosen apps x 20k instructions,
                   full detail, 2 jobs, empty cache dir;
* ``sampled_grid`` N and TON x 4 seed-chosen apps x 1M instructions,
                   adaptive sampling, 2 jobs, empty cache dir;
* ``serve_reads``  ``repro serve`` over a store prefilled with all 7 x 44
                   cells, driven by 2 closed-loop connections.

``--trace 0`` measures the end-to-end metrics on untraced processes,
with times scaled to a reference host speed (``LAYERS.md``);
``--trace 1`` runs traced and untraced repetitions alternately and
reports the per-layer metrics.  Every simulated result and every served
body is checked against the reference digests in ``refs/``.  Lines
before the last describe the run; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import sys
import time

if not __package__:  # run as a script: make the package importable
    sys.path[0] = str(pathlib.Path(__file__).resolve().parent.parent)

from perfbench import inputs, layers, loadgen, oracle, procs, stats  # noqa: E402
from perfbench.procs import CHECKOUT, WorkloadError  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fewest traced/untraced repetition pairs in a ``--trace 1`` run.
MIN_TRACE_PAIRS = 2
#: Timed-importtime runs per ``--trace 1`` run.
IMPORT_REPEATS = 3
#: Seconds :func:`procs.probe_seconds` takes on the reference host: the
#: end-to-end times are scaled to a host where the probe takes this long.
REFERENCE_PROBE_S = 0.3


class Report:
    """What one run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.detail: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def check(self, failures: list[str], attempted: int) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


def indices_for(seconds: float, minimum: int):
    """Yield 0, 1, ... until at least ``minimum`` were taken and
    ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < minimum or time.perf_counter() < deadline:
        yield index
        index += 1


def repeat_for(seconds: float, minimum: int, run_one) -> list:
    """``run_one(i)`` for each of :func:`indices_for`."""
    return [run_one(i) for i in indices_for(seconds, minimum)]


def end_to_end(report: Report, wall: float, setup: float,
               peak_rss_mb: float, probes: list[float]) -> None:
    """The end-to-end metrics, the same three on every workload.

    The speed a shared host gives the run drifts by up to 2x over
    minutes, and moves every part of a workload together.  So the times
    are scaled to the reference host by the median of the host-speed
    ``probes`` taken between the repetitions; the measured times are
    printed beside them.
    """
    probe = statistics.median(probes)
    scale = REFERENCE_PROBE_S / probe
    report.metrics = {"wall_s": (wall * scale, "s"),
                      "setup_s": (setup * scale, "s"),
                      "peak_rss_mb": (peak_rss_mb, "MB")}
    report.detail.update({
        "wall_s_measured": (wall, "s"),
        "setup_s_measured": (setup, "s"),
        "host_probe_s": (probe, "s"),
    })


def setup_median(samples: list[float], run_one) -> float:
    """Median set-up time over ``samples`` taken between the run's timed
    repetitions (so they see the same host), topped up with ``run_one()``
    to at least :data:`SETUP_REPEATS` samples."""
    while len(samples) < SETUP_REPEATS:
        samples.append(run_one())
    return statistics.median(samples)


# -- grid workloads ------------------------------------------------------------


def grid_spec(workload: str, seed: int) -> tuple[dict, dict]:
    """The seeded grid spec and the reference table it is checked against."""
    if workload == "grid_cold":
        refs = oracle.load_refs("grid")
        models, counts = inputs.MODELS, inputs.GRID_SUITE_COUNTS
        length, sampling = inputs.GRID_LENGTH, None
    else:
        refs = oracle.load_refs("sampled")
        models, counts = inputs.SAMPLED_MODELS, inputs.SAMPLED_SUITE_COUNTS
        length, sampling = inputs.SAMPLED_LENGTH, inputs.SAMPLED_SPEC
    spec = {
        "models": list(models),
        "apps": inputs.pick_apps(seed, refs["suites"], counts),
        "length": length,
        "sampling": sampling,
        "jobs": inputs.JOBS,
    }
    return spec, refs


def grid_rep(work, tag, spec, refs, report, trace=False):
    """One checked grid repetition: ``(measured process, child report)``."""
    run, data = procs.run_grid(work, tag, spec, trace)
    report.check(oracle.check_cells(data["cells"], refs), len(data["cells"]))
    return run, data


def run_grid_workload(args, work: pathlib.Path, report: Report) -> None:
    spec, refs = grid_spec(args.workload, args.seed)
    report.notes.append(f"apps {','.join(spec['apps'])}")
    report.notes.append(f"models {','.join(spec['models'])} x length "
                        f"{spec['length']} sampling {spec['sampling'] or 'off'}"
                        f" jobs {spec['jobs']}")
    if args.trace:
        trace_grid(args, work, spec, refs, report)
        return
    setups: list[float] = []
    probes: list[float] = []

    def rep(i):
        probes.append(procs.probe_seconds())
        setups.append(procs.import_seconds())
        return grid_rep(work, str(i), spec, refs, report)

    reps = repeat_for(args.seconds, MIN_REPS, rep)
    setup = setup_median(setups, procs.import_seconds)
    walls = [data["done"] - run.start for run, data in reps]
    wall = statistics.median(walls)
    end_to_end(report, wall, setup,
               statistics.median(r.maxrss_mb for r, _ in reps), probes)
    cells = reps[0][1]["cells"]
    instructions = sum(cell["instructions"] for cell in cells.values())
    report.detail["sim_instr_per_s"] = (instructions / wall, "instr/s")
    if spec["sampling"]:
        ipc_err, epi_err = oracle.sampling_errors(cells, refs)
        report.detail["ipc_err_pct"] = (ipc_err, "%")
        report.detail["epi_err_pct"] = (epi_err, "%")
    report.notes.append(f"{len(reps)} repetitions, wall_s each: "
                        + " ".join(f"{w:.3f}" for w in walls))


def trace_grid(args, work, spec, refs, report) -> None:
    imports = import_metrics(work)
    untraced, traced = [], []

    def pair(i):
        run, data = grid_rep(work, f"u{i}", spec, refs, report)
        untraced.append(data["done"] - run.start)
        run, data = grid_rep(work, f"t{i}", spec, refs, report, trace=True)
        traced.append(layers.summarize(
            data["spans"], main_pid=data["pid"],
            window=(run.start, data["done"])))
        traced[-1]["wall"] = data["done"] - run.start

    repeat_for(args.seconds, MIN_TRACE_PAIRS, pair)
    report_layers(report, traced, untraced, imports)


def import_metrics(work: pathlib.Path) -> dict[str, float]:
    """Median ``-X importtime`` figures of a fresh ``import repro.cli``."""
    samples = []
    log = work / "importtime.txt"
    for _ in range(IMPORT_REPEATS):
        run = procs.run_measured(
            procs.python_cmd("-X", "importtime", "-c", "import repro.cli"),
            env=procs.child_env(), log=log)
        text = log.read_text(errors="replace")
        log.unlink()
        if run.returncode != 0:
            raise WorkloadError("`import repro.cli` failed")
        samples.append(layers.import_times(text))
    return {name: statistics.median(s[name] for s in samples)
            for name in samples[0]}


def report_layers(report: Report, traced: list[dict], untraced: list[float],
                  imports: dict[str, float]) -> None:
    """Per-layer metrics: medians over the traced repetitions, each of
    which carries its ``wall``, against the untraced repetitions' walls."""
    overhead = (statistics.median(t["wall"] for t in traced)
                / statistics.median(untraced) - 1)
    values = layers.combine(traced, overhead, imports)
    report.metrics = {name: (values[name], unit)
                      for name, unit in layers.UNITS.items()}


# -- serve workload --------------------------------------------------------------


def prefill(store: pathlib.Path, work: pathlib.Path) -> None:
    """Fill ``store`` with every model x app cell through ``repro sweep``."""
    log = work / "prefill.txt"
    run = procs.run_measured(
        procs.python_cmd("-m", "repro", "sweep",
                         "--models", ",".join(inputs.MODELS),
                         "--apps", "all", "--length", str(inputs.GRID_LENGTH),
                         "--jobs", str(inputs.JOBS)),
        env=procs.child_env(store), log=log)
    if run.returncode != 0:
        raise WorkloadError(f"prefill sweep exited {run.returncode}:\n"
                            f"{procs.log_tail(log)}")


def check_batch(batch: loadgen.Batch, refs: dict, report: Report) -> None:
    failures = []
    for outcome in batch.outcomes:
        reason = oracle.check_response(
            outcome.request.kind, outcome.request.key, outcome.status,
            outcome.body, outcome.error, refs)
        if reason is not None:
            failures.append(reason)
    report.check(failures, len(batch.outcomes))


def serve_session(work, store, plan, refs, report, batches, spans_out=None,
                  before_batch=lambda: None):
    """Start a server, warm it up, run the timed batches whose indices
    ``batches`` yields (calling ``before_batch`` ahead of each) and stop it.

    Returns ``(timed batches, server peak RSS MB)``.
    """
    server = procs.Server(procs.serve_cmd(store, spans_out),
                          procs.child_env(), work / "serve.txt")
    timed = []
    try:
        conns = loadgen.default_connections()
        check_batch(loadgen.run_batch(server.port, plan.warmup(), conns),
                    refs, report)
        for index in batches:
            before_batch()
            batch = loadgen.run_batch(server.port, plan.batch(index), conns)
            check_batch(batch, refs, report)
            timed.append(batch)
    finally:
        maxrss = server.stop()
    return timed, maxrss


def run_serve_workload(args, work: pathlib.Path, report: Report) -> None:
    refs = oracle.load_refs("serve")
    plan = inputs.RequestPlan(args.seed, sorted(refs["results"]))
    store = work / "store"
    prefill(store, work)
    report.notes.append(f"{len(plan.ranked)} cells, most requested "
                        f"{', '.join(plan.ranked[:3])}; connections "
                        f"{loadgen.default_connections()}")
    if args.trace:
        trace_serve(args, work, store, plan, refs, report)
        return

    def spawn_once() -> float:
        server = procs.Server(procs.serve_cmd(store, None), procs.child_env(),
                              work / "probe.txt")
        server.stop()
        return server.ready

    setups: list[float] = []
    probes: list[float] = []

    def before_batch():
        probes.append(procs.probe_seconds())
        setups.append(spawn_once())

    timed, maxrss = serve_session(
        work, store, plan, refs, report, indices_for(args.seconds, MIN_REPS),
        before_batch=before_batch)
    setup = setup_median(setups, spawn_once)
    latencies = [o.latency for b in timed for o in b.outcomes]
    total_wall = sum(b.wall for b in timed)
    end_to_end(report, statistics.median(b.wall for b in timed), setup,
               maxrss, probes)
    report.detail.update({
        "req_p50_ms": (1000 * stats.percentile(latencies, 50), "ms"),
        "req_p99_ms": (1000 * stats.percentile(latencies, 99), "ms"),
        "req_per_s": (len(latencies) / total_wall, "req/s"),
        "client_cpu_share": (
            sum(b.client_cpu_s for b in timed) / total_wall, "fraction"),
    })
    report.notes.append(f"{len(timed)} batches of {inputs.SERVE_BATCH} "
                        f"requests; p99 over {len(latencies)} samples")


def trace_serve(args, work, store, plan, refs, report) -> None:
    imports = import_metrics(work)
    untraced, traced = [], []

    def pair(i):
        timed, _ = serve_session(work, store, plan, refs, report, [i])
        untraced.append(timed[0].wall)
        spans_out = work / "spans.json"
        timed, _ = serve_session(work, store, plan, refs, report, [i],
                                 spans_out)
        data = json.loads(spans_out.read_text())
        batch = timed[0]
        traced.append(layers.summarize(
            data["spans"], main_pid=data["pid"],
            window=(batch.start, batch.end),
            client={
                "latency_s": sum(o.end - o.start for o in batch.outcomes),
                "errors": sum(1 for o in batch.outcomes
                              if math.isinf(o.latency)),
                "cpu_share": batch.client_cpu_share,
            }))
        traced[-1]["wall"] = batch.wall

    repeat_for(args.seconds, MIN_TRACE_PAIRS, pair)
    report_layers(report, traced, untraced, imports)


# -- entry point -------------------------------------------------------------------

WORKLOADS = {
    "grid_cold": run_grid_workload,
    "sampled_grid": run_grid_workload,
    "serve_reads": run_serve_workload,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args) -> int:
    """Run, check and report ``args.workload``; returns the exit code."""
    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = Report()
    try:
        WORKLOADS[args.workload](args, work, report)
    except WorkloadError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in report.notes:
        print(f"  {note}")
    failed = len(report.failures)
    rows = {**report.metrics, **report.detail,
            "error_rate": (failed / max(report.attempted, 1), "fraction")}
    for name, (value, unit) in rows.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for reason in report.failures[:20]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = []
    for name in names:
        args.workload = name
        codes.append(run_workload(args))
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
