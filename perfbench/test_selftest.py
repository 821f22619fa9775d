"""Self-tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The last test runs a short ``serve_reads`` workload end to end (about
half a minute).
"""

from __future__ import annotations

import json
import math
import socket

import pytest

from perfbench import inputs, loadgen, oracle, run, stats
from perfbench.run import Report, check_batch
from perfbench.spans import Recorder, merged_length, self_times


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1000), 99) == 989
    assert stats.percentile(range(20), 50) == 9
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(999), 99)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(19), 50)


def test_failures_push_percentiles_to_infinity():
    samples = [0.001] * 985 + [math.inf] * 15
    assert stats.percentile(samples, 99) == math.inf
    assert stats.percentile(samples, 50) == 0.001


def _span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 4.0),
        _span("b", "root", 3.0, 6.0),    # overlaps a
        _span("a1", "a", 2.0, 3.0),
        _span("c", "root", 9.0, 12.0),   # outlives its parent
    ]
    own = self_times(spans)
    assert own == pytest.approx(
        {"root": 4.0, "a": 2.0, "b": 3.0, "a1": 1.0, "c": 3.0})


def test_merged_length_clips_to_the_window():
    assert merged_length([(0, 2), (1, 3), (5, 8)], 1.5, 6) == pytest.approx(2.5)
    assert merged_length([], 0, 1) == 0


def test_recorder_nests_spans_and_inherits_tags():
    rec = Recorder()
    with rec.span("outer", tag="cell") as outer:
        with rec.span("inner") as inner:
            pass
        with rec.span("other", root=True) as other:
            pass
    assert inner["parent"] == outer["id"] and inner["tag"] == "cell"
    assert other["parent"] is None and other["tag"] is None
    own = self_times(rec.spans)
    assert own[outer["id"]] <= outer["end"] - outer["start"]
    assert own[inner["id"]] == pytest.approx(inner["end"] - inner["start"])


def test_inputs_are_a_function_of_the_seed():
    suites = {"SpecInt": ["a", "b", "c"], "SpecFP": ["d", "e", "f"],
              "Office": ["g", "h", "i"], "Multimedia": ["j", "k"],
              "DotNet": ["l", "m"]}
    picked = inputs.pick_apps(7, suites, inputs.GRID_SUITE_COUNTS)
    assert picked == inputs.pick_apps(7, suites, inputs.GRID_SUITE_COUNTS)
    assert len(picked) == len(set(picked)) == 8
    assert any(inputs.pick_apps(seed, suites, inputs.GRID_SUITE_COUNTS)
               != picked for seed in range(8, 20))
    cells = [f"{m}/{a}" for m in inputs.MODELS for a in "abcdefghijklm"]
    plan = inputs.RequestPlan(3, cells)
    batch = plan.batch(0)
    assert batch == inputs.RequestPlan(3, cells).batch(0)
    assert len(batch) == inputs.SERVE_BATCH
    figures = [r for r in batch if r.kind == "figure"]
    assert len(figures) == inputs.SERVE_FIGURES_PER_BATCH
    assert len({r.key for r in figures}) == len(inputs.FIGURES)


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_refused_connection_is_a_failed_request():
    requests = [inputs.Request("result", "N/swim")] * 3
    batch = loadgen.run_batch(_closed_port(), requests, 2)
    assert len(batch.outcomes) == 3
    assert all(math.isinf(o.latency) for o in batch.outcomes)
    report = Report()
    check_batch(batch, {"results": {}, "figures": {}}, report)
    assert report.attempted == 3 and len(report.failures) == 3


def corrupt_record(store, cell: str) -> None:
    """Overwrite the store record of ``cell`` (``MODEL/APP``) with junk."""
    model, app = cell.split("/")
    for path in store.glob("*/*.json"):
        try:
            record = json.loads(path.read_text())
        except ValueError:
            continue
        if record.get("model") == model and record.get("app") == app:
            path.write_text("{corrupt")
            return
    raise AssertionError(f"no store record for {cell}")


def test_corrupted_store_record_fails_the_run(monkeypatch, capsys):
    real_prefill = run.prefill
    cells = sorted(oracle.load_refs("serve")["results"])

    def prefill_then_corrupt(store, work):
        real_prefill(store, work)
        corrupt_record(store, inputs.RequestPlan(1, cells).ranked[0])

    monkeypatch.setattr(run, "prefill", prefill_then_corrupt)
    code = run.main(["--workload", "serve_reads", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
