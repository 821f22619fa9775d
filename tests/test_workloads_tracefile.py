"""Unit + integration tests: trace-file capture and replay."""

import numpy as np
import pytest

from repro.core.simulator import ParrotSimulator, RunOptions
from repro.errors import WorkloadError
from repro.models.configs import model_config
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import application
from repro.workloads.tracefile import TraceFile, capture_trace

#: Sampled trace-file runs: long enough for six adaptive sampling periods,
#: so the adaptive regime runs phase-aware rather than falling back.
SAMPLED_LENGTH = 90_000


@pytest.fixture()
def trace_path(tmp_path, fp_workload):
    path = tmp_path / "fp.trace.npz"
    captured = capture_trace(fp_workload.stream(3000), path)
    assert captured == 3000
    return path


class TestCapture:
    def test_roundtrip_is_exact(self, trace_path, fp_workload):
        trace = TraceFile.load(trace_path)
        original = fp_workload.stream(3000)
        replay = trace.stream()
        while not original.exhausted:
            a, b = original.take(), replay.take()
            assert a.address == b.address
            assert a.taken == b.taken
            assert a.next_address == b.next_address
            assert a.mem_addr == b.mem_addr
            assert a.instr.iclass == b.instr.iclass
            assert a.instr.length == b.instr.length
        assert replay.exhausted

    def test_uops_roundtrip(self, trace_path, fp_workload):
        trace = TraceFile.load(trace_path)
        by_address = {i.address: i for i in trace.instructions}
        stream = fp_workload.stream(500)
        while not stream.exhausted:
            dyn = stream.take()
            loaded = by_address[dyn.address]
            assert len(loaded.uops) == len(dyn.instr.uops)
            for a, b in zip(loaded.uops, dyn.instr.uops):
                assert (a.kind, a.dest, a.src1, a.src2, a.imm) == (
                    b.kind, b.dest, b.src1, b.src2, b.imm
                )

    def test_only_executed_statics_stored(self, trace_path, fp_workload):
        trace = TraceFile.load(trace_path)
        assert len(trace.instructions) <= fp_workload.stats.static_instructions

    def test_empty_stream_rejected(self, tmp_path, fp_workload):
        consumed = fp_workload.stream(1)
        consumed.take()
        with pytest.raises(WorkloadError):
            capture_trace(consumed, tmp_path / "e.npz")

    def test_version_check(self, tmp_path, trace_path):
        with np.load(trace_path) as data:
            arrays = dict(data)
        arrays["version"] = np.array([99])
        bad = tmp_path / "bad.npz"
        np.savez_compressed(bad, **arrays)
        with pytest.raises(WorkloadError, match="version"):
            TraceFile.load(bad)


class TestReplaySimulation:
    def test_simulating_replay_matches_live_stream(self, trace_path, fp_workload):
        """A trace-driven run must reproduce the live-generated run."""
        trace = TraceFile.load(trace_path)
        sim = ParrotSimulator(model_config("TON"))
        live = sim.simulate(
            fp_workload.stream(3000), app_name="live",
            program=fp_workload.program,
        )
        replayed = sim.simulate(trace.stream(), app_name="replay",
                                program=fp_workload.program)
        assert replayed.cycles == live.cycles
        assert replayed.coverage == live.coverage
        assert replayed.total_energy == live.total_energy

    def test_limit_truncates(self, trace_path):
        trace = TraceFile.load(trace_path)
        stream = trace.stream(limit=100)
        count = 0
        while not stream.exhausted:
            stream.take()
            count += 1
        assert count == 100

    def test_prewarm_helpers(self, trace_path):
        trace = TraceFile.load(trace_path)
        code = trace.code_addresses()
        data = trace.touched_data_ranges()
        assert len(code) == len(trace.instructions)
        assert data
        assert all(extent == 64 for _, extent in data)
        assert all(base % 64 == 0 for base, _ in data)

    def test_trace_replay_without_program_prewarm(self, trace_path):
        """Replays work standalone, using the trace's own prewarm hints."""
        from repro.memory.hierarchy import MemoryHierarchy
        trace = TraceFile.load(trace_path)
        sim = ParrotSimulator(model_config("N"))
        result = sim.simulate(trace.stream(), app_name="standalone")
        assert result.instructions == len(trace)


class TestSampledReplay:
    """Sampled runs over a trace file equal the same runs over the generator.

    A trace file replays through the artifact walker, so its fast-forward
    functionally warms caches and predictors exactly like the generating
    walker's does — with any warming skipped, IPC drifts far from the
    generator-driven value.
    """

    @pytest.fixture(scope="class")
    def gcc_trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sampled-trace") / "gcc.trace.npz"
        workload = application("gcc").build()
        capture_trace(workload.stream(SAMPLED_LENGTH), path)
        return workload, TraceFile.load(path)

    @pytest.mark.filterwarnings("ignore::repro.errors.SamplingWarning")
    @pytest.mark.parametrize("sampling", [
        SamplingConfig(), SamplingConfig.adaptive(),
    ], ids=["fixed", "adaptive"])
    def test_sampled_trace_run_matches_generator_run(self, gcc_trace,
                                                      sampling):
        workload, trace = gcc_trace
        assert SAMPLED_LENGTH // sampling.period >= sampling.min_intervals
        sim = ParrotSimulator(model_config("TON"))
        options = RunOptions(sampling=sampling)
        live = sim.simulate(
            workload.stream(SAMPLED_LENGTH), options, app_name="gcc",
            program=workload.program, length=SAMPLED_LENGTH,
        )
        replayed = sim.simulate(
            trace.stream(), options, app_name="gcc",
            program=workload.program, length=SAMPLED_LENGTH,
        )
        assert replayed == live
