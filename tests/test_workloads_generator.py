"""Unit + property tests: whole-application synthesis and stream walking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.isa.opcodes import InstrClass
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import (
    dotnet_profile,
    multimedia_profile,
    office_profile,
    specfp_profile,
    specint_profile,
)
from repro.workloads.stream import InstructionStream


class TestProgramSynthesis:
    def test_stats_match_profile_structure(self, int_workload):
        stats = int_workload.stats
        profile = int_workload.profile
        assert stats.hot_kernels + stats.switch_kernels >= profile.n_hot_kernels - 1
        assert stats.cold_kernels == profile.n_cold_kernels
        assert stats.static_instructions > 100

    def test_program_validates(self, fp_workload, int_workload):
        fp_workload.program.validate()
        int_workload.program.validate()

    @pytest.mark.parametrize(
        "factory",
        [specint_profile, specfp_profile, office_profile,
         multimedia_profile, dotnet_profile],
    )
    def test_all_suite_profiles_synthesise_and_run(self, factory):
        workload = SyntheticWorkload(factory(), seed=3)
        stream = workload.stream(2000)
        count = 0
        while not stream.exhausted:
            stream.take()
            count += 1
        assert count == 2000


class TestStreamWalking:
    def test_stream_is_deterministic(self, fp_workload):
        s1 = fp_workload.stream(3000)
        s2 = fp_workload.stream(3000)
        while not s1.exhausted:
            a, b = s1.take(), s2.take()
            assert a.address == b.address
            assert a.taken == b.taken
            assert a.mem_addr == b.mem_addr

    def test_different_stream_seeds_diverge(self, int_workload):
        s1 = int_workload.stream(3000, stream_seed=1)
        s2 = int_workload.stream(3000, stream_seed=2)
        diffs = 0
        while not s1.exhausted and not s2.exhausted:
            if s1.take().address != s2.take().address:
                diffs += 1
        assert diffs > 0

    def test_control_flow_is_consistent(self, int_workload):
        """Each instruction's next_address must be the successor's address."""
        stream = int_workload.stream(5000)
        prev = None
        while not stream.exhausted:
            dyn = stream.take()
            if prev is not None:
                assert dyn.address == prev.next_address
            prev = dyn

    def test_taken_semantics(self, int_workload):
        stream = int_workload.stream(5000)
        while not stream.exhausted:
            dyn = stream.take()
            iclass = dyn.instr.iclass
            if iclass is InstrClass.COND_BRANCH:
                if dyn.taken:
                    assert dyn.next_address == dyn.instr.taken_target
                else:
                    assert dyn.next_address == dyn.instr.fallthrough
            elif dyn.is_cti:
                assert dyn.taken
            else:
                assert not dyn.taken
                assert dyn.next_address == dyn.instr.fallthrough

    def test_memory_instructions_carry_addresses(self, fp_workload):
        stream = fp_workload.stream(5000)
        seen_mem = 0
        while not stream.exhausted:
            dyn = stream.take()
            has_mem_uop = any(u.is_mem for u in dyn.instr.uops)
            if dyn.mem_addr is not None:
                assert has_mem_uop
                seen_mem += 1
        assert seen_mem > 100

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(0, 3000), m=st.integers(0, 3000))
    def test_next_columns_then_next_batch_matches_next_batch(
            self, int_workload, n, m):
        """The column step advances the walker exactly like next_batch."""
        no_mem = -1
        walker = int_workload.walker()
        static_index: dict[int, int] = {}
        index, taken, nxt, mem = walker.next_columns(n, static_index, no_mem)
        statics = list(static_index)
        assert list(static_index.values()) == list(range(len(statics)))
        head = [
            (statics[i], t, x, None if a == no_mem else a)
            for i, t, x, a in zip(index, taken, nxt, mem)
        ]
        tail = walker.next_batch(m)
        reference = int_workload.walker()
        expected = reference.next_batch(n + m)

        def rows(records):
            return [(r.address, r.taken, r.next_address, r.mem_addr)
                    for r in records]

        assert head + rows(tail) == rows(expected)
        assert walker.executed == reference.executed == n + m
        # Static indices follow first execution.
        assert statics == list(dict.fromkeys(r.address for r in expected[:n]))

    def test_hot_cold_skew(self, fp_workload):
        """The hot/cold (90/10) paradigm: a small static footprint carries
        nearly all dynamic execution."""
        from collections import Counter
        stream = fp_workload.stream(10000)
        counts = Counter()
        while not stream.exhausted:
            counts[stream.take().address] += 1
        static_total = fp_workload.stats.static_instructions
        touched = len(counts)
        # Most static instructions (the cold region) were never executed.
        assert touched < static_total * 0.5
        # And among touched code, the hottest few dominate the stream.
        top_share = sum(c for _, c in counts.most_common(30)) / 10000
        assert top_share > 0.5


class TestInstructionStream:
    def test_take_batch_respects_limit(self, fp_workload):
        stream = fp_workload.stream(10)
        got = stream.take_batch(50)
        assert len(got) == 10
        assert stream.exhausted
        assert stream.take_batch(1) == []

    def test_take_on_exhausted_raises(self, fp_workload):
        stream = fp_workload.stream(1)
        stream.take()
        with pytest.raises(WorkloadError):
            stream.take()

    @given(st.integers(-5, 0))
    def test_nonpositive_limit_rejected(self, limit):
        walker = SyntheticWorkload(specint_profile("prop"), seed=5).walker()
        with pytest.raises(WorkloadError, match="limit"):
            InstructionStream(walker, limit)

    def test_foreign_iterator_rejected(self):
        """Only the generating and the record-replaying walker stream."""
        with pytest.raises(WorkloadError, match="list_iterator"):
            InstructionStream(iter([]), 5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 400))
    def test_stream_yields_exactly_limit(self, limit):
        workload = SyntheticWorkload(specint_profile("prop"), seed=5)
        stream = workload.stream(limit)
        count = 0
        while not stream.exhausted:
            stream.take()
            count += 1
        assert count == limit
