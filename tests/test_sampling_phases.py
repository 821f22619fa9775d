"""Property tests for the adaptive sampler's phase machinery.

Three contracts, in the style of ``tests/test_optimizer_property.py``:

* :class:`~repro.sampling.phases.PhaseSignature` is a pure function of
  the profiled window — identical block sequences yield identical
  signatures, and the distance metric is insertion-order independent
  (the generating walker observes targets in first-execution order while
  artifact replay accumulates them sorted; both must classify alike);
* profiled fast-forward is bit-identical across every skip path — the
  plain block-compiled walk, the functionally warmed walk and artifact
  replay produce the same profile for the same window, so classifier
  state round-trips through ``skip``/``warm_skip`` without divergence;
* :class:`~repro.trace.selection.ColumnarSelector` (both its
  boundary-jumping window scan and its per-row mirror loop) segments a
  recorded stream exactly like the reference :class:`TraceSelector` —
  for windows opening at any row, delivered in one batch or many, up to
  the record's last row — including the in-progress state handed over
  by ``transfer``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.phases import PhaseClassifier, PhaseSignature
from repro.trace.selection import TraceSelector
from repro.workloads.suite import application
from repro.workloads.tracefile import compile_artifact

#: Stream length of the recorded fixtures (compiled once per module).
REPLAY_LENGTH = 6000

APPS = ("swim", "gcc", "eon")

_profiles = st.dictionaries(
    keys=st.integers(min_value=0, max_value=(1 << 32) - 1),
    values=st.integers(min_value=1, max_value=64),
    max_size=24,
)


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """Compiled artifacts of the property apps, keyed by name."""
    root = tmp_path_factory.mktemp("phase-artifacts")
    artifacts = {}
    for name in APPS:
        app = application(name)
        artifacts[name] = compile_artifact(app, app.seed, REPLAY_LENGTH,
                                           root=root)
    return artifacts


class TestSignatureProperties:
    @given(profile=_profiles)
    def test_identical_profiles_yield_identical_signatures(self, profile):
        a = PhaseSignature.from_profile(profile)
        b = PhaseSignature.from_profile(dict(profile))
        assert a == b
        assert a.distance(b) == 0.0
        assert a.total == sum(profile.values())

    @given(p=_profiles, q=_profiles)
    def test_distance_is_symmetric_bounded_and_order_independent(self, p, q):
        a, b = PhaseSignature.from_profile(p), PhaseSignature.from_profile(q)
        d = a.distance(b)
        assert 0.0 <= d <= 2.0
        assert b.distance(a) == d
        # Reversed insertion order must not move the value by even one
        # ulp: the numerator is computed in exact integer arithmetic.
        ra = PhaseSignature.from_profile(
            dict(reversed(list(p.items())))
        )
        rb = PhaseSignature.from_profile(
            dict(reversed(list(q.items())))
        )
        assert ra.distance(rb) == d

    @given(p=_profiles, q=_profiles)
    def test_disjoint_and_empty_extremes(self, p, q):
        a = PhaseSignature.from_profile(p)
        empty = PhaseSignature.from_profile({})
        assert empty.distance(empty) == 0.0
        if p:
            assert a.distance(empty) == 2.0
        disjoint = PhaseSignature.from_profile(
            {target + (1 << 40): count for target, count in p.items()}
        )
        if p:
            assert a.distance(disjoint) == 2.0

    @given(
        signatures=st.lists(_profiles, min_size=1, max_size=16),
        threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
        max_phases=st.integers(min_value=1, max_value=6),
    )
    def test_classification_is_a_pure_function_of_the_sequence(
        self, signatures, threshold, max_phases
    ):
        first = PhaseClassifier(threshold=threshold, max_phases=max_phases)
        second = PhaseClassifier(threshold=threshold, max_phases=max_phases)
        ids_first = [
            first.classify(PhaseSignature.from_profile(p))
            for p in signatures
        ]
        ids_second = [
            second.classify(PhaseSignature.from_profile(p))
            for p in signatures
        ]
        assert ids_first == ids_second
        assert len(first) <= max_phases
        assert first.evictions == second.evictions


def _noop(*_args) -> None:
    return None


def _profile_windows(stream, windows, *, warm: bool):
    """Profile successive skip windows; returns one dict per window."""
    profiles = []
    for window in windows:
        profile: dict[int, int] = {}
        if warm:
            stream.skip(window, warm=(_noop, _noop, _noop, 6),
                        profile=profile)
        else:
            stream.skip(window, profile=profile)
        profiles.append(profile)
    return profiles


class TestProfiledSkipRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(
        app_name=st.sampled_from(APPS),
        windows=st.lists(
            st.integers(min_value=100, max_value=2200),
            min_size=1, max_size=4,
        ),
    )
    def test_profiles_identical_across_all_skip_paths(
        self, replay, app_name, windows
    ):
        plain = _profile_windows(
            application(app_name).build().stream(REPLAY_LENGTH),
            windows, warm=False,
        )
        warmed = _profile_windows(
            application(app_name).build().stream(REPLAY_LENGTH),
            windows, warm=True,
        )
        replayed = _profile_windows(
            replay[app_name].stream(), windows, warm=False,
        )
        assert plain == warmed == replayed

    @settings(max_examples=6, deadline=None)
    @given(
        app_name=st.sampled_from(APPS),
        windows=st.lists(
            st.integers(min_value=100, max_value=1500),
            min_size=2, max_size=4,
        ),
    )
    def test_classifier_state_round_trips_bit_identically(
        self, replay, app_name, windows
    ):
        """The classification sequence is path-independent.

        Feeding the per-window signatures from the generating walker and
        from warmed artifact replay into fresh classifiers must visit the
        exact same phase ids — the adaptive scheduler's decisions (and so
        its results) cannot depend on which fast-forward path ran.
        """
        walker_side = _profile_windows(
            application(app_name).build().stream(REPLAY_LENGTH),
            windows, warm=False,
        )
        replay_side = _profile_windows(
            replay[app_name].stream(), windows, warm=True,
        )
        left = PhaseClassifier(threshold=0.5, max_phases=4)
        right = PhaseClassifier(threshold=0.5, max_phases=4)
        left_ids = [
            left.classify(PhaseSignature.from_profile(p))
            for p in walker_side
        ]
        right_ids = [
            right.classify(PhaseSignature.from_profile(p))
            for p in replay_side
        ]
        assert left_ids == right_ids


def _reference_scan(stream, total):
    """Feed ``total`` replayed instructions through a fresh TraceSelector."""
    selector = TraceSelector()
    segments = []
    seen = 0
    while seen < total:
        batch = stream.take_batch(min(512, total - seen))
        if not batch:
            break
        for dyn in batch:
            seen += 1
            completed = selector.advance(dyn)
            if completed is not None:
                for segment in completed:
                    segments.append((segment, seen))
    return selector, segments, seen


def _columnar_scan(stream, total, *, use_scan: bool, batch: int | None = None):
    """Mirror ``_reference_scan`` through a ColumnarSelector + transfer.

    ``batch`` caps each ``consume_raw`` pull, so one window reaches the
    scanner in several batches (each scanned as its own row window).
    """
    selector = TraceSelector()
    scanner = None
    segments = []
    consumed = 0
    def on_segment(segment, position):
        segments.append((segment, position))
    while consumed < total:
        want = total - consumed
        raw = stream.consume_raw(want if batch is None else min(batch, want))
        if raw is None:
            break
        walker, lo, index, taken, nxt = raw
        if not index:
            break
        if scanner is None:
            _instructions, addresses, flow, uop_counts = (
                walker.select_tables()
            )
            scanner = selector.columnar_scanner(
                walker.materialize, flow, uop_counts, addresses,
                scan=(walker.scan_tables if use_scan else None),
            )
        scanner.consume(lo, index, taken, nxt, consumed, on_segment)
        consumed += len(index)
    if scanner is not None:
        scanner.transfer(selector)
    return selector, segments, consumed


def _segment_key(segment, position):
    return (
        segment.tid,
        segment.num_instructions,
        segment.uop_count,
        segment.join_count,
        segment.complete,
        [dyn.instr.address for dyn in segment.instructions],
        position,
    )


def _assert_window_matches_reference(artifact, start, total, *,
                                     use_scan, batch=None):
    """Scan rows ``[start, start + total)`` both ways and compare.

    The segments, their window-relative positions, the termination
    histogram and the state handed over by ``transfer`` (checked by
    feeding both selectors the same object tail, final flush included)
    must all match the reference :meth:`TraceSelector.advance` loop.
    """
    ref_stream = artifact.stream()
    col_stream = artifact.stream()
    assert ref_stream.skip(start) == col_stream.skip(start)
    ref_sel, ref_segments, ref_seen = _reference_scan(ref_stream, total)
    col_sel, col_segments, col_seen = _columnar_scan(
        col_stream, total, use_scan=use_scan, batch=batch
    )
    assert col_seen == ref_seen
    assert (
        [_segment_key(s, p) for s, p in col_segments]
        == [_segment_key(s, p) for s, p in ref_segments]
    )
    assert col_sel.terminations == ref_sel.terminations

    # The transferred in-progress state must continue identically:
    # feed both selectors the same object tail and compare everything
    # that completes (including the final flush).
    tail_ref = []
    tail_col = []
    for dyn in ref_stream.take_batch(600):
        completed = ref_sel.advance(dyn)
        if completed is not None:
            tail_ref.extend(completed)
    for dyn in col_stream.take_batch(600):
        completed = col_sel.advance(dyn)
        if completed is not None:
            tail_col.extend(completed)
    tail_ref.extend(ref_sel.flush())
    tail_col.extend(col_sel.flush())
    assert (
        [_segment_key(s, 0) for s in tail_col]
        == [_segment_key(s, 0) for s in tail_ref]
    )


class TestColumnarSelectorEquivalence:
    """ColumnarSelector mirrors TraceSelector.advance bit-for-bit."""

    @settings(max_examples=8, deadline=None)
    @given(
        app_name=st.sampled_from(APPS),
        total=st.integers(min_value=64, max_value=REPLAY_LENGTH),
        use_scan=st.booleans(),
    )
    def test_segments_and_transferred_state_match_reference(
        self, replay, app_name, total, use_scan
    ):
        _assert_window_matches_reference(
            replay[app_name], 0, total, use_scan=use_scan
        )

    @settings(max_examples=12, deadline=None)
    @given(
        app_name=st.sampled_from(APPS),
        start=st.integers(min_value=1, max_value=REPLAY_LENGTH - 64),
        total=st.integers(min_value=64, max_value=3000),
        batch=st.one_of(st.none(), st.integers(min_value=1, max_value=700)),
        use_scan=st.booleans(),
    )
    def test_window_after_skip_in_batches_matches_reference(
        self, replay, app_name, start, total, batch, use_scan
    ):
        """Windows opening mid-record, delivered in one or many batches."""
        _assert_window_matches_reference(
            replay[app_name], start, total, use_scan=use_scan, batch=batch
        )

    @pytest.mark.parametrize("batch", [None, 1, 97])
    @pytest.mark.parametrize("use_scan", [True, False])
    def test_window_ending_at_the_last_row_matches_reference(
        self, replay, batch, use_scan
    ):
        """A window whose final row is the record's last row."""
        for app_name in APPS:
            total = 1777
            _assert_window_matches_reference(
                replay[app_name], REPLAY_LENGTH - total, total,
                use_scan=use_scan, batch=batch,
            )

    def test_scan_and_row_paths_agree_on_the_whole_record(self, replay):
        """The boundary-jumping scan equals the per-row mirror loop."""
        for app_name in APPS:
            artifact = replay[app_name]
            _sel_rows, rows, _ = _columnar_scan(
                artifact.stream(), REPLAY_LENGTH, use_scan=False
            )
            _sel_scan, scan, _ = _columnar_scan(
                artifact.stream(), REPLAY_LENGTH, use_scan=True
            )
            assert (
                [_segment_key(s, p) for s, p in scan]
                == [_segment_key(s, p) for s, p in rows]
            )
