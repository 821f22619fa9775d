"""The simulate()/RunOptions API: one run entry point for every source.

``ParrotSimulator.simulate`` runs an application, a raw instruction
stream or a compiled trace artifact.  These tests pin three contracts:

* the call shapes that replaced the retired per-source entry points are
  bit-identical where they describe the same run (stream vs application,
  shared vs private caches, estimate vs bare result);
* validation is unified in ``simulate`` and raises
  :class:`~repro.errors.SimulationError` naming the offending source;
* a shared :class:`ColdPlanCache` serves only the segment list it was
  built over, one plan dict per fetch-parameter key.
"""

from __future__ import annotations

import pytest

from repro.core.simulator import (
    ColdPlanCache,
    ParrotSimulator,
    RunOptions,
    segment_stream,
)
from repro.errors import SimulationError
from repro.experiments.engine import resolve_run_options, run_key
from repro.models.configs import model_config
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import application
from repro.workloads.tracefile import compile_artifact

LENGTH = 2000


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    app = application("gzip")
    root = tmp_path_factory.mktemp("artifacts")
    return compile_artifact(app, app.seed, LENGTH, root=root)


class TestLegacyParity:
    """simulate() call shapes that describe the same run agree bit-for-bit."""

    def test_stream_source_matches_application(self):
        app = application("gcc")
        direct = ParrotSimulator(model_config("N")).simulate(
            app, length=LENGTH
        )
        workload = app.build()
        streamed = ParrotSimulator(model_config("N")).simulate(
            workload.stream(LENGTH),
            app_name="gcc", suite=app.suite, program=workload.program,
        )
        assert streamed.to_dict() == direct.to_dict()

    def test_artifact_shared_caches_match_private_ones(self, artifact):
        segments = artifact.segments()
        cache = ColdPlanCache(segments)
        private = ParrotSimulator(model_config("TON")).simulate(artifact)
        shared = ParrotSimulator(model_config("TON")).simulate(
            artifact, RunOptions(segments=segments, cold_plans=cache)
        )
        assert shared.to_dict() == private.to_dict()

    def test_sampling_without_estimate_returns_bare_result(self):
        app = application("swim")
        sampling = SamplingConfig(detail=400, gap=1000, warmup=200,
                                  func_warm=300)
        result = ParrotSimulator(model_config("TON")).simulate(
            app, RunOptions(sampling=sampling), length=8000
        )
        sampled = ParrotSimulator(model_config("TON")).simulate(
            app, RunOptions(sampling=sampling, estimate=True), length=8000
        )
        assert result.to_dict() == sampled.result.to_dict()


class TestUnifiedValidation:
    """simulate() raises SimulationError naming the offending source."""

    def test_application_requires_length(self):
        with pytest.raises(SimulationError, match="simulate\\(swim\\).*length"):
            ParrotSimulator(model_config("N")).simulate(application("swim"))

    def test_application_rejects_non_positive_length(self):
        with pytest.raises(SimulationError, match="simulate\\(swim\\).*0"):
            ParrotSimulator(model_config("N")).simulate(
                application("swim"), length=0
            )

    def test_application_rejects_stream_kwargs(self):
        with pytest.raises(SimulationError,
                           match="simulate\\(swim\\).*InstructionStream"):
            ParrotSimulator(model_config("N")).simulate(
                application("swim"), length=1000, app_name="other"
            )

    def test_application_rejects_shared_caches(self):
        with pytest.raises(SimulationError,
                           match="simulate\\(swim\\).*artifact runs only"):
            ParrotSimulator(model_config("N")).simulate(
                application("swim"), RunOptions(segments=[]), length=1000
            )

    def test_artifact_rejects_explicit_length(self, artifact):
        with pytest.raises(SimulationError,
                           match="gzip artifact.*its own length"):
            ParrotSimulator(model_config("N")).simulate(artifact, length=500)

    def test_sampled_stream_requires_length(self):
        workload = application("gzip").build()
        with pytest.raises(SimulationError,
                           match="custom stream.*explicit length"):
            ParrotSimulator(model_config("N")).simulate(
                workload.stream(1000),
                RunOptions(sampling=SamplingConfig()),
            )

    def test_unknown_source_type_is_named(self):
        with pytest.raises(SimulationError, match="cannot run a str"):
            ParrotSimulator(model_config("N")).simulate("swim", length=1000)

    def test_cold_plan_cache_requires_matching_segments(self, artifact):
        segments = artifact.segments()
        foreign = list(segment_stream(artifact.stream()))
        cache = ColdPlanCache(foreign)
        with pytest.raises(SimulationError, match="different segment list"):
            ParrotSimulator(model_config("N")).simulate(
                artifact, RunOptions(segments=segments, cold_plans=cache)
            )

    def test_cold_plan_cache_requires_segments_alongside(self, artifact):
        cache = ColdPlanCache(artifact.segments())
        with pytest.raises(SimulationError, match="matching segments"):
            ParrotSimulator(model_config("N")).simulate(
                artifact, RunOptions(cold_plans=cache)
            )

    def test_bare_dict_cold_plans_are_rejected(self, artifact):
        # An unbound dict cannot refuse a foreign segment list, so TIDs
        # aliasing across streams could silently serve a stale plan.
        options = RunOptions(segments=artifact.segments(), cold_plans={})
        with pytest.raises(SimulationError, match="must be a ColdPlanCache"):
            ParrotSimulator(model_config("N")).simulate(artifact, options)


class TestColdPlanCache:

    def test_refuses_foreign_segment_list(self, artifact):
        segments = artifact.segments()
        cache = ColdPlanCache(segments)
        simulator = ParrotSimulator(model_config("TON"))
        foreign = list(segments)  # equal content, different identity
        with pytest.raises(SimulationError, match="different segment list"):
            simulator.simulate(
                artifact, RunOptions(segments=foreign, cold_plans=cache)
            )

    def test_one_fetch_key_resolves_to_one_plan_dict(self, artifact):
        segments = artifact.segments()
        cache = ColdPlanCache(segments)
        narrow = cache.plans_for(segments, model_config("N").fetch)
        # Models with equal fetch parameters share one plan dict...
        assert cache.plans_for(segments, model_config("TON").fetch) is narrow
        assert cache.plans_for(segments, model_config("N").fetch) is narrow
        # ...and different fetch parameters never see each other's plans.
        wide = cache.plans_for(segments, model_config("W").fetch)
        assert wide is not narrow


class TestRunOptionsKeys:
    """RunOptions round-trips into the persistent store's run keys."""

    def test_run_key_accepts_options_or_sampling(self):
        config = model_config("TON")
        sampling = SamplingConfig()
        assert run_key(config, "swim", 2000, RunOptions()) == run_key(
            config, "swim", 2000
        )
        assert run_key(
            config, "swim", 2000, RunOptions(sampling=sampling)
        ) == run_key(config, "swim", 2000, sampling)

    def test_prewarm_splits_the_key(self):
        # Prewarming changes results, so it must key separately.
        config = model_config("TON")
        assert run_key(
            config, "swim", 2000, RunOptions(prewarm=False)
        ) != run_key(config, "swim", 2000, RunOptions())


class TestBackendParsing:
    def test_parse_backend_rejects_unknown(self):
        # The simulator has one execution path; a spec naming a removed
        # backend fails loudly instead of being ignored.
        assert resolve_run_options("off", "scalar") == RunOptions()
        for spec in ("columnar", "compiled"):
            with pytest.raises(ValueError, match="unknown execution backend"):
                resolve_run_options("off", spec)

    def test_resolve_run_options_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SAMPLING", "on")
        options = resolve_run_options()
        assert options.sampling == SamplingConfig()
        # Explicit specs win over the environment.
        explicit = resolve_run_options("off")
        assert explicit == RunOptions()
