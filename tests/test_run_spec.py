"""RunSpec: the single home of the run knobs.

Pins that the knob list is spelled out once (the ``repro run`` flags,
``run_policy`` and ``ExperimentRunner`` all forward RunSpec fields by
name), that validation happens at construction, and that non-integral
counts are rejected instead of truncated.
"""

import argparse
import inspect
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro import cli
from repro.baselines import FixedConfigPolicy
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.evaluation.metrics import QualitySLO
from repro.evaluation.runner import ExperimentRunner, RunSpec
from repro.experiments import common
from repro.retrieval.rerank import ExactReranker
from repro.workload import ReactivePolicy

SPEC_FIELDS = {f.name for f in fields(RunSpec)}

#: ``run_policy`` parameters that shape the arrivals rather than the run.
ARRIVAL_PARAMS = {"rate_qps", "n_queries", "seed", "engine_config",
                  "quality_params", "sequential", "closed_loop_clients",
                  "workload"}

#: ``repro run`` dests that pick the dataset, policy and arrivals.
CLI_ARRIVAL_DESTS = {"dataset", "policy", "config", "rate", "queries",
                     "sequential", "closed_loop_clients", "seed"}

#: Knobs with no CLI flag: idle-capacity pricing is forced only by
#: library callers (fig_autoscale prices its static arms too).
API_ONLY = {"price_idle_capacity"}

STUFF6 = RAGConfig(SynthesisMethod.STUFF, 6)


def run_parser() -> argparse.ArgumentParser:
    sub = next(a for a in cli.make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["run"]


class TestKnobParity:
    def test_spec_has_the_forwarded_knobs(self):
        assert len(SPEC_FIELDS) == 27
        assert "workload" in SPEC_FIELDS

    def test_cli_dests_are_the_spec_fields(self):
        dests = {a.dest for a in run_parser()._actions} - {"help"}
        assert dests - CLI_ARRIVAL_DESTS == SPEC_FIELDS - API_ONLY

    def test_signatures_repeat_no_knob(self):
        for fn, own in ((common.run_policy,
                         {"bundle", "policy"} | ARRIVAL_PARAMS),
                        (ExperimentRunner.__init__,
                         {"self", "bundle", "engine_config", "seed",
                          "quality_params"})):
            params = inspect.signature(fn).parameters
            named = {n for n, p in params.items()
                     if p.kind is not p.VAR_KEYWORD}
            assert named == own
            assert any(p.kind is p.VAR_KEYWORD for p in params.values())
        assert ARRIVAL_PARAMS & SPEC_FIELDS == {"workload"}

    def test_run_policy_forwards_every_knob(self, monkeypatch,
                                            finsec_bundle):
        seen = {}

        class Capture:
            def __init__(self, bundle, engine_config, seed=0,
                         quality_params=None, **knobs):
                seen.update(knobs)

            def run(self, policy, arrivals, closed_loop_clients=1):
                return None

        monkeypatch.setattr(common, "ExperimentRunner", Capture)
        defaults = {f.name: f.default for f in fields(RunSpec)
                    if f.name != "workload"}
        common.run_policy(finsec_bundle, None, n_queries=2, **defaults)
        assert set(seen) == SPEC_FIELDS

    def test_cli_forwards_every_flagged_knob(self, monkeypatch):
        seen = {}

        class Captured(Exception):
            pass

        def capture(bundle, policy, **kwargs):
            seen.update(kwargs)
            raise Captured

        monkeypatch.setattr(common, "run_policy", capture)
        with pytest.raises(Captured):
            cli.main(["run", "--dataset", "squad", "--policy", "vllm",
                      "--config", "stuff/5", "--queries", "4"])
        arrival = {"rate_qps", "seed", "sequential", "closed_loop_clients"}
        assert set(seen) - arrival == SPEC_FIELDS - API_ONLY

    def test_replicas_flag_keeps_its_metavar(self):
        assert "--replicas REPLICAS" in run_parser().format_help()


class TestRunSpec:
    def test_defaults_are_static_and_off(self):
        spec = RunSpec()
        assert spec.autoscaler is None
        assert spec.speculation_policy is None
        assert spec.cache_config is None
        assert spec.scale_range == (1, 1)
        assert spec.shard_limits == [None]
        assert not spec.prices_idle and not spec.scores_quality
        assert spec.new_autoscaler() is None

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            RunSpec().n_replicas = 2

    def test_fields_read_back_canonical(self):
        spec = RunSpec(n_replicas=2.0, retrieval_shards=2.0,
                       profiler_concurrency=3.0, slo_seconds=4,
                       replica_speeds=[1, 0.5], reranker="exact",
                       autoscaler="reactive", scale_min=1,
                       quality_slo="context_recall>=0.7")
        assert type(spec.n_replicas) is int and spec.n_replicas == 2
        assert type(spec.retrieval_shards) is int
        assert type(spec.profiler_concurrency) is int
        assert spec.slo_seconds == 4.0 and type(spec.slo_seconds) is float
        assert spec.replica_speeds == (1.0, 0.5)
        assert isinstance(spec.reranker, ExactReranker)
        assert isinstance(spec.autoscaler, ReactivePolicy)
        assert spec.quality_slo == QualitySLO("context_recall", 0.7)
        assert spec.scores_quality and spec.prices_idle
        assert spec.scale_range == (1, 4)

    def test_canonical_fields_revalidate(self):
        """A canonical spec is a valid spec: replace() round-trips."""
        spec = RunSpec(n_replicas=2, autoscaler="reactive",
                       speculation="hedge-after-delay", slo_seconds=6.0,
                       retrieval_shards=3, shard_concurrency=2,
                       result_cache="exact",
                       quality_slo="faithfulness>=0.5")
        again = replace(spec)
        assert again == spec
        assert again.shard_limits == [2, 2, 2]
        assert again.speculation_policy.name == "hedge-after-delay"

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="only applies with an "
                                             "autoscaler"):
            replace(RunSpec(), scale_max=3)

    def test_runner_keeps_the_spec(self, finsec_bundle, engine_config):
        runner = ExperimentRunner(finsec_bundle, engine_config,
                                  n_replicas=2, router="round-robin")
        assert runner.spec == RunSpec(n_replicas=2, router="round-robin")

    def test_unknown_knob_rejected(self, finsec_bundle, engine_config):
        with pytest.raises(TypeError, match="n_replica"):
            ExperimentRunner(finsec_bundle, engine_config, n_replica=2)


class TestNonIntegralCounts:
    """Counts are slots and replicas: 0.5 must not truncate to 0."""

    def test_n_replicas(self, finsec_bundle, engine_config):
        with pytest.raises(ValueError,
                           match="n_replicas must be an integer"):
            ExperimentRunner(finsec_bundle, engine_config, n_replicas=1.5)

    def test_profiler_concurrency(self, finsec_bundle, engine_config):
        with pytest.raises(ValueError,
                           match="profiler_concurrency must be an integer"):
            ExperimentRunner(finsec_bundle, engine_config,
                             profiler_concurrency=0.5)

    def test_profiler_concurrency_via_run_policy(self, finsec_bundle):
        with pytest.raises(ValueError,
                           match="profiler_concurrency must be an integer"):
            common.run_policy(finsec_bundle, FixedConfigPolicy(STUFF6),
                              n_queries=10, profiler_concurrency=0.5)

    def test_retrieval_concurrency(self, finsec_bundle, engine_config):
        with pytest.raises(ValueError,
                           match="retrieval_concurrency must be an "
                                 "integer"):
            ExperimentRunner(finsec_bundle, engine_config,
                             retrieval_concurrency=0.5)

    def test_shard_concurrency_entry(self, finsec_bundle, engine_config):
        with pytest.raises(ValueError,
                           match=r"shard_concurrency\[1\] must be an "
                                 "integer, got 0.5"):
            ExperimentRunner(finsec_bundle, engine_config,
                             retrieval_shards=2, shard_concurrency=[1, 0.5])

    def test_non_positive_keeps_its_message(self, finsec_bundle,
                                            engine_config):
        with pytest.raises(ValueError,
                           match="profiler_concurrency must be > 0"):
            ExperimentRunner(finsec_bundle, engine_config,
                             profiler_concurrency=0)
