"""Workload runner: drives a policy + engine over a dataset workload.

The discrete-event mechanics live in :mod:`repro.sim` (kernel) and
:mod:`repro.evaluation.pipeline` (the staged query pipeline). Per
query::

    arrival -> ProfileStage -(profiler resource)-> DecideStage
            -> RetrieveStage -(retrieval resource)-> SynthesizeStage
            -> ServeStage -(engine iterations)-> quality scoring + record

Engine iterations and external events (arrivals, profiler/retrieval
completions) interleave exactly as in a real serving stack: decisions
made while the GPU is mid-iteration take effect at the next scheduling
boundary. With the default *unbounded* resources the schedule is
byte-identical to the pre-``repro.sim`` closure-based runner; finite
``profiler_concurrency`` / ``retrieval_concurrency`` add FIFO queueing
(API rate limits, search-executor pools) on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from repro.caching import CacheConfig, CacheStats, make_cache_config
from repro.core.policy import RAGPolicy
from repro.data.types import DatasetBundle
from repro.data.workload import Arrival
from repro.evaluation.costs import CostLedger
from repro.evaluation.metrics import METRIC_NAMES, MetricHarness, QualitySLO
from repro.evaluation.pipeline import QueryPipeline, QueryRecord
from repro.llm.generation import SimulatedGenerator
from repro.llm.quality import QualityModel, QualityParams
from repro.retrieval.rerank import ExactReranker, make_reranker
from repro.serving.cluster import ClusterEngine
from repro.serving.engine import EngineConfig, EngineStats, ServingEngine
from repro.serving.speculation import SpeculationPolicy, make_speculation
from repro.sim import ResourceStats
from repro.util.validation import (
    check_count,
    check_positive,
    check_positive_int,
    resolve_shard_concurrency,
)
from repro.workload import (
    Autoscaler,
    ForecastPolicy,
    ScalingEvent,
    ScalingPolicy,
    Workload,
    make_scaling_policy,
)

#: ``QueryRecord`` is defined next to the pipeline that emits it and
#: re-exported here, its historical import location.
__all__ = ["QueryRecord", "RunResult", "RunSpec", "ExperimentRunner"]


@dataclass
class RunResult:
    """One (policy, dataset, workload) run."""

    policy: str
    dataset: str
    records: list[QueryRecord]
    makespan: float
    engine_stats: EngineStats
    ledger: CostLedger
    #: Per-replica engine counters (one entry on a bare engine).
    replica_stats: list[EngineStats] = field(default_factory=list)
    #: Per-replica speed multipliers (parallel to ``replica_stats``).
    replica_speeds: list[float] = field(default_factory=list)
    #: Contended-resource counters keyed by resource name
    #: (``profiler``, ``retrieval`` or ``retrieval/shardN``, and
    #: ``reranker`` when one is configured).
    resource_stats: dict[str, ResourceStats] = field(default_factory=dict)
    #: How many index shards served retrieval (1 = unsharded).
    n_retrieval_shards: int = 1
    #: Name of the configured reranker (``None`` when disabled).
    reranker: str | None = None
    #: Per-query SLO in seconds (``None`` = no deadline stamped).
    slo_seconds: float | None = None
    #: Name of the speculation policy (``None`` when disabled).
    speculation: str | None = None
    #: Name of the autoscaler policy (``None`` when the fleet is static).
    autoscaler: str | None = None
    #: Chronological fleet changes the autoscaler made (empty when
    #: static); see :class:`repro.workload.ScalingEvent`.
    scaling_events: list[ScalingEvent] = field(default_factory=list)
    #: GPU-seconds of provisioned capacity over the run (busy + idle,
    #: summed across replicas from provisioning to retirement).
    provisioned_gpu_seconds: float = 0.0
    #: Provisioned-but-idle GPU-seconds (the gap idle-capacity pricing
    #: bills; 0.0 when idle pricing is off).
    idle_gpu_seconds: float = 0.0
    #: Result-cache mode (``None`` when caching is off entirely).
    result_cache: str | None = None
    #: Whether the retrieval (top-k memo) tier was enabled.
    retrieval_cache: bool = False
    #: Per-tier cache counters keyed ``"result"`` / ``"retrieval"``
    #: (empty when caching is off); see ``docs/CACHING.md``.
    cache_stats: dict[str, CacheStats] = field(default_factory=dict)
    #: Whether the multi-metric quality harness scored this run's
    #: records (``docs/EVALUATION.md``); off by default.
    quality_metrics: bool = False
    #: Canonical ``metric>=threshold`` spec the run targeted (``None``
    #: when no quality SLO was set).
    quality_slo: str | None = None

    # ------------------------------------------------------------------
    # Latency / quality observables. A run can legitimately complete
    # zero queries (an autoscaled trace whose trough carries no
    # arrivals), so the aggregate statistics degrade to NaN — "no
    # observation" — rather than raising or masquerading as a perfect
    # 0.0 latency.
    # ------------------------------------------------------------------
    def _delays(self) -> np.ndarray:
        return np.asarray([r.e2e_delay for r in self.records])

    @property
    def mean_delay(self) -> float:
        if not self.records:
            return float("nan")
        return float(self._delays().mean())

    def delay_percentile(self, q: float) -> float:
        if not self.records:
            return float("nan")
        return float(np.percentile(self._delays(), q))

    @property
    def mean_f1(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.f1 for r in self.records]))

    @property
    def throughput_qps(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return len(self.records) / self.makespan

    @property
    def mean_profiler_fraction(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.profiler_fraction for r in self.records]))

    @property
    def mean_profiler_queue_delay(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.profiler_queue_delay for r in self.records]))

    @property
    def mean_retrieval_seconds(self) -> float:
        """Mean scatter-gather stage duration (queue + hold + gather)."""
        if not self.records:
            return float("nan")
        return float(np.mean([r.retrieval_seconds for r in self.records]))

    @property
    def mean_gather_seconds(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.gather_seconds for r in self.records]))

    def retrieval_percentile(self, q: float) -> float:
        """Percentile of the per-query scatter-gather duration."""
        if not self.records:
            return float("nan")
        return float(np.percentile(
            [r.retrieval_seconds for r in self.records], q))

    # ------------------------------------------------------------------
    # Speculation / SLO observables (fig_speculation)
    # ------------------------------------------------------------------
    @property
    def hedge_rate(self) -> float:
        """Fraction of queries for which a duplicate was armed."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.hedged) / len(self.records)

    @property
    def hedge_win_rate(self) -> float:
        """Fraction of *hedged* queries won by the duplicate lane."""
        hedged = [r for r in self.records if r.hedged]
        if not hedged:
            return 0.0
        return sum(1 for r in hedged if r.hedge_won) / len(hedged)

    @property
    def wasted_work_fraction(self) -> float:
        """Loser-lane tokens over all tokens the engines processed.

        The engine totals include the wasted tokens (they were really
        prefilled/decoded before cancellation), so this is the share
        of GPU work speculation threw away to cut the tail.
        """
        total = (self.engine_stats.prefill_tokens
                 + self.engine_stats.decode_tokens)
        if total <= 0:
            return 0.0
        wasted = sum(r.wasted_prefill_tokens + r.wasted_decode_tokens
                     for r in self.records)
        return wasted / total

    @property
    def slo_attainment(self) -> float:
        """Fraction of queries finishing by their deadline.

        0.0 when queries completed but no SLO was configured (check
        :attr:`slo_seconds`); NaN when the run completed no queries at
        all — there is nothing to attain or miss.
        """
        if not self.records:
            return float("nan")
        met = [r.slo_met for r in self.records if r.slo_met is not None]
        if not met:
            return 0.0
        return sum(met) / len(met)

    # ------------------------------------------------------------------
    # Cache observables (fig_cache); see docs/CACHING.md
    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed queries served from any cache tier.

        0.0 when caching is off (every record is a miss by
        construction); NaN when the run completed no queries.
        """
        if not self.records:
            return float("nan")
        return sum(1 for r in self.records if r.cache_hit) \
            / len(self.records)

    @property
    def cache_stale_hit_rate(self) -> float:
        """Fraction of completed queries served a stale cache entry
        (inserted under an older corpus version)."""
        if not self.records:
            return float("nan")
        return sum(1 for r in self.records if r.cache_stale) \
            / len(self.records)

    @property
    def cache_saved_seconds(self) -> float:
        """Pipeline seconds the cache tiers short-circuited (summed
        measured benefit of every hit; 0.0 when caching is off)."""
        return sum(s.saved_seconds for s in self.cache_stats.values())

    @property
    def cache_saved_dollars(self) -> float:
        """Priced GPU dollars the cache hits avoided spending (0.0
        when caching is off)."""
        return sum(s.saved_dollars for s in self.cache_stats.values())

    # ------------------------------------------------------------------
    # Multi-metric quality observables (fig_quality); see
    # docs/EVALUATION.md. NaN-safe like every other aggregate: NaN
    # means "no scored observation" — an empty run, or a run that
    # never enabled the metric harness.
    # ------------------------------------------------------------------
    def metric_values(self, metric: str) -> list[float]:
        """Non-``None`` per-record values of one named metric."""
        if metric not in METRIC_NAMES:
            known = ", ".join(METRIC_NAMES)
            raise ValueError(f"unknown metric {metric!r}; known: {known}")
        values = [getattr(r, metric) for r in self.records]
        return [v for v in values if v is not None]

    def mean_metric(self, metric: str) -> float:
        """Mean of one named metric over scored records (NaN if none)."""
        values = self.metric_values(metric)
        if not values:
            return float("nan")
        return float(np.mean(values))

    @property
    def n_quality_scored(self) -> int:
        """How many records carry harness scores (0 with metrics off)."""
        return len(self.metric_values("faithfulness"))

    @property
    def mean_faithfulness(self) -> float:
        return self.mean_metric("faithfulness")

    @property
    def mean_answer_relevancy(self) -> float:
        return self.mean_metric("answer_relevancy")

    @property
    def mean_context_precision(self) -> float:
        return self.mean_metric("context_precision")

    @property
    def mean_context_recall(self) -> float:
        return self.mean_metric("context_recall")

    @property
    def total_dollars(self) -> float:
        return self.ledger.total_dollars

    def summary(self) -> dict[str, float]:
        """Compact scalar summary for report tables."""
        return {
            "mean_delay_s": self.mean_delay,
            "p90_delay_s": self.delay_percentile(90),
            "mean_f1": self.mean_f1,
            "throughput_qps": self.throughput_qps,
            "dollars_per_query": self.ledger.per_query(len(self.records)),
            "profiler_fraction": self.mean_profiler_fraction,
        }


@dataclass(frozen=True)
class RunSpec:
    """Every knob of one run, validated once at construction.

    This is the single home of the run surface: ``ExperimentRunner``,
    ``run_policy`` and the ``repro run`` CLI all forward their knobs
    here by name. Fields keep the caller's values, coerced to their
    canonical type (an integral float count becomes an ``int``, a
    reranker / autoscaler name its instance, a ``quality_slo`` spec a
    :class:`QualitySLO`); knobs that resolve against each other are
    derived properties. Misuse, including a knob that only applies
    alongside one that is off, fails here with the knob's name rather
    than being silently ignored. Every default leaves the event
    schedule byte-identical.
    """

    #: Serving-engine replicas. Above 1 the run is served by a
    #: :class:`~repro.serving.cluster.ClusterEngine` behind ``router``.
    n_replicas: int = 1
    #: Cluster load-balancing policy (``repro.serving.cluster``).
    router: str = "least-kv-load"
    #: Max in-flight profiler calls, modelling API rate limits; excess
    #: queries wait in FIFO order (``None`` = unbounded).
    profiler_concurrency: int | None = None
    #: Max in-flight searches on the sole executor pool of an
    #: *unsharded* store (``None`` = unbounded); with
    #: ``retrieval_shards > 1`` use ``shard_concurrency``.
    retrieval_concurrency: int | None = None
    #: One hardware-throughput multiplier per replica (length must
    #: equal ``n_replicas``); ``None`` = a homogeneous fleet.
    replica_speeds: Sequence[float] | None = None
    #: Index shards the corpus is partitioned across for scatter-gather
    #: search (deterministic hash placement; ``repro.retrieval.sharded``).
    retrieval_shards: int = 1
    #: Per-shard search executors: one int broadcast to every shard, or
    #: one entry (int, or ``None`` = unbounded) per shard.
    shard_concurrency: int | list[int | None] | None = None
    #: Re-scores an over-fetched candidate pool at modelled
    #: per-candidate cost (``"exact"`` or an instance; ``None`` = off).
    reranker: str | ExactReranker | None = None
    #: Per-shard index factory: ``"flat"`` (exact) or ``"ivf"``.
    index: str = "flat"
    #: Stamps every query with the deadline ``arrival + slo_seconds``,
    #: reported as SLO attainment (``None`` = no deadline).
    slo_seconds: float | None = None
    #: Deadline-aware hedging (``"none"``, ``"hedge-after-delay"``,
    #: ``"deadline-risk"`` or an instance): duplicates at-risk queries
    #: onto a second replica and cancels the loser
    #: (``repro.serving.speculation``).
    speculation: str | SpeculationPolicy | None = None
    #: ``hedge-after-delay`` timer in seconds (default: half the SLO).
    hedge_delay: float | None = None
    #: The trace-driven workload the forecast autoscalers plan against.
    workload: Workload | None = None
    #: Elastic-capacity policy (``"none"``, ``"reactive"``,
    #: ``"forecast"``, ``"forecast-ewma"`` or an instance;
    #: ``repro.workload.autoscaler``); ``None`` keeps the fleet static.
    autoscaler: str | ScalingPolicy | None = None
    #: Autoscaler floor on active replicas (default 1).
    scale_min: int | None = None
    #: Autoscaler ceiling on provisioned replicas
    #: (default ``max(4, n_replicas, scale_min)``).
    scale_max: int | None = None
    #: Seconds between autoscaler ticks (default 15).
    autoscale_interval: float | None = None
    #: Seconds a scale-up takes to come online (default 30).
    provision_delay: float | None = None
    #: Bill provisioned-but-idle GPU time (default: on exactly when
    #: autoscaling, the comparison it exists for).
    price_idle_capacity: bool | None = None
    #: Query-result cache mode: ``"off"``/``None``, ``"exact"`` or
    #: ``"semantic"`` (``repro.caching``, ``docs/CACHING.md``).
    result_cache: str | None = None
    #: Memoize top-k chunk ids per (query, shard config).
    retrieval_cache: bool = False
    #: Max entries per cache tier (default 256).
    cache_capacity: int | None = None
    #: Cache eviction policy: ``lru`` (default), ``lfu`` or ``gdsf``.
    cache_eviction: str | None = None
    #: Min cosine similarity for a semantic result hit (default 0.9).
    semantic_threshold: float | None = None
    #: Cache entry time-to-live in seconds (default: no expiry).
    cache_ttl: float | None = None
    #: Score every record with the multi-metric quality harness
    #: (``repro.evaluation.metrics``, ``docs/EVALUATION.md``);
    #: post-serve, so the schedule is untouched.
    quality_metrics: bool = False
    #: ``metric>=value`` quality SLO; implies ``quality_metrics``.
    quality_slo: str | QualitySLO | None = None

    def __post_init__(self) -> None:
        canonical = partial(object.__setattr__, self)
        canonical("n_replicas",
                  check_positive_int("n_replicas", self.n_replicas))
        if isinstance(self.quality_slo, str):
            canonical("quality_slo", QualitySLO.parse(self.quality_slo))
        canonical("autoscaler", make_scaling_policy(self.autoscaler))
        if self.autoscaler is None:
            misused = {
                "scale_min": self.scale_min,
                "scale_max": self.scale_max,
                "autoscale_interval": self.autoscale_interval,
                "provision_delay": self.provision_delay,
            }
            bad = [k for k, v in misused.items() if v is not None]
            if bad:
                raise ValueError(
                    f"{', '.join(bad)} only applies with an autoscaler; "
                    "pass --autoscaler reactive (or forecast), or drop "
                    "the flag"
                )
        else:
            if isinstance(self.autoscaler, ForecastPolicy) \
                    and self.workload is None:
                raise ValueError(
                    "the forecast autoscaler plans against the declared "
                    "workload trace; pass workload= (--workload) or use "
                    "--autoscaler reactive"
                )
            lo, hi = self.scale_range
            if not lo <= self.n_replicas <= hi:
                raise ValueError(
                    f"the initial fleet must lie inside the scaling "
                    f"range: n_replicas={self.n_replicas} is outside "
                    f"[scale_min={lo}, scale_max={hi}]"
                )
        for name in ("profiler_concurrency", "retrieval_concurrency"):
            if getattr(self, name) is not None:
                canonical(name, check_positive_int(name, getattr(self, name)))
        canonical("retrieval_shards", check_count(
            "retrieval_shards", self.retrieval_shards, minimum=1))
        if self.slo_seconds is not None:
            canonical("slo_seconds", float(
                check_positive("slo_seconds", self.slo_seconds)))
        if self.hedge_delay is not None:
            check_positive("hedge_delay", self.hedge_delay)
        if self.speculation_policy is not None and self.scale_range[1] < 2:
            raise ValueError(
                f"speculation {self.speculation_policy.name!r} needs a "
                "second replica to hedge onto; with n_replicas="
                f"{self.n_replicas} every hedge would be silently "
                "skipped — pass --replicas 2 (or more), allow the "
                "autoscaler to add one (--scale-max 2+), or drop "
                "--speculation"
            )
        canonical("reranker", make_reranker(self.reranker))
        if self.replica_speeds is not None:
            speeds = tuple(float(s) for s in self.replica_speeds)
            if len(speeds) != self.n_replicas:
                raise ValueError(
                    f"replica_speeds has {len(speeds)} entries but "
                    f"n_replicas is {self.n_replicas}; pass exactly one "
                    "speed per replica (e.g. --replica-speeds 1.0,0.5 "
                    "with --replicas 2)"
                )
            for i, s in enumerate(speeds):
                check_positive(f"replica_speeds[{i}]", s)
            canonical("replica_speeds", speeds)
        # Resolve the remaining derived knobs now, so their misuse also
        # fails at construction rather than at first use.
        for name in ("cache_config", "shard_limits"):
            getattr(self, name)

    @cached_property
    def scale_range(self) -> tuple[int, int]:
        """``(floor, ceiling)`` on replicas; ``n_replicas`` twice for a
        static fleet."""
        if self.autoscaler is None:
            return self.n_replicas, self.n_replicas
        lo = (1 if self.scale_min is None
              else check_count("scale_min", self.scale_min, 1))
        hi = (max(4, self.n_replicas, lo) if self.scale_max is None
              else check_count("scale_max", self.scale_max, 1))
        return lo, hi

    @cached_property
    def shard_limits(self) -> list[int | None]:
        """Per-shard executor bounds (``None`` = unbounded)."""
        return resolve_shard_concurrency(
            self.retrieval_concurrency, self.shard_concurrency,
            self.retrieval_shards)

    @cached_property
    def speculation_policy(self) -> SpeculationPolicy | None:
        return make_speculation(self.speculation,
                                hedge_delay=self.hedge_delay,
                                slo_seconds=self.slo_seconds)

    @cached_property
    def cache_config(self) -> CacheConfig | None:
        """``None`` when every cache tier is off (the byte-identity
        path: the pipeline then builds no cache objects)."""
        return make_cache_config(
            result_cache=self.result_cache,
            retrieval_cache=self.retrieval_cache,
            cache_capacity=self.cache_capacity,
            cache_eviction=self.cache_eviction,
            semantic_threshold=self.semantic_threshold,
            cache_ttl=self.cache_ttl,
        )

    @property
    def scores_quality(self) -> bool:
        """Quality SLOs are *measured* attainment, so targeting one
        switches the harness on."""
        return bool(self.quality_metrics) or self.quality_slo is not None

    @property
    def prices_idle(self) -> bool:
        if self.price_idle_capacity is None:
            return self.autoscaler is not None
        return bool(self.price_idle_capacity)

    def new_autoscaler(self) -> Autoscaler | None:
        """A fresh :class:`~repro.workload.Autoscaler` for one run (it
        accumulates events and holds loop references; the policy
        itself is pure), or ``None`` for a static fleet."""
        if self.autoscaler is None:
            return None
        lo, hi = self.scale_range
        return Autoscaler(
            self.autoscaler,
            scale_min=lo,
            scale_max=hi,
            interval_s=(15.0 if self.autoscale_interval is None
                        else self.autoscale_interval),
            provision_delay_s=(30.0 if self.provision_delay is None
                               else self.provision_delay),
            workload=self.workload,
        )


class ExperimentRunner:
    """Runs one policy over one dataset workload on a fresh engine.

    ``knobs`` are the :class:`RunSpec` fields, validated there; the
    spec is kept as :attr:`spec`. With ``n_replicas > 1`` (or an
    autoscaler) the workload is served by a
    :class:`~repro.serving.cluster.ClusterEngine` and each policy
    decision sees a :class:`ClusterSchedulingView` of the replica its
    query was routed to. Resource waits surface in
    :attr:`RunResult.resource_stats` and the per-query queue-delay
    fields.
    """

    def __init__(
        self,
        bundle: DatasetBundle,
        engine_config: EngineConfig,
        seed: int = 0,
        quality_params: QualityParams | None = None,
        **knobs,
    ) -> None:
        self.spec = spec = RunSpec(**knobs)
        self.bundle = bundle
        self.engine_config = engine_config
        self.seed = seed
        store = bundle.store
        if (spec.retrieval_shards != store.n_shards
                or spec.index != store.index_label):
            store = store.reshard(spec.retrieval_shards,
                                  index_factory=spec.index)
        #: The (possibly resharded) store the queries search.
        self.store = store
        #: Per-shard executor bounds of :attr:`store`.
        self.shard_concurrency = spec.shard_limits
        params = quality_params or bundle.quality_params
        self.generator = SimulatedGenerator(
            quality=QualityModel(params), root_seed=seed
        )
        # One harness per runner: its chunk-token / query-embedding
        # memos are derived-only, so reuse across run() calls is safe
        # and keeps replay-heavy traces cheap. Built against the
        # (possibly resharded) store the queries actually search.
        self.metric_harness = (
            MetricHarness(bundle, embedding=self.store.embedding)
            if spec.scores_quality else None
        )

    # ------------------------------------------------------------------
    def run(self, policy: RAGPolicy, arrivals: list[Arrival],
            closed_loop_clients: int = 1) -> RunResult:
        """Execute the workload; returns per-query records.

        Open-loop arrivals carry explicit times; a workload whose
        arrival times are ``None`` runs closed-loop with
        ``closed_loop_clients`` outstanding queries (1 reproduces
        Fig 19's strictly sequential mode: each query is submitted when
        the previous one completes).
        """
        spec = self.spec
        config = replace(self.engine_config, policy=policy.engine_policy)
        engine: ServingEngine | ClusterEngine
        if spec.n_replicas > 1 or spec.autoscaler is not None:
            # An autoscaled fleet is always a cluster, even when it
            # starts from one replica — elasticity lives there.
            engine = ClusterEngine(
                config,
                n_replicas=spec.n_replicas,
                router=spec.router,
                seed=self.seed,
                replica_speeds=spec.replica_speeds,
            )
        else:
            speed = (spec.replica_speeds[0]
                     if spec.replica_speeds else 1.0)
            engine = ServingEngine(config, speed=speed)
        autoscaler = spec.new_autoscaler()
        cache_config = spec.cache_config
        pipeline = QueryPipeline(
            bundle=self.bundle,
            policy=policy,
            engine=engine,
            generator=self.generator,
            profiler_concurrency=spec.profiler_concurrency,
            store=self.store,
            shard_concurrency=self.shard_concurrency,
            reranker=spec.reranker,
            speculation=spec.speculation_policy,
            slo_seconds=spec.slo_seconds,
            autoscaler=autoscaler,
            cache_config=cache_config,
            metrics=self.metric_harness,
        )
        pipeline.run(arrivals, closed_loop_clients=closed_loop_clients)

        ledger = pipeline.ledger
        ledger.charge_gpu(engine.cluster, engine.stats.busy_seconds)
        if pipeline.speculation_gpu_seconds > 0:
            # Attribution, not an extra charge: the losers' busy time
            # is already inside engine.stats.busy_seconds.
            ledger.charge_speculation(engine.cluster,
                                      pipeline.speculation_gpu_seconds)
        self._charge_feedback(policy, engine, ledger)
        makespan = engine.now
        if isinstance(engine, ClusterEngine):
            replica_stats = [r.stats for r in engine.replicas]
            replica_speeds = list(engine.replica_speeds)
            provisioned = engine.provisioned_seconds(makespan)
        else:
            replica_stats = [engine.stats]
            replica_speeds = [engine.speed]
            provisioned = [makespan]
        idle_seconds = sum(
            max(0.0, provisioned[i] - replica_stats[i].busy_seconds)
            for i in range(len(provisioned))
        )
        if spec.prices_idle:
            ledger.charge_idle_capacity(engine.cluster, idle_seconds)
        return RunResult(
            policy=policy.name,
            dataset=self.bundle.name,
            records=pipeline.records,
            makespan=makespan,
            engine_stats=engine.stats,
            ledger=ledger,
            replica_stats=replica_stats,
            replica_speeds=replica_speeds,
            resource_stats=pipeline.resource_stats(),
            n_retrieval_shards=self.store.n_shards,
            reranker=spec.reranker.name if spec.reranker else None,
            slo_seconds=spec.slo_seconds,
            speculation=(spec.speculation_policy.name
                         if spec.speculation_policy else None),
            autoscaler=spec.autoscaler.name if spec.autoscaler else None,
            scaling_events=list(autoscaler.events) if autoscaler else [],
            provisioned_gpu_seconds=sum(provisioned),
            idle_gpu_seconds=idle_seconds if spec.prices_idle else 0.0,
            result_cache=(cache_config.result_mode
                          if cache_config is not None
                          and cache_config.result_enabled else None),
            retrieval_cache=(cache_config.retrieval
                             if cache_config is not None else False),
            cache_stats=pipeline.cache_stats(),
            quality_metrics=spec.scores_quality,
            quality_slo=(spec.quality_slo.spec
                         if spec.quality_slo is not None else None),
        )

    # ------------------------------------------------------------------
    def _charge_feedback(self, policy: RAGPolicy,
                         engine: ServingEngine | ClusterEngine,
                         ledger: CostLedger) -> None:
        """Charge GPU time for golden-configuration feedback runs."""
        feedback = getattr(policy, "feedback", None)
        if feedback is None:
            return
        for event in feedback.events:
            seconds = engine.cost.request_seconds(
                event.golden_prefill_tokens, event.golden_output_tokens)
            ledger.charge_gpu(engine.cluster, seconds)
