"""Shared experiment infrastructure: calibrated defaults and helpers.

Calibration note (recorded per DESIGN.md §6): the simulator's absolute
serving capacity differs from the paper's physical A40 testbed, so
arrival rates are chosen per dataset to land each system in the same
*operating regime* the paper reports — quality-maximising baselines
near saturation (utilisation ≈ 0.95–1.0), METIS comfortable
(≈ 0.3–0.9). Ratios and crossovers, not absolute seconds, are the
reproduction targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.baselines import (
    AdaptiveRAGPolicy,
    FixedConfigPolicy,
    MedianConfigPolicy,
    ParrotPolicy,
)
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.core import MetisConfig, MetisPolicy
from repro.core.profiler import GPT4O_PROFILER, ProfilerModelSpec
from repro.data import (
    DatasetBundle,
    build_dataset,
    poisson_arrivals,
    sequential_arrivals,
)
from repro.evaluation.reports import format_table
from repro.evaluation.runner import ExperimentRunner, RunResult
from repro.llm import A40, ClusterSpec, LLAMA3_70B_AWQ, MISTRAL_7B_AWQ, ModelSpec
from repro.llm.quality import QualityParams
from repro.llm.tokenizer import SimTokenizer
from repro.serving.engine import EngineConfig
from repro.util.units import GB

__all__ = [
    "DEFAULT_RATES",
    "DEFAULT_N_QUERIES",
    "FAST_N_QUERIES",
    "ExperimentReport",
    "default_engine_config",
    "engine_config_70b",
    "fixed_config_grid",
    "make_adaptive_rag",
    "make_median",
    "make_metis",
    "metadata_tokens",
    "quality_with_model_bonus",
    "run_policy",
    "select_best_quality",
    "select_closest_quality",
]

#: Per-dataset Poisson arrival rates (queries/second); see module note.
DEFAULT_RATES: dict[str, float] = {
    "squad": 2.0,
    "musique": 1.8,
    "finsec": 1.4,
    "qmsum": 1.0,
}

DEFAULT_N_QUERIES = 150
FAST_N_QUERIES = 40

_TOKENIZER = SimTokenizer()


@dataclass
class ExperimentReport:
    """Uniform result object every experiment driver returns."""

    name: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **fields) -> None:
        self.rows.append(fields)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def format(self) -> str:
        parts = [f"===== {self.name} ====="]
        if self.rows:
            parts.append(format_table(self.rows))
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)


# ----------------------------------------------------------------------
# Engine / policy construction
# ----------------------------------------------------------------------
def default_engine_config(model: ModelSpec = MISTRAL_7B_AWQ,
                          n_gpus: int = 1) -> EngineConfig:
    """The experiments' serving deployment: Mistral-7B AWQ on one A40,
    KV pool capped at 8 GiB (multi-tenant headroom; DESIGN.md §6)."""
    return EngineConfig(
        model=model,
        cluster=ClusterSpec(A40, n_gpus=n_gpus),
        kv_pool_cap_bytes=8 * GB,
    )


def engine_config_70b() -> EngineConfig:
    """Llama-3.1-70B AWQ on 2× A40 (paper §7.4); pool scales with HBM."""
    return EngineConfig(
        model=LLAMA3_70B_AWQ,
        cluster=ClusterSpec(A40, n_gpus=2),
        kv_pool_cap_bytes=20 * GB,
    )


def metadata_tokens(bundle: DatasetBundle) -> int:
    return _TOKENIZER.count(bundle.metadata)


def make_metis(bundle: DatasetBundle, config: MetisConfig | None = None,
               seed: int = 0, name: str = "metis",
               quality_slo: str | None = None) -> MetisPolicy:
    """``quality_slo`` ("metric>=value") makes the joint scheduler pick
    the cheapest in-range fitting configuration instead of the richest
    (docs/EVALUATION.md); it composes with an explicit ``config``."""
    if quality_slo is not None:
        config = replace(config or MetisConfig(), quality_slo=quality_slo)
    return MetisPolicy(
        metadata_tokens=metadata_tokens(bundle),
        chunk_tokens=bundle.chunk_tokens,
        config=config,
        seed=seed,
        name=name,
    )


def make_adaptive_rag(bundle: DatasetBundle,
                      profiler_spec: ProfilerModelSpec = GPT4O_PROFILER,
                      seed: int = 0) -> AdaptiveRAGPolicy:
    return AdaptiveRAGPolicy(
        metadata_tokens=metadata_tokens(bundle),
        profiler_spec=profiler_spec,
        seed=seed,
    )


def make_median(bundle: DatasetBundle, app_aware: bool = False,
                seed: int = 0) -> MedianConfigPolicy:
    return MedianConfigPolicy(
        metadata_tokens=metadata_tokens(bundle),
        chunk_tokens=bundle.chunk_tokens,
        app_aware_batching=app_aware,
        seed=seed,
    )


def fixed_config_grid(dataset: str) -> list[RAGConfig]:
    """Representative static-configuration grid a deployer would try.

    Kept intentionally small (the full grid is the point of §3's
    combinatorial-explosion argument); spans cheap→expensive for every
    synthesis method.
    """
    ilens = (75, 150) if dataset in ("finsec", "qmsum") else (50, 100)
    grid: list[RAGConfig] = [
        RAGConfig(SynthesisMethod.MAP_RERANK, 3),
        RAGConfig(SynthesisMethod.MAP_RERANK, 8),
        RAGConfig(SynthesisMethod.STUFF, 5),
        RAGConfig(SynthesisMethod.STUFF, 8),
        RAGConfig(SynthesisMethod.STUFF, 12),
        RAGConfig(SynthesisMethod.STUFF, 20),
        RAGConfig(SynthesisMethod.MAP_REDUCE, 8, ilens[0]),
        RAGConfig(SynthesisMethod.MAP_REDUCE, 8, ilens[1]),
        RAGConfig(SynthesisMethod.MAP_REDUCE, 12, ilens[1]),
        RAGConfig(SynthesisMethod.MAP_REDUCE, 18, ilens[1]),
    ]
    return grid


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_policy(
    bundle: DatasetBundle,
    policy,
    rate_qps: float | None = None,
    n_queries: int | None = None,
    seed: int = 0,
    engine_config: EngineConfig | None = None,
    quality_params: QualityParams | None = None,
    sequential: bool = False,
    closed_loop_clients: int = 1,
    workload=None,
    **knobs,
) -> RunResult:
    """Run one policy over the bundle's standard workload.

    The arguments here shape the arrivals; ``knobs`` are the
    :class:`~repro.evaluation.runner.RunSpec` fields (fleet, retrieval,
    speculation, scaling, cache and quality), passed through unchanged.
    ``closed_loop_clients`` sets how many queries a ``sequential``
    workload keeps outstanding.

    ``workload`` replaces the one-shot Poisson arrivals with a
    trace-driven :class:`~repro.workload.Workload` (a generator name,
    a trace-file path, or an instance — see
    :func:`repro.workload.make_workload`); the bundle's queries cycle
    through the trace's arrival slots, and the resolved trace is
    handed on to the spec for the forecast autoscalers.
    """
    queries = bundle.queries if n_queries is None else bundle.queries[:n_queries]
    wl = None
    if workload is not None:
        if sequential:
            raise ValueError(
                "workload traces are open-loop (timed arrivals); drop "
                "sequential=True (--sequential) or the workload"
            )
        if rate_qps is not None:
            raise ValueError(
                "rate_qps sets the one-shot Poisson rate; a workload "
                "trace carries its own per-period rates — pass one or "
                "the other"
            )
        from repro.workload import make_workload

        wl = make_workload(workload, seed=seed)
        arrivals = wl.materialize(queries, seed=seed)
    elif sequential:
        arrivals = sequential_arrivals(queries)
    else:
        rate = rate_qps if rate_qps is not None else DEFAULT_RATES[bundle.name]
        arrivals = poisson_arrivals(queries, rate, seed=seed)
    runner = ExperimentRunner(
        bundle,
        engine_config or default_engine_config(),
        seed=seed,
        quality_params=quality_params,
        workload=wl,
        **knobs,
    )
    return runner.run(policy, arrivals, closed_loop_clients=closed_loop_clients)


def run_fixed_grid(
    bundle: DatasetBundle,
    parrot: bool = False,
    rate_qps: float | None = None,
    n_queries: int | None = None,
    seed: int = 0,
    engine_config: EngineConfig | None = None,
) -> list[RunResult]:
    """Run every grid config as a fixed-configuration baseline."""
    results = []
    for config in fixed_config_grid(bundle.name):
        policy = (ParrotPolicy if parrot else FixedConfigPolicy)(config)
        results.append(
            run_policy(bundle, policy, rate_qps=rate_qps,
                       n_queries=n_queries, seed=seed,
                       engine_config=engine_config)
        )
    return results


# ----------------------------------------------------------------------
# Baseline selection rules (paper §7.1)
# ----------------------------------------------------------------------
def is_diverging(result: RunResult) -> bool:
    """Heuristic: the offered load exceeded capacity for this run.

    Two signatures, either of which flags divergence:

    * the drain time dwarfs the arrival window (the engine needed far
      longer than the workload's duration to clear the backlog), or
    * per-query delay grew 2×+ from the first to the second half of
      arrivals (queue still building when the run ended).

    A deployer would not operate a fixed configuration in this regime,
    so baseline-selection rules skip such runs when a stable
    alternative exists.
    """
    ordered = sorted(result.records, key=lambda r: r.arrival_time)
    if len(ordered) < 8:
        return False
    last_arrival = ordered[-1].arrival_time
    if result.makespan > 1.5 * last_arrival + 10.0:
        return True
    half = len(ordered) // 2
    first = sum(r.e2e_delay for r in ordered[:half]) / half
    second = sum(r.e2e_delay for r in ordered[half:]) / (len(ordered) - half)
    return second > 2.0 * first + 1.0


def select_best_quality(results: list[RunResult]) -> RunResult:
    """The fixed config with the highest mean F1 (Fig 12's blue bar),
    preferring configurations the deployer could actually operate
    (non-diverging)."""
    stable = [r for r in results if not is_diverging(r)]
    pool = stable or results
    return max(pool, key=lambda r: r.mean_f1)


def select_closest_quality(results: list[RunResult],
                           target_f1: float) -> RunResult:
    """The fixed config of quality closest to (but not above) the
    target, as the paper selects for throughput comparisons; falls back
    to absolute-closest when all exceed the target."""
    below = [r for r in results if r.mean_f1 <= target_f1]
    pool = below or results
    return min(pool, key=lambda r: abs(r.mean_f1 - target_f1))


def select_similar_delay(results: list[RunResult],
                         target_delay: float) -> RunResult:
    """The fixed config whose mean delay is closest to the target
    (for the paper's "12–18% higher F1 at similar delay" claim)."""
    return min(results, key=lambda r: abs(r.mean_delay - target_delay))


# ----------------------------------------------------------------------
def quality_with_model_bonus(bundle: DatasetBundle,
                             bonus: float) -> QualityParams:
    """Quality parameters for a larger serving model.

    The paper observes only ~2% F1 improvement from a 10× larger
    model (§7.4) — in RAG the knowledge comes from context, not
    weights — so the bonus nudges ``token_match_rate`` only.
    """
    params = bundle.quality_params
    return replace(
        params,
        token_match_rate=min(0.98, params.token_match_rate + bonus),
    )


def load_bundle(dataset: str, fast: bool, seed: int = 0) -> DatasetBundle:
    """Dataset with the standard (or fast) query count."""
    n = FAST_N_QUERIES if fast else DEFAULT_N_QUERIES
    return build_dataset(dataset, seed=seed, n_queries=n)
