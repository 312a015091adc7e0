"""The benchmark's three workloads, each one cold cell of the simulator.

A cell makes the same public calls as ``python -m repro run``:
``build_dataset`` and ``build_policy`` (set-up), ``run_policy`` (serve),
and the ``repro.evaluation.reports`` tables the CLI prints for the same
flags (report).

Each workload is a fixed fixture -- its dataset and, for the trace
workloads, its trace (per-period counts, burst states, Zipf query mix),
all drawn from ``FIXTURE_SEED`` -- served ``replicates`` times per cell.
The benchmark seed is the run seed: replicate ``j`` of seed ``s`` passes
``s * replicates + j`` to ``build_policy`` and ``run_policy``, which
draw the arrival times (Poisson draws, or offsets within each trace
period) and the simulator's random streams (profiler noise, generated
answers). The fixture stays fixed because a dataset seed changes which
facts the queries ask for (mean F1 moved by up to 40% between dataset
seeds), and a Zipf mix seed changes which entries GDSF keeps resident
($/query moved by up to 35%): deterministic per seed, but too far apart
between seeds to compare medians. Replicates pool the simulated metrics
where one run's answers are too few to average out generation noise.

Why each workload exists (METHODS.md has the layer predictions):

* ``metis-finsec`` -- the paper's headline cell: METIS on finsec with
  Poisson arrivals at the dataset's default rate, one replica, flat
  single-shard retrieval, quality harness on. The profiler, decision
  plane, per-query embedding and quality scoring carry the serve time;
  caching and the cluster paths are off.
* ``zipf-cache`` -- fixed ``stuff/8`` on a Zipf trace over a 30-query
  pool with the exact result cache and the retrieval cache, GDSF
  eviction, capacity below the pool. Cache reads interleave with
  inserts and evictions; hits skip retrieval, synthesis and the LLM, so
  pipeline bookkeeping and the kernel dominate and the decision plane
  is trivial. A cache gain that costs the miss path shows here.
* ``fleet-autoscale`` -- METIS on qmsum with a bursty MMPP trace, a
  reactive autoscaler over 2-4 replicas behind ``least-outstanding``,
  ``hedge-after-delay`` with an SLO, and 4-shard IVF retrieval with the
  exact reranker. The cluster, the kernel's cancel/reschedule churn,
  scatter-gather search and per-replica decisions dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

__all__ = ["FIXTURE_SEED", "Workload", "WORKLOADS", "make_cell"]

FIXTURE_SEED = 0


@dataclass(frozen=True)
class Workload:
    """How one workload builds its fixture and serves it."""

    dataset: str
    n_queries: int
    policy: str
    config: str | None
    #: Independent runs per cell; simulated metrics pool their records.
    replicates: int
    #: ``run_policy`` keyword arguments (the CLI flags of the cell).
    run_kwargs: dict
    #: Fixture trace factory (``None``: Poisson at the default rate).
    trace: Callable[[], object] | None
    #: Report tables beyond the summary: ``(reports function, title)``.
    tables: tuple[tuple[str, str], ...]
    title: str


@dataclass
class Cell:
    """One workload instance: set-up, serve and report callables.

    ``setup()`` builds the dataset, trace and policies; ``serve(state)``
    returns one ``RunResult`` per replicate; ``report(results)`` renders
    the tables ``repro run`` prints for the same flags.
    """

    seeds: tuple[int, ...]
    setup: Callable[[], object]
    serve: Callable[[object], list]
    report: Callable[[list], str]


def _zipf_trace():
    from repro.workload import zipfian_workload

    # 180 x 30 s at 0.5 qps: ~2,700 arrivals over the 30-query pool. At
    # this rate most hits find the engine idle, so the median delay is a
    # hit's and the p99 a miss's, on every seed.
    return zipfian_workload(seed=FIXTURE_SEED, pool_size=30, n_periods=180,
                            period_s=30.0, rate_qps=0.5, zipf_s=1.1)


def _fleet_trace():
    from repro.workload import bursty_workload

    # Calm 0.3 qps / burst 1.2 qps over 10 s periods; the trace is the
    # chain's shortest prefix holding 1,000 arrivals, so the p99 has 10
    # samples beyond it. 2.0 qps bursts grow queues past a minute.
    trace = bursty_workload(seed=FIXTURE_SEED, n_periods=1000, period_s=10.0,
                            base_qps=0.3, burst_qps=1.2)
    total = 0
    for i, period in enumerate(trace.periods):
        total += period.n_arrivals
        if total >= 1000:
            return replace(trace, periods=trace.periods[:i + 1])
    raise ValueError(f"bursty trace holds only {total} arrivals")


WORKLOADS: dict[str, Workload] = {
    # 1000 distinct queries: 10 samples beyond the p99.
    "metis-finsec": Workload(
        dataset="finsec", n_queries=1000, policy="metis", config=None,
        replicates=1, run_kwargs=dict(quality_metrics=True), trace=None,
        tables=(("quality_rows", "Quality metrics"),),
        title="metis on finsec [quality metrics]"),
    "zipf-cache": Workload(
        dataset="finsec", n_queries=30, policy="vllm", config="stuff/8",
        replicates=4,
        run_kwargs=dict(result_cache="exact", retrieval_cache=True,
                        cache_capacity=8, cache_eviction="gdsf"),
        trace=_zipf_trace, tables=(("cache_rows", "Cache tiers"),),
        title="vllm on finsec [zipf workload] [exact result+retrieval "
              "cache]"),
    "fleet-autoscale": Workload(
        dataset="qmsum", n_queries=200, policy="metis", config=None,
        replicates=1,
        run_kwargs=dict(n_replicas=2, router="least-outstanding",
                        autoscaler="reactive", scale_min=2, scale_max=4,
                        slo_seconds=6.0, speculation="hedge-after-delay",
                        retrieval_shards=4, index="ivf", reranker="exact"),
        trace=_fleet_trace,
        tables=(("per_replica_rows", "Per-replica serving stats"),
                ("autoscale_summary", "Elastic capacity"),
                ("speculation_rows", "Speculative scheduling"),
                ("resource_rows", "Pipeline resource contention")),
        title="metis on qmsum (2 replicas, least-outstanding router) "
              "[4-shard retrieval] [+exact reranker] [hedge-after-delay "
              "speculation] [bursty workload] [reactive autoscaler]"),
}


def make_cell(name: str, seed: int) -> Cell:
    """The cell of workload ``name`` under benchmark seed ``seed``."""
    from repro import cli
    from repro.data import build_dataset
    from repro.evaluation import reports
    from repro.experiments.common import run_policy

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    w = WORKLOADS[name]
    seeds = tuple(seed * w.replicates + j for j in range(w.replicates))

    def setup():
        bundle = build_dataset(w.dataset, seed=FIXTURE_SEED,
                               n_queries=w.n_queries)
        trace = w.trace() if w.trace is not None else None
        policies = [cli.build_policy(w.policy, bundle, w.config, s)
                    for s in seeds]
        return bundle, trace, policies

    def serve(state):
        bundle, trace, policies = state
        extra = dict(workload=trace) if trace is not None else {}
        return [run_policy(bundle, policy, seed=s, **extra, **w.run_kwargs)
                for s, policy in zip(seeds, policies)]

    def report(results):
        parts = []
        for result in results:
            rows = [dict(metric=k, value=v)
                    for k, v in result.summary().items()]
            parts.append(reports.format_table(rows, title=w.title))
            for fn, title in w.tables:
                table = getattr(reports, fn)(result)
                table = table if isinstance(table, list) else [table]
                parts.append(reports.format_table(table, title=title))
        return "\n\n".join(parts)

    return Cell(seeds, setup, serve, report)
