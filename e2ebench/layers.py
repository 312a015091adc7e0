"""Per-layer metrics of a traced cell, named ``<package>.<metric>``.

Every ``*_s`` metric is host self time in seconds, summed over the
whole cell (set-up, serve and report): the spans' durations minus their
children's, so the layers and the ``trace.*_unattributed_s`` remainders
add up to the traced phase times. Counts are calls of the wrapped entry
point; ``sim_*`` metrics are simulated seconds read from the records.
"""

from __future__ import annotations

__all__ = ["PER_LAYER", "layer_metrics"]

#: Self-time metrics: metric -> span names (see ``tracer.TARGETS``).
SELF_TIME = {
    "data.build_s": ("data.generate_dataset", "data.make_filler_sentence"),
    "llm.tokenize_s": ("llm.tokenize",),
    "retrieval.embed_s": ("retrieval.embed", "retrieval.embed_batch",
                          "retrieval.idf_fit"),
    "retrieval.index_build_s": ("retrieval.add_chunks",
                                "retrieval.reshard"),
    "retrieval.search_s": ("retrieval.search_shard", "retrieval.gather"),
    "retrieval.rerank_s": ("retrieval.rerank",),
    "core.profile_s": ("core.prepare",),
    "core.decide_s": ("core.choose",),
    "caching.lookup_s": ("caching.lookup",),
    "caching.insert_s": ("caching.insert",),
    "synthesis.build_plan_s": ("synthesis.build_plan",),
    "serving.step_s": ("serving.engine_step", "serving.cluster_step",
                       "serving.step_and_frontier"),
    "serving.submit_s": ("serving.submit", "serving.cancel"),
    "sim.kernel_self_s": ("sim.loop_run",),
    "llm.generate_s": ("llm.generate",),
    "evaluation.pipeline_s": ("evaluation.stage_enter",
                              "evaluation.submit_stage",
                              "evaluation.finalize",
                              "evaluation.finalize_cache_hit"),
    "evaluation.metrics_s": ("evaluation.metric_score",),
    "evaluation.report_s": ("evaluation.report",),
    "workload.materialize_s": ("workload.materialize",),
    "workload.autoscale_s": ("workload.autoscale_signals",),
}

#: Call-count metrics: metric -> span name.
CALLS = {
    "data.filler_sentences": "data.make_filler_sentence",
    "llm.tokenize_calls": "llm.tokenize",
    "retrieval.embed_calls": "retrieval.embed",
    "retrieval.search_calls": "retrieval.search_shard",
    "core.decisions": "core.choose",
    "synthesis.plans": "synthesis.build_plan",
    "serving.steps": "serving.engine_step",
    "serving.requests": "serving.submit",
    "serving.cancelled": "serving.cancel",
    "llm.generate_calls": "llm.generate",
    "evaluation.metrics_calls": "evaluation.metric_score",
    "workload.autoscale_ticks": "workload.autoscale_signals",
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("data.build_s", "s"), ("data.filler_sentences", "count"),
    ("llm.tokenize_s", "s"), ("llm.tokenize_calls", "count"),
    ("retrieval.embed_s", "s"), ("retrieval.embed_calls", "count"),
    ("retrieval.index_build_s", "s"),
    ("retrieval.search_s", "s"), ("retrieval.search_calls", "count"),
    ("retrieval.rerank_s", "s"),
    ("retrieval.sim_queue_wait_mean_s", "sim_s"),
    ("core.profile_s", "s"), ("core.decide_s", "s"),
    ("core.decisions", "count"), ("core.fallback_frac", "ratio"),
    ("caching.lookup_s", "s"), ("caching.lookups", "count"),
    ("caching.hit_frac", "ratio"), ("caching.insert_s", "s"),
    ("caching.inserts", "count"), ("caching.evictions", "count"),
    ("synthesis.build_plan_s", "s"), ("synthesis.plans", "count"),
    ("serving.step_s", "s"), ("serving.steps", "count"),
    ("serving.submit_s", "s"), ("serving.requests", "count"),
    ("serving.cancelled", "count"), ("serving.wasted_frac", "ratio"),
    ("serving.sim_queue_wait_mean_s", "sim_s"),
    ("sim.kernel_self_s", "s"), ("sim.events", "count"),
    ("sim.host_us_per_event", "us"),
    ("llm.generate_s", "s"), ("llm.generate_calls", "count"),
    ("evaluation.pipeline_s", "s"), ("evaluation.metrics_s", "s"),
    ("evaluation.metrics_calls", "count"), ("evaluation.report_s", "s"),
    ("workload.materialize_s", "s"), ("workload.autoscale_s", "s"),
    ("workload.autoscale_ticks", "count"),
    ("workload.scaling_actions", "count"),
    ("trace.setup_s", "s"), ("trace.setup_unattributed_s", "s"),
    ("trace.serve_s", "s"), ("trace.serve_unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, phases: dict[str, int], results, loops) -> dict:
    """Per-layer values of one traced cell, over all its runs
    (``trace.overhead_frac`` is filled in by ``run.py``, which also
    holds the untraced serve time).

    ``phases`` maps ``setup``/``serve`` to their root span indices;
    ``loops`` holds each run's drained event loop.
    """
    totals = tracer.totals()
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(totals.get(n, (0.0, 0))[0] for n in names)
    for metric, name in CALLS.items():
        out[metric] = totals.get(name, (0.0, 0))[1]

    records = [r for result in results for r in result.records]
    out["retrieval.sim_queue_wait_mean_s"] = _mean(
        [r.retrieval_queue_delay for r in records])
    out["core.fallback_frac"] = _mean([r.fell_back for r in records])
    tiers = [s for result in results for s in result.cache_stats.values()]
    lookups = sum(s.lookups for s in tiers)
    out["caching.lookups"] = lookups
    out["caching.hit_frac"] = (sum(s.hits for s in tiers) / lookups
                               if lookups else 0.0)
    out["caching.inserts"] = sum(s.inserts for s in tiers)
    out["caching.evictions"] = sum(s.evictions for s in tiers)
    tokens = sum(res.engine_stats.prefill_tokens
                 + res.engine_stats.decode_tokens for res in results)
    wasted = sum(r.wasted_prefill_tokens + r.wasted_decode_tokens
                 for r in records)
    out["serving.wasted_frac"] = wasted / tokens if tokens else 0.0
    out["serving.sim_queue_wait_mean_s"] = _mean(
        [r.queueing_delay for r in records])
    events = sum(loop.n_dispatched for loop in loops)
    out["sim.events"] = events
    out["sim.host_us_per_event"] = (
        out["sim.kernel_self_s"] * 1e6 / events if events else 0.0)
    out["workload.scaling_actions"] = sum(len(res.scaling_events)
                                          for res in results)

    selfs = tracer.self_times()
    for phase in ("setup", "serve"):
        idx = phases[phase]
        out[f"trace.{phase}_s"] = tracer.duration(idx)
        out[f"trace.{phase}_unattributed_s"] = selfs[idx]
    return out
