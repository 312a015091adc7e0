"""One cold cell: imports, set-up, serve and report in this interpreter.

Run by ``run.py`` in a fresh interpreter per repetition; prints the
report tables ``repro run`` would print, then one JSON line with the
cell's timings, simulated metrics, check outcome and record fingerprint.

    PYTHONPATH=src python3 e2ebench/cell.py --workload zipf-cache --seed 0

A cell samples the machine's speed throughout (``speed.py``) and
reports each phase's host time and its time at the reference speed.
``--trace 1`` also wraps the simulator's public calls (``tracer.py``),
adds the per-layer metrics (``layers.py``) and writes the spans to
``--spans`` once the cell ends; span times exclude the probe's.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import SpeedProbe, normalize  # noqa: E402
from workloads import WORKLOADS, make_cell  # noqa: E402


class Capture:
    """Keeps the pipeline and arrivals of every run of the cell.

    Wraps ``QueryPipeline.run`` (called once per run) in both modes: the
    checks need the arrivals and the drained event loop, which the
    ``RunResult`` does not expose.
    """

    def __init__(self) -> None:
        from repro.evaluation.pipeline import QueryPipeline

        self.runs: list[tuple[object, list]] = []
        original = QueryPipeline.run
        self._cls, self._original = QueryPipeline, original
        runs = self.runs

        def run(pipeline, arrivals, *args, **kwargs):
            runs.append((pipeline, list(arrivals)))
            return original(pipeline, arrivals, *args, **kwargs)

        QueryPipeline.run = run

    def remove(self) -> None:
        self._cls.run = self._original


def sim_metrics(results) -> dict:
    """The deterministic simulated metrics, pooled over the runs."""
    from stats import percentile

    records = [r for result in results for r in result.records]
    delays = [r.e2e_delay for r in records]
    p50, _ = percentile(delays, 50)
    p99, beyond = percentile(delays, 99)
    return dict(
        sim_delay_p50_s=p50,
        sim_delay_p99_s=p99,
        p99_samples_beyond=beyond,
        sim_f1=sum(r.f1 for r in records) / len(records),
        sim_dollars_per_query=(sum(res.ledger.total_dollars
                                   for res in results) / len(records)),
    )


def run_cell(workload: str, seed: int, trace: bool, probe: SpeedProbe,
             spans_path: str | None) -> dict:
    """Run one cell while ``probe`` samples the machine's speed."""
    from checks import check_cell, record_fingerprint

    import repro.experiments.common  # noqa: F401  (the run's imports)

    import_s = time.perf_counter() - T_START
    capture = Capture()
    tracer = inst = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer(clock=lambda: time.perf_counter() - probe.spent)
        inst = install(tracer)
    phases: dict[str, int] = {}
    times: dict[str, float] = {}

    def phase(name, fn, *args):
        idx = None if tracer is None else tracer.begin(f"phase.{name}")
        mark = probe.mark()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(idx)
                phases[name] = idx
            samples, spent = probe.since(mark)
            times[name + "_host"] = wall - spent
            times[name] = normalize(wall - spent, SpeedProbe.mean(samples))

    try:
        cell = make_cell(workload, seed)
        state = phase("setup", cell.setup)
        results = phase("serve", cell.serve, state)
        text = phase("report", cell.report, results)
    finally:
        if inst is not None:
            inst.remove()
        capture.remove()
    print(text)

    if len(capture.runs) != len(results):
        raise RuntimeError(f"{len(results)} runs but "
                           f"{len(capture.runs)} pipelines")
    loops = [pipeline.loop for pipeline, _ in capture.runs]
    reports = [check_cell(result, arrivals, loop)
               for result, (_, arrivals), loop
               in zip(results, capture.runs, loops)]
    if workload == "fleet-autoscale":
        from repro.experiments.common import is_diverging

        for result, report in zip(results, reports):
            if is_diverging(result):
                report.errors.append("fleet-autoscale load diverges")
    out = dict(
        workload=workload, seed=seed, run_seeds=list(cell.seeds),
        traced=tracer is not None, import_s=import_s,
        setup_s=times["setup"], serve_s=times["serve"],
        setup_host_s=times["setup_host"], serve_host_s=times["serve_host"],
        report_s=times["report_host"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        records=sum(len(result.records) for result in results),
        attempted=sum(r.attempted for r in reports),
        failed=sum(r.failed for r in reports),
        errors=[e for r in reports for e in r.errors],
        fingerprint=record_fingerprint(
            [rec for result in results for rec in result.records]),
        sim=sim_metrics(results),
    )
    if tracer is not None:
        from layers import layer_metrics

        for name, idx in phases.items():
            covered = sum(v[0] for v in tracer.totals(root=idx).values())
            if abs(covered - tracer.duration(idx)) > 1e-6:
                raise RuntimeError(f"phase {name}: self times sum to "
                                   f"{covered}, span is "
                                   f"{tracer.duration(idx)}")
        if inst.n_wrapped:
            raise RuntimeError("wrappers left installed after the run")
        out["layers"] = layer_metrics(tracer, phases, results, loops)
        out["spans"] = len(tracer)
        if spans_path:
            tracer.write(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where a traced cell writes its spans")
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    probe.start()
    try:
        out = run_cell(args.workload, args.seed, bool(args.trace), probe,
                       args.spans)
    finally:
        probe.stop()
    out.update(probe_spent_s=probe.spent, probe_samples=len(probe.samples),
               probe_mean_s=SpeedProbe.mean(probe.samples))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
