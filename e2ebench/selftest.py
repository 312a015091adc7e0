"""Self-tests of the benchmark harness (not of the simulator).

    python3 e2ebench/selftest.py

Covers span self times, the percentile guard, the output checks on a
deliberately corrupted ``RunResult``, wrapper removal, and agreement of
``BENCHMARK.json`` with the metric tables in code.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from checks import check_cell, record_fingerprint  # noqa: E402
from speed import REF_SAMPLE_S, SpeedProbe, normalize  # noqa: E402
from stats import percentile, samples_beyond  # noqa: E402
from tracer import TARGETS, Tracer, install  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


class SpanSelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,9].
        tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
        a = tracer.begin("A")
        b = tracer.begin("B")
        c = tracer.begin("C")
        tracer.finish(c)
        tracer.finish(b)
        d = tracer.begin("D", query_id="q7")
        tracer.finish(d)
        tracer.finish(a)
        self.assertEqual(tracer.self_times(), [3, 2, 1, 4])
        self.assertEqual(tracer.parent, [-1, 0, 1, 0])
        self.assertEqual(tracer.query_id, [None, None, None, "q7"])
        totals = tracer.totals(root=a)
        self.assertEqual(sum(v[0] for v in totals.values()),
                         tracer.duration(a))

    def test_wrapper_folds_same_name_and_reads_query_id(self):
        tracer = Tracer(clock=fake_clock(range(100)))

        def inner(query):
            return query.query_id

        def outer(query):
            return traced_inner(query)

        traced_inner = tracer.wrap(inner, "layer.call", query_pos=0)
        traced_outer = tracer.wrap(outer, "layer.call", query_pos=0)
        q = SimpleNamespace(query_id="q1")
        self.assertEqual(traced_outer(q), "q1")
        self.assertEqual(len(tracer), 1)
        self.assertEqual(tracer.query_id, ["q1"])
        self.assertEqual(tracer.totals()["layer.call"][1], 1)

    def test_misnested_finish_raises(self):
        tracer = Tracer(clock=fake_clock(range(10)))
        a = tracer.begin("A")
        tracer.begin("B")
        with self.assertRaises(RuntimeError):
            tracer.finish(a)


class Percentiles(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        # p99 of n samples sits at index 0.99 * (n - 1): 901 samples
        # leave 9 above it, 902 leave 10.
        with self.assertRaises(ValueError):
            percentile(list(range(901)), 99)
        value, beyond = percentile(list(range(902)), 99)
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(value, 891.99)
        self.assertEqual(sum(1 for v in range(902) if v > value), beyond)

    def test_median_of_small_sample(self):
        self.assertEqual(samples_beyond(21, 50), 10)
        self.assertEqual(percentile(list(range(21)), 50), (10.0, 10))


class Probe(unittest.TestCase):
    def test_samples_while_started_and_restores_handler(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        probe = SpeedProbe()
        probe.start()
        try:
            mark = probe.mark()
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                sum(range(1000))
            samples, spent = probe.since(mark)
        finally:
            probe.stop()
        self.assertGreaterEqual(len(samples), 3)
        self.assertGreater(spent, sum(samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        n = len(probe.samples)
        time.sleep(0.12)
        self.assertEqual(len(probe.samples), n)

    def test_normalize(self):
        self.assertEqual(normalize(3.0, None), 3.0)
        self.assertAlmostEqual(normalize(3.0, 2 * REF_SAMPLE_S), 1.5)


class DrainedLoop(SimpleNamespace):
    """Kernel counters of an empty event loop."""

    def __len__(self) -> int:
        return 0


_RUN = {}


def small_run():
    """A 20-query run with both cache tiers on, and what it was given."""
    if not _RUN:
        from cell import Capture
        from repro.baselines import FixedConfigPolicy
        from repro.config.knobs import RAGConfig, SynthesisMethod
        from repro.data import build_dataset
        from repro.experiments.common import run_policy

        bundle = build_dataset("finsec", seed=0, n_queries=20)
        capture = Capture()
        try:
            result = run_policy(
                bundle, FixedConfigPolicy(RAGConfig(SynthesisMethod.STUFF, 4)),
                seed=0, result_cache="exact", retrieval_cache=True,
                cache_capacity=4, quality_metrics=True)
        finally:
            capture.remove()
        (pipeline, arrivals), = capture.runs
        _RUN.update(result=result, arrivals=arrivals, loop=pipeline.loop)
    return _RUN["result"], _RUN["arrivals"], _RUN["loop"]


class OutputChecks(unittest.TestCase):
    def test_clean_run_passes(self):
        result, arrivals, loop = small_run()
        report = check_cell(result, arrivals, loop)
        self.assertEqual(report.errors, [])
        self.assertEqual(report.failed, 0)
        self.assertEqual(report.attempted, 20)

    def test_dropped_record_fails(self):
        result, arrivals, loop = small_run()
        broken = dataclasses.replace(result, records=result.records[:-1])
        report = check_cell(broken, arrivals, loop)
        self.assertEqual(report.failed_arrivals, 1)
        self.assertFalse(report.ok)
        self.assertEqual(report.failed, report.attempted)

    def test_ledger_mismatch_fails(self):
        result, arrivals, loop = small_run()
        led = result.ledger
        bad = SimpleNamespace(api_dollars=led.api_dollars,
                              gpu_dollars=led.gpu_dollars,
                              idle_dollars=led.idle_dollars,
                              total_dollars=led.total_dollars * 1.01)
        report = check_cell(dataclasses.replace(result, ledger=bad),
                            arrivals, loop)
        self.assertTrue(any("ledger" in e for e in report.errors))

    def test_kernel_leak_fails(self):
        result, arrivals, loop = small_run()
        leaky = DrainedLoop(n_scheduled=loop.n_scheduled + 1,
                            n_dispatched=loop.n_dispatched,
                            n_cancelled=loop.n_cancelled)
        report = check_cell(result, arrivals, leaky)
        self.assertTrue(any("kernel" in e for e in report.errors))

    def test_cache_hits_beyond_lookups_fail(self):
        result, arrivals, loop = small_run()
        stats = {k: dataclasses.replace(v, hits=v.lookups + 1)
                 for k, v in result.cache_stats.items()}
        report = check_cell(dataclasses.replace(result, cache_stats=stats),
                            arrivals, loop)
        self.assertTrue(any("lookups" in e for e in report.errors))

    def test_quality_out_of_range_fails(self):
        result, arrivals, loop = small_run()
        records = list(result.records)
        records[0] = dataclasses.replace(records[0], faithfulness=1.5)
        report = check_cell(dataclasses.replace(result, records=records),
                            arrivals, loop)
        self.assertTrue(any("faithfulness" in e for e in report.errors))

    def test_fingerprint_sees_one_ulp(self):
        result, _, _ = small_run()
        records = list(result.records)
        base = record_fingerprint(records)
        self.assertEqual(base, record_fingerprint(list(records)))
        records[0] = dataclasses.replace(
            records[0], f1=math.nextafter(records[0].f1, 2.0))
        self.assertNotEqual(base, record_fingerprint(records))


class Instrumentation(unittest.TestCase):
    def test_remove_restores_every_target(self):
        import importlib

        from repro.evaluation import reports
        from tracer import _subclasses

        def snapshot():
            """Every attribute a wrapper may replace, by identity."""
            out = {}
            for module, path, _ in TARGETS:
                mod = importlib.import_module(module)
                if "." not in path:
                    out[(module, path)] = getattr(mod, path)
                    continue
                cls_name, method = path.split(".")
                for sub in _subclasses(getattr(mod, cls_name)):
                    out[(sub.__qualname__, method)] = sub.__dict__.get(method)
            for attr in reports.__all__:
                out[("reports", attr)] = getattr(reports, attr)
            return out

        before = snapshot()
        inst = install(Tracer())
        during = snapshot()
        self.assertGreater(inst.n_wrapped, len(TARGETS))
        self.assertTrue(any(during[k] is not before[k] for k in before))
        inst.remove()
        self.assertEqual(inst.n_wrapped, 0)
        after = snapshot()
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)


class BenchmarkFile(unittest.TestCase):
    def test_metric_tables_match(self):
        from layers import PER_LAYER
        from run import END_TO_END
        from workloads import WORKLOADS

        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"])
                          for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"])
                          for m in spec["per_layer"]], list(PER_LAYER))


if __name__ == "__main__":
    unittest.main()
