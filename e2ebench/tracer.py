"""Outside-in span tracer: wraps the simulator's public calls from here.

Nothing under ``src/`` is edited. :func:`install` replaces each target
(a module function or a class method, see ``TARGETS``) with a wrapper
that records one span per call, and :func:`Instrumentation.remove`
puts every original back. Spans stay in memory as parallel lists and
are written out once, after the run (:meth:`Tracer.write`).

A span has a name, a start, an end, the index of its parent span (the
span open when it began; -1 for a root) and the query id when the
wrapped call takes a ``Query``. A call nested directly inside a span of
the same name (``super()`` calls, a cluster delegating to a replica) is
folded into the outer span, so a count is one per logical call.

A span's self time is its duration minus the durations of its direct
children. The benchmark opens one root span per phase (``phase.setup``,
``phase.serve``, ``phase.report``); the self time of a phase span is the
part of that phase no wrapped call covers, reported as
``unattributed``. Self times of a phase's subtree sum to its duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

__all__ = ["TARGETS", "Instrumentation", "Tracer", "install"]


class Tracer:
    """In-memory span store with a pluggable clock (tests pass a fake)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: Parallel per-span columns.
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.query_id: list[str | None] = []
        #: Indices of the spans open right now, innermost last.
        self.stack: list[int] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.span_name)

    # -- recording -------------------------------------------------------
    def begin(self, name: str, query_id: str | None = None) -> int:
        idx = len(self.span_name)
        self.span_name.append(self.intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query_id.append(query_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError("spans must close innermost first")

    def wrap(self, fn, name: str, query_pos: int | None = None):
        """``fn`` recording one span named ``name`` per call.

        ``query_pos`` is the positional index of a ``Query`` argument
        whose ``query_id`` the span carries.
        """
        nid = self.intern(name)
        stack, names, parents = self.stack, self.span_name, self.parent
        starts, ends, qids, clock = (self.start, self.end, self.query_id,
                                     self.clock)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            qids.append(getattr(args[query_pos], "query_id", None)
                        if query_pos is not None and len(args) > query_pos
                        else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= self.end[idx] - self.start[idx]
        return out

    def roots(self) -> list[int]:
        """Per-span index of its root ancestor (parents precede children)."""
        out = []
        for idx, par in enumerate(self.parent):
            out.append(idx if par < 0 else out[par])
        return out

    def totals(self, root: int | None = None) -> dict[str, list]:
        """``name -> [self seconds, calls]``, over the whole trace or over
        the subtree of the span ``root``."""
        selfs = self.self_times()
        roots = self.roots() if root is not None else None
        out: dict[str, list] = {}
        for idx, nid in enumerate(self.span_name):
            if roots is not None and roots[idx] != root:
                continue
            acc = out.setdefault(self.names[nid], [0.0, 0])
            acc[0] += selfs[idx]
            acc[1] += 1
        return out

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def write(self, path) -> None:
        """Write every span as columnar JSON (one object, one write)."""
        with open(path, "w") as fh:
            json.dump(dict(names=self.names, name=self.span_name,
                           parent=self.parent, start=self.start,
                           end=self.end, query_id=self.query_id), fh)


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
#: ``(module, attribute path, span name)``. An attribute path ``"C.m"``
#: wraps method ``m`` on class ``C`` and on every subclass that defines
#: its own ``m``; a bare name wraps a module function everywhere a
#: ``repro`` module holds a reference to it.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # data
    ("repro.data.generator", "generate_dataset", "data.generate_dataset"),
    ("repro.data.vocab", "make_filler_sentence",
     "data.make_filler_sentence"),
    # llm
    ("repro.llm.tokenizer", "SimTokenizer.count", "llm.tokenize"),
    ("repro.llm.generation", "SimulatedGenerator.generate", "llm.generate"),
    # retrieval
    ("repro.retrieval.embedding", "EmbeddingModel.embed", "retrieval.embed"),
    ("repro.retrieval.embedding", "EmbeddingModel.embed_batch",
     "retrieval.embed_batch"),
    ("repro.retrieval.embedding", "IdfWeights.fit", "retrieval.idf_fit"),
    ("repro.retrieval.sharded", "ShardedVectorStore.add_chunks",
     "retrieval.add_chunks"),
    ("repro.retrieval.sharded", "ShardedVectorStore.reshard",
     "retrieval.reshard"),
    ("repro.retrieval.sharded", "ShardedVectorStore.search_shard",
     "retrieval.search_shard"),
    ("repro.retrieval.sharded", "ShardedVectorStore.gather",
     "retrieval.gather"),
    ("repro.retrieval.rerank", "ExactReranker.rerank", "retrieval.rerank"),
    # core (decision plane)
    ("repro.core.policy", "RAGPolicy.prepare", "core.prepare"),
    ("repro.core.policy", "RAGPolicy.choose", "core.choose"),
    # caching
    ("repro.caching.cache", "CostAwareCache.lookup", "caching.lookup"),
    ("repro.caching.cache", "CostAwareCache.insert", "caching.insert"),
    # synthesis
    ("repro.synthesis.base", "Synthesizer.build_plan",
     "synthesis.build_plan"),
    # serving
    ("repro.serving.engine", "ServingEngine.step", "serving.engine_step"),
    ("repro.serving.engine", "ServingEngine.step_and_frontier",
     "serving.step_and_frontier"),
    ("repro.serving.cluster", "ClusterEngine.step", "serving.cluster_step"),
    ("repro.serving.cluster", "ClusterEngine.step_and_frontier",
     "serving.step_and_frontier"),
    ("repro.serving.engine", "ServingEngine.submit", "serving.submit"),
    ("repro.serving.cluster", "ClusterEngine.submit", "serving.submit"),
    ("repro.serving.engine", "ServingEngine.cancel", "serving.cancel"),
    ("repro.serving.cluster", "ClusterEngine.cancel", "serving.cancel"),
    # sim (event kernel)
    ("repro.sim.kernel", "EventLoop.run", "sim.loop_run"),
    # evaluation: pipeline bookkeeping, quality harness, reports
    ("repro.evaluation.pipeline", "_Stage.enter", "evaluation.stage_enter"),
    ("repro.evaluation.pipeline", "ServeStage.submit_stage",
     "evaluation.submit_stage"),
    ("repro.evaluation.pipeline", "QueryPipeline.finalize",
     "evaluation.finalize"),
    ("repro.evaluation.pipeline", "QueryPipeline.finalize_cache_hit",
     "evaluation.finalize_cache_hit"),
    ("repro.evaluation.metrics", "MetricHarness.score",
     "evaluation.metric_score"),
    # workload
    ("repro.workload.trace", "Workload.materialize", "workload.materialize"),
    ("repro.workload.autoscaler", "Autoscaler.signals",
     "workload.autoscale_signals"),
)

#: Every public function of ``repro.evaluation.reports`` is wrapped as
#: ``evaluation.report`` (the tables ``repro run`` renders).
REPORTS_MODULE = "repro.evaluation.reports"


def _query_pos(fn) -> int | None:
    """Positional index of a parameter annotated ``Query``, if any."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for pos, p in enumerate(params):
        ann = p.annotation
        ann = ann if isinstance(ann, str) else getattr(ann, "__name__", "")
        if ann.strip("'\"") == "Query":
            return pos
    return None


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Instrumentation:
    """The wrappers :func:`install` put in place, and their undo list."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, method: str, name: str) -> None:
        for sub in _subclasses(cls):
            fn = sub.__dict__.get(method)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            self._set(sub, method,
                      self.tracer.wrap(fn, name, _query_pos(fn)))

    def wrap_function(self, fn, name: str) -> None:
        traced = self.tracer.wrap(fn, name, _query_pos(fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)

    def remove(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @property
    def n_wrapped(self) -> int:
        return len(self._undo)


def _import_all_repro() -> None:
    """Import every module a cell uses so function references are found."""
    for name in ("repro.cli", "repro.experiments.common", "repro.workload",
                 "repro.baselines", "repro.evaluation.pipeline"):
        importlib.import_module(name)


def install(tracer: Tracer) -> Instrumentation:
    """Wrap every target; returns the handle whose ``remove`` undoes it."""
    _import_all_repro()
    inst = Instrumentation(tracer)
    for module, path, name in TARGETS:
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, method = path.split(".")
            inst.wrap_method(getattr(mod, cls_name), method, name)
        else:
            inst.wrap_function(getattr(mod, path), name)
    reports = importlib.import_module(REPORTS_MODULE)
    for attr in getattr(reports, "__all__", ()):
        fn = getattr(reports, attr)
        if inspect.isfunction(fn):
            inst.wrap_function(fn, "evaluation.report")
    return inst
