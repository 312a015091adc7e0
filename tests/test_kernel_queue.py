"""Property tests: the calendar-queue kernel vs a reference heapq.

The kernel's pending set is a calendar queue (near buckets + far-heap
fallback + lazy tombstones + amortized compaction) — pure mechanism.
Its observable contract is the one a plain ``heapq`` ordered by
``(time, rank, seq)`` provides. These tests pin that equivalence under
randomized schedule / cancel / reschedule workloads (including ops
issued from inside firing handlers), that tombstone compaction never
perturbs the surviving order, and that ``bucket_width`` is a pure
performance knob with no observable effect.
"""

from __future__ import annotations

import heapq
import itertools

import pytest

from repro.sim import EventLoop
from repro.sim.kernel import _COMPACT_MIN_DEAD
from repro.util.rng import RngStreams


class _RefHandle:
    __slots__ = ("time", "seq", "payload", "handler", "alive")

    def __init__(self, time, seq, handler, payload):
        self.time = time
        self.seq = seq
        self.handler = handler
        self.payload = payload
        self.alive = True


class ReferenceLoop:
    """Plain-heapq model of the kernel's dispatch contract: strict
    ``(time, seq)`` order (every event here is external, rank 0) with
    lazy-deletion cancellation and cancel-plus-fresh-seq reschedule."""

    def __init__(self):
        self._heap: list[tuple[float, int, _RefHandle]] = []
        self._seq = itertools.count()
        self.now = 0.0

    def schedule(self, time, kind, handler, payload=None):
        handle = _RefHandle(time, next(self._seq), handler, payload)
        heapq.heappush(self._heap, (time, handle.seq, handle))
        return handle

    def cancel(self, handle):
        if not handle.alive:
            return False
        handle.alive = False
        return True

    def reschedule(self, handle, time):
        if not self.cancel(handle):
            raise ValueError("reschedule() requires a pending event")
        return self.schedule(time, "", handle.handler, handle.payload)

    def is_pending(self, handle):
        return handle.alive

    def run(self):
        while self._heap:
            time, _, handle = heapq.heappop(self._heap)
            if not handle.alive:
                continue
            handle.alive = False
            if time > self.now:
                self.now = time
            # Handlers observe the event's own time, which may trail
            # the clock — exactly the kernel's contract.
            handle.handler(time, handle.payload)


# ----------------------------------------------------------------------
# Random op tapes, interpreted identically against both loops
# ----------------------------------------------------------------------
def build_tape(seed: int, n_initial: int = 200, n_max: int = 600):
    """Pure data: pre-run ops plus per-event on-fire ops.

    Event ids number schedule ops in creation order (identical across
    interpreters). Times span [0, 120) with occasional far-future
    outliers so every bucket width exercises both the near buckets and
    the far-heap fallback; on-fire deltas include small negative ones
    (events trailing the loop clock are legal and must order the same).
    """
    rng = RngStreams(seed).get("test", "kernel-queue")
    initial: list[tuple] = []
    on_fire: dict[int, list[tuple]] = {}
    next_id = 0
    live_pool: list[int] = []

    def new_schedule(t):
        nonlocal next_id
        eid = next_id
        next_id += 1
        live_pool.append(eid)
        return ("schedule", float(t), eid)

    for _ in range(n_initial):
        t = float(rng.uniform(0.0, 120.0))
        if rng.random() < 0.05:
            t += 10_000.0  # far beyond any near-bucket span
        initial.append(new_schedule(t))
        u = float(rng.random())
        if u < 0.15 and live_pool:
            initial.append(("cancel",
                            int(rng.choice(live_pool))))
        elif u < 0.30 and live_pool:
            initial.append(("resched", int(rng.choice(live_pool)),
                            float(rng.uniform(0.0, 120.0))))

    # On-fire ops: half the events act when they dispatch. Cancel and
    # reschedule targets come from the pre-run pool only — those are
    # guaranteed to exist whenever any event fires (an already-fired
    # or already-cancelled target exercises the no-op paths).
    pre_run_ids = list(live_pool)
    for eid in range(next_id):
        if rng.random() >= 0.5:
            continue
        ops = []
        for _ in range(int(rng.integers(1, 3))):
            u = float(rng.random())
            if u < 0.5 and next_id < n_max:
                # Time is relative to the firing instant, resolved by
                # the interpreter; reuse new_schedule for id bookkeeping.
                _, _, new_eid = new_schedule(0.0)
                ops.append(("schedule_rel",
                            float(rng.uniform(-0.05, 2.0)), new_eid))
            elif u < 0.75:
                ops.append(("cancel", int(rng.choice(pre_run_ids))))
            else:
                ops.append(("resched_rel", int(rng.choice(pre_run_ids)),
                            float(rng.uniform(-0.05, 2.0))))
        on_fire[eid] = ops
    return initial, on_fire


def interpret(loop, tape) -> list[tuple[int, float]]:
    """Run one tape against ``loop``; return the dispatch sequence."""
    initial, on_fire = tape
    handles: dict[int, object] = {}
    dispatched: list[tuple[int, float]] = []

    def apply(op, now):
        kind = op[0]
        if kind == "schedule":
            handles[op[2]] = loop.schedule(op[1], "ev", fire, op[2])
        elif kind == "schedule_rel":
            handles[op[2]] = loop.schedule(now + op[1], "ev", fire, op[2])
        elif kind == "cancel":
            loop.cancel(handles[op[1]])
        elif kind == "resched":
            if loop.is_pending(handles[op[1]]):
                handles[op[1]] = loop.reschedule(handles[op[1]], op[2])
        elif kind == "resched_rel":
            if loop.is_pending(handles[op[1]]):
                handles[op[1]] = loop.reschedule(handles[op[1]],
                                                 now + op[2])

    def fire(now, eid):
        dispatched.append((eid, now))
        for op in on_fire.get(eid, ()):
            apply(op, now)

    for op in initial:
        apply(op, 0.0)
    loop.run()
    return dispatched


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_dispatch_order_matches_reference_heapq(seed):
    tape = build_tape(seed)
    got = interpret(EventLoop(), tape)
    want = interpret(ReferenceLoop(), tape)
    assert got == want
    assert len(got) > 100  # the tape exercised a real workload


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("width", [1.0 / 1024, 1.0 / 64, 1.0, 16.0])
def test_bucket_width_is_observationally_neutral(seed, width):
    """Any bucket width — from one that scatters the tape across
    thousands of buckets to one that funnels almost everything into
    the far heap's span checks — dispatches identically."""
    tape = build_tape(seed)
    assert (interpret(EventLoop(bucket_width=width), tape)
            == interpret(ReferenceLoop(), tape))


def test_invalid_bucket_width_rejected():
    with pytest.raises(ValueError, match="bucket_width"):
        EventLoop(bucket_width=0.0)
    # NaN fails at construction, not at the first schedule().
    with pytest.raises(ValueError, match="bucket_width must be positive"):
        EventLoop(bucket_width=float("nan"))


class TestCompaction:
    def test_threshold_compaction_preserves_survivor_order(self):
        """Cancel enough to cross the compaction threshold mid-stream;
        the surviving dispatch order must equal the reference's."""
        rng = RngStreams(9).get("test", "compaction")
        times = [float(rng.uniform(0.0, 50.0)) for _ in range(400)]
        doomed = set(int(i) for i in rng.choice(400, size=300,
                                                replace=False))

        def drive(loop):
            fired = []
            handles = [loop.schedule(t, "ev", lambda now, i: fired.append(i),
                                     i) for i, t in enumerate(times)]
            for i in sorted(doomed):
                loop.cancel(handles[i])
            loop.run()
            return fired

        kernel = EventLoop()
        got = drive(kernel)
        want = drive(ReferenceLoop())
        assert got == want
        # The cancel storm really crossed the threshold and swept.
        assert len(doomed) > _COMPACT_MIN_DEAD
        assert kernel._n_dead == 0

    def test_explicit_compact_is_invisible(self):
        """White-box: force _compact() between every mutation batch and
        assert the dispatch sequence still matches the reference."""
        tape = build_tape(7)
        initial, on_fire = tape

        class CompactingLoop(EventLoop):
            def cancel(self, event):
                out = super().cancel(event)
                super()._compact()
                return out

        got = interpret(CompactingLoop(), tape)
        want = interpret(ReferenceLoop(), tape)
        assert got == want
