"""Coasting silent decode iterations is invisible, bit for bit.

A quiet step event (``StepDriver`` without an ``on_step`` observer)
may run a replica's *silent* iterations — decode-only, finishing no
request — in bulk instead of one event each. An observer must see every
iteration, so a driver with ``on_step`` set steps once per token: that
path is the reference here. Random request streams are served both
ways and every request timestamp, token count, the finish order and
each replica's ``EngineStats`` must match exactly.

The app-aware admission order is checked against the original
two-step formulation (``_app_stats`` over waiting + running, then
sort), kept below as the oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving import (
    ClusterEngine,
    EngineConfig,
    InferenceRequest,
    ServingEngine,
)
from repro.serving.cluster import ROUTER_NAMES
from repro.serving.policies import AppAwarePolicy
from repro.sim import EventLoop
from repro.util.units import GB

#: Follow-up a finished request triggers (see ``serve``).
NO_FOLLOW, SUBMIT_NOW, ARRIVE_AT_OWN_CLOCK, ARRIVE_AT_OTHER_CLOCK = range(4)

request_spec = st.tuples(
    st.sampled_from([0.0, 0.0, 0.003, 0.01, 0.05, 0.2]),  # gap to previous
    st.integers(min_value=1, max_value=2_000),            # prompt tokens
    st.integers(min_value=1, max_value=40),               # output tokens
    st.sampled_from(["", "a", "b", "c", "d"]),            # app id
    st.integers(min_value=0, max_value=3),                # follow-up kind
)

scenario = st.fixed_dictionaries({
    "speeds": st.lists(st.sampled_from([1.0, 0.5, 0.75, 1.25, 2.0]),
                       min_size=1, max_size=4),
    # A bare ServingEngine (first speed only) instead of a cluster.
    "bare": st.booleans(),
    "policy": st.sampled_from(["fcfs", "app-aware"]),
    "pool_gb": st.sampled_from([0.5, 1.0]),
    "router": st.sampled_from(ROUTER_NAMES),
    "requests": st.lists(request_spec, min_size=1, max_size=16),
    # (time as a fraction of the arrival span, target request index)
    "cancels": st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.5),
                  st.integers(min_value=0, max_value=15)),
        max_size=4),
})


def serve(sc: dict, coast: bool):
    """Serve one scenario event-driven; the reference run (``coast``
    false) attaches an ``on_step`` observer, which forces one step
    event per iteration."""
    speeds = sc["speeds"]
    config = EngineConfig(model=MISTRAL_7B_AWQ, cluster=ClusterSpec(A40),
                          kv_pool_cap_bytes=int(sc["pool_gb"] * GB),
                          policy=sc["policy"])
    if sc["bare"]:
        engine = ServingEngine(config, speed=speeds[0])
        replicas = [engine]
    else:
        engine = ClusterEngine(config, n_replicas=len(speeds),
                               router=sc["router"], seed=7,
                               replica_speeds=speeds)
        replicas = engine.replicas
    loop = EventLoop()
    driver = engine.attach(loop)
    if not coast:
        driver.on_step = lambda _result: None
    requests: dict[object, InferenceRequest] = {}
    finish_order: list[object] = []

    def submit(key, prompt, out, app, follow, t):
        def on_finish(req, now):
            finish_order.append(key)
            if follow == NO_FOLLOW or not isinstance(key, int):
                return
            child = (key, "follow")
            spec = (max(1, prompt // 2), out, app, NO_FOLLOW)
            if follow == SUBMIT_NOW:
                submit(child, *spec, now)
                return
            rid = (0 if sc["bare"]
                   else engine.replica_of_request(req.request_id))
            if follow == ARRIVE_AT_OTHER_CLOCK:
                rid = (rid + 1) % len(replicas)
            at = replicas[rid].now
            loop.schedule(at, "follow-up",
                          lambda t2, _p: submit(child, *spec, t2))

        request = InferenceRequest(prompt_tokens=prompt, output_tokens=out,
                                   arrival_time=t, app_id=app,
                                   on_finish=on_finish)
        requests[key] = request
        engine.submit(request)

    t = 0.0
    for i, (gap, prompt, out, app, follow) in enumerate(sc["requests"]):
        t += gap
        loop.schedule(t, "arrival",
                      lambda t2, p: submit(p[0], *p[1:], t2),
                      (i, prompt, out, app, follow))
    span = t
    for frac, target in sc["cancels"]:
        def cancel(_t, key):
            if key in requests:
                engine.cancel(requests[key])
        loop.schedule(frac * span, "cancel", cancel, target)
    # A lone request long after everything drained: its silent tail
    # guarantees the coasting run has something to coast.
    loop.schedule(span + 1_000.0, "arrival",
                  lambda t2, _p: submit("tail", 64, 12, "", NO_FOLLOW, t2))
    loop.run()

    lifecycle = {
        key: (r.phase.value, r.admitted_time, r.prefill_done_time,
              r.finish_time, r.cancel_time, r.prefilled_tokens,
              r.decoded_tokens)
        for key, r in requests.items()
    }
    stats = [r.stats for r in replicas]
    return lifecycle, finish_order, stats, loop.n_dispatched


@settings(deadline=None, max_examples=60)
@given(scenario)
def test_coasting_matches_per_token_stepping(sc):
    lifecycle, order, stats, events = serve(sc, coast=True)
    ref_lifecycle, ref_order, ref_stats, ref_events = serve(sc, coast=False)
    # repr() compares floats bit for bit (round-trip exact).
    assert repr(lifecycle) == repr(ref_lifecycle)
    assert order == ref_order
    assert repr(stats) == repr(ref_stats)
    assert events < ref_events


def serve_two_replicas(y_specs, s_output: int, kind: str, coast: bool):
    """Replica 0 serves ``y_specs`` (prompt, output) of app ``y``,
    replica 1 one request of app ``s`` (round-robin placement). When
    replica 0's first request finishes, its callback submits a
    follow-up of app ``s`` to replica 1 (``"replica"``) or schedules its
    arrival at replica 1's clock (``"event"``). Replica 1's silent run
    must yield to both."""
    cluster = ClusterEngine(
        EngineConfig(model=MISTRAL_7B_AWQ, cluster=ClusterSpec(A40)),
        n_replicas=2, router="round-robin")
    loop = EventLoop()
    driver = cluster.attach(loop)
    if not coast:
        driver.on_step = lambda _result: None
    follow_up: list[InferenceRequest] = []

    def submit_follow_up(t: float) -> None:
        request = InferenceRequest(prompt_tokens=300, output_tokens=6,
                                   arrival_time=t, app_id="s")
        follow_up.append(request)
        cluster.submit(request)

    def on_first_finish(_req, now):
        if kind == "replica":
            submit_follow_up(now)
        else:
            loop.schedule(cluster.replicas[1].now, "arrival",
                          lambda t, _p: submit_follow_up(t))

    def arrive(t, _p):
        for i, (prompt, output) in enumerate(y_specs):
            cluster.submit(InferenceRequest(
                prompt_tokens=prompt, output_tokens=output, arrival_time=t,
                app_id="y", on_finish=None if i else on_first_finish))
        cluster.submit(InferenceRequest(
            prompt_tokens=500, output_tokens=s_output, arrival_time=t,
            app_id="s"))

    loop.schedule(0.0, "arrival", arrive)
    loop.run()
    (request,) = follow_up
    return (repr((request.admitted_time, request.finish_time)),
            repr([r.stats for r in cluster.replicas]), loop.n_dispatched)


def test_coasting_yields_to_other_replicas_next_iteration():
    cases = [
        # Twin replicas, equal clocks: replica 1's silent iteration at
        # the instant replica 0 finishes must run after it.
        ([(500, 5)], 30, "replica"),
        ([(500, 5)], 30, "event"),
        # Replica 0 is decode-only but its next iteration finishes.
        ([(500, 2)], 30, "replica"),
        # Replica 0 is still prefilling a long prompt (not coastable)
        # while the iteration that finishes its first request nears.
        ([(500, 3), (6_000, 1)], 200, "replica"),
    ]
    for y_specs, s_output, kind in cases:
        got = serve_two_replicas(y_specs, s_output, kind, coast=True)
        want = serve_two_replicas(y_specs, s_output, kind, coast=False)
        assert got[:2] == want[:2], (y_specs, kind)
        assert got[2] < want[2]


# ----------------------------------------------------------------------
# App-aware admission order
# ----------------------------------------------------------------------
def _app_stats(requests):
    """The original per-call aggregation: every outstanding request's
    remaining work, summed per app, plus each app's first arrival."""
    remaining: dict[str, int] = {}
    first_arrival: dict[str, float] = {}
    for req in requests:
        remaining[req.app_id] = (
            remaining.get(req.app_id, 0) + req.remaining_work_tokens
        )
        prev = first_arrival.get(req.app_id)
        if prev is None or req.arrival_time < prev:
            first_arrival[req.app_id] = req.arrival_time
    return remaining, first_arrival


def oracle_order(waiting, running):
    remaining, first_arrival = _app_stats([*waiting, *running])
    return sorted(
        waiting,
        key=lambda r: (r.priority, remaining[r.app_id],
                       first_arrival[r.app_id], r.stage, r.request_id),
    )


queued_request = st.tuples(
    st.integers(min_value=1, max_value=500),         # prompt tokens
    st.integers(min_value=1, max_value=50),          # output tokens
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),           # arrival (ties)
    st.sampled_from(["", "a", "b", "c", "d", "e"]),  # app id
    st.integers(min_value=0, max_value=1),           # stage
    st.integers(min_value=0, max_value=1),           # priority
    st.floats(min_value=0.0, max_value=1.0),         # progress fraction
)


def build(spec, started: bool) -> InferenceRequest:
    prompt, out, arrival, app, stage, priority, progress = spec
    request = InferenceRequest(prompt_tokens=prompt, output_tokens=out,
                               arrival_time=arrival, app_id=app,
                               stage=stage, priority=priority)
    if started:
        request.prefilled_tokens = int(prompt * progress)
        if request.prefilled_tokens == prompt:
            request.decoded_tokens = int((out - 1) * progress)
    return request


@settings(deadline=None, max_examples=200)
@given(st.lists(queued_request, max_size=12),
       st.lists(queued_request, max_size=12))
def test_app_aware_order_matches_oracle(waiting_specs, running_specs):
    waiting = [build(s, started=False) for s in waiting_specs]
    running = [build(s, started=True) for s in running_specs]
    before = list(waiting)
    got = AppAwarePolicy().order(waiting, running)
    assert waiting == before  # no mutation
    want = oracle_order(waiting, running)
    assert [r.request_id for r in got] == [r.request_id for r in want]
