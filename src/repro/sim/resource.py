"""Finite-concurrency resources with FIFO queueing, stats, and
cancellable leases.

A :class:`Resource` models anything a query must hold for a service
interval before proceeding — a rate-limited profiler API, a vector
store's search executor, a CPU pool. ``concurrency=None`` means
unbounded: every request is granted the instant it arrives and the
completion event lands exactly where an uncontended latency constant
would, which is how the query pipeline keeps pre-refactor golden
traces byte-identical at default settings.

With finite concurrency, excess requests wait in arrival (FIFO) order;
per-request queue delay and per-resource utilization/backlog counters
are accumulated in :class:`ResourceStats` — the observable that makes
profiler overhead (paper Fig 18) load-dependent.

Every :meth:`Resource.request` returns a :class:`Lease` — the handle a
speculative scheduler uses to tear down the losing side of a hedged
query (see :mod:`repro.serving.speculation`). Cancelling a lease that
is still **queued** removes it before it ever starts; cancelling one
that is **held** tombstones its completion event on the kernel
(:meth:`~repro.sim.kernel.EventLoop.cancel`), releases the slot at the
cancellation instant, reclaims the unused tail of its ``busy_seconds``
charge, and hands the freed slot to the longest-waiting queued request
— so a finite pool never strands capacity behind a dead query (pinned
by ``tests/test_speculation_properties.py``).

``coalesce=True`` opt-in (the profiler uses it): whenever a slot
frees with requests waiting, the **entire queue dispatches as one
merged grant** — a single amortized call holding one slot for the
*max* member hold, after which every member's callback fires (FIFO) at
the shared completion. Requests granted immediately on arrival are
untouched, so an uncontended coalescing resource is indistinguishable
from a plain one — default (unbounded) golden schedules hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.sim.kernel import EventLoop
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Event

__all__ = ["Lease", "Resource", "ResourceStats"]

#: ``callback(finish_time, queue_delay_seconds)``
ResourceCallback = Callable[[float, float], None]


@dataclass
class ResourceStats:
    """Cumulative counters for one resource over one run.

    Snapshot object: the hot path (:meth:`Resource.request` /
    ``_grant`` / ``_on_done``) accumulates raw counters on plain
    ``Resource`` attributes; :attr:`Resource.stats` materializes this
    dataclass on access and the derived figures (mean delay, queued
    fraction, utilization) are computed only at report time."""

    name: str
    concurrency: float  # math.inf when unbounded
    n_requests: int = 0
    n_queued: int = 0  # requests that could not start immediately
    n_cancelled: int = 0  # leases cancelled before completing
    busy_seconds: float = 0.0  # sum of service (hold) times actually used
    total_queue_delay: float = 0.0
    max_queue_delay: float = 0.0
    peak_in_service: int = 0
    peak_queue_len: int = 0

    @property
    def mean_queue_delay(self) -> float:
        if self.n_requests == 0:
            return 0.0
        return self.total_queue_delay / self.n_requests

    @property
    def queued_fraction(self) -> float:
        if self.n_requests == 0:
            return 0.0
        return self.n_queued / self.n_requests

    def utilization(self, makespan: float) -> float:
        """Mean fraction of capacity busy over ``makespan`` seconds.

        0.0 for unbounded resources (capacity is not a meaningful
        denominator) and for empty runs.
        """
        if makespan <= 0 or self.concurrency == float("inf"):
            return 0.0
        return self.busy_seconds / (self.concurrency * makespan)


class Lease:
    """A claim on one resource slot: queued, then held, then released.

    States: ``QUEUED`` (waiting for a slot), ``HELD`` (slot granted,
    completion event scheduled), ``DONE`` (completion fired), and
    ``CANCELLED``. Only ``QUEUED``/``HELD`` leases react to
    :meth:`cancel`; cancelling a finished or already-cancelled lease is
    a ``False``-returning no-op, so teardown code may cancel every
    lease a query ever took without tracking which ones completed.
    """

    QUEUED = "queued"
    HELD = "held"
    DONE = "done"
    CANCELLED = "cancelled"

    __slots__ = ("resource", "state", "request_time", "hold_seconds",
                 "callback", "grant_time", "event", "batched")

    def __init__(self, resource: "Resource", request_time: float,
                 hold_seconds: float, callback: ResourceCallback) -> None:
        self.resource = resource
        self.state = Lease.QUEUED
        self.request_time = request_time
        self.hold_seconds = hold_seconds
        self.callback = callback
        self.grant_time: float | None = None
        #: the scheduled ``<name>:done`` completion event while HELD
        self.event: "Event | None" = None
        #: True while HELD as a member of a coalesced (merged) grant.
        self.batched = False

    @property
    def end_time(self) -> float:
        """Scheduled completion time (``inf`` while still queued)."""
        if self.grant_time is None:
            return float("inf")
        return self.grant_time + self.hold_seconds

    def cancel(self, t: float) -> bool:
        """Abort this lease at simulated time ``t`` (see Resource)."""
        return self.resource.cancel(self, t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Lease({self.resource.name!r}, {self.state}, "
                f"req_t={self.request_time:.6f})")


class Resource:
    """A pool of ``concurrency`` identical servers with a FIFO queue.

    Usage: ``lease = resource.request(t, hold_seconds, callback)`` —
    the callback fires (via the event loop, so global event ordering
    stays deterministic) at ``grant_time + hold_seconds`` with the
    delay the request spent queued. Grants are strictly FIFO; a freed
    slot goes to the longest-waiting request *before* the finishing
    request's callback runs, like a semaphore released on the way out.
    The returned :class:`Lease` supports cancellation (hedged-query
    teardown); callers that never cancel may ignore it.
    """

    def __init__(self, name: str, loop: EventLoop,
                 concurrency: int | None = None,
                 coalesce: bool = False) -> None:
        self.name = name
        self.loop = loop
        self.concurrency = (float("inf") if concurrency is None else
                            check_positive_int(f"{name} concurrency",
                                               concurrency))
        #: Merge the whole wait queue into one amortized grant whenever
        #: a slot frees (see the module docstring). Never engages while
        #: the resource is uncontended.
        self.coalesce = bool(coalesce)
        #: Optional observer for coalescing resources: called with the
        #: member leases of every merged grant at dispatch time — the
        #: pipeline uses it to charge one ledger entry per batched
        #: profiler call instead of one per query.
        self.on_batch: Callable[[list["Lease"]], None] | None = None
        self.in_service = 0
        #: queued leases in arrival order
        self._queue: deque[Lease] = deque()
        # Raw stats counters (see ResourceStats: the dataclass is built
        # lazily by the ``stats`` property at report time).
        self._n_requests = 0
        self._n_queued = 0
        self._n_cancelled = 0
        self._busy_seconds = 0.0
        self._total_queue_delay = 0.0
        self._max_queue_delay = 0.0
        self._peak_in_service = 0
        self._peak_queue_len = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> ResourceStats:
        """Cumulative counters as a snapshot (derived stats lazy)."""
        return ResourceStats(
            name=self.name,
            concurrency=float(self.concurrency),
            n_requests=self._n_requests,
            n_queued=self._n_queued,
            n_cancelled=self._n_cancelled,
            busy_seconds=self._busy_seconds,
            total_queue_delay=self._total_queue_delay,
            max_queue_delay=self._max_queue_delay,
            peak_in_service=self._peak_in_service,
            peak_queue_len=self._peak_queue_len,
        )

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def request(self, t: float, hold_seconds: float,
                callback: ResourceCallback) -> Lease:
        """Ask for one slot at time ``t`` for ``hold_seconds``."""
        if hold_seconds < 0:
            raise ValueError(f"negative hold_seconds: {hold_seconds}")
        self._n_requests += 1
        lease = Lease(self, t, hold_seconds, callback)
        if self.in_service < self.concurrency:
            self._grant(lease, t)
            return lease
        self._n_queued += 1
        self._queue.append(lease)
        if len(self._queue) > self._peak_queue_len:
            self._peak_queue_len = len(self._queue)
        return lease

    def cancel(self, lease: Lease, t: float) -> bool:
        """Abort a lease at simulated time ``t``.

        * ``QUEUED`` — removed from the wait queue; it never starts.
        * ``HELD`` — its completion event is tombstoned on the kernel,
          the unused remainder of its hold (``end_time - t``) is
          reclaimed from ``busy_seconds``, and the freed slot is
          granted to the longest-waiting queued lease at ``t``.
        * ``DONE`` / ``CANCELLED`` — no-op, returns ``False``.

        ``t`` must not precede the lease's grant time (a cancellation
        cannot happen before the work it aborts started).
        """
        if lease.resource is not self:
            raise ValueError(
                f"lease belongs to {lease.resource.name!r}, "
                f"not {self.name!r}"
            )
        if lease.state == Lease.QUEUED:
            self._queue.remove(lease)
            lease.state = Lease.CANCELLED
            self._n_cancelled += 1
            return True
        if lease.state != Lease.HELD:
            return False
        if t < lease.grant_time:
            raise ValueError(
                f"cancel at t={t} precedes lease grant at {lease.grant_time}"
            )
        if lease.batched:
            # A member of an in-flight merged call cannot be unsent:
            # the shared call keeps its slot and its (amortized) cost;
            # only this member's callback is dropped at completion.
            lease.event = None
            lease.state = Lease.CANCELLED
            self._n_cancelled += 1
            return True
        self.loop.cancel(lease.event)
        lease.event = None
        lease.state = Lease.CANCELLED
        self._n_cancelled += 1
        # Reclaim the hold time the cancelled lease never used.
        self._busy_seconds -= max(0.0, lease.end_time - t)
        self.in_service -= 1
        self._drain(t)
        return True

    # ------------------------------------------------------------------
    def _drain(self, t: float) -> None:
        """Hand a freed slot to the queue: the longest-waiting request
        (plain), or the whole queue as one merged grant (coalescing)."""
        if not self._queue or self.in_service >= self.concurrency:
            return
        if self.coalesce:
            self._grant_batch(t)
        else:
            self._grant(self._queue.popleft(), t)

    def _grant(self, lease: Lease, start_t: float) -> None:
        lease.state = Lease.HELD
        lease.grant_time = start_t
        self.in_service += 1
        if self.in_service > self._peak_in_service:
            self._peak_in_service = self.in_service
        self._busy_seconds += lease.hold_seconds
        delay = start_t - lease.request_time
        self._total_queue_delay += delay
        if delay > self._max_queue_delay:
            self._max_queue_delay = delay
        lease.event = self.loop.schedule(
            start_t + lease.hold_seconds,
            kind=f"{self.name}:done",
            handler=self._on_done,
            payload=(lease, delay),
        )

    def _grant_batch(self, start_t: float) -> None:
        """Dispatch the entire wait queue as one amortized call.

        The merged call occupies a single slot for the *max* member
        hold and charges ``busy_seconds`` once — the amortization a
        batched API endpoint provides. Member callbacks all fire at the
        shared completion, in FIFO order, each with its own queue
        delay.
        """
        batch = list(self._queue)
        self._queue.clear()
        hold = 0.0
        for lease in batch:
            lease.state = Lease.HELD
            lease.batched = True
            lease.grant_time = start_t
            delay = start_t - lease.request_time
            self._total_queue_delay += delay
            if delay > self._max_queue_delay:
                self._max_queue_delay = delay
            if lease.hold_seconds > hold:
                hold = lease.hold_seconds
        self.in_service += 1
        if self.in_service > self._peak_in_service:
            self._peak_in_service = self.in_service
        self._busy_seconds += hold
        event = self.loop.schedule(
            start_t + hold,
            kind=f"{self.name}:done",
            handler=self._on_batch_done,
            payload=batch,
        )
        for lease in batch:
            lease.event = event
        if self.on_batch is not None:
            self.on_batch(batch)

    def _on_done(self, t: float, payload) -> None:
        lease, delay = payload
        lease.state = Lease.DONE
        lease.event = None
        self.in_service -= 1
        self._drain(t)
        lease.callback(t, delay)

    def _on_batch_done(self, t: float, batch: list[Lease]) -> None:
        self.in_service -= 1
        self._drain(t)
        for lease in batch:
            if lease.state != Lease.HELD:
                continue  # cancelled member of the merged call
            lease.state = Lease.DONE
            lease.event = None
            lease.callback(t, lease.grant_time - lease.request_time)
