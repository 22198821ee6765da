"""The one discrete-event kernel under serving, cluster and decode runs.

:class:`EventKernel` owns the only event heap.  Events are
``(time_us, kind, seq, payload)`` tuples, so equal-time events pop by
kind (``COMPLETION < ARRIVAL < POOL_FREE < WAKEUP < SCALER``), then in
push order.  A simulator subclasses the kernel and fills in its hooks
over a list of :class:`PoolState` pools; the kernel never branches on
which simulator it runs.  Arrival times must be finite and
non-decreasing in list order.

Per event: an ``ARRIVAL`` is routed to a pool, whose queue admits or
rejects it; ``POOL_FREE`` and ``WAKEUP`` name a pool; every one of these
runs expiry, then dispatch, on its pool.  The last arrival also
force-flushes every other pool's partial batch.  A ``COMPLETION``
dispatches on the pool its hook returns, a ``SCALER`` tick on each pool
its hook yields.  Dispatch strands the queue of a dead pool, and runs
each batch through the pool's fault model: a device fail-stop draw per
run, and ABFT detect-and-retry up to ``max_retries`` (without ABFT a
fault completes silently, corrupted).  A zero rate draws nothing from
the pool's fault stream.

Push sites, which bound the event count linearly:

* ``ARRIVAL`` — one per offered request, all pushed up front;
* ``WAKEUP`` — at most one pending per pool (``wakeup_us``).  A
  dispatch attempt that leaves waiters arms the pool's next deadline:
  the head's queue timeout, or on a free pool the earlier of that and
  the batcher's deadline.  It pushes only when that is earlier than the
  pending one, and popping one at or after its time clears it.  The
  queue is FIFO with one timeout, so the head expires first and every
  expiry still runs at its exact deadline;
* ``POOL_FREE`` — at most one pending per pool (``free_wakeup_us``).  A
  busy pool pushes one only when it frees earlier than the pending one,
  and popping one at or after its time clears it, so a new one follows
  a dispatch, a device failure or a replica change: at most
  ``batches + device failures + scale actions + pools``;
* ``COMPLETION`` / ``SCALER`` — whatever the hooks push.

:attr:`EventKernel.log` is the run's one record, in event order: a
:class:`Dispatch` per batch and a :class:`Drop` per request that never
ran, plus what hooks append (sheds, :class:`Complete`, ``ScaleAction``).
Every per-run output is built from it afterwards (:mod:`.views`).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np

from ..errors import ServingError
from .admission import AdmissionQueue
from .batching import Batch, DynamicBatcher
from .devices import DispatchOutcome, WorkerPool
from .workload import Request

COMPLETION, ARRIVAL, POOL_FREE, WAKEUP, SCALER = range(5)

_INF = float("inf")


@dataclass(eq=False)
class PoolState:
    """One pool as the kernel drives it: queue, batcher, workers, faults.

    The three parts need only the methods the kernel calls; decode
    fills them with stream-level stand-ins.

    Every batch run draws a device fail-stop with ``device_failure_rate``
    and a batch fault with ``batch_fault_rate`` from ``fault_rng``.
    ``free_wakeup_us`` and ``wakeup_us`` are the pool's one pending
    ``POOL_FREE`` and ``WAKEUP`` times (inf: none).
    """

    queue: AdmissionQueue
    batcher: DynamicBatcher
    workers: WorkerPool
    batch_fault_rate: float = 0.0
    device_failure_rate: float = 0.0
    max_retries: int = 0
    fault_rng: Optional[np.random.Generator] = None
    free_wakeup_us: float = _INF
    wakeup_us: float = _INF


class Dispatch(NamedTuple):
    """Log entry: a batch's dispatch at ``at_us`` and its runs.

    ``runs`` holds each run's outcome; an ABFT retry starts where the
    previous run ended.  ``victims`` is ``()`` unless a run lost a
    device to a fail-stop; then it holds, per run, that device or
    ``None``.
    """

    pool: PoolState
    batch: Any
    at_us: float
    runs: tuple
    victims: tuple
    failed: bool
    corrupted: bool


class Drop(NamedTuple):
    """Log entry: a request that never ran (``pool`` is None if shed)."""

    request: Any
    pool: Optional[PoolState]
    at_us: float
    status: str


class Complete(NamedTuple):
    """Log entry a hook appends when it handles a batch's completion."""

    dispatch: Dispatch


class EventKernel:
    """The dispatch loop; subclasses supply the hooks.

    Hooks: ``route(request, now_us)`` returns the request's pool (by
    default the first), or ``None`` when it settled the request itself
    (admitted requests leave the queue by dispatch or by a drop);
    ``dropped(entry)`` sees each :class:`Drop` and ``dispatched(entry)``
    each :class:`Dispatch` once it is logged (both do nothing by
    default); ``completed(payload, now_us)`` and ``scale(now_us)``
    handle the events hooks push.

    :meth:`run` returns the makespan (first arrival to last successful
    completion); :attr:`log` holds what happened (module docstring).
    """

    def __init__(
        self, requests: Sequence[Request], pools: list[PoolState]
    ) -> None:
        self.pools = pools
        self.log: list = []
        self.remaining_arrivals = len(requests)
        self.first_arrival_us = requests[0].arrival_us if requests else 0.0
        self.last_completion_us = prev = self.first_arrival_us
        self._heap: list = []
        self._seq = itertools.count()
        for request in requests:
            if not -_INF < prev <= request.arrival_us < _INF:
                raise ServingError(
                    "arrival times must be finite and non-decreasing, "
                    f"got {request.arrival_us} after {prev}"
                )
            prev = request.arrival_us
            self.push(prev, ARRIVAL, request)

    def push(self, time_us: float, kind: int, payload: object = None) -> None:
        heapq.heappush(self._heap, (time_us, kind, next(self._seq), payload))

    def route(self, request: Request, now_us: float) -> Optional[PoolState]:
        return self.pools[0]

    def dropped(self, entry: Drop) -> None:
        """Hook: sees each logged :class:`Drop`."""

    def dispatched(self, entry: Dispatch) -> None:
        """Hook: sees each logged :class:`Dispatch`."""

    def drop(self, request: Request, pool: Optional[PoolState],
             now_us: float, status: str) -> None:
        """Log a request that never ran, then run the ``dropped`` hook."""
        self.log.append(entry := Drop(request, pool, now_us, status))
        self.dropped(entry)

    def run(self) -> float:
        heap, dispatch, drop = self._heap, self.attempt_dispatch, self.drop
        while heap:
            now_us, kind, _, payload = heapq.heappop(heap)
            if kind == ARRIVAL:
                self.remaining_arrivals -= 1
                pool = self.route(payload, now_us)
                if pool is not None and not pool.queue.offer(payload, now_us):
                    drop(payload, pool, now_us, "rejected")
            elif kind == COMPLETION:
                dispatch(self.completed(payload, now_us), now_us)
                continue
            elif kind == SCALER:
                for pool in self.scale(now_us):
                    dispatch(pool, now_us)
                continue
            else:
                pool = payload
                if kind == POOL_FREE:
                    if now_us >= pool.free_wakeup_us:
                        pool.free_wakeup_us = _INF
                elif now_us >= pool.wakeup_us:
                    pool.wakeup_us = _INF
            if pool is not None:
                for request in pool.queue.expire(now_us):
                    drop(request, pool, now_us, "expired")
                dispatch(pool, now_us)
            if kind == ARRIVAL and not self.remaining_arrivals:
                # The last arrival force-flushes every pool's partial batch.
                for other in self.pools:
                    if other is not pool:
                        dispatch(other, now_us)
        if any(len(pool.queue) for pool in self.pools):
            raise ServingError("simulation ended with requests still queued")
        return self.last_completion_us - self.first_arrival_us

    def attempt_dispatch(self, pool: PoolState, now_us: float) -> None:
        """Dispatch batches from ``pool``'s queue while it can take them,
        then arm the pool's next deadline if waiters are left."""
        queue, workers = pool.queue, pool.workers
        while len(queue):
            if not workers.pool_alive:
                for request in queue.pop_front(len(queue), now_us):
                    self.drop(request, pool, now_us, "failed")
                return
            if not workers.can_accept(now_us):
                free_at = workers.next_free_us()
                if free_at < pool.free_wakeup_us:
                    pool.free_wakeup_us = free_at
                    self.push(free_at, POOL_FREE, pool)
                self._arm(pool, queue.next_expiry_us(), now_us)
                return
            batch = pool.batcher.try_form(
                queue, now_us, force=(self.remaining_arrivals == 0)
            )
            if batch is None:
                self._arm(pool, min(pool.batcher.next_deadline_us(queue),
                                    queue.next_expiry_us()), now_us)
                return
            self._run_batch(pool, batch, now_us)

    def _arm(self, pool: PoolState, deadline: float, now_us: float) -> None:
        """Keep the pool's one pending ``WAKEUP`` at or before ``deadline``."""
        deadline = max(deadline, now_us)
        if deadline < pool.wakeup_us:
            pool.wakeup_us = deadline
            self.push(deadline, WAKEUP, pool)

    def _run_batch(self, pool: PoolState, batch: Batch, now_us: float) -> None:
        workers, abft = pool.workers, pool.workers.acc.abft_protected
        # Seeded by the pool's builder (ServingConfig.seed), or None for a
        # pool with zero rates, which never draws.
        rng: Optional[np.random.Generator] = pool.fault_rng
        runs, victims, at_us = [], [], now_us
        while True:
            outcome, victim = self._run(pool, batch, at_us)
            runs.append(outcome)
            victims.append(victim)
            faulted = (pool.batch_fault_rate > 0.0
                       and rng.random() < pool.batch_fault_rate)
            # ABFT flags a faulted run at drain and the batch re-runs,
            # paying full cycles again.
            if not (faulted and abft and len(runs) <= pool.max_retries
                    and workers.pool_alive):
                break
            at_us = outcome.completion_us
        failed = faulted and abft
        if not failed:
            self.last_completion_us = max(
                self.last_completion_us, outcome.completion_us
            )
        if all(victim is None for victim in victims):
            victims = ()
        self.log.append(entry := Dispatch(pool, batch, now_us, tuple(runs),
                                          tuple(victims), failed,
                                          faulted and not abft))
        self.dispatched(entry)

    def _run(self, pool: PoolState, batch: Batch, at_us: float) -> tuple:
        """One device run of ``batch``, then its fail-stop draw: the
        run's outcome and the device it lost, or ``None``."""
        outcome: DispatchOutcome = pool.workers.dispatch(batch, at_us)
        victim = None
        rate = pool.device_failure_rate
        rng: Optional[np.random.Generator] = pool.fault_rng
        if rate > 0.0 and rng.random() < rate:
            victims = outcome.device_ids
            victim = victims[int(rng.integers(0, len(victims)))]
            pool.workers.fail_device(victim, outcome.completion_us)
        return outcome, victim
