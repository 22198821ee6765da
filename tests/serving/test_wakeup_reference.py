"""One pending ``WAKEUP`` per pool logs what a wakeup per deadline logged.

The kernel keeps at most one ``WAKEUP`` pending per pool, at the pool's
next deadline.  :class:`ReferenceKernel` keeps the loop it replaced:
every admitted request pushes its own timeout wakeup, and every
dispatch attempt that finds a free pool but no batch pushes its
deadline, whatever is already pending.  Over random serving runs with
timeouts, overload, faults and device failures, both kernels must log
the same drops (request, time, status) and the same dispatches, in the
same order.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.simulator as serving_sim
from repro.config import ServingConfig, paper_accelerator, transformer_base
from repro.errors import ServingError
from repro.memsys import ddr4_2400
from repro.serving import simulate_serving
from repro.serving.kernel import (
    ARRIVAL,
    COMPLETION,
    POOL_FREE,
    SCALER,
    WAKEUP,
    Dispatch,
    Drop,
    EventKernel,
)

_INF = float("inf")


class ReferenceKernel(EventKernel):
    """The event loop with one timeout wakeup per admitted request and
    an undeduplicated batching wakeup per attempt."""

    def run(self) -> float:
        heap, dispatch, drop = self._heap, self.attempt_dispatch, self.drop
        while heap:
            now_us, kind, _, payload = heapq.heappop(heap)
            if kind == ARRIVAL:
                self.remaining_arrivals -= 1
                pool = self.route(payload, now_us)
                if pool is not None:
                    queue = pool.queue
                    if not queue.offer(payload, now_us):
                        drop(payload, pool, now_us, "rejected")
                    elif queue.timeout_us != _INF:
                        self.push(payload.arrival_us + queue.timeout_us,
                                  WAKEUP, pool)
            elif kind == COMPLETION:
                dispatch(self.completed(payload, now_us), now_us)
                continue
            elif kind == SCALER:
                for pool in self.scale(now_us):
                    dispatch(pool, now_us)
                continue
            else:
                pool = payload
                if kind == POOL_FREE and now_us >= pool.free_wakeup_us:
                    pool.free_wakeup_us = _INF
            if pool is not None:
                for request in pool.queue.expire(now_us):
                    drop(request, pool, now_us, "expired")
                dispatch(pool, now_us)
            if kind == ARRIVAL and not self.remaining_arrivals:
                for other in self.pools:
                    if other is not pool:
                        dispatch(other, now_us)
        if any(len(pool.queue) for pool in self.pools):
            raise ServingError("simulation ended with requests still queued")
        return self.last_completion_us - self.first_arrival_us

    def attempt_dispatch(self, pool, now_us: float) -> None:
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
                return
            batch = pool.batcher.try_form(
                queue, now_us, force=(self.remaining_arrivals == 0)
            )
            if batch is None:
                deadline = min(pool.batcher.next_deadline_us(queue),
                               queue.next_expiry_us())
                if deadline != _INF:
                    self.push(max(deadline, now_us), WAKEUP, pool)
                return
            self._run_batch(pool, batch, now_us)


def _logged(log):
    """The log without its pool objects, which differ between runs."""
    out = []
    for entry in log:
        if type(entry) is Drop:
            out.append((entry.request, entry.at_us, entry.status))
        elif type(entry) is Dispatch:
            out.append((entry.batch, entry.at_us, entry.runs,
                        entry.victims, entry.failed, entry.corrupted))
    return out


@st.composite
def timed_out_configs(draw):
    min_len = draw(st.integers(4, 32))
    return ServingConfig(
        arrival_rate_rps=draw(st.sampled_from([300.0, 900.0, 2400.0,
                                               6000.0])),
        num_requests=draw(st.integers(1, 150)),
        min_len=min_len,
        max_len=draw(st.integers(min_len, 64)),
        queue_capacity=draw(st.integers(2, 64)),
        queue_timeout_us=draw(st.sampled_from(
            [1_000.0, 4_000.0, 15_000.0, 30_000.0, _INF]
        )),
        max_batch_requests=draw(st.integers(1, 8)),
        max_wait_us=draw(st.sampled_from([0.0, 300.0, 2_000.0])),
        num_devices=draw(st.integers(1, 3)),
        placement=draw(st.sampled_from(["replicate", "layer_shard"])),
        batch_fault_rate=draw(st.sampled_from([0.0, 0.3])),
        device_failure_rate=draw(st.sampled_from([0.0, 0.01, 0.05, 0.3])),
        max_retries=draw(st.integers(0, 2)),
        memory=draw(st.sampled_from([None, ddr4_2400()])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestOneWakeupPerPool:
    @settings(max_examples=60, deadline=None)
    @given(serving=timed_out_configs(), abft=st.booleans())
    def test_log_matches_a_wakeup_per_deadline(self, serving, abft):
        acc = paper_accelerator().with_updates(abft_protected=abft)
        result = simulate_serving(transformer_base(), acc, serving)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serving_sim, "EventKernel", ReferenceKernel)
            reference = simulate_serving(transformer_base(), acc, serving)
        assert _logged(result.log) == _logged(reference.log)
        assert result.records == reference.records
        for entry in result.log:
            if type(entry) is Drop and entry.status == "expired":
                assert entry.at_us == (entry.request.arrival_us
                                       + serving.queue_timeout_us)
