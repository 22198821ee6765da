"""The serving event loop stays linear in the work it simulates.

Every simulated event is one ``heapq.heappop``, so the tests count pops
(by event kind) with ``monkeypatch``.  The bounds come from the push
sites listed in :mod:`repro.serving.kernel`, for one pool:

* ``ARRIVAL`` — one per offered request;
* ``WAKEUP`` — at most one pending at a time, for the head request's
  timeout or the batcher's deadline, and at most one per
  ``attempt_dispatch`` that leaves waiters.  Such a call follows an
  arrival, a pool-free wakeup, or a deadline wakeup whose head request
  left the queue (by dispatch or expiry) when it fired;
* ``POOL_FREE`` — at most one pending at a time.  A new one is
  pushed only after the pending one fired and the pool went busy again,
  which takes a dispatch or a device failure, so there are at most
  ``batches + num_devices + 1``.

Summing the sites gives ``events <= 3 * offered + 3 * batches +
2 * num_devices + 2``.  The measured cost is 1.2-2.2 events per request;
a wakeup pushed on every busy-pool dispatch attempt instead makes it
grow with the backlog (268 per request on the 3,000-request overload
run of the repo benchmark).

The same random runs also keep every device track exclusive: no two
spans the views draw on one device overlap.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import pinned_cluster, simulate_cluster
from repro.config import ServingConfig, paper_accelerator, transformer_base
from repro.memsys import ddr4_2400
from repro.obs import TraceCollector
from repro.serving import simulate_serving
from repro.serving.kernel import ARRIVAL, POOL_FREE
from repro.statcheck import lint_spans

#: Ceiling on events per request of the linear loop (measured 1.2-2.2).
EVENTS_PER_REQUEST_MAX = 2.5


@pytest.fixture(scope="module")
def model():
    return transformer_base()


def _load(rate, num_requests):
    # At 800 rps one device (~345 rps) stays busy and nearly every
    # arrival finds the pool busy; 300 rps leaves it mostly idle.
    return ServingConfig(
        arrival_rate_rps=rate, num_requests=num_requests,
        min_len=8, max_len=32, max_batch_requests=8,
        max_wait_us=1000.0, queue_capacity=64, seed=0,
    )


class TestLoopGrowth:
    @pytest.mark.parametrize("rate", [300.0, 800.0])
    def test_events_per_request_flat_in_run_length(self, model, rate,
                                                   counted_run):
        per_request = []
        for n in (600, 1200):
            result, kinds = counted_run(
                simulate_serving, model, paper_accelerator(), _load(rate, n)
            )
            assert kinds[POOL_FREE] <= len(result.batches) + 1
            per_request.append(sum(kinds.values()) / n)
        small, large = per_request
        assert large <= EVENTS_PER_REQUEST_MAX
        assert large == pytest.approx(small, rel=0.05)


@st.composite
def serving_configs(draw):
    devices = draw(st.integers(1, 3))
    min_len = draw(st.integers(4, 32))
    return ServingConfig(
        arrival_rate_rps=draw(st.sampled_from([150.0, 600.0, 2400.0])),
        num_requests=draw(st.integers(1, 120)),
        min_len=min_len,
        max_len=draw(st.integers(min_len, 64)),
        queue_capacity=draw(st.integers(2, 64)),
        queue_timeout_us=draw(st.sampled_from(
            [float("inf"), 4_000.0, 30_000.0]
        )),
        max_batch_requests=draw(st.integers(1, 8)),
        max_wait_us=draw(st.sampled_from([0.0, 300.0, 2_000.0])),
        num_devices=devices,
        placement=draw(st.sampled_from(["replicate", "layer_shard"])),
        batch_fault_rate=draw(st.sampled_from([0.0, 0.3])),
        device_failure_rate=draw(st.sampled_from([0.0, 0.05, 0.5])),
        max_retries=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestLinearBound:
    @settings(max_examples=40, deadline=None)
    @given(serving=serving_configs(), abft=st.booleans())
    def test_events_linear_in_offered_and_batches(self, counted_run,
                                                  serving, abft):
        model = transformer_base()
        acc = paper_accelerator().with_updates(abft_protected=abft)
        result, kinds = counted_run(simulate_serving, model, acc, serving)
        m = result.metrics
        batches = len(result.batches)
        assert kinds[ARRIVAL] == m.offered
        assert kinds[POOL_FREE] <= batches + m.device_failures + 1
        assert sum(kinds.values()) <= (
            3 * m.offered + 3 * batches + 2 * serving.num_devices + 2
        )


class TestDeviceTracksExclusive:
    @settings(max_examples=40, deadline=None)
    @given(serving=serving_configs(), abft=st.booleans(),
           memory=st.sampled_from([None, ddr4_2400()]))
    def test_serving_device_spans_never_overlap(self, serving, abft,
                                                memory):
        acc = paper_accelerator().with_updates(abft_protected=abft)
        serving = dataclasses.replace(serving, memory=memory)
        result = simulate_serving(transformer_base(), acc, serving)
        assert lint_spans(result.spans, exclusive_tracks=("*device*",)) == []

    def test_pinned_cluster_device_spans_never_overlap(self, model):
        result = simulate_cluster(
            model, pinned_cluster(requests_per_tenant=120)
        )
        assert any(".device" in s.track for s in result.spans)
        assert lint_spans(result.spans, exclusive_tracks=("*device*",)) == []


#: Three overloaded runs with their ``dataclasses.astuple(metrics)`` and
#: record-status tallies, recorded before the loop kept one pending
#: device-free wakeup.  Dropping redundant wakeups must not move any of
#: them; a change to equal-time event ordering would.
OUTCOME_PINS = {
    "timeout": (
        ServingConfig(
            arrival_rate_rps=900.0, num_requests=240, min_len=8,
            max_len=32, queue_timeout_us=50_000.0, max_wait_us=1000.0,
            seed=3,
        ),
        (240, 128, 0, 112, 0.4666666666666667, 55173.393177571896,
         57532.49186875089, 57668.044609716744, 51205.33328113823,
         359.1612552102229, 6969.973108923389, 356385.8800000003, 46,
         2.782608695652174, 0.84375, 0.9971940526936703,
         0.3847425156125715, 31.584921563435703, 47, 0, 0, 0, 0, 0, 0,
         0.0, 0, {}),
        {"completed": 128, "expired": 112},
    ),
    "abft_failures": (
        ServingConfig(
            arrival_rate_rps=1500.0, num_requests=240, num_devices=3,
            batch_fault_rate=0.2, device_failure_rate=0.02, max_retries=2,
            queue_capacity=128, seed=3,
        ),
        (240, 186, 51, 0, 0.2125, 255721.83785578306, 631769.4327483354,
         679237.5936011625, 275413.20037135965, 212.44568015238323,
         7827.366914431625, 875517.9200000007, 142, 1.3309859154929577,
         0.7540713028169014, 0.5235103811467383, 0.17850806349081247,
         58.47068856668103, 128, 3, 34, 0, 2, 0, 0, 0.0, 0, {}),
        {"completed": 186, "failed": 3, "rejected": 51},
    ),
    "layer_shard": (
        ServingConfig(
            arrival_rate_rps=2400.0, num_requests=240, num_devices=3,
            placement="layer_shard", queue_timeout_us=40_000.0, seed=3,
        ),
        (240, 175, 28, 37, 0.2708333333333333, 72613.93615986466,
         94245.9069480624, 97526.95049038922, 62043.93666085888,
         825.6691576711963, 29261.7149478672, 211949.30000000037, 127,
         1.3779527559055118, 0.7630413385826772, 0.8558851574409541,
         0.5384155550407573, 43.987946252375735, 64, 0, 0, 0, 0, 0, 0,
         0.0, 0, {}),
        {"completed": 175, "expired": 37, "rejected": 28},
    ),
}


class TestOutcomePins:
    @pytest.mark.parametrize("name", sorted(OUTCOME_PINS))
    def test_overloaded_outcomes_unchanged(self, model, name):
        serving, metrics, tally = OUTCOME_PINS[name]
        # Only the fault scenario runs on ABFT-protected devices.
        acc = paper_accelerator().with_updates(
            abft_protected=serving.batch_fault_rate > 0
        )
        result = simulate_serving(model, acc, serving)
        assert dataclasses.astuple(result.metrics) == metrics
        assert Counter(r.status for r in result.records) == tally


#: The two fault paths the overloaded pins above never reach, with
#: ``astuple(metrics)``, status tallies, span count, trace count and the
#: terminal reasons the traces carry.  ``pool_dead``: a two-stage
#: layer_shard pipeline loses a stage and strands its queue.
#: ``retries_exhausted``: ABFT detects a fault on every retry of some
#: batches and fails them.
FAULT_PATH_PINS = {
    "pool_dead": (
        False,
        ServingConfig(
            arrival_rate_rps=1200.0, num_requests=160, num_devices=2,
            placement="layer_shard", device_failure_rate=0.05,
            queue_capacity=128, seed=7,
        ),
        (160, 52, 0, 0, 0.0, 30690.844007015137, 59000.04666657038,
         60384.25078730845, 33605.96502240606, 515.012107736571,
         19005.927591278458, 100968.50000000006, 40, 1.3, 0.749609375,
         0.8488073012870349, 0.5245636015192856, 9.703108511673705, 40,
         108, 0, 0, 1, 0, 0, 0.0, 0, {}),
        {"completed": 52, "failed": 108}, 133, 160,
        {None: 52, "pool_dead": 108},
    ),
    "retries_exhausted": (
        True,
        ServingConfig(
            arrival_rate_rps=600.0, num_requests=160, num_devices=2,
            batch_fault_rate=0.6, max_retries=1, seed=7,
        ),
        (160, 71, 50, 0, 0.3125, 260601.57085903615, 338586.7138791982,
         343710.85757321655, 227074.61132881005, 120.71582671160124,
         6807.692537369737, 588158.1722471577, 85, 1.2941176470588236,
         0.7360294117647059, 0.9231868154198267, 0.3072591958866498,
         38.33051160725244, 64, 39, 54, 0, 0, 0, 0, 0.0, 0, {}),
        {"completed": 71, "failed": 39, "rejected": 50}, 264, 160,
        {None: 121, "retries_exhausted": 39},
    ),
}


class TestFaultPathPins:
    @pytest.mark.parametrize("name", sorted(FAULT_PATH_PINS))
    def test_fault_path_outcomes_unchanged(self, model, name):
        abft, serving, metrics, tally, spans, traces, reasons = (
            FAULT_PATH_PINS[name]
        )
        acc = paper_accelerator().with_updates(abft_protected=abft)
        tracer = TraceCollector()
        result = simulate_serving(model, acc, serving, tracer=tracer)
        assert dataclasses.astuple(result.metrics) == metrics
        assert Counter(r.status for r in result.records) == tally
        assert len(result.spans) == spans
        assert len(tracer) == traces
        assert Counter(
            t.attrs.get("reason") for t in tracer.traces
        ) == reasons
