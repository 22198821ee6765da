"""The cluster event loop stays linear in the work it simulates.

Pops of the one event heap are counted by kind with ``monkeypatch``.
With ``A`` offered requests, ``B`` batches, ``S`` scale actions (``U``
of them up), ``X`` expiries, ``P`` pools and ``T`` autoscaler ticks,
the push sites listed in :mod:`repro.serving.kernel` bound them:

* ``ARRIVAL`` — ``A``;
* ``COMPLETION`` — ``B``, one per dispatched batch;
* ``POOL_FREE`` — at most one pending per pool.  A new one is pushed
  only after the pending one fired and the pool went busy again (a
  dispatch), when a drain leaves the pool busy past the pending time, or
  when a scale-up makes the pool free earlier than it, so at most
  ``B + S + P``;
* ``WAKEUP`` — at most one pending per pool, for the head request's
  timeout or the batcher's deadline, and at most one per dispatch
  attempt that leaves waiters.  Attempts follow a routed arrival, the
  last arrival's flush of the other pools, a completion, a pool-free
  wakeup, or a scale-up: ``A + 2B + 2S + 2P``.  A deadline wakeup
  pushes another only after the head request left its queue, by
  dispatch or expiry: ``B + X <= A + B`` more;
* ``SCALER`` — ``T``, one per autoscaler interval while work remains.

Summing the sites gives ``events <= 3A + 5B + 3S + 3P + T``.  The pinned
three-pool cluster measures about 2.9 events per request.
"""

import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import pinned_cluster, simulate_cluster
from repro.cluster.scenario import bursty_obs_cluster
from repro.config import (
    AutoscalerConfig,
    ClusterConfig,
    PoolConfig,
    TenantConfig,
    transformer_base,
)
from repro.obs import TraceCollector
from repro.obs.slo import BurnRateMonitor
from repro.serving.kernel import ARRIVAL, COMPLETION, POOL_FREE, SCALER

#: Ceiling on events per request of the linear loop (measured 1.4-2.9).
EVENTS_PER_REQUEST_MAX = 3.5


@pytest.fixture(scope="module")
def model():
    return transformer_base()


def overloaded_cluster(num_requests):
    """One single-device pool fed ~2.3x what it can serve."""
    return ClusterConfig(
        pools=(PoolConfig(name="fpga", num_devices=1, max_devices=1),),
        tenants=(TenantConfig(
            name="steady", rate_rps=800.0, num_requests=num_requests,
            min_len=8, max_len=32, slo_us=200_000.0, seed=1,
        ),),
        router_policy="round_robin",
        autoscaler=AutoscalerConfig(enabled=False),
        max_batch_requests=8, max_wait_us=1000.0,
    )


def static_pinned(requests_per_tenant):
    return pinned_cluster(
        requests_per_tenant=requests_per_tenant,
        router_policy="round_robin", autoscale=False,
    )


class TestLoopGrowth:
    @pytest.mark.parametrize("scenario, n", [
        (overloaded_cluster, 600),
        (static_pinned, 200),
    ])
    def test_events_per_request_flat_in_run_length(self, model, scenario, n,
                                                   counted_run):
        per_request = []
        for size in (n, 2 * n):
            result, kinds = counted_run(
                simulate_cluster, model, scenario(size)
            )
            per_request.append(sum(kinds.values()) / len(result.records))
        small, large = per_request
        assert large <= EVENTS_PER_REQUEST_MAX
        assert large == pytest.approx(small, rel=0.05)


class TestPushSites:
    def test_pinned_autoscaled_cluster(self, model, counted_run):
        result, kinds = counted_run(
            simulate_cluster, model, pinned_cluster(requests_per_tenant=200)
        )
        m = result.metrics
        batches = sum(p.num_batches for p in m.pools.values())
        assert kinds[ARRIVAL] == m.offered
        assert kinds[COMPLETION] == batches
        assert kinds[POOL_FREE] <= (
            batches + m.autoscale_ups + m.autoscale_downs + len(m.pools)
        )
        assert sum(kinds.values()) <= EVENTS_PER_REQUEST_MAX * m.offered


#: Pool shapes the property draws from: a replicated FPGA pool the
#: autoscaler may grow, a static two-stage layer_shard pipeline, and a
#: V100 roofline pool.
POOL_SHAPES = {
    "rep": dict(num_devices=1, max_devices=3),
    "shard": dict(num_devices=2, max_devices=2, placement="layer_shard"),
    "gpu": dict(kind="gpu", num_devices=1, max_devices=2),
}


@st.composite
def cluster_configs(draw):
    shapes = draw(st.lists(st.sampled_from(sorted(POOL_SHAPES)),
                           min_size=1, max_size=3))
    pools = tuple(
        PoolConfig(name=f"{shape}{i}", **POOL_SHAPES[shape])
        for i, shape in enumerate(shapes)
    )
    tenants = tuple(
        TenantConfig(
            name=f"t{i}",
            arrival=draw(st.sampled_from(["poisson", "diurnal", "mmpp"])),
            rate_rps=draw(st.sampled_from([150.0, 600.0, 2400.0])),
            num_requests=draw(st.integers(1, 60)),
            min_len=8, max_len=draw(st.integers(8, 64)),
            slo_us=draw(st.sampled_from([5_000.0, 50_000.0])),
            seed=i,
        )
        for i in range(draw(st.integers(1, 2)))
    )
    return ClusterConfig(
        pools=pools,
        tenants=tenants,
        router_policy=draw(st.sampled_from(
            ["round_robin", "least_queue", "ewma", "slo"]
        )),
        autoscaler=AutoscalerConfig(
            enabled=draw(st.booleans()),
            interval_us=draw(st.sampled_from([5_000.0, 20_000.0])),
            scale_up_queue_depth=1.0,
            scale_down_busy=0.5,
            cooldown_up_us=0.0,
            cooldown_down_us=0.0,
        ),
        queue_capacity=draw(st.integers(2, 32)),
        queue_timeout_us=draw(st.sampled_from(
            [float("inf"), 4_000.0, 30_000.0]
        )),
        max_batch_requests=draw(st.integers(1, 8)),
        max_wait_us=draw(st.sampled_from([0.0, 300.0, 2_000.0])),
        seed=draw(st.integers(0, 2**16)),
    )


def _floats(value):
    """Every float inside a (nested) metrics tuple/dict."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)


class TestKernelInvariants:
    @settings(max_examples=40, deadline=None)
    @given(cluster=cluster_configs())
    def test_outcomes_conserved_and_events_linear(self, model, cluster,
                                                  counted_run):
        result, kinds = counted_run(simulate_cluster, model, cluster)
        m = result.metrics
        ids = [r.request.req_id for r in result.records]
        assert len(ids) == len(set(ids)) == m.offered
        tally = Counter(r.status for r in result.records)
        assert set(tally) <= {"completed", "shed", "rejected", "expired"}
        assert m.offered == m.completed + m.shed + m.rejected + m.expired
        assert (m.completed, m.shed, m.rejected, m.expired) == (
            tally["completed"], tally["shed"], tally["rejected"],
            tally["expired"],
        )
        assert not any(
            math.isnan(v) for v in _floats(dataclasses.astuple(m))
        )

        batches = sum(p.num_batches for p in m.pools.values())
        actions = m.autoscale_ups + m.autoscale_downs
        pools = len(m.pools)
        assert kinds[ARRIVAL] == m.offered
        assert kinds[COMPLETION] == batches
        assert kinds[POOL_FREE] <= batches + actions + pools
        horizon = max(
            max(r.request.arrival_us for r in result.records)
            + (cluster.queue_timeout_us if m.expired else 0.0),
            max((r.completed_us for r in result.records
                 if r.completed_us is not None), default=0.0),
        )
        assert kinds[SCALER] <= (
            horizon / cluster.autoscaler.interval_us + 1
            if cluster.autoscaler.enabled else 0
        )
        assert sum(kinds.values()) <= (
            3 * m.offered + 5 * batches + 3 * actions + 3 * pools
            + kinds[SCALER]
        )


#: ``dataclasses.astuple(metrics)`` and record-status tallies of the
#: pinned cluster at ten times its tenants' rates (seed 3, autoscaled),
#: recorded after the slo router began reading each pool's priced run.
OVERLOAD_METRICS = (
    600, 467, 32, 101, 0, 353, 0.5883333333333334, 1956.305030926546,
    238715.32946925936, 26583.16956377294, 45343.45979736655,
    26183.292101718107, "slo", 4, 2,
    {"interactive": (200, 127, 32, 41, 0, 35, 0.175,
                     25327.939765529747, 35115.34942305875,
                     24350.641614797532),
     "batch": (200, 169, 0, 31, 0, 169, 0.845, 28882.83209025648,
               45475.081657251605, 29284.75765454956),
     "bursty": (200, 171, 0, 29, 0, 149, 0.745, 23303.309355593374,
                45881.12099432445, 24479.192297100508)},
    {"fpga-a": (127, 127, 75, 1.6933333333333334, 0.724375,
                3, 4, 2, 1, 0.9024146586548392, 0.0, 11),
     "fpga-b": (48, 48, 29, 1.6551724137931034, 0.7489224137931034,
                1, 2, 1, 1, 0.8657592309311452, 0.0, 10),
     "gpu-0": (393, 292, 189, 1.5449735449735449, 0.746114417989418,
               2, 2, 1, 0, 0.9946859056924349, 0.0, 48)},
)


class TestOutcomePins:
    def test_overloaded_autoscaled_outcomes_unchanged(self, model):
        base = pinned_cluster(requests_per_tenant=200, seed=3)
        cluster = base.with_updates(tenants=tuple(
            t.with_updates(rate_rps=10 * t.rate_rps) for t in base.tenants
        ))
        result = simulate_cluster(model, cluster)
        assert dataclasses.astuple(result.metrics) == OVERLOAD_METRICS
        assert Counter(r.status for r in result.records) == {
            "completed": 467, "rejected": 101, "shed": 32,
        }
        assert len(result.actions) == 6


#: The bursty observability scenario, where a ``BurnRateMonitor`` is the
#: autoscaler's only up-signal: ``astuple(metrics)``, status tallies,
#: span and trace counts, the three burn-driven scale-ups and the
#: monitor's summary.
BURSTY_METRICS = (
    300, 300, 0, 0, 0, 183, 0.61, 173.7607377002747, 1726512.0070880419,
    12467.73999999999, 48378.47553118609, 17445.831703076892,
    "least_queue", 3, 0,
    {"bursty": (300, 300, 0, 0, 0, 183, 0.61, 12467.73999999999,
                48378.47553118609, 17445.831703076892)},
    {"fpga-a": (300, 300, 233, 1.2875536480686696, 0.5590799356223176,
                4, 4, 3, 0, 0.4371009801939397, 0.0, 23)},
)
BURSTY_SUMMARY = {"bursty": {
    "events": 300, "peak_burn_long": 16.599999999999984,
    "peak_burn_short": 19.999999999999982, "alerts_fired": 3,
    "alerts_unresolved": 1,
}}


class TestBurnDrivenPin:
    def test_bursty_burn_driven_outcomes_unchanged(self, model):
        tracer, monitor = TraceCollector(), BurnRateMonitor()
        result = simulate_cluster(
            model, bursty_obs_cluster(requests_per_tenant=300),
            tracer=tracer, monitor=monitor,
        )
        assert dataclasses.astuple(result.metrics) == BURSTY_METRICS
        assert Counter(r.status for r in result.records) == {
            "completed": 300,
        }
        assert len(result.spans) == 536
        assert len(tracer) == 300
        assert [(a.at_us, a.pool, a.direction, a.device_id, a.reason)
                for a in result.actions] == [
            (at, "fpga-a", "up", device, "slo_burn")
            for at, device in ((600_000.0, 1), (650_000.0, 2),
                               (700_000.0, 3))
        ]
        assert monitor.summary() == BURSTY_SUMMARY
