"""The cluster event loop stays linear in the work it simulates.

Pops of the one event heap are counted by kind with ``monkeypatch``.
The push sites bound them:

* ``_ARRIVAL`` — one per offered request;
* ``_COMPLETION`` — one per dispatched batch;
* ``_POOL_FREE`` — at most one pending per pool.  A new one is pushed
  only after the pending one fired and the pool went busy again (a
  dispatch), when a drain leaves the pool busy past the pending time, or
  when a scale-up makes the pool free earlier than it, so there are at
  most ``batches + scale actions + pools``;
* ``_WAKEUP`` — at most one queue-timeout wakeup per admitted request,
  plus batching/expiry deadlines (see the serving loop test);
* ``_SCALER`` — one per autoscaler interval of the run.

The pinned three-pool cluster measures about 4.2 events per request.
"""

import dataclasses
from collections import Counter

import pytest

from repro.cluster import pinned_cluster, simulate_cluster
from repro.cluster.simulator import _ARRIVAL, _COMPLETION, _POOL_FREE
from repro.config import (
    AutoscalerConfig,
    ClusterConfig,
    PoolConfig,
    TenantConfig,
    transformer_base,
)

#: Ceiling on events per request of the linear loop (measured 4.0-4.3).
EVENTS_PER_REQUEST_MAX = 4.5


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
        assert kinds[_ARRIVAL] == m.offered
        assert kinds[_COMPLETION] == batches
        assert kinds[_POOL_FREE] <= (
            batches + m.autoscale_ups + m.autoscale_downs + len(m.pools)
        )
        assert sum(kinds.values()) <= EVENTS_PER_REQUEST_MAX * m.offered


#: ``dataclasses.astuple(metrics)`` and record-status tallies of the
#: pinned cluster at ten times its tenants' rates (seed 3, autoscaled),
#: recorded before the loop kept one pending wakeup per pool.
OVERLOAD_METRICS = (
    600, 495, 32, 73, 0, 338, 0.5633333333333334, 1989.219119083262,
    248841.36455923584, 30134.81503984936, 106299.88885634794,
    34399.19671752073, "slo", 4, 0,
    {"batch": (200, 179, 0, 21, 0, 179, 0.895, 37778.95133328934,
               105590.65778427503, 38023.616877106884),
     "bursty": (200, 179, 0, 21, 0, 122, 0.61, 30644.87996656011,
                106299.88885634794, 35049.53572493477),
     "interactive": (200, 137, 32, 31, 0, 37, 0.185,
                     23936.846871110596, 107660.93636689999,
                     28813.927440929197)},
    {"fpga-a": (136, 136, 81, 1.6790123456790123, 0.7700617283950617,
                4, 4, 2, 0, 0.9506427277766911, 0.0, 22),
     "fpga-b": (60, 60, 35, 1.7142857142857142, 0.7633928571428571,
                2, 2, 1, 0, 0.9804930126191171, 0.0, 22),
     "gpu-0": (372, 299, 188, 1.5904255319148937, 0.7464261968085106,
               2, 2, 1, 0, 0.9471058747522377, 0.0, 48)},
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
            "completed": 495, "rejected": 73, "shed": 32,
        }
        assert len(result.actions) == 4
