"""Autoscaler tests: threshold policy units + safety properties.

The hypothesis section drives full :func:`simulate_cluster` runs over
randomized scaler settings and asserts the three safety invariants the
subsystem promises: cooldowns are never violated, replica counts never
leave ``[min_devices, max_devices]``, and graceful draining never drops
admitted work.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Autoscaler, ClusterRequest, PoolRuntime, simulate_cluster
from repro.config import (
    AutoscalerConfig,
    ClusterConfig,
    PoolConfig,
    TenantConfig,
    transformer_base,
)

SEQ_LEN = 64


@pytest.fixture(scope="module")
def model():
    return transformer_base()


def _scaler_cfg(**overrides):
    base = dict(
        interval_us=1_000.0, scale_up_queue_depth=2.0,
        scale_down_busy=0.5, cooldown_up_us=5_000.0,
        cooldown_down_us=5_000.0,
    )
    base.update(overrides)
    return AutoscalerConfig(**base)


def _pool_runtime(model, scaler, **pool_overrides):
    pool_base = dict(name="p0", num_devices=1, min_devices=1, max_devices=3)
    pool_base.update(pool_overrides)
    cluster = ClusterConfig(
        pools=(PoolConfig(**pool_base),),
        tenants=(TenantConfig(name="t"),),
        autoscaler=scaler,
    )
    return PoolRuntime(cluster.pools[0], cluster, model, SEQ_LEN)


def _fill_queue(pool, count, now=0.0):
    for i in range(count):
        pool.queue.offer(
            ClusterRequest(req_id=i, arrival_us=now, seq_len=16,
                           tenant="t", slo_us=1e9, weight=1.0),
            now,
        )


class TestScaleUp:
    def test_adds_replica_on_queue_depth(self, model):
        cfg = _scaler_cfg()
        pool = _pool_runtime(model, cfg)
        scaler = Autoscaler(cfg, [pool])
        _fill_queue(pool, 3)
        actions = scaler.evaluate(1_000.0)
        assert len(actions) == 1
        assert (actions[0].direction, actions[0].reason) == (
            "up", "queue_depth"
        )
        assert pool.active_device_count == 2

    def test_cooldown_blocks_consecutive_ups(self, model):
        cfg = _scaler_cfg()
        pool = _pool_runtime(model, cfg)
        scaler = Autoscaler(cfg, [pool])
        _fill_queue(pool, 20)
        assert scaler.evaluate(1_000.0)
        assert not scaler.evaluate(2_000.0)
        assert scaler.evaluate(1_000.0 + cfg.cooldown_up_us)
        assert pool.active_device_count == 3

    def test_never_exceeds_max_devices(self, model):
        cfg = _scaler_cfg(cooldown_up_us=0.0)
        pool = _pool_runtime(model, cfg, max_devices=2)
        scaler = Autoscaler(cfg, [pool])
        _fill_queue(pool, 50)
        for tick in range(5):
            scaler.evaluate(1_000.0 * (tick + 1))
        assert pool.active_device_count == 2

    def test_p99_signal_fires(self, model):
        cfg = _scaler_cfg(scale_up_p99_us=100.0)
        pool = _pool_runtime(model, cfg)
        scaler = Autoscaler(cfg, [pool])
        for _ in range(10):
            pool.observe_completion(900.0, 500.0)
        actions = scaler.evaluate(1_000.0)
        assert [a.reason for a in actions] == ["p99"]


class TestScaleDown:
    def test_drains_idle_replica(self, model):
        cfg = _scaler_cfg()
        pool = _pool_runtime(model, cfg)
        pool.workers.add_device(0.0)
        scaler = Autoscaler(cfg, [pool])
        actions = scaler.evaluate(10_000.0)
        assert [a.direction for a in actions] == ["down"]
        assert pool.active_device_count == 1
        drained = pool.workers.devices[actions[0].device_id]
        assert drained.draining and drained.alive

    def test_respects_min_devices(self, model):
        cfg = _scaler_cfg()
        pool = _pool_runtime(model, cfg)
        scaler = Autoscaler(cfg, [pool])
        assert not scaler.evaluate(10_000.0)
        assert pool.active_device_count == 1

    def test_busy_pool_not_drained(self, model):
        cfg = _scaler_cfg()
        pool = _pool_runtime(model, cfg)
        pool.workers.add_device(0.0)
        scaler = Autoscaler(cfg, [pool])
        for device in pool.workers.devices:
            device.occupy(9_000.0, cfg.interval_us)
        assert not scaler.evaluate(10_000.0)

    def test_victim_is_soonest_free_device(self, model):
        cfg = _scaler_cfg()
        pool = _pool_runtime(model, cfg)
        pool.workers.add_device(0.0)
        pool.workers.devices[0].occupy(0.0, 50_000.0)
        # Absorb the old busy time into the snapshot so the evaluation
        # interval itself reads idle.
        pool.interval_busy_fraction(cfg.interval_us)
        scaler = Autoscaler(cfg, [pool])
        actions = scaler.evaluate(100_000.0)
        # Device 0 frees at 50 ms, device 1 is idle the whole time:
        # device 1 retires with zero drain waste.
        assert [a.device_id for a in actions] == [1]


class TestScope:
    def test_disabled_scaler_is_inert(self, model):
        cfg = _scaler_cfg(enabled=False)
        pool = _pool_runtime(model, cfg)
        scaler = Autoscaler(cfg, [pool])
        _fill_queue(pool, 50)
        assert scaler.evaluate(1_000.0) == []

    def test_layer_shard_pools_are_static(self, model):
        cfg = _scaler_cfg()
        pool = _pool_runtime(
            model, cfg, placement="layer_shard",
            num_devices=2, min_devices=1, max_devices=4,
        )
        scaler = Autoscaler(cfg, [pool])
        _fill_queue(pool, 50)
        assert scaler.evaluate(1_000.0) == []
        assert pool.active_device_count == 2


# --- safety properties over full simulated runs ------------------------

def _property_cluster(
    rate_rps, num_requests, interval_us, cooldown_up_us, cooldown_down_us,
    up_depth, max_devices, policy, seed,
):
    return ClusterConfig(
        pools=(
            PoolConfig(name="fpga", num_devices=1, min_devices=1,
                       max_devices=max_devices),
            PoolConfig(name="gpu", kind="gpu", num_devices=1,
                       min_devices=1, max_devices=2),
        ),
        tenants=(
            TenantConfig(name="t0", rate_rps=rate_rps,
                         num_requests=num_requests, min_len=8, max_len=32,
                         slo_us=50_000.0, seed=1),
            TenantConfig(name="t1", arrival="mmpp", rate_rps=rate_rps,
                         num_requests=num_requests, min_len=8, max_len=32,
                         slo_us=50_000.0, seed=2),
        ),
        router_policy=policy,
        autoscaler=AutoscalerConfig(
            interval_us=interval_us,
            scale_up_queue_depth=up_depth,
            scale_down_busy=0.4,
            cooldown_up_us=cooldown_up_us,
            cooldown_down_us=cooldown_down_us,
        ),
        queue_capacity=32,
        queue_timeout_us=60_000.0,
        max_batch_requests=4,
        seed=seed,
    )


scaler_runs = st.builds(
    _property_cluster,
    rate_rps=st.sampled_from([150.0, 400.0, 900.0]),
    num_requests=st.integers(min_value=15, max_value=40),
    interval_us=st.sampled_from([4_000.0, 10_000.0, 25_000.0]),
    cooldown_up_us=st.sampled_from([0.0, 15_000.0, 60_000.0]),
    cooldown_down_us=st.sampled_from([0.0, 30_000.0, 90_000.0]),
    up_depth=st.sampled_from([1.0, 2.0, 6.0]),
    max_devices=st.integers(min_value=1, max_value=4),
    policy=st.sampled_from(["round_robin", "least_queue", "ewma", "slo"]),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestAutoscalerProperties:
    @settings(max_examples=25, deadline=None)
    @given(cluster=scaler_runs)
    def test_cooldowns_never_violated(self, model, cluster):
        result = simulate_cluster(model, cluster)
        last = {}
        for action in result.actions:
            key = (action.pool, action.direction)
            cooldown = (
                cluster.autoscaler.cooldown_up_us
                if action.direction == "up"
                else cluster.autoscaler.cooldown_down_us
            )
            if key in last:
                assert action.at_us - last[key] >= cooldown
            last[key] = action.at_us

    @settings(max_examples=25, deadline=None)
    @given(cluster=scaler_runs)
    def test_replica_count_stays_in_bounds(self, model, cluster):
        result = simulate_cluster(model, cluster)
        bounds = {
            p.name: (p.min_devices, p.max_devices) for p in cluster.pools
        }
        # Replay the action log on top of the starting replica counts:
        # the live count must respect the pool bounds at every step.
        count = {p.name: p.num_devices for p in cluster.pools}
        for action in result.actions:
            count[action.pool] += 1 if action.direction == "up" else -1
            low, high = bounds[action.pool]
            assert low <= count[action.pool] <= high
        for name, summary in result.metrics.pools.items():
            assert summary.peak_devices <= bounds[name][1]
            assert bounds[name][0] <= summary.final_devices <= bounds[name][1]
        for name, samples in result.device_samples.items():
            for _, devices in samples:
                low, high = bounds[name]
                assert low <= devices <= high

    @settings(max_examples=25, deadline=None)
    @given(cluster=scaler_runs)
    def test_draining_never_drops_in_flight_requests(self, model, cluster):
        result = simulate_cluster(model, cluster)
        cm = result.metrics
        # Every request resolves to exactly one outcome...
        assert cm.offered == (
            cm.completed + cm.shed + cm.rejected + cm.expired
        )
        assert cm.offered == sum(t.num_requests for t in cluster.tenants)
        # ...and every dispatched request completes: draining retires a
        # replica only after its in-flight batch finishes, so scale-down
        # can never strand admitted work.
        for record in result.records:
            if record.dispatched_us is not None:
                assert record.status == "completed"
                assert record.completed_us is not None
                assert record.completed_us >= record.dispatched_us
