"""Router policy tests (repro.cluster.router)."""

import pytest

from repro.cluster import ClusterRequest, PoolRuntime, Router
from repro.cluster.pools import EWMA_ALPHA
from repro.cluster.router import FAIRNESS_WINDOW_US
from repro.config import (
    ClusterConfig,
    PoolConfig,
    TenantConfig,
    transformer_base,
)
from repro.errors import ServingError

SEQ_LEN = 64


@pytest.fixture(scope="module")
def model():
    return transformer_base()


def _cluster(policy="round_robin", **overrides):
    base = dict(
        pools=(
            PoolConfig(name="fpga-x", num_devices=1, max_devices=2),
            PoolConfig(name="fpga-y", num_devices=1, max_devices=2),
            PoolConfig(name="gpu", kind="gpu", num_devices=1,
                       max_devices=2),
        ),
        tenants=(
            TenantConfig(name="a", weight=1.0),
            TenantConfig(name="b", weight=1.0),
        ),
        router_policy=policy,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _pools(cluster, model):
    return [PoolRuntime(p, cluster, model, SEQ_LEN) for p in cluster.pools]


def _req(req_id=0, arrival=0.0, tenant="a", slo_us=1e9, weight=1.0,
         seq_len=16):
    return ClusterRequest(
        req_id=req_id, arrival_us=arrival, seq_len=seq_len,
        tenant=tenant, slo_us=slo_us, weight=weight,
    )


class TestRoundRobin:
    def test_rotates_over_pools(self, model):
        cluster = _cluster("round_robin")
        pools = _pools(cluster, model)
        router = Router(cluster, pools)
        picks = [router.route(_req(i), 0.0).name for i in range(6)]
        assert picks == ["fpga-x", "fpga-y", "gpu"] * 2
        assert router.decisions == {"fpga-x": 2, "fpga-y": 2, "gpu": 2}

    def test_skips_dead_pools(self, model):
        cluster = _cluster("round_robin")
        pools = _pools(cluster, model)
        pools[0].workers.fail_device(0, 0.0)
        router = Router(cluster, pools)
        picks = {router.route(_req(i), 0.0).name for i in range(4)}
        assert picks == {"fpga-y", "gpu"}

    def test_all_pools_dead_is_fatal(self, model):
        cluster = _cluster("round_robin")
        pools = _pools(cluster, model)
        for pool in pools:
            pool.workers.fail_device(0, 0.0)
        router = Router(cluster, pools)
        with pytest.raises(ServingError):
            router.route(_req(), 0.0)


class TestLeastQueue:
    def test_picks_emptiest_pool(self, model):
        cluster = _cluster("least_queue")
        pools = _pools(cluster, model)
        router = Router(cluster, pools)
        for i in range(3):
            pools[0].queue.offer(_req(100 + i), 0.0)
        for i in range(2):
            pools[2].queue.offer(_req(200 + i), 0.0)
        assert router.route(_req(), 0.0).name == "fpga-y"

    def test_depth_is_per_active_device(self, model):
        cluster = _cluster("least_queue")
        pools = _pools(cluster, model)
        router = Router(cluster, pools)
        # fpga-x: 3 waiters over 2 devices (1.5 each); the others hold
        # 2 waiters on their single device.
        pools[0].workers.add_device(0.0)
        for i in range(3):
            pools[0].queue.offer(_req(100 + i), 0.0)
        for pool in pools[1:]:
            for i in range(2):
                pool.queue.offer(_req(id(pool) % 1000 + i), 0.0)
        assert router.route(_req(), 0.0).name == "fpga-x"


class TestEwma:
    def test_seeded_from_uncontended_run(self, model):
        cluster = _cluster("ewma")
        pools = _pools(cluster, model)
        for pool in pools:
            assert pool.ewma_us == pool.run_us
        fastest = min(pools, key=lambda p: p.run_us)
        router = Router(cluster, pools)
        # Heterogeneity is visible before any completion: the GPU pool
        # (roofline, ~3x faster than the 200 MHz FPGA schedule) wins.
        assert fastest.name == "gpu"
        assert router.route(_req(), 0.0) is fastest

    def test_completions_move_the_needle(self, model):
        cluster = _cluster("ewma")
        pools = _pools(cluster, model)
        router = Router(cluster, pools)
        gpu = pools[2]
        slow = 100 * max(p.run_us for p in pools)
        for _ in range(20):
            gpu.observe_completion(0.0, slow)
        # 20 slow completions at alpha 0.2 close all but 0.8**20 of the
        # gap between the seeded EWMA and the slow latency.
        assert EWMA_ALPHA == 0.2
        assert gpu.ewma_us == pytest.approx(
            slow + (gpu.run_us - slow) * 0.8 ** 20
        )
        assert router.route(_req(), 0.0).name == "fpga-x"


class TestSloPolicy:
    def test_picks_earliest_predicted_completion(self, model):
        cluster = _cluster("slo")
        pools = _pools(cluster, model)
        router = Router(cluster, pools)
        assert router.route(_req(), 0.0).name == "gpu"

    def test_backlog_diverts_to_slower_pool(self, model):
        cluster = _cluster("slo")
        pools = _pools(cluster, model)
        router = Router(cluster, pools)
        gpu, fpga = pools[2], pools[0]
        # Queue enough work on the GPU that its predicted completion
        # (backlog batches + 1, each run_us) exceeds one uncontended
        # FPGA run; fpga-y is also slower than fpga-x? no — identical,
        # so the name tiebreak picks fpga-x.
        per_batch = cluster.max_batch_requests
        backlog = per_batch * (
            int(fpga.run_us / gpu.run_us) + 1
        )
        for i in range(backlog):
            gpu.queue.offer(_req(100 + i), 0.0)
        assert gpu.predicted_completion_us(0.0) > fpga.predicted_completion_us(0.0)
        assert router.route(_req(), 0.0).name == "fpga-x"

    def test_infeasible_first_request_still_admitted(self, model):
        cluster = _cluster("slo")
        pools = _pools(cluster, model)
        router = Router(cluster, pools)
        # No pool can finish in 1 us, but the admission window is empty,
        # so the requester is under its fair share: least-bad pool.
        choice = router.route(_req(slo_us=1.0), 0.0)
        assert choice is not None
        assert choice.name == "gpu"
        assert router.shed == 0

    def test_sheds_only_over_share_tenants(self, model):
        cluster = _cluster("slo")
        pools = _pools(cluster, model)
        router = Router(cluster, pools)
        # Tenant a fills the admission window with feasible work and is
        # now at/above its 50% weighted share.
        for i in range(6):
            assert router.route(_req(i, tenant="a"), 0.0) is not None
        assert router.route(_req(10, tenant="a", slo_us=1.0), 0.0) is None
        assert router.shed == 1
        # Tenant b holds none of the window: same impossible deadline,
        # but the fairness guard routes it to the least-bad pool.
        choice = router.route(_req(11, tenant="b", slo_us=1.0), 0.0)
        assert choice is not None
        assert router.shed == 1

    def test_fairness_window_slides(self, model):
        cluster = _cluster("slo")
        pools = _pools(cluster, model)
        router = Router(cluster, pools)
        for i in range(6):
            router.route(_req(i, tenant="a"), 0.0)
        # Inside the 250 ms window tenant a is still over its share.
        assert FAIRNESS_WINDOW_US == 250_000.0
        inside = 100_000.0
        assert router.route(
            _req(9, tenant="a", arrival=inside, slo_us=1.0), inside
        ) is None
        assert router.shed == 1
        # Once the admissions age out of the window, tenant a is no
        # longer over-share and infeasible requests are admitted again.
        later = 1_000_000.0
        choice = router.route(
            _req(10, tenant="a", arrival=later, slo_us=1.0), later
        )
        assert choice is not None
        assert router.shed == 1
