"""The router's expected run of a pool is the run its workers price.

``PoolRuntime.run_us`` reads ``WorkerPool.run_us``: compute plus the
cold reload at the current contention, or the warm one once every
active device is warm.  Each check below dispatches the pool's next
batch and compares its duration with what the pool expected.
"""

import pytest

from repro.cluster import PoolRuntime, pinned_cluster
from repro.cluster.scenario import pinned_pools
from repro.config import transformer_base
from repro.serving.batching import Batch

SEQ_LEN = 64
BATCH = Batch(batch_id=0, requests=(), formed_us=0.0)
WHOLE_MODEL_CACHE_KIB = 45_000


def _pool_configs():
    fpga_a, fpga_b, gpu = pinned_pools()
    cached = [
        p.with_updates(
            name=f"{p.name}-cached",
            memory=p.memory.with_updates(
                weight_cache_kib=WHOLE_MODEL_CACHE_KIB
            ),
        )
        for p in (fpga_a, fpga_b)
    ]
    flat = fpga_a.with_updates(name="fpga-flat", memory=None)
    return [fpga_a, fpga_b, gpu, flat, *cached]


POOLS = {p.name: p for p in _pool_configs()}


@pytest.fixture
def runtime(request):
    return PoolRuntime(POOLS[request.param], pinned_cluster(),
                       transformer_base(), SEQ_LEN)


def next_run_us(pool):
    """Duration of the pool's next run, as its device computed it."""
    (_, _, duration_us), = pool.workers.dispatch(BATCH, 0.0).occupied
    return duration_us


def expected_then_run(pool):
    expected = pool.run_us
    free_us = pool.workers.next_free_us()
    assert pool.predicted_completion_us(free_us) == free_us + expected
    assert next_run_us(pool) == expected
    return expected


@pytest.mark.parametrize("runtime", sorted(POOLS), indirect=True)
class TestRunUsIsTheNextRun:
    def test_seeds_the_ewma(self, runtime):
        assert runtime.ewma_us == runtime.run_us

    def test_through_warm_up_and_membership_changes(self, runtime):
        workers = runtime.workers
        # Every starting device runs once cold, then the pool runs warm.
        cold = {expected_then_run(runtime) for _ in workers.active_devices}
        assert len(cold) == 1
        warm = expected_then_run(runtime)
        # A device the autoscaler adds joins cold, at the new contention.
        added = workers.add_device(0.0)
        expected_then_run(runtime)
        # Draining it leaves only warm devices at the old contention.
        workers.drain_device(added.device_id, 0.0)
        assert expected_then_run(runtime) == warm


class TestTheCacheWarms:
    @pytest.mark.parametrize("runtime", ["fpga-a-cached", "fpga-b-cached"],
                             indirect=True)
    def test_run_us_drops_once_every_device_is_warm(self, runtime):
        cold = runtime.run_us
        for _ in runtime.workers.active_devices:
            assert runtime.run_us == cold
            expected_then_run(runtime)
        assert runtime.run_us < cold
        expected_then_run(runtime)

    @pytest.mark.parametrize("runtime", ["fpga-a", "fpga-b", "fpga-flat",
                                         "gpu-0"], indirect=True)
    def test_without_a_whole_model_cache_warm_runs_cost_the_same(
            self, runtime):
        cold = runtime.run_us
        for _ in range(len(runtime.workers.active_devices) + 1):
            expected_then_run(runtime)
        assert runtime.run_us == cold


class TestTheRouterSeesTheMemorySystem:
    def test_memory_bound_pool_is_priced_slower(self):
        cluster, model = pinned_cluster(), transformer_base()
        fpga_a, fpga_b = (
            PoolRuntime(POOLS[name], cluster, model, SEQ_LEN)
            for name in ("fpga-a", "fpga-b")
        )
        assert round(fpga_a.run_us, 1) == 6_578.0
        assert round(fpga_b.run_us, 1) == 7_444.8

    def test_a_sharded_pool_expects_its_stages_end_to_end(self):
        config = POOLS["fpga-a"].with_updates(
            name="fpga-sharded", placement="layer_shard",
            min_devices=2, max_devices=2,
        )
        pool = PoolRuntime(config, pinned_cluster(), transformer_base(),
                           SEQ_LEN)
        outcome = pool.workers.dispatch(BATCH, 0.0)
        assert outcome.reload_cycles is None
        assert outcome.completion_us - outcome.start_us == pool.run_us
