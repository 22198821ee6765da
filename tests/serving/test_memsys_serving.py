"""Serving with the memory system: caching, contention, metrics."""

import dataclasses

import pytest

from repro.config import (
    ServingConfig,
    paper_accelerator,
    transformer_base,
)
from repro.core.model_runner import exposed_reload_cycles
from repro.memsys import ddr4_2400, unlimited
from repro.serving import simulate_serving
from repro.serving.batching import BatchCostModel
from repro.serving.devices import WorkerPool

WHOLE_MODEL_CACHE_KIB = 44 * 1024


@pytest.fixture(scope="module")
def model():
    return transformer_base()


@pytest.fixture(scope="module")
def acc():
    return paper_accelerator()


def _serving(**overrides):
    return ServingConfig(
        arrival_rate_rps=1000.0, num_requests=60,
        min_len=8, max_len=32, seed=5, **overrides,
    )


class TestWeightCacheServing:
    def test_whole_model_cache_serves_hits_and_moves_p95(self, model, acc):
        flat = simulate_serving(model, acc, _serving()).metrics
        mem = ddr4_2400().with_updates(
            weight_cache_kib=WHOLE_MODEL_CACHE_KIB
        )
        cached = simulate_serving(model, acc, _serving(memory=mem)).metrics
        assert cached.weight_cache_hit_rate > 0.5
        assert cached.weight_cache_hits > 0
        assert cached.latency_p95_us != flat.latency_p95_us
        # Warm weights beat the flat per-run reload constant.
        assert cached.latency_p95_us < flat.latency_p95_us

    def test_default_capacity_cycles_through_the_model(self, model, acc):
        # Table II holds ~2 MiB; Transformer-base is ~42 MiB, so the
        # round-robin block sequence evicts everything before reuse.
        mem = ddr4_2400()
        result = simulate_serving(model, acc, _serving(memory=mem)).metrics
        assert result.weight_cache_hit_rate == 0.0
        assert result.weight_cache_misses > 0

    def test_disabled_cache_refetches_every_block(self, model, acc):
        mem = ddr4_2400().with_updates(enable_weight_cache=False)
        result = simulate_serving(model, acc, _serving(memory=mem))
        metrics = result.metrics
        assert metrics.weight_cache_hits == 0
        blocks_per_run = (
            2 * model.num_encoder_layers + 3 * model.num_decoder_layers
        )
        assert metrics.weight_cache_misses == (
            blocks_per_run * metrics.num_batches
        )
        assert metrics.reload_stall_cycles > 0

    def test_unlimited_link_reloads_for_free(self, model, acc):
        result = simulate_serving(
            model, acc, _serving(memory=unlimited())
        ).metrics
        assert result.reload_stall_cycles == 0
        assert result.weight_cache_misses > 0  # cold misses, free fetches

    def test_layer_shard_ignores_the_memory_system(self, model, acc):
        serving = _serving(
            memory=ddr4_2400(), num_devices=2, placement="layer_shard"
        )
        result = simulate_serving(model, acc, serving).metrics
        assert result.weight_cache_hits == 0
        assert result.weight_cache_misses == 0
        assert result.reload_stall_cycles == 0


class TestChannelContention:
    def _pool(self, model, acc, mem, num_devices):
        cost = BatchCostModel(model, acc)
        return WorkerPool(num_devices, "replicate", cost, acc, mem=mem)

    def test_fewer_channels_mean_more_stall(self, model, acc):
        base = ddr4_2400().with_updates(enable_weight_cache=False)
        shared = self._pool(
            model, acc, base.with_updates(shared_channels=1), 4
        )
        private = self._pool(
            model, acc, base.with_updates(shared_channels=4), 4
        )
        shared_stall, _, _ = shared._memsys_reload_cycles(0)
        private_stall, _, _ = private._memsys_reload_cycles(0)
        assert shared_stall > private_stall

    def test_single_device_never_contends(self, model, acc):
        # A lone device fetches at the channel's full bandwidth.
        mem = ddr4_2400().with_updates(shared_channels=1)
        pool = self._pool(model, acc, mem, 1)
        fetches = [(mem.transfer_cycles(nbytes, acc.clock_mhz), compute)
                   for compute, nbytes in pool.cost.block_units]
        assert (pool._memsys_reload_cycles(0)[0]
                == exposed_reload_cycles(fetches, True))

    def test_failed_replica_stops_contending(self, model, acc):
        # A fail-stopped replica leaves the shared channel: the survivor
        # fetches as fast as a one-device pool.
        mem = ddr4_2400().with_updates(
            shared_channels=1, enable_weight_cache=False
        )
        pool = self._pool(model, acc, mem, 2)
        pool.fail_device(0, 0.0)
        alone = self._pool(model, acc, mem, 1)
        assert (pool._memsys_reload_cycles(1)[0]
                == alone._memsys_reload_cycles(0)[0])

    def test_membership_changes_reprice_the_next_miss(self, model, acc):
        # Every add/drain re-derives contention: the next miss is priced
        # exactly as in a fresh pool of the new size (no stale fetches).
        mem = ddr4_2400().with_updates(
            shared_channels=1, enable_weight_cache=False
        )
        pool = self._pool(model, acc, mem, 1)
        steps = (
            (lambda: pool.add_device(0.0), 2),
            (lambda: pool.add_device(0.0), 3),
            (lambda: pool.drain_device(0, 0.0), 2),
            (lambda: pool.drain_device(1, 0.0), 1),
            (lambda: pool.add_device(0.0), 2),
        )
        for change, size in steps:
            change()
            fresh = self._pool(model, acc, mem, size)
            device = pool.active_devices[0].device_id
            assert (pool._memsys_reload_cycles(device)
                    == fresh._memsys_reload_cycles(0))
        # Distinct contention really prices differently.
        assert (self._pool(model, acc, mem, 1)._memsys_reload_cycles(0)
                != self._pool(model, acc, mem, 3)._memsys_reload_cycles(0))

    def test_device_failures_lower_the_reload_stall(self, model, acc):
        # Pinned: the run loses a replica early; with it still counted
        # as a contender the stall read 31,641,261 cycles.
        m = simulate_serving(model, acc, ServingConfig(
            arrival_rate_rps=300.0, num_requests=200, num_devices=2,
            device_failure_rate=0.05, memory=ddr4_2400(), seed=3,
        )).metrics
        assert m.device_failures >= 1
        assert m.reload_stall_cycles == 18_486_336


class TestMetricsSurface:
    def test_rows_include_memory_counters(self, model, acc):
        mem = ddr4_2400().with_updates(
            weight_cache_kib=WHOLE_MODEL_CACHE_KIB
        )
        metrics = simulate_serving(model, acc, _serving(memory=mem)).metrics
        labels = {row[0] for row in metrics.as_rows()}
        assert {"weight-cache hits", "weight-cache misses",
                "weight-cache hit rate",
                "reload stall cycles"} <= labels

    def test_serving_config_validates_memory(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ServingConfig(memory="ddr4")

    def test_memory_config_round_trips_replace(self):
        serving = _serving(memory=ddr4_2400())
        replaced = dataclasses.replace(serving, memory=None)
        assert replaced.memory is None
        assert serving.memory == ddr4_2400()
