"""Compression through the serving and cluster cost models."""

import pytest

from repro.compress import schedule_compressed_ffn, schedule_compressed_mha
from repro.config import (
    AcceleratorConfig,
    CompressionSpec,
    PoolConfig,
    ServingConfig,
    circulant_spec,
    nm_sparse_spec,
    transformer_base,
)
from repro.serving import simulate_serving
from repro.serving.batching import BatchCostModel


@pytest.fixture
def paper():
    return transformer_base(), AcceleratorConfig()


class TestBatchCostModel:
    def test_compressed_cycles_match_schedules(self, paper):
        model, acc = paper
        spec = nm_sparse_spec(2, 4)
        cost = BatchCostModel(model, acc, compression=spec)
        assert cost.mha_cycles == schedule_compressed_mha(
            model, acc, spec).total_cycles
        assert cost.ffn_cycles == schedule_compressed_ffn(
            model, acc, spec).total_cycles

    def test_dense_spec_equals_no_spec(self, paper):
        model, acc = paper
        plain = BatchCostModel(model, acc)
        dense = BatchCostModel(model, acc,
                               compression=CompressionSpec())
        assert dense.mha_cycles == plain.mha_cycles
        assert dense.ffn_cycles == plain.ffn_cycles
        assert dense.block_units == plain.block_units

    def test_compressed_weight_bytes_shrink(self, paper):
        model, acc = paper
        dense_units = BatchCostModel(model, acc).block_units
        circ_units = BatchCostModel(
            model, acc, compression=circulant_spec(8)).block_units
        assert len(dense_units) == len(circ_units)
        for (_, dense_bytes), (_, circ_bytes) in zip(
                dense_units, circ_units):
            assert circ_bytes == dense_bytes // 8


class TestServingSimulation:
    def test_sparsity_raises_throughput(self, paper):
        model, acc = paper
        dense = simulate_serving(model, acc, ServingConfig())
        sparse = simulate_serving(
            model, acc, ServingConfig(compression=nm_sparse_spec(1, 4))
        )
        assert (sparse.metrics.throughput_rps
                > dense.metrics.throughput_rps)

    def test_dense_compression_spec_is_bit_identical(self, paper):
        model, acc = paper
        plain = simulate_serving(model, acc, ServingConfig())
        dense = simulate_serving(
            model, acc, ServingConfig(compression=CompressionSpec())
        )
        assert (dense.metrics.throughput_rps
                == plain.metrics.throughput_rps)
        assert (dense.metrics.latency_p99_us
                == plain.metrics.latency_p99_us)


class TestClusterIntegration:
    def test_fpga_pool_cost_model_uses_compression(self, paper):
        from repro.cluster.pools import build_cost_model

        model, acc = paper
        spec = nm_sparse_spec(2, 4)
        pool = PoolConfig(name="edge", kind="fpga", compression=spec)
        cost = build_cost_model(pool, model, acc.seq_len)
        compressed_acc = AcceleratorConfig(
            seq_len=acc.seq_len, clock_mhz=pool.clock_mhz,
            abft_protected=pool.abft_protected,
        )
        assert cost.mha_cycles == schedule_compressed_mha(
            model, compressed_acc, spec).total_cycles
