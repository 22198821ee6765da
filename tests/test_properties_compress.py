"""Hypothesis fuzzing of the compress subsystem's contracts.

Three families of properties:

* **format equivalence** — the block-circulant / N:M matvec kernels
  must equal a dense matvec with the expanded matrix, in float and in
  exact INT8 integer arithmetic;
* **mask validity** — an N:M pruning keeps exactly ``n`` rows per
  ``m``-row group in every 64-column tile;
* **pricing exactness** — the event-timeline scheduler and the
  closed-form cycle model, both given a compression ``spec``, agree
  exactly across random model / accelerator / memory-system
  configurations, and a ratio-1.0 spec degenerates bit-identically to
  the dense schedule.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import BlockCirculantMatrix, NMSparseMatrix
from repro.config import (
    AcceleratorConfig,
    CompressionSpec,
    MemoryConfig,
    ModelConfig,
    circulant_spec,
    nm_sparse_spec,
)
from repro.core import (
    ffn_cycle_breakdown,
    mha_cycle_breakdown,
    schedule_ffn,
    schedule_mha,
)

model_configs = st.builds(
    lambda h, ff_mult: ModelConfig(
        "fuzz", d_model=64 * h, d_ff=64 * h * ff_mult, num_heads=h,
        num_encoder_layers=1, num_decoder_layers=1, max_seq_len=64,
    ),
    h=st.integers(1, 8),
    ff_mult=st.integers(1, 8),
)

acc_configs = st.builds(
    AcceleratorConfig,
    seq_len=st.sampled_from([8, 16, 32, 64, 128]),
    sa_cols=st.just(64),
    clock_mhz=st.sampled_from([100.0, 200.0]),
    sa_drain_cycles=st.integers(0, 32),
    weight_load_cycles=st.integers(0, 64),
    pass_issue_cycles=st.integers(0, 8),
    softmax_pipeline_depth=st.integers(0, 64),
    layernorm_pipeline_depth=st.integers(0, 64),
    pass_overlap=st.booleans(),
    single_ported_buffers=st.booleans(),
    abft_protected=st.booleans(),
    abft_check_cycles=st.integers(0, 32),
)

mem_configs = st.one_of(
    st.none(),
    st.builds(
        MemoryConfig,
        bandwidth_gbps=st.sampled_from([0.5, 2.0, 19.2, float("inf")]),
        burst_efficiency=st.sampled_from([0.5, 0.8, 1.0]),
        transfer_latency_cycles=st.integers(0, 64),
        double_buffered_prefetch=st.booleans(),
    ),
)

compress_specs = st.one_of(
    st.builds(circulant_spec, st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
    st.builds(
        lambda m, n: nm_sparse_spec(min(n, m), m),
        m=st.sampled_from([2, 4, 8, 16]),
        n=st.integers(1, 16),
    ),
    st.just(CompressionSpec()),
)

dense_equivalent_specs = st.sampled_from([
    CompressionSpec(), circulant_spec(1), nm_sparse_spec(4, 4),
    nm_sparse_spec(2, 2),
])


class TestCirculantEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        b=st.sampled_from([1, 2, 4, 8]),
        rb=st.integers(1, 4),
        cb=st.integers(1, 4),
        batch=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float_matvec_equals_expanded_dense(self, b, rb, cb, batch,
                                                seed):
        rng = np.random.default_rng(seed)
        mat = BlockCirculantMatrix.from_dense(
            rng.normal(size=(rb * b, cb * b)), b
        )
        x = rng.normal(size=(batch, rb * b))
        np.testing.assert_allclose(
            mat.matvec(x), x @ mat.expand(), rtol=1e-10, atol=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(
        b=st.sampled_from([1, 2, 4, 8]),
        rb=st.integers(1, 4),
        cb=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_int8_matvec_is_exact(self, b, rb, cb, seed):
        # Integer seeds + integer activations: the rotation kernel and
        # the expanded dense GEMM must agree bit for bit (both run in
        # int64, like the SA's INT8 MAC chains).
        rng = np.random.default_rng(seed)
        mat = BlockCirculantMatrix.from_dense(
            rng.normal(size=(rb * b, cb * b)), b
        )
        codes, params = mat.quantize(bits=8)
        x = rng.integers(-128, 128, size=(2, rb * b))
        assert codes.seeds.dtype.kind == "i"
        np.testing.assert_array_equal(
            codes.matvec(x), x @ codes.expand()
        )

    @settings(max_examples=30, deadline=None)
    @given(
        b=st.sampled_from([2, 4, 8]),
        rb=st.integers(1, 3),
        cb=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_projection_is_idempotent(self, b, rb, cb, seed):
        # An already-circulant matrix is a fixed point of the
        # least-squares projection.
        rng = np.random.default_rng(seed)
        once = BlockCirculantMatrix.from_dense(
            rng.normal(size=(rb * b, cb * b)), b
        ).expand()
        twice = BlockCirculantMatrix.from_dense(once, b).expand()
        np.testing.assert_allclose(once, twice, rtol=1e-10, atol=1e-12)


class TestNMSparseEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.sampled_from([2, 4, 8]),
        n=st.integers(1, 8),
        groups=st.integers(1, 4),
        tiles=st.integers(1, 3),
        batch=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float_matvec_equals_expanded_dense(self, m, n, groups,
                                                tiles, batch, seed):
        if n > m:
            n = m
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(groups * m, tiles * 64))
        mat = NMSparseMatrix.from_dense(dense, n, m, tile_cols=64)
        x = rng.normal(size=(batch, groups * m))
        np.testing.assert_allclose(
            mat.matvec(x), x @ mat.expand(), rtol=1e-10, atol=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.sampled_from([2, 4, 8]),
        n=st.integers(1, 8),
        groups=st.integers(1, 4),
        tiles=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_int8_matvec_is_exact(self, m, n, groups, tiles, seed):
        if n > m:
            n = m
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(groups * m, tiles * 64))
        codes, _ = NMSparseMatrix.from_dense(
            dense, n, m, tile_cols=64
        ).quantize(bits=8)
        x = rng.integers(-128, 128, size=(2, groups * m))
        np.testing.assert_array_equal(codes.matvec(x), x @ codes.expand())

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.sampled_from([2, 4, 8]),
        n=st.integers(1, 8),
        groups=st.integers(1, 5),
        tiles=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mask_keeps_exactly_n_rows_per_group(self, m, n, groups,
                                                 tiles, seed):
        if n > m:
            n = m
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(groups * m, tiles * 64))
        mask = NMSparseMatrix.from_dense(dense, n, m, tile_cols=64).mask()
        assert mask.shape == dense.shape
        # Per (group, tile): each m-row group keeps exactly n rows, and
        # a kept row is kept across the whole tile's 64 columns.
        for g in range(groups):
            for t in range(tiles):
                block = mask[g * m:(g + 1) * m, t * 64:(t + 1) * 64]
                row_kept = block.any(axis=1)
                assert int(row_kept.sum()) == n
                assert (block == row_kept[:, None]).all()


class TestCompressedPricingExactness:
    @settings(max_examples=60, deadline=None)
    @given(model=model_configs, acc=acc_configs, mem=mem_configs,
           spec=compress_specs)
    def test_mha_scheduler_matches_closed_form(self, model, acc, mem,
                                               spec):
        sched = schedule_mha(model, acc, mem, spec=spec)
        breakdown = mha_cycle_breakdown(model, acc, mem, spec=spec)
        assert sched.total_cycles == breakdown.total_cycles
        assert sched.memsys_stall_cycles == breakdown.memsys_stall_cycles

    @settings(max_examples=60, deadline=None)
    @given(model=model_configs, acc=acc_configs, mem=mem_configs,
           spec=compress_specs)
    def test_ffn_scheduler_matches_closed_form(self, model, acc, mem,
                                               spec):
        sched = schedule_ffn(model, acc, mem, spec=spec)
        breakdown = ffn_cycle_breakdown(model, acc, mem, spec=spec)
        assert sched.total_cycles == breakdown.total_cycles
        assert sched.memsys_stall_cycles == breakdown.memsys_stall_cycles

    @settings(max_examples=30, deadline=None)
    @given(model=model_configs, acc=acc_configs, mem=mem_configs,
           spec=dense_equivalent_specs)
    def test_ratio_one_degenerates_bit_identically(self, model, acc,
                                                   mem, spec):
        # Every ratio-1.0 spec (dense, circulant b=1, n == m) must
        # reproduce the uncompressed schedule event for event.
        assert spec.is_dense
        for schedule in (schedule_mha, schedule_ffn):
            compressed = schedule(model, acc, mem, spec=spec)
            dense = schedule(model, acc, mem)
            assert compressed.events == dense.events
            assert compressed.total_cycles == dense.total_cycles
            assert compressed.compress_overhead_cycles == 0

    @settings(max_examples=30, deadline=None)
    @given(model=model_configs, acc=acc_configs,
           spec=compress_specs.filter(lambda s: not s.is_dense))
    def test_overhead_accounting_is_consistent(self, model, acc, spec):
        # The timeline's accumulated extra overhead equals the spec's
        # per-pass charge times the weight-pass count.
        mha = schedule_mha(model, acc, spec=spec)
        per_pass = spec.pass_overhead_cycles(model.d_model)
        weight_passes = 4 * model.num_heads
        assert mha.compress_overhead_cycles == weight_passes * per_pass

        ffn = schedule_ffn(model, acc, spec=spec)
        expected = (
            model.num_w1_blocks * spec.pass_overhead_cycles(model.d_model)
            + model.num_w2_blocks * spec.pass_overhead_cycles(model.d_ff)
        )
        assert ffn.compress_overhead_cycles == expected
