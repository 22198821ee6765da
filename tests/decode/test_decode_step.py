"""Per-token decode-step schedule: agreement, pinned totals, padding."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AcceleratorConfig, MemoryConfig, ModelConfig
from repro.core import schedule_mha
from repro.decode import (
    decode_step_breakdown,
    decode_step_macs,
    schedule_decode_step,
)
from repro.statcheck import lint_schedule


def base_model() -> ModelConfig:
    return ModelConfig(
        "base", d_model=512, d_ff=2048, num_heads=8,
        num_encoder_layers=6, num_decoder_layers=6, max_seq_len=64,
    )


model_configs = st.builds(
    lambda h, ff_mult: ModelConfig(
        "fuzz", d_model=64 * h, d_ff=64 * h * ff_mult, num_heads=h,
        num_encoder_layers=1, num_decoder_layers=1, max_seq_len=64,
    ),
    h=st.integers(1, 8),
    ff_mult=st.integers(1, 4),
)

acc_configs = st.builds(
    AcceleratorConfig,
    seq_len=st.sampled_from([16, 32, 64, 128]),
    sa_cols=st.just(64),
    sa_drain_cycles=st.integers(0, 32),
    weight_load_cycles=st.sampled_from([0, 8, 64]),
    pass_issue_cycles=st.integers(0, 8),
    softmax_pipeline_depth=st.integers(0, 64),
    layernorm_pipeline_depth=st.integers(0, 64),
    pass_overlap=st.booleans(),
    single_ported_buffers=st.booleans(),
    abft_protected=st.booleans(),
    abft_check_cycles=st.integers(0, 32),
)

memories = st.sampled_from([
    None,
    MemoryConfig(bandwidth_gbps=2.0),
    MemoryConfig(bandwidth_gbps=30.0, double_buffered_prefetch=False),
])


class TestDecodeStepAgreement:
    @settings(max_examples=80, deadline=None)
    @given(model=model_configs, acc=acc_configs, mem=memories,
           t=st.integers(1, 2048), new_kv=st.booleans())
    def test_timeline_matches_closed_form_exactly(
        self, model, acc, mem, t, new_kv
    ):
        result = schedule_decode_step(model, acc, t, mem, new_kv=new_kv)
        breakdown = decode_step_breakdown(
            model, acc, t, mem, new_kv=new_kv
        )
        assert result.total_cycles == breakdown.total_cycles
        assert result.memsys_stall_cycles == breakdown.memsys_stall_cycles
        assert result.ideal_sa_cycles == breakdown.ideal_cycles

    @settings(max_examples=25, deadline=None)
    @given(model=model_configs, acc=acc_configs,
           t=st.integers(1, 300), new_kv=st.booleans())
    def test_timeline_is_lint_clean(self, model, acc, t, new_kv):
        result = schedule_decode_step(model, acc, t, new_kv=new_kv)
        breakdown = decode_step_breakdown(model, acc, t, new_kv=new_kv)
        assert lint_schedule(result, breakdown) == []

    @settings(max_examples=40, deadline=None)
    @given(model=model_configs, acc=acc_configs, mem=memories)
    def test_full_context_is_base_mha_event_for_event(self, model, acc, mem):
        # One builder prices both: a step at context seq_len streams the
        # same passes as schedule_mha, names included (only the ideal
        # MAC count, one valid row, differs).
        step = schedule_decode_step(model, acc, acc.seq_len, mem)
        assert step.events == schedule_mha(model, acc, mem).events


class TestDecodeStepStructure:
    def test_pinned_step_total_matches_base_mha(self):
        # At context 64 with fresh K/V the step runs the same pass
        # sequence as the full-tile MHA schedule (one row of useful
        # work, 63 of padding — the latency is identical).
        result = schedule_decode_step(base_model(), AcceleratorConfig(), 64)
        assert result.total_cycles == \
            schedule_mha(base_model(), AcceleratorConfig()).total_cycles \
            == 21_578

    def test_cached_kv_skips_projections(self):
        acc = AcceleratorConfig()
        fresh = schedule_decode_step(base_model(), acc, 64, new_kv=True)
        cached = schedule_decode_step(base_model(), acc, 64, new_kv=False)
        assert cached.total_cycles < fresh.total_cycles
        assert decode_step_macs(base_model(), 64, new_kv=False) < \
            decode_step_macs(base_model(), 64, new_kv=True)

    def test_cost_grows_with_context(self):
        acc = AcceleratorConfig()
        totals = [
            decode_step_breakdown(base_model(), acc, t).total_cycles
            for t in (32, 64, 256, 1024)
        ]
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]

    def test_padding_waste_split(self):
        # One useful query row against 64 streamed rows: the effective
        # utilization collapses while the streamed number stays near
        # the full-tile schedule's — the gap IS the padding waste.
        result = schedule_decode_step(base_model(), AcceleratorConfig(), 64)
        full = schedule_mha(base_model(), AcceleratorConfig())
        assert result.padded_sa_utilization == full.padded_sa_utilization
        assert result.sa_utilization < full.sa_utilization / 16
        assert 0.0 < result.sa_utilization < result.padded_sa_utilization

    def test_full_tile_has_no_padding_gap(self):
        full = schedule_mha(base_model(), AcceleratorConfig())
        # Full 64-row tiles: every streamed cycle feeds useful MACs on
        # the projection passes; effective tracks streamed closely.
        assert full.sa_utilization > 0.5 * full.padded_sa_utilization
