"""Fused-attention schedule vs closed-form model: exact agreement.

The fused online-softmax prefill schedule tiles ``s >> 64`` rows
through the SA without materializing the score matrix; its closed-form
twin must reproduce the event timeline's totals *exactly* (the SCH004
conservation discipline), for every sequence length, accelerator knob
and memory system — not just the verified grid.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AcceleratorConfig, MemoryConfig, ModelConfig
from repro.core import schedule_mha
from repro.decode import fused_mha_breakdown, schedule_fused_mha
from repro.statcheck import lint_schedule

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
    clock_mhz=st.just(200.0),
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
    MemoryConfig(bandwidth_gbps=10.0),
    MemoryConfig(bandwidth_gbps=30.0, double_buffered_prefetch=False),
])


class TestFusedAgreement:
    @settings(max_examples=80, deadline=None)
    @given(model=model_configs, acc=acc_configs, mem=memories,
           s=st.integers(65, 512))
    def test_timeline_matches_closed_form_exactly(
        self, model, acc, mem, s
    ):
        result = schedule_fused_mha(model, acc, s, mem)
        breakdown = fused_mha_breakdown(model, acc, s, mem)
        assert result.total_cycles == breakdown.total_cycles
        assert result.memsys_stall_cycles == breakdown.memsys_stall_cycles
        assert result.ideal_sa_cycles == breakdown.ideal_cycles

    @settings(max_examples=25, deadline=None)
    @given(model=model_configs, acc=acc_configs, s=st.integers(65, 300))
    def test_timeline_is_lint_clean(self, model, acc, s):
        result = schedule_fused_mha(model, acc, s)
        assert lint_schedule(result, fused_mha_breakdown(model, acc, s)) \
            == []

    @settings(max_examples=40, deadline=None)
    @given(model=model_configs, acc=acc_configs, mem=memories)
    def test_one_tile_is_base_mha_event_for_event(self, model, acc, mem):
        # One builder prices both: at s == seq_len the fused timeline is
        # schedule_mha's, names included.
        fused = schedule_fused_mha(model, acc, acc.seq_len, mem)
        assert fused.events == schedule_mha(model, acc, mem).events

    def test_degenerates_to_base_mha_at_one_tile(self):
        # s == seq_len means one row tile: the fused schedule IS the
        # Algorithm 1 MHA schedule, event for event.
        model = ModelConfig(
            "base", d_model=512, d_ff=2048, num_heads=8,
            num_encoder_layers=6, num_decoder_layers=6, max_seq_len=64,
        )
        acc = AcceleratorConfig()
        fused = schedule_fused_mha(model, acc, acc.seq_len)
        base = schedule_mha(model, acc)
        assert fused.total_cycles == base.total_cycles == 21_578
        assert fused.ideal_sa_cycles == base.ideal_sa_cycles

    def test_pinned_prefill_total(self):
        # The SCH005-pinned fused point (also in benchmarks/baseline).
        model = ModelConfig(
            "base", d_model=512, d_ff=2048, num_heads=8,
            num_encoder_layers=6, num_decoder_layers=6, max_seq_len=64,
        )
        result = schedule_fused_mha(model, AcceleratorConfig(), 512)
        assert result.total_cycles == 312_538
