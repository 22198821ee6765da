"""Compressed schedule / closed-form pinned points and structure."""

import pytest

from repro.compress import (
    compressed_ffn_breakdown,
    compressed_mha_breakdown,
    schedule_compressed_ffn,
    schedule_compressed_mha,
)
from repro.config import (
    AcceleratorConfig,
    CompressionSpec,
    MemoryConfig,
    circulant_spec,
    nm_sparse_spec,
    transformer_base,
)
from repro.core import (
    ffn_cycle_breakdown,
    mha_cycle_breakdown,
    schedule_ffn,
    schedule_mha,
)

#: (spec, pinned MHA total, pinned FFN total) at the paper point —
#: the same totals the SCH005 gate pins in repro.statcheck.
PAPER_POINT_TOTALS = [
    (CompressionSpec(), 21_578, 39_052),
    (circulant_spec(4), 25_674, 47_244),
    (circulant_spec(8), 23_626, 43_148),
    (nm_sparse_spec(2, 4), 17_482, 30_860),
    (nm_sparse_spec(1, 4), 13_386, 22_668),
]


@pytest.fixture
def paper():
    return transformer_base(), AcceleratorConfig()


class TestPinnedTotals:
    @pytest.mark.parametrize("spec,mha_total,ffn_total",
                             PAPER_POINT_TOTALS,
                             ids=[s.label for s, _, _ in
                                  PAPER_POINT_TOTALS])
    def test_paper_point(self, paper, spec, mha_total, ffn_total):
        model, acc = paper
        assert schedule_mha(model, acc, spec=spec).total_cycles == mha_total
        assert schedule_ffn(model, acc, spec=spec).total_cycles == ffn_total
        assert (mha_cycle_breakdown(model, acc, spec=spec).total_cycles
                == mha_total)
        assert (ffn_cycle_breakdown(model, acc, spec=spec).total_cycles
                == ffn_total)

    def test_sparsity_beats_dense_circulant_pays_setup(self, paper):
        model, acc = paper
        dense_mha = schedule_mha(model, acc).total_cycles
        assert (schedule_mha(
            model, acc, spec=nm_sparse_spec(2, 4)).total_cycles < dense_mha)
        # With free weights circulant only adds row-generator setup;
        # its win is bytes (see footprint/memsys tests).
        assert (schedule_mha(
            model, acc, spec=circulant_spec(8)).total_cycles > dense_mha)


class TestDenseDegeneracy:
    @pytest.mark.parametrize("spec", [
        CompressionSpec(), circulant_spec(1), nm_sparse_spec(4, 4),
    ], ids=["dense", "circ1", "4:4"])
    def test_events_bit_identical(self, paper, spec):
        model, acc = paper
        assert (schedule_mha(model, acc, spec=spec).events
                == schedule_mha(model, acc).events)
        assert (schedule_ffn(model, acc, spec=spec).events
                == schedule_ffn(model, acc).events)


class TestMemsysInteraction:
    def test_circulant_relieves_bandwidth_starvation(self, paper):
        # At 2 GB/s the dense schedule is weight-fetch bound; the 8x
        # smaller circulant tiles must cut the stall share enough to
        # beat dense end to end, flipping the free-weights ordering.
        model, acc = paper
        mem = MemoryConfig(bandwidth_gbps=2.0, transfer_latency_cycles=100)
        dense = schedule_ffn(model, acc, mem)
        circ = schedule_ffn(model, acc, mem, spec=circulant_spec(8))
        assert dense.memsys_stall_cycles > 0
        assert circ.memsys_stall_cycles < dense.memsys_stall_cycles
        assert circ.total_cycles < dense.total_cycles

    def test_closed_form_matches_with_memory(self, paper):
        model, acc = paper
        for mem in (MemoryConfig(bandwidth_gbps=19.2),
                    MemoryConfig(bandwidth_gbps=2.0,
                                 transfer_latency_cycles=100),
                    MemoryConfig(bandwidth_gbps=19.2,
                                 double_buffered_prefetch=False)):
            for spec, _, _ in PAPER_POINT_TOTALS:
                sched = schedule_mha(model, acc, mem, spec=spec)
                bd = mha_cycle_breakdown(model, acc, mem, spec=spec)
                assert sched.total_cycles == bd.total_cycles
                assert sched.memsys_stall_cycles == bd.memsys_stall_cycles


class TestOverheadBookkeeping:
    def test_overhead_lands_in_issue_cycles(self, paper):
        # The closed form folds the per-pass compress overhead into
        # issue_cycles (no new CycleBreakdown field), keeping the
        # scheduler-event <-> breakdown-field parity REP002 checks.
        model, acc = paper
        spec = nm_sparse_spec(2, 4)
        dense_bd = mha_cycle_breakdown(model, acc)
        bd = mha_cycle_breakdown(model, acc, spec=spec)
        sched = schedule_mha(model, acc, spec=spec)
        assert (bd.issue_cycles - dense_bd.issue_cycles
                == sched.compress_overhead_cycles)

    def test_ideal_cycles_stay_dense(self, paper):
        # ideal_cycles is the dense MAC roofline — the denominator of
        # the speedup story stays comparable across specs.
        model, acc = paper
        dense = ffn_cycle_breakdown(model, acc)
        sparse = ffn_cycle_breakdown(model, acc, spec=nm_sparse_spec(1, 4))
        assert sparse.ideal_cycles == dense.ideal_cycles

    def test_registry_records_compressed_schedule(self, paper):
        from repro.telemetry import MetricsRegistry

        model, acc = paper
        registry = MetricsRegistry()
        schedule_mha(model, acc, registry=registry, spec=circulant_spec(8))
        assert registry.counter(
            "repro_schedule_cycles_total").value(block="mha") > 0


class TestCompressForwards:
    """The spec-first ``repro.compress`` names are pure forwards."""

    @pytest.mark.parametrize("forward,core", [
        (schedule_compressed_mha, schedule_mha),
        (schedule_compressed_ffn, schedule_ffn),
        (compressed_mha_breakdown, mha_cycle_breakdown),
        (compressed_ffn_breakdown, ffn_cycle_breakdown),
    ], ids=["schedule_mha", "schedule_ffn", "mha_breakdown",
            "ffn_breakdown"])
    @pytest.mark.parametrize("spec", [
        CompressionSpec(), circulant_spec(8), nm_sparse_spec(2, 4),
    ], ids=["dense", "circ8", "2:4"])
    def test_forward_returns_core_result(self, paper, forward, core, spec):
        # Dataclass equality: every event, total and breakdown term.
        model, acc = paper
        mem = MemoryConfig(bandwidth_gbps=2.0, transfer_latency_cycles=100)
        assert forward(model, acc, spec, mem) == core(model, acc, mem,
                                                      spec=spec)
