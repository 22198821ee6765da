"""Closed-form analytic cycle model (validates the event scheduler).

Derives the same totals as :mod:`repro.core.scheduler` algebraically, so
tests can check the two agree exactly, and exposes the paper's published
reference numbers for comparison in benches and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import (
    AcceleratorConfig,
    CompressionSpec,
    MemoryConfig,
    ModelConfig,
)
from ..errors import ScheduleError

#: The uncompressed weight format, every breakdown's default ``spec``.
DENSE = CompressionSpec()

#: Published Section V-B results for Transformer-base, s = 64, batch 1.
PAPER_MHA_CYCLES = 21_344
PAPER_FFN_CYCLES = 42_099
PAPER_CLOCK_MHZ = 200.0
PAPER_MHA_LATENCY_US = 106.7
PAPER_FFN_LATENCY_US = 210.5
PAPER_GPU_MHA_LATENCY_US = 1_557.8
PAPER_GPU_FFN_LATENCY_US = 713.4
PAPER_MHA_SPEEDUP = 14.6
PAPER_FFN_SPEEDUP = 3.4


@dataclass(frozen=True)
class CycleBreakdown:
    """Analytic latency decomposition of one ResBlock.

    Attributes:
        active_cycles: Sum of GEMM inner dimensions (pure MAC streaming).
        issue_cycles: Control overhead over all passes.
        skew_cycles: Fill/drain skew paid at breaks/conflicts (or every
            pass without overlap).
        softmax_stall_cycles: SA idle time waiting for the softmax
            module's exposed tail when the concurrent ``V W_Vi`` pass is
            too short to hide it (zero at the paper's operating point;
            MHA only).
        layernorm_cycles: Exposed LayerNorm tail + output stream.
        abft_cycles: ABFT verification exposure over all passes (zero
            unless ``abft_protected``): the comparator tail of every
            pass plus the drains that overlap would otherwise hide.
        memsys_stall_cycles: SA idle time waiting for off-chip weight
            tiles (zero unless a finite :class:`MemoryConfig` is
            given): the cold-start fetch plus any steady-state fetch
            that outlasts the pass it hides behind
            (:mod:`repro.memsys`).
        total_cycles: Sum of the above.
        ideal_cycles: MACs / PE count (the 100%-utilization bound).
    """

    active_cycles: int
    issue_cycles: int
    skew_cycles: int
    layernorm_cycles: int
    total_cycles: int
    ideal_cycles: int
    softmax_stall_cycles: int = 0
    abft_cycles: int = 0
    memsys_stall_cycles: int = 0

    @property
    def utilization(self) -> float:
        return self.ideal_cycles / self.total_cycles


def _skew_and_drain(acc: AcceleratorConfig, n: int) -> int:
    return (acc.seq_len + n - 2) + acc.sa_drain_cycles


def _abft_exposure(
    acc: AcceleratorConfig, passes: int, break_passes: int
) -> int:
    """ABFT verify cycles over ``passes`` SA passes.

    Every protected pass pays the ``abft_check_cycles`` comparator tail;
    with ``pass_overlap`` the passes that are *not* dependency breaks
    (``passes - break_passes``) must additionally expose the drain they
    would otherwise hide behind the next pass's fill.  Without overlap
    every pass already pays its drain.
    """
    if not acc.abft_protected:
        return 0
    exposure = passes * acc.abft_check_cycles
    if acc.pass_overlap:
        exposure += (passes - break_passes) * acc.sa_drain_cycles
    return exposure


def _layernorm_tail(acc: AcceleratorConfig, d_model: int) -> int:
    if acc.layernorm_mode == "straightforward":
        added = 2 * d_model + acc.layernorm_pipeline_depth
    elif acc.layernorm_mode == "step_one":
        added = d_model + acc.layernorm_pipeline_depth
    else:
        added = acc.layernorm_pipeline_depth
    return added + d_model


def pass_busy_cycles(
    acc: AcceleratorConfig,
    k: int,
    loads_weights: bool = True,
    break_pass: bool = False,
) -> int:
    """SA-busy cycles of one pass, mirroring the scheduler's rules.

    ``break_pass`` covers every reason the scheduler charges full skew:
    a dependency break, a single-ported-buffer conflict, or being the
    first pass.  This is also the *hiding window* the tile prefetcher
    gets per steady-state weight pass, which is why it is public
    (:mod:`repro.memsys` sizes the compute/memory-bound crossover from
    it).
    """
    busy = acc.pass_issue_cycles + k
    if loads_weights:
        busy += acc.weight_load_cycles
    if acc.pass_overlap:
        if break_pass:
            busy += _skew_and_drain(acc, acc.sa_cols)
        elif acc.abft_protected:
            busy += acc.sa_drain_cycles
    else:
        busy += _skew_and_drain(acc, acc.sa_cols)
    if acc.abft_protected:
        busy += acc.abft_check_cycles
    return busy


def weight_pass_busy_cycles(
    acc: AcceleratorConfig,
    spec: CompressionSpec,
    k: int,
    break_pass: bool,
) -> int:
    """SA-busy cycles of one ``k``-deep weight pass under ``spec``.

    The pass streams ``spec.effective_depth(k)`` rows and pays
    ``spec.pass_overhead_cycles(k)`` of row-generator / index-decode
    control on top of :func:`pass_busy_cycles`; under :data:`DENSE`
    it is exactly ``pass_busy_cycles(acc, k, True, break_pass)``.
    """
    return (
        pass_busy_cycles(acc, spec.effective_depth(k), True, break_pass)
        + spec.pass_overhead_cycles(k)
    )


def mha_tile_bytes(
    model: ModelConfig,
    acc: AcceleratorConfig,
    spec: CompressionSpec = DENSE,
) -> int:
    """Bytes of one 64-column MHA weight tile (W_Q/K/V/G are d_model-deep)."""
    return spec.weight_tile_bytes(model.d_model, acc.sa_cols, acc.weight_bits)


def ffn_tile_bytes(
    model: ModelConfig,
    acc: AcceleratorConfig,
    spec: CompressionSpec = DENSE,
) -> tuple[int, int]:
    """Bytes of one 64-column W1 tile and one W2 tile."""
    w1 = spec.weight_tile_bytes(model.d_model, acc.sa_cols, acc.weight_bits)
    w2 = spec.weight_tile_bytes(model.d_ff, acc.sa_cols, acc.weight_bits)
    return w1, w2


def _mha_memsys_stalls(
    model: ModelConfig,
    acc: AcceleratorConfig,
    mem: MemoryConfig,
    spec: CompressionSpec,
) -> tuple[int, int]:
    """(memsys stall, softmax stall) of one MHA ResBlock.

    Mirrors the event timeline's prefetch recursion: the fetch of each
    weight tile starts when the previous weight pass starts, so a tile
    stalls its pass by ``max(0, F - gap)`` where ``gap`` is the SA time
    between consecutive weight-pass starts.  A stall on ``V W_Vi``
    also absorbs part of the softmax tail the ``P V`` pass would have
    waited for, so the two terms are coupled per head.  Weight passes
    and tile fetches are priced under ``spec``; the activation passes
    (``Q K^T``, ``P V``) keep their dense busy times.
    """
    s = acc.seq_len
    h = model.num_heads
    d_model = model.d_model
    qkt_passes = -(-s // acc.sa_cols)
    exposed = s + acc.softmax_pipeline_depth
    b_chain = weight_pass_busy_cycles(acc, spec, d_model, False)
    fetch = mem.transfer_cycles(
        mha_tile_bytes(model, acc, spec), acc.clock_mhz
    )
    if not mem.double_buffered_prefetch:
        # Every weight pass waits for its own tile; the V-projection's
        # wait doubles as cover for the softmax tail.
        mem_stall = 4 * h * fetch
        sm_stall = h * max(0, exposed - b_chain - fetch)
        return mem_stall, sm_stall
    b_first = weight_pass_busy_cycles(acc, spec, d_model, True)
    b_qkt0 = pass_busy_cycles(acc, acc.sa_cols, False, True)
    b_qktx = pass_busy_cycles(
        acc, acc.sa_cols, False, acc.single_ported_buffers
    )
    b_pv = pass_busy_cycles(acc, s, False, True)
    gap_v = b_chain + b_qkt0 + (qkt_passes - 1) * b_qktx
    mem_stall = 0
    sm_stall = 0
    stall_v = 0
    for i in range(h):
        if i == 0:
            # Cold start: nothing hides the very first tile's fetch.
            stall_q = fetch
        else:
            gap_q = max(b_chain, exposed - stall_v) + b_pv
            stall_q = max(0, fetch - gap_q)
        stall_k = max(0, fetch - (b_first if i == 0 else b_chain))
        stall_v = max(0, fetch - gap_v)
        mem_stall += stall_q + stall_k + stall_v
        sm_stall += max(0, exposed - b_chain - stall_v)
    gap_g0 = max(b_chain, exposed - stall_v) + b_pv
    mem_stall += max(0, fetch - gap_g0)
    if h >= 2:
        b_g0 = weight_pass_busy_cycles(acc, spec, d_model, True)
        b_gx = weight_pass_busy_cycles(
            acc, spec, d_model, acc.single_ported_buffers
        )
        mem_stall += max(0, fetch - b_g0)
        mem_stall += (h - 2) * max(0, fetch - b_gx)
    return mem_stall, sm_stall


def _ffn_memsys_stalls(
    model: ModelConfig,
    acc: AcceleratorConfig,
    mem: MemoryConfig,
    spec: CompressionSpec,
) -> int:
    """Memsys stall of one FFN ResBlock (same recursion, linear chain)."""
    w1_bytes, w2_bytes = ffn_tile_bytes(model, acc, spec)
    fetch1 = mem.transfer_cycles(w1_bytes, acc.clock_mhz)
    fetch2 = mem.transfer_cycles(w2_bytes, acc.clock_mhz)
    num_w1 = model.d_ff // acc.sa_cols
    num_w2 = model.d_model // acc.sa_cols
    if not mem.double_buffered_prefetch:
        return num_w1 * fetch1 + num_w2 * fetch2
    b1_first = weight_pass_busy_cycles(acc, spec, model.d_model, True)
    b1_other = weight_pass_busy_cycles(
        acc, spec, model.d_model, acc.single_ported_buffers
    )
    b2_first = weight_pass_busy_cycles(acc, spec, model.d_ff, True)
    b2_other = weight_pass_busy_cycles(
        acc, spec, model.d_ff, acc.single_ported_buffers
    )
    stall = fetch1                       # cold start on w1.0
    if num_w1 >= 2:
        stall += max(0, fetch1 - b1_first)
        stall += (num_w1 - 2) * max(0, fetch1 - b1_other)
    last_w1 = b1_first if num_w1 == 1 else b1_other
    stall += max(0, fetch2 - last_w1)
    if num_w2 >= 2:
        stall += max(0, fetch2 - b2_first)
        stall += (num_w2 - 2) * max(0, fetch2 - b2_other)
    return stall


def mha_cycle_breakdown(
    model: ModelConfig,
    acc: AcceleratorConfig,
    mem: Optional[MemoryConfig] = None,
    spec: CompressionSpec = DENSE,
) -> CycleBreakdown:
    """Analytic cycle count of one MHA ResBlock.

    Pass inventory per head: three d_model-deep projections,
    ``ceil(s/64)`` 64-deep ``Q K^T`` chunk passes (Section III's Q
    partitioning; one zero-padded pass when s <= 64) and one s-deep
    ``P V``; then ``h`` d_model-deep output passes.  Skew is paid by the
    per-head dependency breaks (first ``Q K^T`` chunk, ``P V``), the
    first pass overall, the first G pass, and — with single-ported
    buffers — every pass that re-streams its predecessor's buffer
    (extra ``Q K^T`` chunks and the remaining G passes).

    The softmax module's exposed tail (``s`` output columns plus its
    pipeline depth) runs concurrently with the ``V W_Vi`` pass; when the
    tail outlasts that pass — small ``d_model`` or ``s > 64`` — the
    ``P V`` pass stalls for the difference on every head
    (``softmax_stall_cycles``).  At the paper's operating point the
    stall is zero, which is exactly its claim that the softmax "hardly
    stops" the array.

    The ``4h`` weight passes are priced under ``spec``
    (:func:`weight_pass_busy_cycles`): their compressed depth lands in
    ``active_cycles`` and their row-generator / index-decode overhead
    in ``issue_cycles``, so a compressed breakdown needs no extra
    field.  ``ideal_cycles`` stays the dense MAC bound.
    """
    if model.head_dim != acc.sa_cols:
        raise ScheduleError("model head dim must match SA columns")
    s = acc.seq_len
    h = model.num_heads
    d_model = model.d_model
    k_w = spec.effective_depth(d_model)
    qkt_passes = -(-s // acc.sa_cols)
    active = h * (3 * k_w + qkt_passes * acc.sa_cols + s) + h * k_w
    passes = h * (4 + qkt_passes) + h
    # Only weight-streaming passes pay the weight fetch: the three
    # projections and the G pass per head.  Q K^T and the softmax x Temp2
    # product read both operands from Data Memory.
    weight_passes = 4 * h
    issue = (passes * acc.pass_issue_cycles
             + weight_passes * (acc.weight_load_cycles
                                + spec.pass_overhead_cycles(d_model)))
    skew_full = _skew_and_drain(acc, acc.sa_cols)
    if acc.pass_overlap:
        # Breaks: first QKt chunk and PV per head, the first pass overall,
        # and the first G pass (operands from the drained P buffer).
        break_passes = 2 * h + 2
        if acc.single_ported_buffers:
            # Extra QKt chunks contend on Temp1; G passes contend on P.
            break_passes += h * (qkt_passes - 1) + (h - 1)
    else:
        break_passes = passes
    skew = break_passes * skew_full
    abft = _abft_exposure(acc, passes, break_passes)
    if mem is not None and not mem.is_unlimited:
        # A weight-tile stall on V W_Vi also covers part of the softmax
        # tail, so both terms come from the coupled recursion.
        mem_stall, stall = _mha_memsys_stalls(model, acc, mem, spec)
    else:
        # The PV pass waits for the softmax output (s second-pass
        # columns + pipeline tail after the last QKt drain column); the
        # chained V projection is the only SA work hiding that wait.
        mem_stall = 0
        v_busy = weight_pass_busy_cycles(acc, spec, d_model, False)
        stall = h * max(0, s + acc.softmax_pipeline_depth - v_busy)
    layernorm = _layernorm_tail(acc, d_model)
    total = active + issue + skew + stall + layernorm + abft + mem_stall
    return CycleBreakdown(
        active_cycles=active,
        issue_cycles=issue,
        skew_cycles=skew,
        softmax_stall_cycles=stall,
        abft_cycles=abft,
        memsys_stall_cycles=mem_stall,
        layernorm_cycles=layernorm,
        total_cycles=total,
        ideal_cycles=model.mha_macs(s) // acc.num_pes,
    )


def ffn_cycle_breakdown(
    model: ModelConfig,
    acc: AcceleratorConfig,
    mem: Optional[MemoryConfig] = None,
    spec: CompressionSpec = DENSE,
) -> CycleBreakdown:
    """Analytic cycle count of one FFN ResBlock.

    ``4h`` d_model-deep W1 passes then ``h`` d_ff-deep W2 passes; with
    single-ported buffers every pass pays skew (W1 passes all stream X,
    W2 passes all stream P).  Every pass streams weights, so every pass
    is priced under ``spec`` (see :func:`mha_cycle_breakdown`).
    """
    if model.head_dim != acc.sa_cols:
        raise ScheduleError("model head dim must match SA columns")
    s = acc.seq_len
    d_model = model.d_model
    d_ff = model.d_ff
    num_w1 = d_ff // acc.sa_cols
    num_w2 = d_model // acc.sa_cols
    active = (num_w1 * spec.effective_depth(d_model)
              + num_w2 * spec.effective_depth(d_ff))
    passes = num_w1 + num_w2
    issue = (passes * (acc.pass_issue_cycles + acc.weight_load_cycles)
             + num_w1 * spec.pass_overhead_cycles(d_model)
             + num_w2 * spec.pass_overhead_cycles(d_ff))
    skew_full = _skew_and_drain(acc, acc.sa_cols)
    if acc.pass_overlap:
        if acc.single_ported_buffers:
            break_passes = passes
        else:
            break_passes = 2              # first pass + the W1->W2 break
    else:
        break_passes = passes
    skew = break_passes * skew_full
    abft = _abft_exposure(acc, passes, break_passes)
    layernorm = _layernorm_tail(acc, d_model)
    mem_stall = (
        _ffn_memsys_stalls(model, acc, mem, spec)
        if mem is not None and not mem.is_unlimited else 0
    )
    total = active + issue + skew + layernorm + abft + mem_stall
    return CycleBreakdown(
        active_cycles=active,
        issue_cycles=issue,
        skew_cycles=skew,
        abft_cycles=abft,
        memsys_stall_cycles=mem_stall,
        layernorm_cycles=layernorm,
        total_cycles=total,
        ideal_cycles=model.ffn_macs(s) // acc.num_pes,
    )


def paper_deviation(measured: int, published: int) -> float:
    """Signed relative deviation of a measured count from the paper's."""
    if published <= 0:
        raise ScheduleError("published count must be positive")
    return measured / published - 1.0
