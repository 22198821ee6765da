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


def _require_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ScheduleError(f"{name} must be positive, got {value}")


def _attention_macs(
    model: ModelConfig, rows: int, keys: int, new_kv: bool
) -> int:
    """Useful MACs of one attention ResBlock of shape ``(rows, keys)``.

    ``rows`` query rows project through ``W_Q`` (and, with ``new_kv``,
    ``W_K``/``W_V``), score against ``keys`` keys, reduce against as
    many values, and project through ``W_G``.  At ``rows == keys == s``
    this is :meth:`~repro.config.ModelConfig.mha_macs`; row tiling
    never adds or removes arithmetic.
    """
    h, dm, dk = model.num_heads, model.d_model, model.head_dim
    proj = (3 if new_kv else 1) * h * rows * dm * dk
    attn = 2 * h * rows * keys * dk
    return proj + attn + rows * dm * dm


def _attention_stalls(
    model: ModelConfig,
    acc: AcceleratorConfig,
    tiles: int,
    keys: int,
    new_kv: bool,
    spec: CompressionSpec,
    mem: Optional[MemoryConfig],
) -> tuple[int, int]:
    """(softmax stall, memsys stall) of one attention ResBlock.

    Replays the pass order of
    :func:`repro.core.scheduler._schedule_attention` on scalars, with
    the same break/conflict classification as the count algebra, so the
    per-pass busy cycles cancel against ``active + issue + skew +
    abft`` and only the two idle terms survive: SA gaps where ``P V``
    waits for its tile's softmax, and weight-tile fetches outlasting
    the SA time since the previous weight pass started (the tile
    prefetcher's rule; without double buffering every fetch is
    exposed).  The terms are coupled: a stall on ``V W_Vi`` also covers
    part of the softmax tail.  Each projection or ``G`` weight tile is
    fetched once and replayed over the ``tiles`` row tiles.
    """
    h, dm, cols = model.num_heads, model.d_model, acc.sa_cols
    sp = acc.single_ported_buffers
    chunks = -(-keys // cols)
    exposed = keys + acc.softmax_pipeline_depth
    fetch, double_buffered = 0, True
    if mem is not None and not mem.is_unlimited:
        fetch = mem.transfer_cycles(
            mha_tile_bytes(model, acc, spec), acc.clock_mhz
        )
        double_buffered = mem.double_buffered_prefetch
    # Busy cycles of every distinct pass, indexed by its break flag.
    weight = (weight_pass_busy_cycles(acc, spec, dm, False),
              weight_pass_busy_cycles(acc, spec, dm, True))
    replays = (tiles - 1) * (
        pass_busy_cycles(acc, spec.effective_depth(dm), False, sp)
        + spec.pass_overhead_cycles(dm)
    )
    qkt_first = (pass_busy_cycles(acc, cols, False, False),
                 pass_busy_cycles(acc, cols, False, True))
    qkt_rest = (chunks - 1) * pass_busy_cycles(acc, cols, False, sp)
    pv = pass_busy_cycles(acc, keys, False, True)
    free = sm_free = sm_stall = mem_stall = 0
    prev_weight_start = 0               # the first fetch starts at 0

    def weight_tile(brk: bool) -> None:
        nonlocal free, mem_stall, prev_weight_start
        if fetch:
            stall = (max(0, prev_weight_start + fetch - free)
                     if double_buffered else fetch)
            free += stall
            mem_stall += stall
        prev_weight_start = free
        free += weight[brk] + replays

    def qkt_tile(brk: bool) -> int:
        nonlocal free, sm_free
        free += qkt_first[brk] + qkt_rest
        sm_free = max(free, sm_free) + exposed
        return sm_free

    def pv_pass(softmax_end: int) -> None:
        nonlocal free, sm_stall
        if softmax_end > free:
            sm_stall += softmax_end - free
            free = softmax_end
        free += pv

    for i in range(h):
        weight_tile(i == 0)
        if new_kv:
            weight_tile(False)
        softmax_end = qkt_tile(True)
        if new_kv:
            weight_tile(False)
        for tau in range(1, tiles):
            # Tile 1's first chunk follows the V projection on the
            # other port; later tiles' follow a P V on Temp1.
            next_end = qkt_tile(sp and (tau >= 2 or not new_kv))
            pv_pass(softmax_end)
            softmax_end = next_end
        pv_pass(softmax_end)
    for c in range(h):
        weight_tile(c == 0 or sp)
    return sm_stall, mem_stall


def _attention_breakdown(
    model: ModelConfig,
    acc: AcceleratorConfig,
    rows: int,
    keys: int,
    new_kv: bool,
    spec: CompressionSpec,
    mem: Optional[MemoryConfig],
) -> CycleBreakdown:
    """Analytic cycle count of one attention ResBlock.

    The shape mirrors :func:`repro.core.scheduler._schedule_attention`:
    ``T = ceil(rows / seq_len)`` query row tiles, ``C = ceil(keys /
    64)`` key chunks (Section III's Q partitioning; one zero-padded
    pass when ``keys <= 64``), a ``keys``-wide softmax and a
    ``keys``-deep ``P V``; ``new_kv=False`` drops the K and V
    projections, leaving ``P = 1`` projection per head instead of 3.

    Pass inventory: per head ``P T`` projection row tiles
    (weight-stationary, so only the first of each group loads its
    tile), ``T C`` ``Q K^T`` chunks and ``T`` ``P V`` passes; then
    ``h T`` output row tiles.  Breaks: each ``P V`` (``hT``), tile 0's
    first ``Q K^T`` chunk per head (``h``), the first pass overall and
    the first G pass.  Single-ported conflicts: projection replays
    (``P h (T-1)``), extra ``Q K^T`` chunks (``hT(C-1)``), later tiles'
    first chunks re-streaming Temp1 (``h max(0, T-2)``; tile 1's
    follows the V projection on the other port, unless there is none),
    and the ``hT - 1`` G passes after the first.

    The projection and G passes are priced under ``spec``
    (:func:`weight_pass_busy_cycles`): their compressed depth lands in
    ``active_cycles`` and their row-generator / index-decode overhead
    in ``issue_cycles``.  The softmax tail each ``P V`` waits for is
    hidden by the V projection (tile 0) or the next tile's ``Q K^T``
    chunks; what leaks, and the prefetch stalls it couples with, come
    from :func:`_attention_stalls`.  ``ideal_cycles`` counts only the
    valid rows' dense MACs.
    """
    if model.head_dim != acc.sa_cols:
        raise ScheduleError("model head dim must match SA columns")
    h, dm, cols = model.num_heads, model.d_model, acc.sa_cols
    tiles = -(-rows // acc.seq_len)
    chunks = -(-keys // cols)
    projections = 3 if new_kv else 1
    weight_tiles = h * (projections + 1)
    weight_rows = weight_tiles * tiles
    passes = weight_rows + h * tiles * (chunks + 1)
    active = (weight_rows * spec.effective_depth(dm)
              + h * tiles * (chunks * cols + keys))
    issue = (passes * acc.pass_issue_cycles
             + weight_tiles * acc.weight_load_cycles
             + weight_rows * spec.pass_overhead_cycles(dm))
    if acc.pass_overlap:
        break_passes = h + h * tiles + 2
        if acc.single_ported_buffers:
            break_passes += (
                projections * h * (tiles - 1)
                + h * tiles * (chunks - 1)
                + h * max(0, tiles - (2 if new_kv else 1))
                + (h * tiles - 1)
            )
    else:
        break_passes = passes
    skew = break_passes * _skew_and_drain(acc, cols)
    abft = _abft_exposure(acc, passes, break_passes)
    sm_stall, mem_stall = _attention_stalls(
        model, acc, tiles, keys, new_kv, spec, mem
    )
    layernorm = _layernorm_tail(acc, dm)
    total = active + issue + skew + sm_stall + abft + mem_stall + layernorm
    return CycleBreakdown(
        active_cycles=active,
        issue_cycles=issue,
        skew_cycles=skew,
        softmax_stall_cycles=sm_stall,
        abft_cycles=abft,
        memsys_stall_cycles=mem_stall,
        layernorm_cycles=layernorm,
        total_cycles=total,
        ideal_cycles=(
            _attention_macs(model, rows, keys, new_kv) // acc.num_pes
        ),
    )


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

    The one-tile shape ``(seq_len, seq_len, new_kv=True)`` of
    :func:`_attention_breakdown`.  The softmax module's exposed tail
    (``s`` output columns plus its pipeline depth) runs concurrently
    with the ``V W_Vi`` pass; when the tail outlasts that pass — small
    ``d_model`` or ``s > 64`` — the ``P V`` pass stalls for the
    difference on every head (``softmax_stall_cycles``).  At the
    paper's operating point the stall is zero, which is exactly its
    claim that the softmax "hardly stops" the array.  The ``4h``
    weight passes are priced under ``spec``; ``ideal_cycles`` stays
    the dense MAC bound.
    """
    return _attention_breakdown(
        model, acc, acc.seq_len, acc.seq_len, True, spec, mem
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
