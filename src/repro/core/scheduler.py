"""Cycle-level scheduler for Algorithm 1 (the overall computation flow).

Builds an explicit event timeline for one MHA or FFN ResBlock on the
accelerator: every SA pass, the softmax module's activity, and the
LayerNorm module's tail, with the dependency structure the paper describes:

* per head: ``Q W_Qi`` -> ``K W_Ki`` -> ``Q_i K_i^T`` (needs both drained)
  -> ``V W_Vi`` on the SA **in parallel with the softmax module**
  -> ``P_i = softmax x Temp2`` (needs the softmax output);
* then the ``h`` output passes ``G_i = P W_Gi + bias + Q_i``;
* LayerNorm runs its accumulators during G production and exposes only its
  schedule-dependent tail (Fig. 7).

Timing rules (documented assumptions — the paper gives end-to-end counts
only; see DESIGN.md):

* an SA pass over ``(s x k) @ (k x n)`` occupies the array for ``k`` active
  cycles plus a fill/drain skew of ``s + n - 2`` cycles measured from the
  cycle-accurate simulator;
* with ``pass_overlap`` (default) a pass chained behind an *independent*
  predecessor hides its skew in the predecessor's; a **dependency break**
  (operands come from the predecessor's drained output) pays the full
  skew + drain;
* every pass pays ``pass_issue_cycles`` of control overhead;
* ``weight_load_cycles`` models a non-double-buffered weight fetch (0 =
  fully hidden, the default) — charged only to passes that stream a
  weight tile from Weight Memory; the activation-only passes
  (``Q_i K_i^T`` and ``softmax x Temp2``) read both operands from the
  Data Memory buffers and fetch no weights;
* with ``abft_protected`` every pass additionally pays the ABFT verify
  exposure: ``abft_check_cycles`` of comparator tail, plus its drain
  when the pass would otherwise have hidden the drain behind the next
  pass's fill (an unverified tile may not be consumed; see
  :mod:`repro.reliability.abft`).

Weight-streaming passes are priced under a
:class:`~repro.config.CompressionSpec` (``spec``, dense by default): a
compressed pass streams ``spec.effective_depth(k)`` active cycles
(N:M sparsity skips zero row-groups; circulant streaming regenerates
every row), pays ``spec.pass_overhead_cycles(k)`` of row-generator /
index-decode control, and fetches a ``spec.weight_tile_bytes(...)``
tile.  Activation-only passes and the softmax/LayerNorm modules are
unaffected, and any ratio-1.0 spec reproduces the dense timeline event
for event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..config import (
    AcceleratorConfig,
    CompressionSpec,
    MemoryConfig,
    ModelConfig,
)
from ..errors import ScheduleError
from ..memsys.prefetch import TilePrefetcher

if TYPE_CHECKING:
    from ..telemetry.registry import MetricsRegistry
from .cycle_model import DENSE, _attention_macs, ffn_tile_bytes, mha_tile_bytes
from .layernorm_module import LayerNormModule
from .softmax_module import SoftmaxModule
from .systolic_array import expected_pass_cycles


@dataclass(frozen=True)
class TimelineEvent:
    """One scheduled activity on one hardware unit.

    Attributes:
        name: Human-readable label (e.g. ``"head3.QKt"``).
        unit: ``"sa"``, ``"softmax"``, ``"layernorm"`` or ``"dram"``
            (weight-tile fetches when a finite memory system is
            modeled).
        start / end: Cycle interval (end exclusive).
        active_cycles: Useful cycles inside the interval (k for SA passes).
    """

    name: str
    unit: str
    start: int
    end: int
    active_cycles: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class ScheduleResult:
    """Timeline and summary statistics for one ResBlock execution."""

    block: str
    events: list[TimelineEvent] = field(default_factory=list)
    total_cycles: int = 0
    ideal_sa_cycles: int = 0
    memsys_stall_cycles: int = 0
    compress_overhead_cycles: int = 0

    @property
    def sa_events(self) -> list[TimelineEvent]:
        return [e for e in self.events if e.unit == "sa"]

    @property
    def dram_events(self) -> list[TimelineEvent]:
        return [e for e in self.events if e.unit == "dram"]

    @property
    def sa_active_cycles(self) -> int:
        return sum(e.active_cycles for e in self.sa_events)

    @property
    def sa_utilization(self) -> float:
        """Effective utilization: ideal (valid-row) SA cycles / latency.

        Counts only useful MACs, so zero-padded rows — a short request
        in the 64-row array, or a decode step's single valid query row —
        drag it down.  Compare with :attr:`padded_sa_utilization` to see
        how much of the gap is padding waste rather than schedule
        overhead.
        """
        if self.total_cycles == 0:
            return 0.0
        return self.ideal_sa_cycles / self.total_cycles

    @property
    def padded_sa_utilization(self) -> float:
        """Streamed utilization: SA active cycles / total latency.

        Counts every cycle the array streamed operands, including the
        zero-padded rows it multiplied for nothing.  The ratio
        ``sa_utilization / padded_sa_utilization`` is the fraction of
        streamed work that was real — near 1 for full prefill tiles,
        ``~1/seq_len`` for a single-row decode pass.
        """
        if self.total_cycles == 0:
            return 0.0
        return self.sa_active_cycles / self.total_cycles

    def latency_us(self, clock_mhz: float) -> float:
        return self.total_cycles / clock_mhz

    def unit_busy_cycles(self, unit: str) -> int:
        return sum(e.duration for e in self.events if e.unit == unit)

    def find(self, name: str) -> TimelineEvent:
        for event in self.events:
            if event.name == name:
                return event
        raise ScheduleError(f"no event named {name!r}")


class _Timeline:
    """Mutable builder tracking per-unit availability."""

    def __init__(
        self,
        config: AcceleratorConfig,
        mem: Optional[MemoryConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        block: str = "",
    ) -> None:
        self.config = config
        self.events: list[TimelineEvent] = []
        self.sa_free = 0
        self.memsys_stall = 0
        self.compress_overhead = 0
        self._last_buffer: Optional[str] = None
        self._first_pass = True
        self._prefetch = (
            None if mem is None or mem.is_unlimited
            else TilePrefetcher(
                mem, config.clock_mhz, registry=registry, block=block
            )
        )

    def skew(self, n: int) -> int:
        """Fill/drain skew of a pass with ``n`` output columns."""
        return expected_pass_cycles(self.config.seq_len, 0, n)

    def sa_pass(
        self,
        name: str,
        k: int,
        n: Optional[int] = None,
        input_buffer: Optional[str] = None,
        dependency_break: bool = False,
        not_before: int = 0,
        loads_weights: bool = True,
        tile_bytes: int = 0,
        extra_overhead: int = 0,
    ) -> TimelineEvent:
        """Schedule one SA pass and return its event.

        Args:
            name: Event label.
            k: GEMM inner dimension (active cycles).
            n: Output columns (defaults to the SA width).
            input_buffer: Which Data Memory buffer streams the activation
                operand; with single-ported buffers, re-using the previous
                pass's buffer serializes like a dependency break.
            dependency_break: Pass consumes the *drained* output of the
                previous pass (pays skew + drain even when overlapping).
            not_before: External dependency (e.g. softmax completion).
            loads_weights: Whether the pass streams a weight tile from
                Weight Memory (pays ``weight_load_cycles``).  Activation
                x activation passes (``Q_i K_i^T``, ``softmax x Temp2``)
                read both operands from Data Memory and set this False.
            tile_bytes: Off-chip bytes of the pass's weight tile; with a
                finite memory system the tile prefetcher prices its
                fetch (a ``dram`` event) and may stall the pass start.
            extra_overhead: Additional control cycles charged like issue
                overhead (compressed weight passes pay their circulant
                row-generator setup / N:M index decode here;
                :mod:`repro.compress`).
        """
        if k <= 0:
            raise ScheduleError(f"pass {name!r} has non-positive k={k}")
        if extra_overhead < 0:
            raise ScheduleError(
                f"pass {name!r} has negative extra_overhead={extra_overhead}"
            )
        cfg = self.config
        n = cfg.sa_cols if n is None else n
        start = max(self.sa_free, not_before)
        if self._prefetch is not None and loads_weights and tile_bytes > 0:
            fetch = self._prefetch.issue(start, tile_bytes)
            if fetch.fetch_cycles > 0:
                self.events.append(TimelineEvent(
                    name=f"{name}.fetch", unit="dram",
                    start=fetch.fetch_start, end=fetch.fetch_end,
                    active_cycles=fetch.fetch_cycles,
                ))
            start = fetch.pass_start
            self.memsys_stall += fetch.stall_cycles
        overhead = cfg.pass_issue_cycles + extra_overhead
        self.compress_overhead += extra_overhead
        if loads_weights:
            overhead += cfg.weight_load_cycles
        port_conflict = (
            cfg.single_ported_buffers
            and input_buffer is not None
            and input_buffer == self._last_buffer
        )
        if cfg.pass_overlap:
            busy = overhead + k
            if dependency_break or port_conflict or self._first_pass:
                busy += self.skew(n) + cfg.sa_drain_cycles
            elif cfg.abft_protected:
                # The checksum verdict lands at the end of the drain, so
                # a pass that would have hidden its drain behind the next
                # fill must expose it before the tile may be consumed.
                busy += cfg.sa_drain_cycles
        else:
            busy = overhead + k + self.skew(n) + cfg.sa_drain_cycles
        if cfg.abft_protected:
            busy += cfg.abft_check_cycles
        event = TimelineEvent(
            name=name, unit="sa", start=start, end=start + busy,
            active_cycles=k,
        )
        self.events.append(event)
        self.sa_free = event.end
        self._last_buffer = input_buffer
        self._first_pass = False
        return event

    def module_event(
        self, name: str, unit: str, start: int, duration: int
    ) -> TimelineEvent:
        event = TimelineEvent(
            name=name, unit=unit, start=start, end=start + duration,
            active_cycles=duration,
        )
        self.events.append(event)
        return event


def _validate(model: ModelConfig, acc: AcceleratorConfig) -> None:
    if model.head_dim != acc.sa_cols:
        raise ScheduleError(
            f"SA has {acc.sa_cols} columns but the model's head dim is "
            f"{model.head_dim}"
        )


def _record(
    result: ScheduleResult, registry: Optional[MetricsRegistry]
) -> None:
    """Fold a finished schedule into ``registry`` (no-op when None).

    The import is lazy so building a schedule never touches
    :mod:`repro.telemetry` unless a caller actually asked for metrics —
    instrumentation cannot perturb the model.
    """
    if registry is None:
        return
    from ..telemetry.instrument import record_schedule

    record_schedule(result, registry)


def _schedule_attention(
    model: ModelConfig,
    acc: AcceleratorConfig,
    rows: int,
    keys: int,
    new_kv: bool,
    spec: CompressionSpec,
    mem: Optional[MemoryConfig],
    registry: Optional[MetricsRegistry],
    block: str,
) -> ScheduleResult:
    """Timeline of one attention ResBlock of shape ``(rows, keys, new_kv)``.

    ``rows`` query rows run as ``T = ceil(rows / seq_len)`` row tiles
    against ``keys`` keys.  Per head, pass order is

    1. ``T`` Q-projection row tiles (weight-stationary: the 64-column
       weight tile loads once, on tile 0), then ``T`` K-projection row
       tiles — only with ``new_kv``; cached K/V skip both K and V;
    2. tile 0's ``ceil(keys/64)`` ``Q K^T`` chunks (Section III's Q
       partitioning; the first is a dependency break on the drained
       projections, the rest serialize on Temp1's port) and its
       ``keys``-wide softmax, which receives D column by column as the
       chunks drain;
    3. ``T`` V-projection row tiles, overlapping that softmax
       (Algorithm 1 line 6);
    4. for each later tile: its ``Q K^T`` chunks and softmax, then the
       *previous* tile's ``keys``-deep ``P V`` (waiting on that tile's
       softmax) — the software pipeline that hides each softmax tail
       behind the next tile's scores;
    5. the last tile's ``P V``.

    Then ``h x T`` output (``G``) row tiles and the LayerNorm tail.  The
    projection and G passes are priced under ``spec``.  Event names
    carry a ``.t{tau}`` row-tile suffix only when ``T > 1``.
    """
    _validate(model, acc)
    cols = acc.sa_cols
    tiles = -(-rows // acc.seq_len)
    chunks = -(-keys // cols)
    k_w = spec.effective_depth(model.d_model)
    over = spec.pass_overhead_cycles(model.d_model)
    tile_bytes = mha_tile_bytes(model, acc, spec)
    exposed = SoftmaxModule(acc).timing(keys).exposed_after_input
    timeline = _Timeline(acc, mem, registry, block)
    sm_free = 0                         # softmax module availability

    def label(name: str, tau: int) -> str:
        return f"{name}.t{tau}" if tiles > 1 else name

    def weight_tile(name: str, buffer: str, brk: bool = False) -> None:
        for tau in range(tiles):
            timeline.sa_pass(
                label(name, tau), k=k_w, input_buffer=buffer,
                dependency_break=brk and tau == 0,
                loads_weights=tau == 0,
                tile_bytes=tile_bytes if tau == 0 else 0,
                extra_overhead=over,
            )

    def qkt_tile(i: int, tau: int, brk: bool) -> int:
        nonlocal sm_free
        for j in range(chunks):
            qkt = timeline.sa_pass(
                label(f"head{i}.QKt{j}" if chunks > 1 else f"head{i}.QKt",
                      tau),
                k=cols, n=cols, input_buffer="temp1",
                dependency_break=brk and j == 0, loads_weights=False,
            )
        sm_free = timeline.module_event(
            label(f"head{i}.softmax", tau), "softmax",
            max(qkt.end, sm_free), exposed,
        ).end
        return sm_free

    def pv_pass(i: int, tau: int, softmax_end: int) -> None:
        timeline.sa_pass(
            label(f"head{i}.PV", tau), k=keys, input_buffer="temp1",
            dependency_break=True, not_before=softmax_end,
            loads_weights=False,
        )

    for i in range(model.num_heads):
        weight_tile(f"head{i}.QWq", "input_q")
        if new_kv:
            weight_tile(f"head{i}.KWk", "input_kv")
        softmax_end = qkt_tile(i, 0, brk=True)
        if new_kv:
            weight_tile(f"head{i}.VWv", "input_kv")
        for tau in range(1, tiles):
            next_end = qkt_tile(i, tau, brk=False)
            pv_pass(i, tau - 1, softmax_end)
            softmax_end = next_end
        pv_pass(i, tiles - 1, softmax_end)
    for c in range(model.num_heads):
        weight_tile(f"out.GW{c}", "p_buffer", brk=c == 0)
    ln_event = timeline.module_event(
        "layernorm", "layernorm", timeline.sa_free,
        LayerNormModule(acc, model.d_model).timing().total_exposed,
    )

    result = ScheduleResult(block=block, events=timeline.events)
    result.total_cycles = ln_event.end
    result.ideal_sa_cycles = (
        _attention_macs(model, rows, keys, new_kv) // acc.num_pes
    )
    result.memsys_stall_cycles = timeline.memsys_stall
    result.compress_overhead_cycles = timeline.compress_overhead
    _record(result, registry)
    return result


def schedule_mha(
    model: ModelConfig,
    acc: AcceleratorConfig,
    mem: Optional[MemoryConfig] = None,
    registry: Optional[MetricsRegistry] = None,
    spec: CompressionSpec = DENSE,
) -> ScheduleResult:
    """Timeline of one MHA ResBlock (Algorithm 1, lines 1-13).

    The one-tile shape ``(seq_len, seq_len, new_kv=True)`` of
    :func:`_schedule_attention`.  With a finite ``mem``, every
    weight-streaming pass's 64-column tile is fetched over the off-chip
    link (``dram`` events); double buffered, the fetch overlaps the
    previous pass and only its excess stalls the SA
    (:mod:`repro.memsys`).  With a ``registry`` the finished timeline
    is recorded through
    :func:`repro.telemetry.instrument.record_schedule`.  The four weight
    passes per head (``Q W_Qi``, ``K W_Ki``, ``V W_Vi`` and ``G_i``)
    are priced under ``spec``.
    """
    return _schedule_attention(
        model, acc, acc.seq_len, acc.seq_len, True, spec, mem, registry,
        "mha",
    )


def schedule_ffn(
    model: ModelConfig,
    acc: AcceleratorConfig,
    mem: Optional[MemoryConfig] = None,
    registry: Optional[MetricsRegistry] = None,
    spec: CompressionSpec = DENSE,
) -> ScheduleResult:
    """Timeline of one FFN ResBlock (Algorithm 1, lines 14-22).

    Every pass streams a weight tile, so every pass is priced under
    ``spec``: W1 passes reduce over ``effective_depth(d_model)``, W2
    passes over ``effective_depth(d_ff)``.
    """
    _validate(model, acc)
    s = acc.seq_len
    d_model = model.d_model
    d_ff = model.d_ff
    k1 = spec.effective_depth(d_model)
    k2 = spec.effective_depth(d_ff)
    over1 = spec.pass_overhead_cycles(d_model)
    over2 = spec.pass_overhead_cycles(d_ff)
    timeline = _Timeline(acc, mem, registry, "ffn")
    layernorm = LayerNormModule(acc, d_model)
    w1_tile, w2_tile = ffn_tile_bytes(model, acc, spec)

    num_w1 = d_ff // acc.sa_cols
    for i in range(num_w1):
        timeline.sa_pass(
            f"w1.{i}", k=k1, input_buffer="input_q",
            tile_bytes=w1_tile, extra_overhead=over1,
        )
    # Every W2 pass reduces over the entire P buffer, so the first one must
    # wait for the last W1 pass to drain.
    num_w2 = d_model // acc.sa_cols
    for i in range(num_w2):
        timeline.sa_pass(
            f"w2.{i}", k=k2, input_buffer="p_buffer",
            dependency_break=(i == 0),
            tile_bytes=w2_tile, extra_overhead=over2,
        )
    last_g = timeline.sa_free
    ln_timing = layernorm.timing()
    ln_event = timeline.module_event(
        "layernorm", "layernorm", last_g, ln_timing.total_exposed
    )

    result = ScheduleResult(block="ffn", events=timeline.events)
    result.total_cycles = ln_event.end
    result.ideal_sa_cycles = model.ffn_macs(s) // acc.num_pes
    result.memsys_stall_cycles = timeline.memsys_stall
    result.compress_overhead_cycles = timeline.compress_overhead
    _record(result, registry)
    return result


def schedule_encoder_layer(
    model: ModelConfig,
    acc: AcceleratorConfig,
    mem: Optional[MemoryConfig] = None,
) -> int:
    """Total cycles of one encoder layer (MHA then FFN, sequential)."""
    return (
        schedule_mha(model, acc, mem).total_cycles
        + schedule_ffn(model, acc, mem).total_cycles
    )


def schedule_autoregressive(
    model: ModelConfig,
    acc: AcceleratorConfig,
    generated_tokens: int,
    mem: Optional[MemoryConfig] = None,
) -> dict:
    """Cycle budget for autoregressive generation on the accelerator.

    The SA always processes its full ``s`` rows (shorter prefixes are
    zero-padded — the design has no early-exit path), so every generated
    token re-runs the whole decoder stack at full cost: the encoder runs
    once, then ``generated_tokens`` decoder-stack passes.  This quantifies
    the batch-1/fixed-s design's cost for generation workloads, the
    regime the paper leaves to future work.
    """
    if generated_tokens <= 0:
        raise ScheduleError("generated_tokens must be positive")
    mha = schedule_mha(model, acc, mem).total_cycles
    ffn = schedule_ffn(model, acc, mem).total_cycles
    encoder = model.num_encoder_layers * (mha + ffn)
    decoder_step = model.num_decoder_layers * (2 * mha + ffn)
    total = encoder + generated_tokens * decoder_step
    return {
        "encoder_cycles": encoder,
        "decoder_cycles_per_token": decoder_step,
        "generated_tokens": generated_tokens,
        "total_cycles": total,
        "cycles_per_token": total / generated_tokens,
    }


def schedule_model(
    model: ModelConfig,
    acc: AcceleratorConfig,
    mem: Optional[MemoryConfig] = None,
) -> dict:
    """Cycle totals for the full encoder/decoder stacks.

    The decoder layer holds two MHA ResBlocks (self + cross attention)
    and one FFN ResBlock; embeddings and the output softmax layer are out
    of the accelerator's scope (paper Section II-A).
    """
    mha = schedule_mha(model, acc, mem).total_cycles
    ffn = schedule_ffn(model, acc, mem).total_cycles
    encoder = model.num_encoder_layers * (mha + ffn)
    decoder = model.num_decoder_layers * (2 * mha + ffn)
    return {
        "mha_cycles": mha,
        "ffn_cycles": ffn,
        "encoder_cycles": encoder,
        "decoder_cycles": decoder,
        "total_cycles": encoder + decoder,
    }
