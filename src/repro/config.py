"""Model, accelerator and simulation configurations.

This module defines:

* :class:`ModelConfig` — the hyper-parameters of a Transformer-family model,
  with presets for every row of the paper's Table I (Transformer-base/big,
  BERT-base/large).
* :class:`AcceleratorConfig` — the parameters of the proposed hardware
  accelerator (systolic-array geometry, clock, pipeline overheads) used by
  the cycle-level simulator, the analytic cycle model, and the resource and
  power models.
* :class:`MemoryConfig` and :class:`CompressionSpec` — the off-chip link
  and the weight-compression scheme.
* :class:`ServingConfig`, :class:`DecodeConfig` and :class:`ClusterConfig`
  (with :class:`TenantConfig`, :class:`PoolConfig` and
  :class:`AutoscalerConfig`) — one simulated serving, decode or cluster
  run.

All ten are frozen dataclasses on one base, :class:`_Config`: construction
runs the class's own ``validate`` (raising :class:`ConfigError`), and
``with_updates(**changes)`` returns a validated copy of the same class.
Each field is read by the code it configures; a constant that no caller
varies lives next to that code instead.

The paper's central structural observation (Section III) is that all the
listed architectures satisfy ``d_model = 64 * h`` and
``d_ff = 4 * d_model = 256 * h``; :meth:`ModelConfig.validate` enforces the
first relation and records whether the second holds (the partitioner only
needs divisibility by 64).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, ClassVar, Optional, TypeVar

from .errors import ConfigError

#: Head dimension d_k used by every architecture in Table I.
HEAD_DIM = 64

#: Number of systolic-array columns; equal to the head dimension.
SA_COLS = 64

_C = TypeVar("_C", bound="_Config")


class _Config:
    """Base of the frozen config dataclasses: validate, copy with changes."""

    __dataclass_fields__: ClassVar[dict[str, Any]]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the configuration is inconsistent."""

    def with_updates(self: _C, **changes: object) -> _C:
        """Return a validated copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ModelConfig(_Config):
    """Hyper-parameters of a Transformer-family model (paper Table I).

    Attributes:
        name: Human-readable preset name.
        d_model: Model (embedding) width.
        d_ff: Inner width of the position-wise feed-forward network.
        num_heads: Number of attention heads ``h``.
        num_encoder_layers: Encoder stack depth (6 for Transformer-base).
        num_decoder_layers: Decoder stack depth (0 for encoder-only BERT).
        max_seq_len: Maximum sequence length ``s`` the hardware is sized for.
        dropout: Training-time dropout rate (ignored by the accelerator).
    """

    name: str
    d_model: int
    d_ff: int
    num_heads: int
    num_encoder_layers: int = 6
    num_decoder_layers: int = 6
    max_seq_len: int = 64
    dropout: float = 0.1

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the configuration is inconsistent."""
        if self.d_model <= 0 or self.d_ff <= 0 or self.num_heads <= 0:
            raise ConfigError(
                f"{self.name}: dimensions must be positive, got "
                f"d_model={self.d_model}, d_ff={self.d_ff}, h={self.num_heads}"
            )
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"{self.name}: d_model={self.d_model} is not divisible by "
                f"h={self.num_heads}"
            )
        if self.head_dim != HEAD_DIM:
            raise ConfigError(
                f"{self.name}: head dimension d_model/h={self.head_dim} must "
                f"equal {HEAD_DIM} (paper Table I pattern d_model = 64h)"
            )
        if self.d_ff % SA_COLS != 0:
            raise ConfigError(
                f"{self.name}: d_ff={self.d_ff} is not divisible by "
                f"{SA_COLS}; the SA partitioning of W1/W2 requires it"
            )
        if self.max_seq_len <= 0:
            raise ConfigError(f"{self.name}: max_seq_len must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"{self.name}: dropout must lie in [0, 1)")

    @property
    def head_dim(self) -> int:
        """Per-head dimension ``d_k = d_model / h`` (64 for all presets)."""
        return self.d_model // self.num_heads

    @property
    def follows_dff_pattern(self) -> bool:
        """Whether ``d_ff == 4 * d_model`` (true for every Table I row)."""
        return self.d_ff == 4 * self.d_model

    @property
    def num_w1_blocks(self) -> int:
        """Number of 64-column blocks of W1 (``4h`` when the pattern holds)."""
        return self.d_ff // SA_COLS

    @property
    def num_w2_blocks(self) -> int:
        """Number of 64-column blocks of W2 / WG (``h`` under the pattern)."""
        return self.d_model // SA_COLS

    def mha_macs(self, s: int) -> int:
        """Multiply-accumulate count of one MHA ResBlock at sequence length s.

        Counts the four projection GEMM groups plus the two attention
        matmuls, matching the numerator structure of the paper's Eq. (3).
        """
        h, dm, dk = self.num_heads, self.d_model, self.head_dim
        proj = 3 * h * s * dm * dk        # Q/K/V projections, all heads
        attn = h * (s * s * dk + s * s * dk)  # QK^T and (softmax)V
        out = s * dm * dm                 # P x W_G
        return proj + attn + out

    def ffn_macs(self, s: int) -> int:
        """Multiply-accumulate count of one FFN ResBlock at length s."""
        return s * self.d_model * self.d_ff * 2


def transformer_base() -> ModelConfig:
    """Transformer-base (Vaswani et al. 2017): d_model=512, d_ff=2048, h=8."""
    return ModelConfig("Transformer-base", d_model=512, d_ff=2048, num_heads=8)


def transformer_big() -> ModelConfig:
    """Transformer-big: d_model=1024, d_ff=4096, h=16."""
    return ModelConfig("Transformer-big", d_model=1024, d_ff=4096, num_heads=16)


def bert_base() -> ModelConfig:
    """BERT-base: d_model=768, d_ff=3072, h=12 (encoder-only)."""
    return ModelConfig(
        "BERT-base", d_model=768, d_ff=3072, num_heads=12,
        num_encoder_layers=12, num_decoder_layers=0,
    )


def bert_large() -> ModelConfig:
    """BERT-large: d_model=1024, d_ff=4096, h=16 (encoder-only)."""
    return ModelConfig(
        "BERT-large", d_model=1024, d_ff=4096, num_heads=16,
        num_encoder_layers=24, num_decoder_layers=0,
    )


#: All Table I presets keyed by canonical name.
TABLE1_PRESETS: dict[str, ModelConfig] = {
    "transformer-base": transformer_base(),
    "transformer-big": transformer_big(),
    "bert-base": bert_base(),
    "bert-large": bert_large(),
}


def preset(name: str) -> ModelConfig:
    """Look up a Table I preset by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in TABLE1_PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(TABLE1_PRESETS)}"
        )
    return TABLE1_PRESETS[key]


@dataclass(frozen=True)
class AcceleratorConfig(_Config):
    """Parameters of the proposed accelerator and its latency model.

    The systolic array has ``seq_len`` rows and :data:`SA_COLS` columns
    (the paper's ``s x 64`` SA with s = 64 in the evaluation).  The pipeline
    overhead parameters are the knobs the paper does not publish; the
    defaults are calibrated so the simulated cycle counts land in the same
    utilization band as the paper's reported 21,344 / 42,099 cycles (81.6% /
    77.8% SA utilization at Transformer-base, s = 64).

    Attributes:
        seq_len: SA row count ``s`` (and max sequence length processed).
        sa_cols: SA column count (64, equal to the head dimension).
        clock_mhz: Target clock frequency (paper: 200 MHz).
        sa_drain_cycles: Cycles to drain outputs after the last input column.
        weight_load_cycles: Non-overlapped cycles to load a 64-column weight
            tile into the SA between passes (0 = fully double buffered).
        pass_issue_cycles: Fixed control overhead per SA pass (address
            generation, bias fetch).
        softmax_pipeline_depth: Latency in cycles of the 4-stage softmax
            pipeline for one column (Fig. 6).
        layernorm_pipeline_depth: Latency in cycles from the last element of
            a row of G to that row's first normalized output (Fig. 8).
        layernorm_mode: Which Fig. 7 schedule the LayerNorm module uses:
            ``"straightforward"``, ``"step_one"`` or ``"step_two"``.
        abft_protected: Whether every SA pass carries ABFT checksums
            (:mod:`repro.reliability.abft`).  Dedicated checksum MAC
            unit columns/rows compute the expected row/column sums
            alongside the array, and the verification comparators
            pipeline with the column-by-column drain; the priced cost
            is ``abft_check_cycles`` of comparator tail per pass, plus
            the drain exposure of passes that would otherwise hide
            their drain behind the next pass's fill (a consumer may
            not read an unverified tile).
        abft_check_cycles: Comparator-tree depth of the ABFT verify
            stage (cycles exposed after the drain of every protected
            pass).
        pass_overlap: Whether consecutive independent SA passes overlap
            their fill/drain skew (pipelined control).  When True, a pass
            chained behind another costs only its ``k`` active cycles, and
            the skew/drain penalty is paid only at dependency breaks —
            matching the paper's claim that the SA "will hardly stop
            running".  When False every pass pays the full
            ``k + s + n - 2 + drain`` latency (simple control logic).
        single_ported_buffers: Whether the activation buffers (Fig. 5's
            Data Memory blocks) have a single read port.  If so, two
            consecutive passes that stream the *same* buffer cannot
            overlap their skew (the fill of pass i+1 would contend with
            the tail of pass i) and serialize like a dependency break.
            This is what separates the FFN's utilization from the MHA's:
            all 4h W1 passes re-read X and all h W2 passes re-read P.
        act_bits: Activation word width (INT8 in the paper).
        weight_bits: Weight word width (INT8).
        acc_bits: Accumulator width inside a PE.
    """

    seq_len: int = 64
    sa_cols: int = SA_COLS
    clock_mhz: float = 200.0
    sa_drain_cycles: int = 16
    weight_load_cycles: int = 0
    pass_issue_cycles: int = 2
    softmax_pipeline_depth: int = 20
    layernorm_pipeline_depth: int = 12
    layernorm_mode: str = "step_two"
    abft_protected: bool = False
    abft_check_cycles: int = 8
    pass_overlap: bool = True
    single_ported_buffers: bool = True
    act_bits: int = 8
    weight_bits: int = 8
    acc_bits: int = 32

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid accelerator parameters."""
        if self.seq_len <= 0 or self.sa_cols <= 0:
            raise ConfigError("SA dimensions must be positive")
        if self.clock_mhz <= 0:
            raise ConfigError("clock_mhz must be positive")
        names = (
            "sa_drain_cycles", "weight_load_cycles", "pass_issue_cycles",
            "softmax_pipeline_depth", "layernorm_pipeline_depth",
            "abft_check_cycles",
        )
        for field_name in names:
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be non-negative")
        if self.layernorm_mode not in ("straightforward", "step_one", "step_two"):
            raise ConfigError(
                f"layernorm_mode {self.layernorm_mode!r} is not one of "
                "'straightforward', 'step_one', 'step_two'"
            )
        if self.act_bits <= 1 or self.weight_bits <= 1:
            raise ConfigError("datapath widths must exceed 1 bit")
        if self.acc_bits < self.act_bits + self.weight_bits:
            raise ConfigError(
                "accumulator must be at least act_bits + weight_bits wide"
            )

    @property
    def num_pes(self) -> int:
        """Total processing elements in the SA (``s * 64``)."""
        return self.seq_len * self.sa_cols

    @property
    def clock_period_us(self) -> float:
        """Clock period in microseconds."""
        return 1.0 / self.clock_mhz

    def cycles_to_us(self, cycles: int) -> float:
        """Convert a cycle count to microseconds at the configured clock."""
        return cycles * self.clock_period_us


def paper_accelerator() -> AcceleratorConfig:
    """The configuration evaluated in the paper: 64x64 SA at 200 MHz."""
    return AcceleratorConfig()


@dataclass(frozen=True)
class MemoryConfig(_Config):
    """Off-chip memory-system parameters (:mod:`repro.memsys`).

    The paper assumes every weight tile is already resident in the
    on-chip Weight Memory; this config describes the DDR/AXI link that
    has to put it there.  The default is an *infinite* link (zero-cost
    transfers), so a plain ``MemoryConfig()`` reproduces the paper's
    cycle counts bit-for-bit and every memsys term is strictly opt-in.

    Attributes:
        bandwidth_gbps: Peak link bandwidth in GB/s (``inf`` = free).
        burst_efficiency: Fraction of peak bandwidth a real burst
            achieves (row activations, refresh, protocol overhead).
        transfer_latency_cycles: Fixed accelerator-clock cycles per
            transfer before the first beat lands (request + CAS + AXI
            pipeline).
        double_buffered_prefetch: Fetch weight tile ``k+1`` into the
            second Weight Memory bank while the SA streams tile ``k``
            (:class:`repro.memsys.TilePrefetcher`).  When False every
            weight pass waits for its own tile, fully exposed.
        weight_cache_kib: Capacity of the per-device weight cache in
            KiB; ``None`` sizes it from the Table II BRAM budget
            (:func:`repro.memsys.default_weight_cache_bytes`).
        enable_weight_cache: Whether serving devices keep weights of
            recently run ResBlocks across batches (LRU); disabling it
            restreams every block's weights on every run.
        shared_channels: Number of independent DRAM channels a
            multi-device pool shares; ``ceil(devices / channels)``
            requesters contend for each channel's bandwidth.
    """

    bandwidth_gbps: float = float("inf")
    burst_efficiency: float = 1.0
    transfer_latency_cycles: int = 0
    double_buffered_prefetch: bool = True
    weight_cache_kib: Optional[float] = None
    enable_weight_cache: bool = True
    shared_channels: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid memory parameters."""
        if self.bandwidth_gbps <= 0:
            raise ConfigError("bandwidth_gbps must be positive")
        if not 0.0 < self.burst_efficiency <= 1.0:
            raise ConfigError("burst_efficiency must lie in (0, 1]")
        if self.transfer_latency_cycles < 0:
            raise ConfigError("transfer_latency_cycles must be non-negative")
        if self.weight_cache_kib is not None and self.weight_cache_kib <= 0:
            raise ConfigError("weight_cache_kib must be positive (or None)")
        if self.shared_channels <= 0:
            raise ConfigError("shared_channels must be positive")

    @property
    def is_unlimited(self) -> bool:
        """Whether transfers are free (the paper's implicit assumption)."""
        return (
            math.isinf(self.bandwidth_gbps)
            and self.transfer_latency_cycles == 0
        )

    @property
    def effective_bytes_per_s(self) -> float:
        """Sustained link bandwidth after burst efficiency."""
        return self.bandwidth_gbps * 1e9 * self.burst_efficiency

    def bytes_per_cycle(self, clock_mhz: float) -> float:
        """Sustained bytes per accelerator clock cycle."""
        return self.effective_bytes_per_s / (clock_mhz * 1e6)

    def transfer_cycles(
        self, num_bytes: int, clock_mhz: float, contenders: int = 1
    ) -> int:
        """Accelerator cycles to move ``num_bytes`` over the link.

        ``contenders`` requesters sharing the channel each see ``1/n``
        of the sustained bandwidth (fair interleaving); the fixed
        per-transfer latency is not divided.
        """
        if num_bytes < 0:
            raise ConfigError("num_bytes must be non-negative")
        if contenders <= 0:
            raise ConfigError("contenders must be positive")
        if num_bytes == 0:
            return 0
        if math.isinf(self.bandwidth_gbps):
            return self.transfer_latency_cycles
        per_requester = self.bytes_per_cycle(clock_mhz) / contenders
        stream = math.ceil(num_bytes / per_requester)
        return self.transfer_latency_cycles + stream


@dataclass(frozen=True)
class CompressionSpec(_Config):
    """Structured weight-compression scheme (:mod:`repro.compress`).

    Describes how the off-chip weight matrices are stored and how the
    accelerator prices a compressed weight pass.  Two hardware-friendly
    families, both aligned to the SA's 64-column tile partitioning:

    * ``circulant`` — FTRANS-style block-circulant weights: each
      ``block_size x block_size`` sub-block is a circulant matrix and
      stores only its defining column.  A rotation unit regenerates the
      block rows while streaming, so the SA's active cycles are
      unchanged but the tile's off-chip footprint shrinks by
      ``block_size`` (bandwidth/BRAM relief) at a small per-pass
      row-generator setup cost.
    * ``nm_sparse`` — N:M structured sparsity over the reduction
      dimension: in every group of ``m`` consecutive weight rows only
      ``n`` are nonzero, with the mask shared by all 64 columns of a
      tile so whole zero rows are *skipped* by the SA (fewer active
      cycles).  The pass pays an index-decode overhead and the tile
      carries per-group index metadata.

    The ``dense`` scheme — and any parameterization with compression
    ratio 1.0 (``block_size == 1`` or ``n == m``) — degenerates to the
    uncompressed schedule bit-for-bit.

    Attributes:
        scheme: ``"dense"``, ``"circulant"`` or ``"nm_sparse"``.
        block_size: Circulant block edge; must divide the SA tile width
            (64) and every weight-matrix depth it is applied to.
        n: Nonzero rows kept per sparsity group (``nm_sparse`` only).
        m: Sparsity group size in rows; must divide the SA tile width
            (64) and every weight-matrix depth (``nm_sparse`` only).
    """

    scheme: str = "dense"
    block_size: int = 8
    n: int = 2
    m: int = 4

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid compression parameters."""
        if self.scheme not in ("dense", "circulant", "nm_sparse"):
            raise ConfigError(
                f"unknown compression scheme {self.scheme!r} "
                "(expected dense | circulant | nm_sparse)"
            )
        if self.scheme == "circulant":
            if self.block_size <= 0:
                raise ConfigError("block_size must be positive")
            if SA_COLS % self.block_size:
                raise ConfigError(
                    f"block_size must divide the SA tile width {SA_COLS}"
                )
        if self.scheme == "nm_sparse":
            if self.m <= 0 or self.n <= 0:
                raise ConfigError("n and m must be positive")
            if self.n > self.m:
                raise ConfigError("n:m sparsity needs n <= m")
            if SA_COLS % self.m:
                raise ConfigError(
                    f"m must divide the SA tile width {SA_COLS}"
                )

    @property
    def is_dense(self) -> bool:
        """Whether this spec degenerates to the uncompressed schedule."""
        if self.scheme == "dense":
            return True
        if self.scheme == "circulant":
            return self.block_size == 1
        return self.n == self.m

    @property
    def label(self) -> str:
        """Short human label (``dense``, ``circ8``, ``2:4``)."""
        if self.scheme == "dense":
            return "dense"
        if self.scheme == "circulant":
            return f"circ{self.block_size}"
        return f"{self.n}:{self.m}"

    @property
    def compression_ratio(self) -> float:
        """Dense / compressed weight-value count (index bytes excluded)."""
        if self.is_dense:
            return 1.0
        if self.scheme == "circulant":
            return float(self.block_size)
        return self.m / self.n

    def _check_depth(self, k: int) -> None:
        if k <= 0:
            raise ConfigError("weight depth k must be positive")
        if self.scheme == "circulant" and k % self.block_size:
            raise ConfigError(
                f"circulant block_size {self.block_size} must divide the "
                f"weight depth {k}"
            )
        if self.scheme == "nm_sparse" and k % self.m:
            raise ConfigError(
                f"sparsity group m={self.m} must divide the weight depth {k}"
            )

    def effective_depth(self, k: int) -> int:
        """SA active cycles of a compressed pass over depth ``k``.

        Circulant streaming regenerates every row (same MAC count);
        N:M sparsity skips the zero row-groups entirely.
        """
        self._check_depth(k)
        if self.scheme == "nm_sparse" and not self.is_dense:
            return k * self.n // self.m
        return k

    def pass_overhead_cycles(self, k: int) -> int:
        """Extra per-pass control cycles a compressed weight pass pays.

        Circulant: one row-generator seed load per block row
        (``k / block_size``).  N:M: one index-decode cycle per row
        group (``k / m``).  Dense (or ratio 1.0): zero.
        """
        self._check_depth(k)
        if self.is_dense:
            return 0
        if self.scheme == "circulant":
            return k // self.block_size
        return k // self.m

    def index_bits_per_group(self) -> int:
        """Metadata bits encoding the kept-row positions of one group."""
        if self.scheme != "nm_sparse" or self.is_dense:
            return 0
        return self.n * max(1, (self.m - 1).bit_length())

    def weight_tile_bytes(self, k: int, cols: int, weight_bits: int) -> int:
        """Off-chip bytes of one compressed ``k x cols`` weight tile.

        Circulant stores one defining column per block (``1/block_size``
        of the values); N:M stores the kept rows plus the per-group
        index metadata (shared across the tile's columns).
        """
        self._check_depth(k)
        if cols <= 0 or weight_bits <= 0:
            raise ConfigError("cols and weight_bits must be positive")
        if self.is_dense:
            return k * cols * weight_bits // 8
        if self.scheme == "circulant":
            return k * cols * weight_bits // (8 * self.block_size)
        values = (k * self.n // self.m) * cols * weight_bits
        index = (k // self.m) * self.index_bits_per_group()
        return -(-(values + index) // 8)

    def weight_bytes_ratio(self, k: int, cols: int, weight_bits: int) -> float:
        """Compressed / dense tile bytes (metadata included)."""
        dense = k * cols * weight_bits // 8
        return self.weight_tile_bytes(k, cols, weight_bits) / dense


def circulant_spec(block_size: int = 8) -> CompressionSpec:
    """Block-circulant spec with the given block edge."""
    return CompressionSpec(scheme="circulant", block_size=block_size)


def nm_sparse_spec(n: int = 2, m: int = 4) -> CompressionSpec:
    """N:M structured-sparsity spec (default the common 2:4)."""
    return CompressionSpec(scheme="nm_sparse", n=n, m=m)


@dataclass(frozen=True)
class TenantConfig(_Config):
    """One tenant's traffic contract in a cluster run (:mod:`repro.cluster`).

    A tenant is an independent traffic source with its own arrival
    process, sequence-length range, latency SLO and fair-share weight.
    The cluster workload layer generates each tenant's request stream
    from its own seeded RNG and merges the streams time-sorted, so one
    :class:`ClusterConfig` pins the entire multi-tenant trace.

    Attributes:
        name: Tenant identifier (label value on every per-tenant metric).
        arrival: Arrival process: ``"poisson"`` (memoryless at
            ``rate_rps``), ``"diurnal"`` (inhomogeneous Poisson whose
            rate follows a sinusoid — the day/night traffic shape), or
            ``"mmpp"`` (2-state Markov-modulated Poisson process:
            calm/burst alternation, the classic bursty-traffic model).
        rate_rps: Mean arrival rate in requests/s (the long-run average
            for every arrival process).
        num_requests: Requests this tenant contributes to the run.
        min_len / max_len: Sequence-length bounds in tokens (uniform).
        slo_us: Latency SLO — a request completing within ``slo_us`` of
            its arrival attains the SLO; later completions (and every
            rejected/expired request) miss it.
        weight: Fair-share weight for deadline-aware admission; a
            tenant's share of admitted work is ``weight / sum(weights)``
            and overload shedding hits tenants above their share first.
        diurnal_period_us: Period of the diurnal sinusoid.
        diurnal_amplitude: Relative swing of the diurnal rate in
            ``[0, 1)``: the instantaneous rate is
            ``rate_rps * (1 + amplitude * sin(2 pi t / period))``.
        burst_multiplier: MMPP burst-state rate as a multiple of the
            calm-state rate (> 1).
        burst_fraction: Long-run fraction of time spent in the burst
            state, in ``(0, 1)``.
        burst_mean_us: Mean sojourn time of one burst episode.
        seed: Per-tenant RNG stream component; combined with the
            cluster seed so tenants draw independent streams.
    """

    name: str
    arrival: str = "poisson"
    rate_rps: float = 500.0
    num_requests: int = 100
    min_len: int = 8
    max_len: int = 64
    slo_us: float = 50_000.0
    weight: float = 1.0
    diurnal_period_us: float = 1_000_000.0
    diurnal_amplitude: float = 0.8
    burst_multiplier: float = 8.0
    burst_fraction: float = 0.15
    burst_mean_us: float = 50_000.0
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid tenant parameters."""
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.arrival not in ("poisson", "diurnal", "mmpp"):
            raise ConfigError(
                f"tenant {self.name}: arrival {self.arrival!r} is not "
                "'poisson', 'diurnal' or 'mmpp'"
            )
        if self.rate_rps <= 0:
            raise ConfigError(f"tenant {self.name}: rate_rps must be positive")
        if self.num_requests <= 0:
            raise ConfigError(
                f"tenant {self.name}: num_requests must be positive"
            )
        if not 0 < self.min_len <= self.max_len:
            raise ConfigError(
                f"tenant {self.name}: need 0 < min_len <= max_len, got "
                f"[{self.min_len}, {self.max_len}]"
            )
        if self.slo_us <= 0:
            raise ConfigError(f"tenant {self.name}: slo_us must be positive")
        if self.weight <= 0:
            raise ConfigError(f"tenant {self.name}: weight must be positive")
        if self.diurnal_period_us <= 0:
            raise ConfigError(
                f"tenant {self.name}: diurnal_period_us must be positive"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError(
                f"tenant {self.name}: diurnal_amplitude must lie in [0, 1)"
            )
        if self.burst_multiplier <= 1.0:
            raise ConfigError(
                f"tenant {self.name}: burst_multiplier must exceed 1"
            )
        if not 0.0 < self.burst_fraction < 1.0:
            raise ConfigError(
                f"tenant {self.name}: burst_fraction must lie in (0, 1)"
            )
        if self.burst_mean_us <= 0:
            raise ConfigError(
                f"tenant {self.name}: burst_mean_us must be positive"
            )


@dataclass(frozen=True)
class PoolConfig(_Config):
    """One heterogeneous device pool in a cluster (:mod:`repro.cluster`).

    A pool is an independent worker group fronted by its own admission
    queue and dynamic batcher: either a pool of the paper's FPGA
    accelerators (priced by the cycle-accurate schedules, optionally
    through a :class:`MemoryConfig` weight-traffic model) or a pool of
    ``repro.gpu_model`` V100 devices (priced by the roofline kernel
    model).  The autoscaler may grow or drain ``"replicate"`` pools
    between ``min_devices`` and ``max_devices``.

    Attributes:
        name: Pool identifier (trace-track prefix and metric label).
        kind: ``"fpga"`` (cycle-model accelerator devices) or ``"gpu"``
            (:func:`repro.gpu_model.v100_batched` roofline devices).
        num_devices: Devices the pool starts with.
        min_devices / max_devices: Autoscaler bounds on the replica
            count; ``max_devices`` is also the pool's device budget for
            equal-budget policy comparisons.
        placement: ``"replicate"`` or ``"layer_shard"`` (FPGA only;
            layer-sharded pools are static — the pipeline shape cannot
            change at runtime).
        clock_mhz: FPGA accelerator clock (ignored for GPU pools).
        abft_protected: Whether the pool's FPGA accelerators carry ABFT
            checksums (prices the protection's cycle overhead into
            every batch; ignored for GPU pools).
        memory: Off-chip memory system of each FPGA device (``None`` =
            the free-reload accounting); heterogeneity between pools
            typically comes from this and from ``kind``.
        compression: Weight-compression spec the pool's model is served
            with (``None`` = dense weights); FPGA pools price
            compressed passes through :mod:`repro.compress`, GPU pools
            take no spec.
    """

    name: str
    kind: str = "fpga"
    num_devices: int = 1
    min_devices: int = 1
    max_devices: int = 4
    placement: str = "replicate"
    clock_mhz: float = 200.0
    abft_protected: bool = False
    memory: Optional[MemoryConfig] = None
    compression: Optional[CompressionSpec] = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid pool parameters."""
        if not self.name:
            raise ConfigError("pool name must be non-empty")
        if self.kind not in ("fpga", "gpu"):
            raise ConfigError(
                f"pool {self.name}: kind {self.kind!r} is not 'fpga' or "
                "'gpu'"
            )
        if self.placement not in ("replicate", "layer_shard"):
            raise ConfigError(
                f"pool {self.name}: placement {self.placement!r} is not "
                "'replicate' or 'layer_shard'"
            )
        if self.kind == "gpu" and self.placement != "replicate":
            raise ConfigError(
                f"pool {self.name}: gpu pools only support 'replicate'"
            )
        if not 1 <= self.min_devices <= self.num_devices <= self.max_devices:
            raise ConfigError(
                f"pool {self.name}: need 1 <= min_devices <= num_devices "
                f"<= max_devices, got {self.min_devices} <= "
                f"{self.num_devices} <= {self.max_devices}"
            )
        if self.clock_mhz <= 0:
            raise ConfigError(f"pool {self.name}: clock_mhz must be positive")
        if self.memory is not None and not isinstance(self.memory, MemoryConfig):
            raise ConfigError(
                f"pool {self.name}: memory must be a MemoryConfig (or None)"
            )
        if self.kind == "gpu" and self.memory is not None:
            raise ConfigError(
                f"pool {self.name}: gpu pools take no MemoryConfig (the "
                "roofline model already prices HBM traffic)"
            )
        if self.compression is not None:
            if not isinstance(self.compression, CompressionSpec):
                raise ConfigError(
                    f"pool {self.name}: compression must be a "
                    "CompressionSpec (or None)"
                )
            if self.kind == "gpu":
                raise ConfigError(
                    f"pool {self.name}: gpu pools take no CompressionSpec "
                    "(the roofline model prices dense kernels only)"
                )


@dataclass(frozen=True)
class AutoscalerConfig(_Config):
    """Threshold autoscaling policy over a cluster's replicate pools.

    The autoscaler wakes every ``interval_us``, reads each pool's
    telemetry signals (queue depth per device, windowed p99 latency,
    busy fraction, weight-cache hit rate) and adds or drains one
    replica at a time, subject to per-pool cooldowns and the
    ``[min_devices, max_devices]`` bounds of each
    :class:`PoolConfig`.  Draining is graceful: a draining device
    finishes its in-flight batch and only then retires, so scale-down
    never drops admitted requests.

    Attributes:
        enabled: Master switch; when False the cluster runs its pools
            at their configured ``num_devices`` throughout.
        interval_us: Evaluation period.
        scale_up_queue_depth: Add a replica when a pool's queued
            requests per active device exceed this.
        scale_up_p99_us: Add a replica when a pool's p99 latency over
            the last 200 ms of completions exceeds this (``None``
            disables the signal).
        scale_down_busy: Drain a replica when a pool's busy fraction
            over the last interval falls below this and its queue is
            empty.
        cooldown_up_us: Minimum time between scale-ups of one pool.
        cooldown_down_us: Minimum time between drains of one pool.
        scale_up_burn_rate: Add a replica when the SLO monitor's worst
            short-window burn rate exceeds this (``None`` disables the
            signal).  Only active when a
            :class:`~repro.obs.slo.BurnRateMonitor` is passed to
            :func:`~repro.cluster.simulator.simulate_cluster` — the
            explicit alert→autoscaler opt-in.
    """

    enabled: bool = True
    interval_us: float = 20_000.0
    scale_up_queue_depth: float = 4.0
    scale_up_p99_us: Optional[float] = None
    scale_down_busy: float = 0.15
    cooldown_up_us: float = 40_000.0
    cooldown_down_us: float = 80_000.0
    scale_up_burn_rate: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid autoscaler parameters."""
        if self.interval_us <= 0:
            raise ConfigError("interval_us must be positive")
        if self.scale_up_queue_depth <= 0:
            raise ConfigError("scale_up_queue_depth must be positive")
        if self.scale_up_p99_us is not None and self.scale_up_p99_us <= 0:
            raise ConfigError("scale_up_p99_us must be positive (or None)")
        if not 0.0 <= self.scale_down_busy < 1.0:
            raise ConfigError("scale_down_busy must lie in [0, 1)")
        if self.cooldown_up_us < 0 or self.cooldown_down_us < 0:
            raise ConfigError("cooldowns must be non-negative")
        if (self.scale_up_burn_rate is not None
                and self.scale_up_burn_rate <= 0):
            raise ConfigError(
                "scale_up_burn_rate must be positive (or None)"
            )


@dataclass(frozen=True)
class ClusterConfig(_Config):
    """Parameters of one simulated cluster run (:mod:`repro.cluster`).

    A cluster is N heterogeneous :class:`PoolConfig` pools fronted by
    an SLO-aware router, an :class:`AutoscalerConfig` policy, and a
    multi-tenant workload built from :class:`TenantConfig` traffic
    contracts.  One config (plus the model preset) pins the entire
    run bit-for-bit.

    Attributes:
        pools: The device pools (at least one).
        tenants: The traffic sources (at least one).
        router_policy: How arrivals pick a pool: ``"round_robin"``,
            ``"least_queue"`` (fewest queued requests per active
            device), ``"ewma"`` (lowest exponentially weighted moving
            average of completed-request latency, alpha 0.2) or
            ``"slo"`` (deadline-aware: minimize predicted completion
            among pools that can make the deadline, with
            weighted-fairness admission shedding over a 250 ms window
            under overload).
        autoscaler: The scaling policy (see :class:`AutoscalerConfig`).
        queue_capacity: Per-pool admission-queue bound.
        queue_timeout_us: Per-pool queueing timeout (``inf`` disables).
        max_batch_requests: Dynamic-batching request cap per pool batch.
        max_wait_us: Batch cut-off wait per pool.
        seed: Master RNG seed; tenant streams combine it with their own
            ``seed`` field, so one value pins the whole workload.
    """

    pools: tuple[PoolConfig, ...] = ()
    tenants: tuple[TenantConfig, ...] = ()
    router_policy: str = "slo"
    autoscaler: AutoscalerConfig = dataclasses.field(
        default_factory=AutoscalerConfig
    )
    queue_capacity: int = 64
    queue_timeout_us: float = float("inf")
    max_batch_requests: int = 8
    max_wait_us: float = 500.0
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid cluster parameters."""
        if not self.pools:
            raise ConfigError("cluster needs at least one pool")
        if not self.tenants:
            raise ConfigError("cluster needs at least one tenant")
        pool_names = [p.name for p in self.pools]
        if len(set(pool_names)) != len(pool_names):
            raise ConfigError(f"duplicate pool names in {pool_names}")
        tenant_names = [t.name for t in self.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ConfigError(f"duplicate tenant names in {tenant_names}")
        for pool in self.pools:
            if not isinstance(pool, PoolConfig):
                raise ConfigError("pools must be PoolConfig instances")
        for tenant in self.tenants:
            if not isinstance(tenant, TenantConfig):
                raise ConfigError("tenants must be TenantConfig instances")
        if self.router_policy not in (
            "round_robin", "least_queue", "ewma", "slo"
        ):
            raise ConfigError(
                f"router_policy {self.router_policy!r} is not one of "
                "'round_robin', 'least_queue', 'ewma', 'slo'"
            )
        if not isinstance(self.autoscaler, AutoscalerConfig):
            raise ConfigError("autoscaler must be an AutoscalerConfig")
        if self.queue_capacity <= 0:
            raise ConfigError("queue_capacity must be positive")
        if self.queue_timeout_us <= 0:
            raise ConfigError("queue_timeout_us must be positive")
        if self.max_batch_requests <= 0:
            raise ConfigError("max_batch_requests must be positive")
        if self.max_wait_us < 0:
            raise ConfigError("max_wait_us must be non-negative")


@dataclass(frozen=True)
class ServingConfig(_Config):
    """Parameters of one simulated serving run (:mod:`repro.serving`).

    Attributes:
        arrival_rate_rps: Mean Poisson request arrival rate (requests/s).
        num_requests: Number of requests to generate for the run.
        min_len / max_len: Sequence-length bounds in tokens; lengths are
            uniform integers in ``[min_len, max_len]`` (equal bounds fix
            every length).  ``max_len`` may not exceed the accelerator's
            SA row count.
        queue_capacity: Admission-queue bound; arrivals beyond it are
            rejected immediately.
        queue_timeout_us: Maximum queueing time before a waiting request
            is dropped (``inf`` disables timeouts).
        max_batch_requests: Dynamic-batching cap on requests per batch
            (1 reproduces the paper's batch-1 operating point).
        max_wait_us: Batch cut-off: dispatch a partial batch once its
            oldest request has waited this long (0 = never hold back).
        num_devices: Simulated accelerator count in the worker pool.
        placement: ``"replicate"`` (every device holds the full model,
            paying per-block weight reloads) or ``"layer_shard"`` (layers
            pipelined across devices with resident weights).
        batch_fault_rate: Per-batch probability that a soft error
            strikes the datapath during the run.  With ABFT on the
            accelerator (``AcceleratorConfig.abft_protected``) the
            fault is *detected* and the batch retried (up to
            ``max_retries`` times, then its requests fail); without
            ABFT it is *silent* and the batch's responses are counted
            as corrupted.
        device_failure_rate: Per-batch probability that the executing
            device dies (hard failure) at the end of the run.  The
            batch itself still completes; a ``"replicate"`` pool then
            keeps serving degraded on the survivors, while losing any
            stage of a ``"layer_shard"`` pipeline kills the pool and
            fails all still-queued requests.
        max_retries: Detected-fault retry budget per batch.
        seed: Workload RNG seed; fixing it makes the whole simulation
            deterministic (fault events draw from an independent
            stream spawned from the same seed).
        memory: Off-chip memory system (:class:`MemoryConfig`).  When
            set, ``"replicate"`` devices fetch each ResBlock's weights
            over the shared DRAM channels into a per-device weight
            cache, priced as two states: cold (every block misses) and
            warm (the blocks the cache holds hit).  ``None`` fetches
            every block over the Weight Memory port with no cache.
        compression: Weight-compression spec the served model uses
            (``None`` = dense weights).  Batches are priced with the
            compressed MHA/FFN schedules and the smaller compressed
            weight footprint flows into the reload/cache traffic
            (:mod:`repro.compress`).
    """

    arrival_rate_rps: float = 2000.0
    num_requests: int = 200
    min_len: int = 8
    max_len: int = 64
    queue_capacity: int = 64
    queue_timeout_us: float = float("inf")
    max_batch_requests: int = 8
    max_wait_us: float = 500.0
    num_devices: int = 1
    placement: str = "replicate"
    batch_fault_rate: float = 0.0
    device_failure_rate: float = 0.0
    max_retries: int = 1
    seed: int = 0
    memory: Optional[MemoryConfig] = None
    compression: Optional[CompressionSpec] = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid serving parameters."""
        if self.arrival_rate_rps <= 0:
            raise ConfigError("arrival_rate_rps must be positive")
        if self.num_requests <= 0:
            raise ConfigError("num_requests must be positive")
        if not 0 < self.min_len <= self.max_len:
            raise ConfigError(
                f"need 0 < min_len <= max_len, got [{self.min_len}, "
                f"{self.max_len}]"
            )
        if self.queue_capacity <= 0:
            raise ConfigError("queue_capacity must be positive")
        if self.queue_timeout_us <= 0:
            raise ConfigError("queue_timeout_us must be positive")
        if self.max_batch_requests <= 0:
            raise ConfigError("max_batch_requests must be positive")
        if self.max_wait_us < 0:
            raise ConfigError("max_wait_us must be non-negative")
        if self.num_devices <= 0:
            raise ConfigError("num_devices must be positive")
        if self.placement not in ("replicate", "layer_shard"):
            raise ConfigError(
                f"placement {self.placement!r} is not 'replicate' or "
                "'layer_shard'"
            )
        for name in ("batch_fault_rate", "device_failure_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {rate}")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.memory is not None and not isinstance(self.memory, MemoryConfig):
            raise ConfigError("memory must be a MemoryConfig (or None)")
        if self.compression is not None and not isinstance(
                self.compression, CompressionSpec):
            raise ConfigError("compression must be a CompressionSpec (or None)")


@dataclass(frozen=True)
class DecodeConfig(_Config):
    """Parameters of one mixed prefill/decode run (:mod:`repro.decode`).

    Attributes:
        arrival_rate_rps: Mean Poisson stream arrival rate (streams/s).
        num_streams: Number of generation streams for the run.
        prefill_len_min / prefill_len_max: Prompt-length bounds in
            tokens (uniform); prompts longer than the SA's rows run as
            fused row-tiled prefill.
        decode_tokens_min / decode_tokens_max: Tokens generated per
            stream after prefill (uniform).
        policy: Interleaving policy when prefills and decode steps
            compete for a device: ``"decode_priority"`` dispatches
            pending decode steps before any queued prefill (protects
            inter-token latency), ``"prefill_chunk"`` splits each
            prefill into its 64-row tiles and round-robins chunks with
            decode batches (protects time-to-first-token under load).
        max_decode_batch: Upper bound on decode streams stepped together
            in one dispatch (batch cost = slowest member's step +
            everyone's KV refetch).
        kv_capacity_bytes: On-chip KV budget per device; ``None`` uses
            the Table II BRAM default, ``0`` forces always-refetch.
            K/V residency is tracked in pages of 64 tokens (one SA
            pass), so any other capacity must hold at least one page
            (65,536 bytes for Transformer-base); a smaller one is
            refused when the simulation builds its cache.
        num_devices: Simulated accelerator count.
        queue_capacity: Pending-stream bound; arrivals beyond it are
            rejected.
        seed: RNG seed; fixing it makes the run fully deterministic.
        memory: Off-chip link pricing KV refetch (``None`` = free).
    """

    arrival_rate_rps: float = 200.0
    num_streams: int = 32
    prefill_len_min: int = 96
    prefill_len_max: int = 256
    decode_tokens_min: int = 8
    decode_tokens_max: int = 32
    policy: str = "decode_priority"
    max_decode_batch: int = 8
    kv_capacity_bytes: Optional[int] = None
    num_devices: int = 1
    queue_capacity: int = 256
    seed: int = 0
    memory: Optional[MemoryConfig] = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid decode parameters."""
        if self.arrival_rate_rps <= 0:
            raise ConfigError("arrival_rate_rps must be positive")
        if self.num_streams <= 0:
            raise ConfigError("num_streams must be positive")
        if not 0 < self.prefill_len_min <= self.prefill_len_max:
            raise ConfigError(
                f"need 0 < prefill_len_min <= prefill_len_max, got "
                f"[{self.prefill_len_min}, {self.prefill_len_max}]"
            )
        if not 0 < self.decode_tokens_min <= self.decode_tokens_max:
            raise ConfigError(
                f"need 0 < decode_tokens_min <= decode_tokens_max, got "
                f"[{self.decode_tokens_min}, {self.decode_tokens_max}]"
            )
        if self.policy not in ("decode_priority", "prefill_chunk"):
            raise ConfigError(
                f"policy {self.policy!r} is not 'decode_priority' or "
                "'prefill_chunk'"
            )
        if self.max_decode_batch <= 0:
            raise ConfigError("max_decode_batch must be positive")
        if self.kv_capacity_bytes is not None and self.kv_capacity_bytes < 0:
            raise ConfigError(
                "kv_capacity_bytes must be non-negative (or None)"
            )
        if self.num_devices <= 0:
            raise ConfigError("num_devices must be positive")
        if self.queue_capacity <= 0:
            raise ConfigError("queue_capacity must be positive")
        if self.memory is not None and not isinstance(self.memory, MemoryConfig):
            raise ConfigError("memory must be a MemoryConfig (or None)")

