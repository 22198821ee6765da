"""Compressed weight footprint: BRAM fit and off-chip bandwidth relief.

Translates a :class:`~repro.config.CompressionSpec` into the
:mod:`repro.memsys` quantities the rest of the stack consumes:

* per-ResBlock and per-model compressed weight bytes (what the serving
  weight cache stores and the DRAM link moves);
* how many complete encoder-layer weight sets fit the Table II BRAM
  ``WeightCache`` budget — compression's on-chip payoff is *residency*,
  not just bandwidth;
* the steady-state bandwidth each ResBlock needs to stay compute
  bound, from the compressed tile bytes over the compressed pass busy
  time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import AcceleratorConfig, CompressionSpec, ModelConfig
from ..core.cycle_model import (
    DENSE,
    ffn_tile_bytes,
    mha_tile_bytes,
    weight_pass_busy_cycles,
)


def mha_weight_bytes(
    model: ModelConfig, acc: AcceleratorConfig, spec: CompressionSpec
) -> int:
    """Compressed bytes of one MHA ResBlock's W_Q/K/V/G set."""
    tiles_per_matrix = model.d_model // acc.sa_cols
    return 4 * tiles_per_matrix * mha_tile_bytes(model, acc, spec)


def ffn_weight_bytes(
    model: ModelConfig, acc: AcceleratorConfig, spec: CompressionSpec
) -> int:
    """Compressed bytes of one FFN ResBlock's W1/W2 set."""
    w1_tile, w2_tile = ffn_tile_bytes(model, acc, spec)
    return (model.num_w1_blocks * w1_tile + model.num_w2_blocks * w2_tile)


def layer_weight_bytes(
    model: ModelConfig, acc: AcceleratorConfig, spec: CompressionSpec
) -> int:
    """Compressed bytes of one encoder layer (MHA + FFN ResBlocks)."""
    return (mha_weight_bytes(model, acc, spec)
            + ffn_weight_bytes(model, acc, spec))


@dataclass(frozen=True)
class FootprintReport:
    """Weight-storage consequences of one compression spec.

    Attributes:
        spec_label: Human label of the spec (``dense``/``circ8``/...).
        mha_bytes / ffn_bytes: Compressed per-ResBlock weight bytes.
        dense_mha_bytes / dense_ffn_bytes: Uncompressed references.
        weight_bytes_ratio: Compressed / dense bytes over a full layer
            (index metadata included).
        cache_capacity_bytes: The Table II BRAM ``WeightCache`` budget
            the layers must share.
        layers_resident: Complete encoder-layer weight sets that fit
            the budget simultaneously.
        dense_layers_resident: Same count for dense weights.
        mha_crossover_gbps / ffn_crossover_gbps: Steady-state link
            bandwidth (GB/s) above which the compressed block stays
            compute bound (tile bytes over the hiding window).
    """

    spec_label: str
    mha_bytes: int
    ffn_bytes: int
    dense_mha_bytes: int
    dense_ffn_bytes: int
    weight_bytes_ratio: float
    cache_capacity_bytes: int
    layers_resident: int
    dense_layers_resident: int
    mha_crossover_gbps: float
    ffn_crossover_gbps: float


def _crossover_gbps(
    tile_bytes: int, busy_cycles: int, clock_mhz: float
) -> float:
    """Link bandwidth needed to fetch a tile inside its hiding window."""
    if busy_cycles <= 0:
        return float("inf")
    return tile_bytes * clock_mhz * 1e6 / busy_cycles / 1e9


def footprint_report(
    model: ModelConfig,
    acc: AcceleratorConfig,
    spec: CompressionSpec,
    cache_capacity_bytes: int | None = None,
) -> FootprintReport:
    """Full footprint accounting for one spec at one operating point."""
    from ..memsys.cache import default_weight_cache_bytes

    mha = mha_weight_bytes(model, acc, spec)
    ffn = ffn_weight_bytes(model, acc, spec)
    dense_mha = mha_weight_bytes(model, acc, DENSE)
    dense_ffn = ffn_weight_bytes(model, acc, DENSE)
    capacity = (
        default_weight_cache_bytes(model, acc)
        if cache_capacity_bytes is None else cache_capacity_bytes
    )
    layer = mha + ffn
    dense_layer = dense_mha + dense_ffn
    busy_mha = weight_pass_busy_cycles(
        acc, spec, model.d_model, acc.single_ported_buffers
    )
    busy_ffn = weight_pass_busy_cycles(
        acc, spec, model.d_ff, acc.single_ported_buffers
    )
    w1_tile, w2_tile = ffn_tile_bytes(model, acc, spec)
    return FootprintReport(
        spec_label=spec.label,
        mha_bytes=mha,
        ffn_bytes=ffn,
        dense_mha_bytes=dense_mha,
        dense_ffn_bytes=dense_ffn,
        weight_bytes_ratio=layer / dense_layer,
        cache_capacity_bytes=capacity,
        layers_resident=capacity // layer,
        dense_layers_resident=capacity // dense_layer,
        mha_crossover_gbps=_crossover_gbps(
            mha_tile_bytes(model, acc, spec), busy_mha,
            acc.clock_mhz,
        ),
        ffn_crossover_gbps=max(
            _crossover_gbps(w1_tile, busy_mha, acc.clock_mhz),
            _crossover_gbps(w2_tile, busy_ffn, acc.clock_mhz),
        ),
    )
