"""Matrix partitioning for SA reuse (paper Section III, Fig. 3-4).

The accelerator owns a single ``s x 64`` systolic array.  Every GEMM of
both ResBlocks must therefore be decomposed into passes of the shape
``(s x k) @ (k x 64)``:

* the per-head projections ``Q W_Qi`` etc. already have 64 columns;
* ``W_G`` (d_model x d_model) splits into ``h`` 64-column blocks;
* ``W_1`` (d_model x d_ff) splits into ``4h`` blocks;
* ``W_2`` (d_ff x d_model) splits into ``h`` blocks;
* the lone irregular op ``Q_i K_i^T`` (output s x s) is zero-padded when
  ``s <= 64`` or row-partitioned over ``Q_i`` when ``s > 64``.

:func:`qkt_multiply_ratio` is the paper's Eq. (3): the share of total MHA
multiplies spent in ``Q K^T``, showing why its special handling cannot hurt
utilization much.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SA_COLS, ModelConfig
from ..errors import PartitionError


@dataclass(frozen=True)
class WeightBlock:
    """One 64-column block of a partitioned weight matrix.

    Attributes:
        name: Source matrix name ("WG", "W1", "W2", ...).
        index: Block index within the source matrix.
        columns: ``slice`` of source columns this block covers.
        data: The ``(k, 64)`` block itself.
    """

    name: str
    index: int
    columns: slice
    data: np.ndarray


def partition_columns(
    matrix: np.ndarray, name: str, block_cols: int = SA_COLS
) -> list[WeightBlock]:
    """Split ``matrix`` into contiguous ``block_cols``-column blocks.

    Raises :class:`PartitionError` unless the column count divides evenly —
    the Table I pattern (d_model = 64h, d_ff = 256h) guarantees it for all
    the matrices the paper partitions.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise PartitionError(f"{name}: expected a 2-D matrix, got {matrix.shape}")
    rows, cols = matrix.shape
    if cols % block_cols:
        raise PartitionError(
            f"{name}: {cols} columns not divisible by {block_cols}"
        )
    blocks = []
    for i in range(cols // block_cols):
        columns = slice(i * block_cols, (i + 1) * block_cols)
        blocks.append(
            WeightBlock(name=name, index=i, columns=columns,
                        data=matrix[:, columns])
        )
    return blocks


def reassemble_columns(blocks: list[WeightBlock]) -> np.ndarray:
    """Inverse of :func:`partition_columns` (tests the round trip)."""
    if not blocks:
        raise PartitionError("cannot reassemble zero blocks")
    ordered = sorted(blocks, key=lambda b: b.index)
    for expected, block in enumerate(ordered):
        if block.index != expected:
            raise PartitionError(
                f"{block.name}: missing block {expected}"
            )
    return np.concatenate([b.data for b in ordered], axis=1)


@dataclass(frozen=True)
class QKTPlan:
    """Execution plan for the irregular ``Q_i x K_i^T`` operation.

    Attributes:
        strategy: ``"zero_pad"`` (s <= 64: pad K_i^T to 64 columns... i.e.
            pad K_i rows) or ``"partition_q"`` (s > 64: split Q_i rows into
            64-row chunks so each pass output fits the s x 64 SA).
        num_passes: SA passes needed for the whole s x s product.
        padded_cols: Columns after zero padding (zero_pad strategy).
    """

    strategy: str
    num_passes: int
    padded_cols: int


def plan_qkt(s: int, sa_cols: int = SA_COLS) -> QKTPlan:
    """Choose the paper's strategy for ``Q_i K_i^T`` at sequence length s."""
    if s <= 0:
        raise PartitionError("sequence length must be positive")
    if s <= sa_cols:
        return QKTPlan(strategy="zero_pad", num_passes=1, padded_cols=sa_cols)
    num_chunks = -(-s // sa_cols)  # ceil division
    return QKTPlan(
        strategy="partition_q", num_passes=num_chunks, padded_cols=s
    )


def qkt_multiply_ratio(s: int, h: int) -> float:
    """Paper Eq. (3) as printed: ``s / (s + 256 h^2 + 64)``.

    Note: cancelling the common factor ``4096 h s`` from the exact count
    (:func:`qkt_multiply_ratio_exact`) actually yields
    ``s / (s + 256 h^2 + s^2/64)``; the paper's printed ``+64`` equals
    ``s^2/64`` only at ``s = 64`` (its evaluation point).  Both forms are
    provided; the Eq. (3) bench reports the divergence for s != 64.
    """
    if s <= 0 or h <= 0:
        raise PartitionError("s and h must be positive")
    return s / (s + 256 * h * h + 64)


def qkt_multiply_ratio_exact(s: int, h: int) -> float:
    """Eq. (3)'s left-hand side evaluated without algebraic simplification.

    ``s^2 * 64^2 * h`` (the ``Q K^T`` multiplies) over the total of all
    four MHA GEMM groups exactly as enumerated in the paper's numerator
    and denominator.
    """
    if s <= 0 or h <= 0:
        raise PartitionError("s and h must be positive")
    d_model = 64 * h
    qkt = s * s * 64 * 64 * h
    projections = 3 * (64 * s * d_model ** 2) * h
    output = s * d_model ** 3
    attn_v = 64 * s ** 3 * h
    return qkt / (qkt + projections + output + attn_v)


def partition_model_weights(
    config: ModelConfig,
    wg: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
) -> dict:
    """Partition the three large matrices of one encoder layer (Fig. 4).

    Returns ``{"WG": [...h blocks...], "W1": [...4h...], "W2": [...h...]}``
    and validates the block counts against the Table I pattern.
    """
    blocks = {
        "WG": partition_columns(wg, "WG"),
        "W1": partition_columns(w1, "W1"),
        "W2": partition_columns(w2, "W2"),
    }
    expected = {
        "WG": config.num_w2_blocks,
        "W1": config.num_w1_blocks,
        "W2": config.num_w2_blocks,
    }
    for name, expect in expected.items():
        if len(blocks[name]) != expect:
            raise PartitionError(
                f"{name}: got {len(blocks[name])} blocks, Table I pattern "
                f"implies {expect}"
            )
    return blocks
