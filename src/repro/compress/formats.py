"""Compressed weight-matrix representations (block-circulant, N:M sparse).

Numeric counterparts of the :class:`~repro.config.CompressionSpec`
pricing: the same two structured families, as actual numpy weight
containers with a *dense-expansion equivalence path* — every format can
expand to an ordinary dense matrix, and its structured ``matvec``
(computed the way the hardware would: circular row regeneration /
skipping zero row-groups) is exactly the dense product with the
expanded matrix.  The property tests hold this to bit-equality for
integer codes and to float equality for real weights.

Layout convention matches :class:`repro.transformer.layers.Linear`:
a weight matrix is ``(in_features, out_features)`` and is applied as
``x @ W``, so the reduction (SA depth) axis is axis 0 and the SA's
64-column tiles partition axis 1.

* :class:`BlockCirculantMatrix` — FTRANS-style: each ``b x b`` block is
  circulant, ``block[i, j] = c[(i - j) mod b]``, storing only the
  defining column ``c``.  ``from_dense`` projects a dense matrix onto
  the circulant family by averaging each block's wrapped diagonals
  (the least-squares projection).
* :class:`NMSparseMatrix` — N:M structured sparsity over the reduction
  axis: in every group of ``m`` consecutive rows only ``n`` carry
  nonzeros, and the kept-row mask is shared by all columns of each
  64-column tile so the SA skips whole zero row-groups.  ``from_dense``
  keeps the ``n`` rows with the largest L2 norm over the tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SA_COLS, CompressionSpec
from ..errors import ConfigError
from ..quant.quantizer import QuantParams


#: Declared width of the compressed-pass control registers — the
#: circulant rotation-offset counter, the N:M group counter and the
#: stored row-offset field (statcheck QFMT graph hook; the overflow
#: certifier's ``OverflowPoint.compress_counter_bits`` default mirrors
#: this value and the two are cross-checked by the QFMT engine).
CONTROL_COUNTER_BITS = 16


def _check_2d(dense: np.ndarray) -> None:
    if dense.ndim != 2:
        raise ConfigError(f"expected a 2-D weight matrix, got {dense.shape}")


@dataclass(frozen=True)
class BlockCirculantMatrix:
    """A ``(rows, cols)`` weight matrix of ``b x b`` circulant blocks.

    ``seeds[bi, bj]`` is the defining column of block ``(bi, bj)``:
    the dense block is ``block[i, j] = seeds[bi, bj][(i - j) mod b]``.
    Stores ``1/b`` of the dense values.
    """

    seeds: np.ndarray          # (rows // b, cols // b, b)
    block_size: int
    rows: int
    cols: int

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, block_size: int
    ) -> BlockCirculantMatrix:
        """Least-squares projection of ``dense`` onto the circulant family.

        Each block's defining column entry ``c[d]`` is the mean of the
        block's wrapped diagonal ``{(i, j) : (i - j) mod b = d}``.
        """
        _check_2d(dense)
        rows, cols = dense.shape
        b = block_size
        if b <= 0 or rows % b or cols % b:
            raise ConfigError(
                f"block_size {b} must divide the matrix shape {dense.shape}"
            )
        blocks = dense.reshape(rows // b, b, cols // b, b).transpose(0, 2, 1, 3)
        i = np.arange(b)[:, None]
        j = np.arange(b)[None, :]
        diag = (i - j) % b                       # (b, b) diagonal index
        seeds = np.zeros((rows // b, cols // b, b), dtype=np.float64)
        for d in range(b):
            mask = diag == d
            seeds[:, :, d] = blocks[:, :, mask].mean(axis=-1)
        return cls(seeds=seeds, block_size=b, rows=rows, cols=cols)

    def expand(self) -> np.ndarray:
        """Dense ``(rows, cols)`` matrix with every block made circulant."""
        b = self.block_size
        i = np.arange(b)[:, None]
        j = np.arange(b)[None, :]
        diag = (i - j) % b
        blocks = self.seeds[:, :, diag]          # (Rb, Cb, b, b)
        return blocks.transpose(0, 2, 1, 3).reshape(self.rows, self.cols)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``x @ W`` via per-block circular correlation (no expansion).

        ``y[bj*b + j] = sum_bi sum_i seeds[bi, bj][(i - j) mod b]
        * x[bi*b + i]`` — the row-regeneration order the hardware's
        rotation unit streams.  Exact in integer arithmetic when both
        operands are integer arrays.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.rows:
            raise ConfigError(
                f"matvec expected last dim {self.rows}, got {x.shape}"
            )
        b = self.block_size
        integer = (np.issubdtype(x.dtype, np.integer)
                   and np.issubdtype(self.seeds.dtype, np.integer))
        dtype = np.int64 if integer else np.float64
        xb = x.reshape(*x.shape[:-1], self.rows // b, b).astype(dtype)
        seeds = self.seeds.astype(dtype)
        i = np.arange(b)[:, None]
        j = np.arange(b)[None, :]
        rot = seeds[:, :, (i - j) % b]           # (Rb, Cb, b, b)
        # y[..., bj, j] = sum_bi sum_i xb[..., bi, i] * rot[bi, bj, i, j]
        y = np.einsum("...ri,rcij->...cj", xb, rot)
        return y.reshape(*x.shape[:-1], self.cols)

    def quantize(self, bits: int = 8) -> tuple[BlockCirculantMatrix, QuantParams]:
        """INT8-code copy of this matrix plus its quantization params."""
        params = QuantParams.from_amax(
            float(np.abs(self.seeds).max(initial=0.0)), bits
        )
        return (
            BlockCirculantMatrix(
                seeds=params.quantize(self.seeds),
                block_size=self.block_size, rows=self.rows, cols=self.cols,
            ),
            params,
        )

    @property
    def stored_values(self) -> int:
        return int(self.seeds.size)

    @property
    def dense_values(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class NMSparseMatrix:
    """A ``(rows, cols)`` matrix with N:M row-group sparsity per tile.

    ``keep[g, t]`` lists the ``n`` kept row offsets of group ``g``
    (rows ``g*m .. g*m + m - 1``) in tile ``t`` (columns
    ``t*tile_cols .. ``); ``values[g, t]`` holds the kept rows'
    coefficients.  All columns of a tile share the mask, so the SA
    skips the dropped rows for the whole pass.
    """

    values: np.ndarray         # (groups, tiles, n, tile_cols)
    keep: np.ndarray           # (groups, tiles, n) int row offsets in [0, m)
    n: int
    m: int
    rows: int
    cols: int
    tile_cols: int = SA_COLS

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        n: int,
        m: int,
        tile_cols: int = SA_COLS,
    ) -> NMSparseMatrix:
        """Magnitude pruning: keep each group's ``n`` largest-norm rows."""
        _check_2d(dense)
        rows, cols = dense.shape
        if not 0 < n <= m:
            raise ConfigError(f"need 0 < n <= m, got {n}:{m}")
        if rows % m:
            raise ConfigError(f"m={m} must divide the row count {rows}")
        if cols % tile_cols:
            raise ConfigError(
                f"tile_cols={tile_cols} must divide the column count {cols}"
            )
        groups = rows // m
        tiles = cols // tile_cols
        # (groups, m, tiles, tile_cols) row-group / tile partition.
        part = dense.reshape(groups, m, tiles, tile_cols)
        norms = np.sqrt((part.astype(np.float64) ** 2).sum(axis=3))
        # Keep the n largest-norm rows per (group, tile), in row order so
        # the streaming order is monotonic.
        order = np.argsort(-norms, axis=1, kind="stable")[:, :n, :]
        keep = np.sort(order.transpose(0, 2, 1), axis=2)   # (groups, tiles, n)
        values = np.take_along_axis(
            part.transpose(0, 2, 1, 3),                    # (g, t, m, c)
            keep[:, :, :, None], axis=2,
        )
        return cls(
            values=values, keep=keep, n=n, m=m,
            rows=rows, cols=cols, tile_cols=tile_cols,
        )

    def mask(self) -> np.ndarray:
        """Dense boolean ``(rows, cols)`` mask of the kept coefficients."""
        out = np.zeros((self.rows, self.cols), dtype=bool)
        groups, tiles, n = self.keep.shape
        for g in range(groups):
            for t in range(tiles):
                rows = g * self.m + self.keep[g, t]
                cs = slice(t * self.tile_cols, (t + 1) * self.tile_cols)
                out[rows, cs] = True
        return out

    def expand(self) -> np.ndarray:
        """Dense ``(rows, cols)`` matrix with the dropped rows zeroed."""
        out = np.zeros((self.rows, self.cols), dtype=self.values.dtype)
        groups, tiles, n = self.keep.shape
        for g in range(groups):
            for t in range(tiles):
                rows = g * self.m + self.keep[g, t]
                cs = slice(t * self.tile_cols, (t + 1) * self.tile_cols)
                out[rows, cs] = self.values[g, t]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``x @ W`` touching only the kept rows (the skipped passes).

        Exact in integer arithmetic when both operands are integer.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.rows:
            raise ConfigError(
                f"matvec expected last dim {self.rows}, got {x.shape}"
            )
        integer = (np.issubdtype(x.dtype, np.integer)
                   and np.issubdtype(self.values.dtype, np.integer))
        dtype = np.int64 if integer else np.float64
        lead = x.shape[:-1]
        groups, tiles, n = self.keep.shape
        xg = x.reshape(-1, groups, self.m).astype(dtype)
        out = np.zeros((xg.shape[0], self.cols), dtype=dtype)
        values = self.values.astype(dtype)
        for t in range(tiles):
            idx = np.broadcast_to(
                self.keep[None, :, t, :], (xg.shape[0], groups, n)
            )
            xk = np.take_along_axis(xg, idx, axis=2)
            cs = slice(t * self.tile_cols, (t + 1) * self.tile_cols)
            out[:, cs] = np.einsum("bgn,gnc->bc", xk, values[:, t])
        return out.reshape(*lead, self.cols)

    def quantize(self, bits: int = 8) -> tuple[NMSparseMatrix, QuantParams]:
        """INT8-code copy of this matrix plus its quantization params."""
        params = QuantParams.from_amax(
            float(np.abs(self.values).max(initial=0.0)), bits
        )
        return (
            NMSparseMatrix(
                values=params.quantize(self.values), keep=self.keep,
                n=self.n, m=self.m, rows=self.rows, cols=self.cols,
                tile_cols=self.tile_cols,
            ),
            params,
        )

    @property
    def stored_values(self) -> int:
        return int(self.values.size)

    @property
    def dense_values(self) -> int:
        return self.rows * self.cols


def compress_dense(
    dense: np.ndarray, spec: CompressionSpec
) -> np.ndarray:
    """Project ``dense`` onto ``spec``'s family and expand back to dense.

    The dense-expansion equivalence path: the returned matrix is what
    the hardware's compressed stream computes with, as an ordinary
    dense array a numpy model can consume directly.  A dense spec
    returns the input unchanged.
    """
    _check_2d(dense)
    if spec.is_dense:
        return np.asarray(dense)
    if spec.scheme == "circulant":
        return BlockCirculantMatrix.from_dense(dense, spec.block_size).expand()
    tile_cols = SA_COLS if dense.shape[1] % SA_COLS == 0 else dense.shape[1]
    return NMSparseMatrix.from_dense(
        dense, spec.n, spec.m, tile_cols=tile_cols
    ).expand()
