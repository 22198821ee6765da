"""Full-stack accelerated inference (the paper's stated future work).

The paper accelerates single ResBlocks; its conclusion promises "a FPGA or
ASIC accelerator for the complete Transformer inference".  This module
builds that on top of the existing pieces: :class:`AcceleratedStack` runs
every MHA/FFN ResBlock of a quantized Transformer's encoder (and decoder)
through :class:`~repro.core.accelerator.TransformerAccelerator`,
reloading the weight memory between layers and accounting the reload
cycles the on-chip weight memory model implies.

Embeddings, positional encoding and the output projection stay on the
host, exactly the paper's scope boundary (Section II-A).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..config import AcceleratorConfig
from ..errors import ScheduleError, ShapeError
from ..quant.qmodel import QuantizedTransformer
from ..transformer.masks import causal_mask, combine_masks, padding_mask
from .accelerator import TransformerAccelerator

#: Words per cycle through the Weight Memory's read port (one SA row).
WEIGHT_PORT_WORDS = 64


def port_fetch_cycles(weight_bytes: int, weight_bits: int) -> int:
    """Cycles to stream ``weight_bytes`` of ``weight_bits``-bit weights
    through the Weight Memory port, :data:`WEIGHT_PORT_WORDS` per cycle.

    The one flat price of a ResBlock's weight fetch: the serving pools
    charge it per block from the block's (possibly compressed) bytes.
    """
    return -(-8 * weight_bytes // (WEIGHT_PORT_WORDS * weight_bits))


def exposed_reload_cycles(
    blocks: Iterable[tuple[int, int]], double_buffered: bool
) -> int:
    """Exposed cycles of fetching each ResBlock's weights before it runs.

    ``blocks`` holds each block's ``(fetch_cycles, compute_cycles)`` in
    execution order.  Without double buffering every fetch stalls in
    full; with it a block's fetch hides behind the *previous* block's
    compute and only the remainder is exposed.
    """
    exposed = 0
    prev_compute = 0
    for fetch, compute in blocks:
        exposed += max(0, fetch - prev_compute) if double_buffered else fetch
        prev_compute = compute
    return exposed


@dataclass
class StackReport:
    """Aggregate cycle accounting for one full-stack execution.

    Attributes:
        compute_cycles: Sum of all ResBlock schedule totals.
        reload_cycles: *Exposed* weight-memory reload cycles between
            blocks.  Without double buffering every tile write (one
            64-byte port word per cycle) stalls the pipeline; with double
            buffering the next block's reload hides behind the current
            block's compute and only the remainder is exposed.
        blocks: Per-ResBlock ``(name, cycles)`` entries in execution order.
    """

    compute_cycles: int = 0
    reload_cycles: int = 0
    blocks: list[tuple] = field(default_factory=list)
    _prev_compute: int = 0

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.reload_cycles

    def latency_us(self, clock_mhz: float) -> float:
        return self.total_cycles / clock_mhz

    def add(self, name: str, cycles: int) -> None:
        self.blocks.append((name, cycles))
        self.compute_cycles += cycles
        self._prev_compute = cycles

    def add_reload(self, cycles: int, double_buffered: bool) -> None:
        """Account a weight reload, hiding it behind the previous block's
        compute when double buffering is enabled."""
        if double_buffered:
            cycles = max(0, cycles - self._prev_compute)
        self.reload_cycles += cycles
        self._prev_compute = 0


class AcceleratedStack:
    """Runs a quantized Transformer's stacks on the accelerator.

    Args:
        quant: A calibrated :class:`QuantizedTransformer`.
        config: Accelerator configuration; ``seq_len`` bounds the input.
        exact_nonlinear: Forwarded to the accelerator (``True`` makes the
            outputs bit-identical to ``quant``'s own int8 forward, which
            the integration tests rely on).
        double_buffered_weights: Hide each block's weight reload behind
            the previous block's compute (a second weight-memory bank).
    """

    def __init__(
        self,
        quant: QuantizedTransformer,
        config: AcceleratorConfig,
        exact_nonlinear: bool = True,
        double_buffered_weights: bool = False,
    ) -> None:
        if not quant.calibrator.frozen:
            raise ScheduleError("calibrate the quantized model first")
        self.quant = quant
        self.config = config
        self.double_buffered_weights = double_buffered_weights
        self.hw = TransformerAccelerator(
            quant.config, config, exact_nonlinear=exact_nonlinear
        )

    # ------------------------------------------------------------------
    def _reload_cycles_mha(self, block) -> int:
        """Cycles to stream one MHA ResBlock's tiles into weight memory."""
        total_words = sum(w.codes.size for w in block.weights.values())
        return -(-total_words // self.hw.weight_memory.port_width_words)

    def _reload_cycles_ffn(self, block) -> int:
        total_words = block.w1.codes.size + block.w2.codes.size
        return -(-total_words // self.hw.weight_memory.port_width_words)

    def _check_rows(self, rows: int) -> None:
        if rows > self.config.seq_len:
            raise ShapeError(
                f"sequence of {rows} exceeds the SA's {self.config.seq_len} "
                "rows"
            )

    # ------------------------------------------------------------------
    def run_encoder(
        self,
        x: np.ndarray,
        src_length: Optional[int] = None,
        report: Optional[StackReport] = None,
    ) -> np.ndarray:
        """Run the full encoder stack on one embedded sequence.

        Args:
            x: ``(s, d_model)`` embedded + positionally-encoded input.
            src_length: Valid length (padded keys masked); defaults to s.
            report: Optional accounting accumulator (shared across calls).
        """
        x = np.asarray(x, dtype=np.float64)
        self._check_rows(x.shape[0])
        s = x.shape[0]
        length = s if src_length is None else src_length
        mask = padding_mask([length], s)[0]
        report = StackReport() if report is None else report
        for i, (mha_blk, ffn_blk) in enumerate(
            zip(self.quant.enc_mha, self.quant.enc_ffn)
        ):
            report.add_reload(self._reload_cycles_mha(mha_blk),
                              self.double_buffered_weights)
            self.hw.load_mha(mha_blk)
            out = self.hw.run_mha(x, mask=mask)
            report.add(f"enc{i}.mha", out.cycles)
            report.add_reload(self._reload_cycles_ffn(ffn_blk),
                              self.double_buffered_weights)
            self.hw.load_ffn(ffn_blk)
            out2 = self.hw.run_ffn(out.output)
            report.add(f"enc{i}.ffn", out2.cycles)
            x = out2.output
        return x

    def run_decoder(
        self,
        y: np.ndarray,
        memory: np.ndarray,
        src_length: Optional[int] = None,
        tgt_length: Optional[int] = None,
        report: Optional[StackReport] = None,
    ) -> np.ndarray:
        """Run the full decoder stack (self-attn, cross-attn, FFN per layer).

        Args:
            y: ``(t, d_model)`` embedded target prefix.
            memory: ``(s, d_model)`` encoder output.
            src_length / tgt_length: Valid lengths for mask construction.
            report: Optional accounting accumulator.
        """
        y = np.asarray(y, dtype=np.float64)
        memory = np.asarray(memory, dtype=np.float64)
        self._check_rows(y.shape[0])
        self._check_rows(memory.shape[0])
        t, s = y.shape[0], memory.shape[0]
        t_len = t if tgt_length is None else tgt_length
        s_len = s if src_length is None else src_length
        self_mask = combine_masks(
            causal_mask(t), padding_mask([t_len], t)[0]
        )
        cross_mask = padding_mask([s_len], s, num_queries=t)[0]
        report = StackReport() if report is None else report
        layers = zip(self.quant.dec_self, self.quant.dec_cross,
                     self.quant.dec_ffn)
        for i, (self_blk, cross_blk, ffn_blk) in enumerate(layers):
            report.add_reload(self._reload_cycles_mha(self_blk),
                              self.double_buffered_weights)
            self.hw.load_mha(self_blk)
            out = self.hw.run_mha(y, mask=self_mask)
            report.add(f"dec{i}.self", out.cycles)
            report.add_reload(self._reload_cycles_mha(cross_blk),
                              self.double_buffered_weights)
            self.hw.load_mha(cross_blk)
            out = self.hw.run_mha(out.output, memory, mask=cross_mask)
            report.add(f"dec{i}.cross", out.cycles)
            report.add_reload(self._reload_cycles_ffn(ffn_blk),
                              self.double_buffered_weights)
            self.hw.load_ffn(ffn_blk)
            out2 = self.hw.run_ffn(out.output)
            report.add(f"dec{i}.ffn", out2.cycles)
            y = out2.output
        return y

    def run_model(
        self,
        src_ids: np.ndarray,
        tgt_ids: np.ndarray,
        src_length: Optional[int] = None,
        tgt_length: Optional[int] = None,
    ):
        """End-to-end: embed on host, run both stacks on the accelerator,
        project to logits on host.  Returns ``(logits, StackReport)``."""
        src_ids = np.asarray(src_ids)
        tgt_ids = np.asarray(tgt_ids)
        if src_ids.ndim != 1 or tgt_ids.ndim != 1:
            raise ShapeError("run_model takes single unbatched id sequences")
        report = StackReport()
        x = self.quant._embed_src(src_ids[None])[0]
        memory = self.run_encoder(x, src_length, report)
        y = self.quant._embed_tgt(tgt_ids[None])[0]
        states = self.run_decoder(
            y, memory, src_length, tgt_length, report
        )
        from ..transformer.tensor import Tensor

        logits = self.quant.generator(Tensor(states[None])).numpy()[0]
        return logits, report
