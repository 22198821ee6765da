"""Streaming (column-granular) simulators of the nonlinear modules.

The batch-level models in :mod:`repro.core.softmax_module` and
:mod:`repro.core.layernorm_module` evaluate whole matrices; the RTL,
however, consumes the SA's drain stream *one column per cycle* and keeps
running state.  These classes model that behaviour faithfully:

* :class:`StreamingSoftmax` — Fig. 6: per-row running maxima are updated
  as D's columns arrive (stage one); when the row ends, the buffered
  columns replay through the EXP unit and SUM accumulators (stages two
  and three), then LN + output EXP emit Y column by column (stage four).
* :class:`StreamingLayerNorm` — Fig. 7 step two: per-row ``sum G`` and
  ``sum G^2`` accumulators update as 64-wide column groups of G arrive;
  after the last group, means/variances/reciprocals resolve in one
  pipeline step and the normalized output streams back out.

Both report cycle-stamped activity that the tests check against the
closed-form timing models — the streamed behaviour and the scheduler's
arithmetic must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import AcceleratorConfig
from ..errors import ScheduleError, ShapeError
from ..fixedpoint import InverseSqrtLUT, QFormat, SOFTMAX_Q
from ..quant.qsoftmax import HardwareSoftmax


@dataclass
class StreamEvent:
    """One cycle-stamped emission from a streaming unit."""

    cycle: int
    kind: str
    column: int


class StreamingSoftmax:
    """Column-by-column model of the Fig. 6 softmax module.

    Usage::

        unit = StreamingSoftmax(config)
        for j, col in enumerate(d_matrix.T):
            unit.push_column(col, mask[:, j], cycle=start + j)
        y, events = unit.finalize()

    The functional result is identical to
    :class:`~repro.quant.qsoftmax.HardwareSoftmax` on the full matrix
    (verified by tests); the events reproduce the module's timing
    (one output column per cycle after the pipeline tail).
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        scale_divisor: float = 8.0,
        in_fmt: QFormat = SOFTMAX_Q,
    ) -> None:
        self.config = config
        self.scale_divisor = scale_divisor
        self.in_fmt = in_fmt
        self._hw = HardwareSoftmax(scale_divisor=scale_divisor,
                                   in_fmt=in_fmt)
        self._columns: list[np.ndarray] = []
        self._masks: list[Optional[np.ndarray]] = []
        self._running_max: Optional[np.ndarray] = None
        self._first_cycle: Optional[int] = None
        self._last_cycle: Optional[int] = None
        self._rows: Optional[int] = None
        self._finalized = False

    @property
    def columns_received(self) -> int:
        return len(self._columns)

    @property
    def running_max(self) -> np.ndarray:
        """Stage one's per-row maxima over the columns received so far."""
        if self._running_max is None:
            raise ScheduleError("no columns pushed yet")
        return self._running_max.copy()

    def push_column(
        self,
        column: np.ndarray,
        mask_column: Optional[np.ndarray] = None,
        cycle: Optional[int] = None,
    ) -> None:
        """Receive one s-element column of D (stage one executes now)."""
        if self._finalized:
            raise ScheduleError("push_column after finalize")
        column = np.asarray(column, dtype=np.float64)
        if column.ndim != 1:
            raise ShapeError("softmax stream columns must be 1-D")
        if self._rows is None:
            self._rows = column.shape[0]
        elif column.shape[0] != self._rows:
            raise ShapeError(
                f"column has {column.shape[0]} rows, stream started with "
                f"{self._rows}"
            )
        if mask_column is not None:
            mask_column = np.asarray(mask_column, dtype=bool)
            if mask_column.shape != column.shape:
                raise ShapeError("mask column shape mismatch")
        scaled = column / self.scale_divisor
        legal = scaled if mask_column is None else np.where(
            mask_column, -np.inf, scaled
        )
        if self._running_max is None:
            self._running_max = legal.copy()
        else:
            self._running_max = np.maximum(self._running_max, legal)
        if cycle is not None:
            if self._first_cycle is None:
                self._first_cycle = cycle
            if self._last_cycle is not None and cycle <= self._last_cycle:
                raise ScheduleError("stream cycles must increase")
            self._last_cycle = cycle
        self._columns.append(column)
        self._masks.append(mask_column)

    def finalize(self):
        """Run stages two-four; returns ``(Y, events)``.

        Events carry one ``"output"`` entry per column.  The buffered
        columns replay through stages two-four as a single pipeline, so
        output column ``j`` emerges ``pipeline_tail`` cycles into the
        replay: ``last_input + 1 + tail + j``.  The stream therefore ends
        exactly ``exposed_after_input`` cycles after the last input —
        the exposure the scheduler charges for the module.
        """
        if self._finalized:
            raise ScheduleError("finalize called twice")
        if not self._columns:
            raise ScheduleError("finalize with no columns")
        self._finalized = True
        d = np.stack(self._columns, axis=1)
        if any(m is not None for m in self._masks):
            mask = np.stack(
                [np.zeros(self._rows, dtype=bool) if m is None else m
                 for m in self._masks], axis=1,
            )
        else:
            mask = None
        y = self._hw(d, mask)
        last = self._last_cycle if self._last_cycle is not None else (
            len(self._columns) - 1
        )
        tail = self.config.softmax_pipeline_depth
        events = [
            StreamEvent(
                cycle=last + 1 + tail + j,
                kind="output", column=j,
            )
            for j in range(len(self._columns))
        ]
        return y, events


class StreamingLayerNorm:
    """Column-group streaming model of the Fig. 8 LayerNorm module.

    Receives G in 64-wide column groups (the SA drain order across output
    passes), keeps the two per-row accumulator banks of the step-two
    schedule up to date, and on :meth:`finalize` resolves the statistics
    and streams the normalized output — verifying that the step-two
    schedule's "very few cycles" claim is *functionally* achievable (no
    second pass over G is needed for the statistics; only the buffered G
    replay for the output scaling).
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        d_model: int,
        eps: float = 1e-8,
    ) -> None:
        if d_model <= 0 or d_model % config.sa_cols:
            raise ShapeError(
                f"d_model {d_model} must be a positive multiple of "
                f"{config.sa_cols}"
            )
        self.config = config
        self.d_model = d_model
        self.eps = eps
        self._isqrt = InverseSqrtLUT()
        self._groups: list[np.ndarray] = []
        self._sum: Optional[np.ndarray] = None
        self._sum_sq: Optional[np.ndarray] = None
        self._rows: Optional[int] = None
        self._last_cycle: Optional[int] = None
        self._finalized = False

    @property
    def expected_groups(self) -> int:
        return self.d_model // self.config.sa_cols

    def accumulators(self):
        """Current ``(sum G, sum G^2)`` per row — the two register banks."""
        if self._sum is None:
            raise ScheduleError("no groups pushed yet")
        return self._sum.copy(), self._sum_sq.copy()

    def push_group(
        self, group: np.ndarray, cycle: Optional[int] = None
    ) -> None:
        """Receive one ``(s, 64)`` column group of G."""
        if self._finalized:
            raise ScheduleError("push_group after finalize")
        group = np.asarray(group, dtype=np.float64)
        if group.ndim != 2 or group.shape[1] != self.config.sa_cols:
            raise ShapeError(
                f"groups must be (s, {self.config.sa_cols}), got {group.shape}"
            )
        if len(self._groups) >= self.expected_groups:
            raise ScheduleError(
                f"already received all {self.expected_groups} groups"
            )
        if self._rows is None:
            self._rows = group.shape[0]
            self._sum = np.zeros(self._rows)
            self._sum_sq = np.zeros(self._rows)
        elif group.shape[0] != self._rows:
            raise ShapeError("group row count changed mid-stream")
        self._sum += group.sum(axis=1)
        self._sum_sq += (group * group).sum(axis=1)
        if cycle is not None:
            if self._last_cycle is not None and cycle <= self._last_cycle:
                raise ScheduleError("stream cycles must increase")
            self._last_cycle = cycle
        self._groups.append(group)

    def finalize(self, gamma: np.ndarray, beta: np.ndarray):
        """Resolve statistics and stream the output; ``(out, events)``.

        The first output column is stamped ``layernorm_pipeline_depth``
        cycles after the last G group — the step-two exposure.
        """
        if self._finalized:
            raise ScheduleError("finalize called twice")
        if len(self._groups) != self.expected_groups:
            raise ScheduleError(
                f"received {len(self._groups)} of "
                f"{self.expected_groups} groups"
            )
        self._finalized = True
        gamma = np.asarray(gamma, dtype=np.float64)
        beta = np.asarray(beta, dtype=np.float64)
        if gamma.shape != (self.d_model,) or beta.shape != (self.d_model,):
            raise ShapeError("gamma/beta must be (d_model,)")
        g = np.concatenate(self._groups, axis=1)
        mean = self._sum / self.d_model
        var = np.maximum(self._sum_sq / self.d_model - mean ** 2, 0.0)
        r = self._isqrt.evaluate(np.maximum(var + self.eps, 1e-12))
        out = (g - mean[:, None]) * r[:, None] * gamma + beta
        last = self._last_cycle if self._last_cycle is not None else (
            len(self._groups) - 1
        )
        depth = self.config.layernorm_pipeline_depth
        events = [
            StreamEvent(cycle=last + depth + j, kind="output", column=j)
            for j in range(self.d_model)
        ]
        return out, events
