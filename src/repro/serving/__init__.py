"""Inference-serving simulation above the single-ResBlock accelerator.

The paper evaluates one request at batch 1; this package builds the
system layer a deployed accelerator needs, as a discrete-event
simulation whose per-batch costs come from the cycle-accurate models:

* :mod:`~repro.serving.workload` — Poisson / trace-driven arrivals;
* :mod:`~repro.serving.admission` — bounded queue with timeouts;
* :mod:`~repro.serving.batching` — packing variable-length requests
  into the SA's ``s x 64`` geometry with a max-batch/max-wait policy;
* :mod:`~repro.serving.devices` — replicated or layer-sharded pools;
* :mod:`~repro.serving.metrics` — latency percentiles, throughput,
  utilization, rejection accounting;
* :mod:`~repro.serving.simulator` — the :func:`simulate_serving` driver
  (also behind ``python -m repro serve-sim``).
"""

from .admission import AdmissionQueue
from .batching import Batch, BatchCostModel, DynamicBatcher
from .devices import Device, DispatchOutcome, WorkerPool
from .metrics import ServingMetrics, compute_metrics, percentile
from .simulator import RequestRecord, ServingResult, simulate_serving
from .workload import (
    Request,
    poisson_workload,
    trace_workload,
    validate_workload,
)

__all__ = [
    "AdmissionQueue",
    "Batch",
    "BatchCostModel",
    "Device",
    "DispatchOutcome",
    "DynamicBatcher",
    "Request",
    "RequestRecord",
    "ServingMetrics",
    "ServingResult",
    "WorkerPool",
    "compute_metrics",
    "percentile",
    "poisson_workload",
    "simulate_serving",
    "trace_workload",
    "validate_workload",
]
