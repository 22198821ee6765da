"""Fleet-scale serving over heterogeneous accelerator pools.

The cluster layer scales :mod:`repro.serving` from one pool to a
datacenter slice: N heterogeneous pools (paper-FPGA or roofline-GPU
devices, each with its own memory system and weight caches) behind an
SLO-aware router, a threshold autoscaler driven by live telemetry
signals, and a multi-tenant workload of diurnal / Poisson / MMPP
arrival streams.  One :class:`~repro.config.ClusterConfig` pins a run
bit-for-bit; results export through the shared telemetry registry and
Chrome-trace pathway.
"""

from .autoscaler import Autoscaler, ScaleAction
from .metrics import ClusterMetrics, PoolSummary, TenantSummary
from .pools import GpuBatchCostModel, PoolRuntime, build_cost_model
from .router import Router
from .scenario import pinned_cluster, pinned_pools, pinned_tenants
from .simulator import (
    DEFAULT_SEQ_LEN,
    ClusterRecord,
    ClusterResult,
    simulate_cluster,
)
from .workload import (
    ClusterRequest,
    cluster_workload,
    tenant_workload,
)

__all__ = [
    "DEFAULT_SEQ_LEN",
    "Autoscaler",
    "ClusterMetrics",
    "ClusterRecord",
    "ClusterRequest",
    "ClusterResult",
    "GpuBatchCostModel",
    "PoolRuntime",
    "PoolSummary",
    "Router",
    "ScaleAction",
    "TenantSummary",
    "build_cost_model",
    "cluster_workload",
    "pinned_cluster",
    "pinned_pools",
    "pinned_tenants",
    "simulate_cluster",
    "tenant_workload",
]
