"""Multi-tenant arrival traces for the cluster simulator.

Extends :mod:`repro.serving.workload` from one Poisson stream to a
merged multi-tenant trace.  Each :class:`~repro.config.TenantConfig`
generates its own seeded stream with one of three arrival processes:

* ``"poisson"`` — memoryless arrivals at the tenant's mean rate;
* ``"diurnal"`` — an inhomogeneous Poisson process whose rate follows
  a sinusoid (``rate * (1 + a * sin(2 pi t / T))``), generated by
  Lewis-Shedler thinning against the peak rate — the day/night shape
  of real user traffic;
* ``"mmpp"`` — a 2-state Markov-modulated Poisson process alternating
  exponential calm/burst sojourns, with the burst-state rate a
  configured multiple of the calm rate and the calm rate chosen so the
  long-run mean equals the tenant's ``rate_rps`` — the classic bursty
  traffic model.

Tenant streams are merged time-sorted and re-numbered densely, so one
``(ClusterConfig.seed, TenantConfig.seed)`` pair pins the entire trace.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..config import ClusterConfig, TenantConfig
from ..serving.workload import Request


@dataclass(frozen=True)
class ClusterRequest(Request):
    """One inference request carrying its tenant's traffic contract.

    Attributes:
        tenant: Owning tenant's name.
        slo_us: The tenant's latency SLO at arrival time; the absolute
            deadline is ``arrival_us + slo_us``.
        weight: The tenant's fair-share weight (copied for O(1) access
            in the router's admission accounting).
    """

    tenant: str
    slo_us: float
    weight: float

    @property
    def deadline_us(self) -> float:
        """Absolute completion deadline implied by the tenant SLO."""
        return self.arrival_us + self.slo_us


def _poisson_arrivals(
    rng: np.random.Generator, rate_rps: float, n: int
) -> np.ndarray:
    gaps = rng.exponential(1e6 / rate_rps, size=n)
    return np.cumsum(gaps)


def _diurnal_arrivals(
    rng: np.random.Generator, tenant: TenantConfig, n: int
) -> np.ndarray:
    """Thinned inhomogeneous Poisson arrivals under the sinusoidal rate."""
    peak_rps = tenant.rate_rps * (1.0 + tenant.diurnal_amplitude)
    arrivals = []
    t = 0.0
    while len(arrivals) < n:
        t += rng.exponential(1e6 / peak_rps)
        rate_t = tenant.rate_rps * (
            1.0 + tenant.diurnal_amplitude
            * np.sin(2.0 * np.pi * t / tenant.diurnal_period_us)
        )
        if rng.random() < rate_t / peak_rps:
            arrivals.append(t)
    return np.asarray(arrivals)


def _mmpp_arrivals(
    rng: np.random.Generator, tenant: TenantConfig, n: int
) -> np.ndarray:
    """2-state MMPP arrivals with the configured burst geometry.

    The calm rate is solved from the long-run mean:
    ``mean = calm * (1 - f) + calm * multiplier * f`` where ``f`` is
    the burst-time fraction, so the process averages ``rate_rps``.
    Calm sojourns get the mean that makes the state chain's stationary
    burst fraction equal ``f``.
    """
    f = tenant.burst_fraction
    calm_rps = tenant.rate_rps / (1.0 - f + tenant.burst_multiplier * f)
    burst_rps = calm_rps * tenant.burst_multiplier
    calm_mean_us = tenant.burst_mean_us * (1.0 - f) / f
    arrivals: list[float] = []
    t = 0.0
    bursting = False
    while len(arrivals) < n:
        sojourn = rng.exponential(
            tenant.burst_mean_us if bursting else calm_mean_us
        )
        rate = burst_rps if bursting else calm_rps
        # Poisson arrivals inside this sojourn window.
        tau = t
        while len(arrivals) < n:
            tau += rng.exponential(1e6 / rate)
            if tau > t + sojourn:
                break
            arrivals.append(tau)
        t += sojourn
        bursting = not bursting
    return np.asarray(arrivals)


_ARRIVAL_FNS = {
    "poisson": lambda rng, tenant, n: _poisson_arrivals(
        rng, tenant.rate_rps, n
    ),
    "diurnal": _diurnal_arrivals,
    "mmpp": _mmpp_arrivals,
}


def tenant_workload(
    tenant: TenantConfig, master_seed: int
) -> list[ClusterRequest]:
    """Generate one tenant's seeded request stream (ids start at 0).

    The RNG stream is spawned from ``(master_seed, tenant.seed,
    hash-free tenant name bytes)`` so tenants draw independent,
    reproducible streams under one cluster seed.
    """
    rng = np.random.default_rng(
        [master_seed, tenant.seed, *tenant.name.encode()]
    )
    n = tenant.num_requests
    arrivals = _ARRIVAL_FNS[tenant.arrival](rng, tenant, n)
    lengths = rng.integers(tenant.min_len, tenant.max_len + 1, size=n)
    return [
        ClusterRequest(
            req_id=i, arrival_us=float(arrivals[i]),
            seq_len=int(lengths[i]), tenant=tenant.name,
            slo_us=tenant.slo_us, weight=tenant.weight,
        )
        for i in range(n)
    ]


def cluster_workload(cluster: ClusterConfig) -> list[ClusterRequest]:
    """Merge every tenant's stream into one dense, time-sorted trace."""
    merged: list[ClusterRequest] = []
    for tenant in cluster.tenants:
        merged.extend(tenant_workload(tenant, cluster.seed))
    merged.sort(key=lambda r: (r.arrival_us, r.tenant, r.req_id))
    return [
        dataclasses.replace(request, req_id=i)
        for i, request in enumerate(merged)
    ]
