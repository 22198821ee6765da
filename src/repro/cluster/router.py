"""Cluster front door: pool selection and SLO-aware admission.

Four policies, in increasing awareness of the fleet's state:

* ``"round_robin"`` — rotate over alive pools, blind to load and
  heterogeneity (the baseline the A6 bench measures against);
* ``"least_queue"`` — fewest queued requests per active device, a
  load-only heuristic;
* ``"ewma"`` — lowest exponentially weighted moving average of
  completed-request latency; the EWMA is seeded from each pool's
  uncontended run time, so heterogeneity is visible before the first
  completion and slow pools only win while fast ones are backed up;
* ``"slo"`` — deadline-aware: route to the pool with the earliest
  predicted completion among those predicted to make the request's
  deadline, and *shed* requests that no pool can serve in time — but
  only when the requester's tenant is at or above its weighted fair
  share of recently admitted work.  Shedding a doomed request early is
  what protects the SLO of everyone behind it; the fairness guard
  stops a bursty tenant from riding that mechanism to starve others.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..config import ClusterConfig
from ..errors import ServingError
from .pools import PoolRuntime
from .workload import ClusterRequest

#: Width of the sliding window the ``"slo"`` policy's weighted-fairness
#: guard counts admitted requests over (250 ms).
FAIRNESS_WINDOW_US = 250_000.0


class Router:
    """Stateful pool selector for one cluster run."""

    def __init__(self, cluster: ClusterConfig, pools: list[PoolRuntime]):
        self.policy = cluster.router_policy
        self.pools = pools
        self._rr_next = 0
        self._weights = {t.name: t.weight for t in cluster.tenants}
        self._total_weight = sum(self._weights.values())
        # Sliding window of (admit_time, tenant) used by the fairness
        # guard; per-tenant counts are kept incrementally.
        self._admitted: deque[tuple[float, str]] = deque()
        self._admitted_by_tenant = dict.fromkeys(self._weights, 0)
        self.shed = 0
        self.decisions: dict[str, int] = {p.name: 0 for p in pools}

    def _alive(self) -> list[PoolRuntime]:
        return [p for p in self.pools if p.workers.pool_alive]

    def _evict_window(self, now_us: float) -> None:
        horizon = now_us - FAIRNESS_WINDOW_US
        while self._admitted and self._admitted[0][0] < horizon:
            _, tenant = self._admitted.popleft()
            self._admitted_by_tenant[tenant] -= 1

    def _over_fair_share(self, tenant: str, now_us: float) -> bool:
        """Whether ``tenant`` holds at least its weighted share of the window."""
        self._evict_window(now_us)
        total = len(self._admitted)
        if total == 0:
            return False
        share = self._weights[tenant] / self._total_weight
        return self._admitted_by_tenant[tenant] >= share * total

    def route(
        self, request: ClusterRequest, now_us: float
    ) -> Optional[PoolRuntime]:
        """Pick the pool for ``request`` (``None`` = shed at the door).

        Only the ``"slo"`` policy ever sheds; the others always return
        a pool and let its admission queue do the bounding.
        """
        alive = self._alive()
        if not alive:
            raise ServingError("every pool in the cluster has failed")
        if self.policy == "round_robin":
            choice = alive[self._rr_next % len(alive)]
            self._rr_next += 1
        elif self.policy == "least_queue":
            choice = min(
                alive, key=lambda p: (p.depth_per_device(), p.name)
            )
        elif self.policy == "ewma":
            choice = min(alive, key=lambda p: (p.ewma_us, p.name))
        else:  # "slo"
            choice = self._route_slo(request, now_us, alive)
            if choice is None:
                self.shed += 1
                return None
        self.decisions[choice.name] += 1
        self._admitted.append((now_us, request.tenant))
        self._admitted_by_tenant[request.tenant] += 1
        return choice

    def _route_slo(
        self,
        request: ClusterRequest,
        now_us: float,
        alive: list[PoolRuntime],
    ) -> Optional[PoolRuntime]:
        predicted = [(p.predicted_completion_us(now_us), p.name, p)
                     for p in alive]
        feasible = [
            entry for entry in predicted if entry[0] <= request.deadline_us
        ]
        if feasible:
            return min(feasible)[2]
        # No pool is predicted to make the deadline.  Shed only tenants
        # at/above fair share; an under-share tenant still gets the
        # least-bad pool — its deadline may be missed, but its capacity
        # share is honored.
        if self._over_fair_share(request.tenant, now_us):
            return None
        return min(predicted)[2]
