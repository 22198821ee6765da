"""Request-arrival workload generators for the serving simulator.

Two sources of traffic:

* :func:`poisson_workload` — memoryless arrivals at a configured mean
  rate with sequence lengths uniform in ``[min_len, max_len]``,
  fully determined by ``ServingConfig.seed``;
* :func:`trace_workload` — replay of an explicit ``(arrival_us,
  seq_len)`` trace, for feeding measured traffic or hand-built
  adversarial patterns through the exact same pipeline.

Times are microseconds from run start (matching the Chrome-trace axis);
lengths are valid tokens per request, bounded by the SA's row count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import ServingConfig
from ..errors import ServingError


@dataclass(frozen=True)
class Request:
    """One inference request.

    Attributes:
        req_id: Dense id in arrival order.
        arrival_us: Arrival time in microseconds from run start.
        seq_len: Valid tokens; the accelerator zero-pads the rest of its
            ``s`` SA rows.
    """

    req_id: int
    arrival_us: float
    seq_len: int


def poisson_workload(serving: ServingConfig) -> list[Request]:
    """Generate a seeded Poisson arrival process.

    Interarrival gaps are exponential with mean ``1e6 /
    arrival_rate_rps`` microseconds; the same generator then draws the
    lengths, so one seed pins the entire workload.
    """
    rng = np.random.default_rng(serving.seed)
    n = serving.num_requests
    gaps = rng.exponential(1e6 / serving.arrival_rate_rps, size=n)
    arrivals = np.cumsum(gaps)
    lengths = rng.integers(serving.min_len, serving.max_len + 1, size=n)
    return [
        Request(req_id=i, arrival_us=float(arrivals[i]),
                seq_len=int(lengths[i]))
        for i in range(n)
    ]


def trace_workload(entries: Sequence[tuple[float, int]]) -> list[Request]:
    """Build a workload from explicit ``(arrival_us, seq_len)`` pairs.

    Entries must be time-sorted with non-negative times and positive
    lengths; ids are assigned in order.
    """
    if not entries:
        raise ServingError("trace workload needs at least one entry")
    requests = []
    prev = 0.0
    for i, (arrival_us, seq_len) in enumerate(entries):
        arrival_us = float(arrival_us)
        seq_len = int(seq_len)
        if arrival_us < prev:
            raise ServingError(
                f"trace entry {i} arrives at {arrival_us} before its "
                f"predecessor at {prev}"
            )
        if seq_len <= 0:
            raise ServingError(f"trace entry {i} has seq_len {seq_len}")
        requests.append(Request(i, arrival_us, seq_len))
        prev = arrival_us
    return requests


def validate_workload(
    requests: Sequence[Request], max_seq_len: int
) -> None:
    """Check ids are dense in list order and lengths fit the SA rows.

    Serving and cluster runs share this check; arrival order is the
    event kernel's, which refuses non-finite or decreasing times.
    """
    for i, request in enumerate(requests):
        if request.req_id != i:
            raise ServingError(f"workload ids are not dense at position {i}")
        if not 0 < request.seq_len <= max_seq_len:
            raise ServingError(
                f"request {i} has seq_len {request.seq_len} outside "
                f"(0, {max_seq_len}]"
            )
