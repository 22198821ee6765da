"""Every reported latency percentile uses one nearest-rank definition.

Linear interpolation (``np.percentile``) and nearest rank differ on an
even-sized sample: the median of ``[1, 2, 3, 4]`` interpolates to 2.5
but its nearest rank is 2.  The serving, decode and cluster summaries
all read :func:`repro.telemetry.registry.sample_stats`, which agrees
with :func:`repro.serving.metrics.percentile` and reports 0.0 (not NaN,
not raising) for an empty sample.
"""

from repro.serving.metrics import percentile
from repro.telemetry.registry import sample_stats

LATENCIES = [4.0, 1.0, 3.0, 2.0]


def test_decode_prefill_percentiles_are_nearest_rank():
    p50, p99, _ = sample_stats(LATENCIES, (50, 99))
    assert p50 == 2.0
    assert p99 == percentile(LATENCIES, 99)
    assert sample_stats([], (99,)) == (0.0, 0.0)


def test_cluster_latency_stats_are_nearest_rank():
    assert sample_stats(LATENCIES, (50, 99)) == (2.0, 4.0, 2.5)
    assert sample_stats([], (50, 99)) == (0.0, 0.0, 0.0)


def test_serving_mean_divides_the_running_total():
    # A histogram's running sum adds in observation order, which can
    # round differently from the sorted sum; the given total is used.
    values = [0.1, 1e16, -1e16, 0.2]
    total = 0.0
    for value in values:
        total += value
    assert sample_stats(values, (50,), total=total)[-1] == total / 4
