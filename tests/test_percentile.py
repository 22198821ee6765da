"""Every reported latency percentile uses one nearest-rank definition.

Linear interpolation (``np.percentile``) and nearest rank differ on an
even-sized sample: the median of ``[1, 2, 3, 4]`` interpolates to 2.5
but its nearest rank is 2.  The decode and cluster summaries must agree
with :func:`repro.serving.metrics.percentile`, and keep reporting 0.0
(not raising) for an empty sample.
"""

from repro.cluster.metrics import _latency_stats
from repro.decode.serving import _percentile as decode_percentile
from repro.serving.metrics import percentile

LATENCIES = [4.0, 1.0, 3.0, 2.0]


def test_decode_prefill_percentiles_are_nearest_rank():
    assert decode_percentile(LATENCIES, 50) == 2.0
    assert decode_percentile(LATENCIES, 99) == percentile(LATENCIES, 99)
    assert decode_percentile([], 99) == 0.0


def test_cluster_latency_stats_are_nearest_rank():
    assert _latency_stats(LATENCIES) == (2.0, 4.0, 2.5)
    assert _latency_stats([]) == (0.0, 0.0, 0.0)
