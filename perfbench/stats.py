"""Statistics of the ccq benchmark.

Order statistics for the end-to-end metrics, and the per-layer numbers
the traced runs derive from spans and telemetry.  test_stats.py covers
every function here; run.py runs those tests before it measures.
"""

import math
import statistics


def nearest_rank(values, q):
    """The nearest-rank q-quantile (0 < q <= 1): the ceil(q*n)-th
    smallest value.  Always one of the samples."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile out of (0, 1]: %r" % q)
    ordered = sorted(values)
    # q*n can land a rounding error above an integer (0.07*100 = 7.000...01).
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def top_percentile(count, candidates=(99.99, 99.9, 99.0, 90.0, 50.0)):
    """The highest candidate percentile that has at least ten samples
    beyond its nearest rank, or None when not even the median has."""
    for p in candidates:
        rank = max(1, math.ceil(p / 100.0 * count - 1e-9))
        if count - rank >= 10:
            return p
    return None


def median(values):
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def mean(values):
    if not values:
        raise ValueError("no samples")
    return math.fsum(values) / len(values)


def ratio(part, whole):
    """part / whole, or 0 when there is no whole (nothing happened)."""
    return part / whole if whole else 0.0


def batch_fill(requests, batches, max_batch):
    """Mean batch size as a share of max_batch."""
    return ratio(ratio(requests, batches), max_batch)


def net_overhead_us(round_trips_us, server_latency_us):
    """Mean client round trip minus the mean server enqueue-to-reply
    latency: time in the socket, codec and connection threads."""
    return mean(round_trips_us) - server_latency_us


def change_pct(reference, value):
    """Relative change of value against reference, in percent."""
    return (value - reference) / reference * 100.0


def spans_named(spans, name):
    """Durations in ns of the spans called `name`.  Spans are
    [name, start_ns, end_ns, parent, request] rows."""
    return [row[2] - row[1] for row in spans if row[0] == name]
