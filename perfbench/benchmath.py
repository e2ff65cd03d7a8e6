"""The benchmark's arithmetic, kept apart so test_benchmath.py can check it.

Every function is pure: medians and quartiles of repeated measurements,
self time over a tree of spans, and the ratios the per-layer metrics report.
"""

import statistics


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) by statistics.quantiles(n=4), the default method."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def throughput(work, seconds):
    """Work done per second over a whole timed phase: sum(work) / sum(seconds).

    Unlike a median of per-repeat rates, this moves in proportion when a
    host alternates between a fast and a slow state during the phase.
    """
    return sum(work) / sum(seconds)


def self_times(spans):
    """Self time of each span, in ns, keyed by span id.

    A span's self time is its summed duration minus the summed durations of
    the spans whose parent it is. `spans` is a list of dicts with `id`,
    `parent` (-1 for a root) and `total_ns`.
    """
    own = {s["id"]: s["total_ns"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["total_ns"]
    return own


def span_seconds(spans, name):
    """Summed duration of every span called `name`, in seconds."""
    return sum(s["total_ns"] for s in spans if s["name"] == name) * 1e-9


def routing_share(null_router_s, run_s):
    """Share of World::run a router-side change could save at most."""
    return 1.0 - null_router_s / run_s


def ratio(numerator, denominator):
    """numerator / denominator, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def shard_busy(point_wall_s, workers):
    """Busy seconds per shard when point i runs on shard i % workers."""
    busy = [0.0] * workers
    for index, wall in enumerate(point_wall_s):
        busy[index % workers] += wall
    return busy


def imbalance(busy):
    """Busiest shard's busy time over the mean shard busy time."""
    return max(busy) / (sum(busy) / len(busy))
