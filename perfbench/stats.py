"""Small statistics helpers shared by the benchmark runner and its tracer."""

import bisect
import math


def nearest_rank(values, q):
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, beyond=10):
    """The highest percentile with at least `beyond` samples strictly above it.

    Returns (percentile, value), or None when no sample has that many
    samples above it (fewer than beyond + 1 samples, or a tie at the top).
    The percentile is the share of samples at or below the returned value.
    """
    ordered = sorted(values)
    n = len(ordered)
    for rank in range(n - beyond, 0, -1):
        value = ordered[rank - 1]
        at_or_below = bisect.bisect_right(ordered, value)
        if n - at_or_below >= beyond:
            return 100 * at_or_below / n, value
    return None


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span, children):
    """A span's duration minus the part of it that its child spans cover.

    Children may overlap one another (parallel workers); overlapping time
    is subtracted once.
    """
    start, end = span
    return (end - start) - covered_length(children, start, end)


class Tally:
    """Attempted and failed operations, with the reason for each failure.

    An operation is identified by a key; failing it again adds a reason but
    is still one failed operation, so failed never exceeds attempted.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def attempt(self, count=1):
        self.attempted += count

    def fail(self, key, reason):
        self.failures.setdefault(key, []).append(reason)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0
