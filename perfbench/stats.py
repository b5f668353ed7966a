"""Summary statistics of the benchmark harness: percentiles, spreads,
rates and the class-position self-check."""

import math
import statistics


def percentile(values, q):
    """Linear interpolation between order statistics at rank q*(n-1)
    (the default of numpy and of R's type 7); q in [0, 1]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    xs = sorted(values)
    h = q * (len(xs) - 1)
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def median(values):
    return percentile(values, 0.5)


def beyond(values, q):
    """How many samples lie strictly above the q-th percentile."""
    p = percentile(values, q)
    return sum(1 for v in values if v > p)


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)
    (its default 'exclusive' method), which is how runs are compared."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def rate(count, seconds):
    """Events per second; a non-positive window is an error, not 0."""
    if seconds <= 0:
        raise ValueError("rate over a non-positive window")
    return count / seconds


def class_position(samples, q, lo=0.05, hi=0.95):
    """Which request class the q-th latency percentile falls inside.

    samples is a list of (class, latency). The percentile p is inside
    class c when p lies between c's own lo- and hi-percentiles; a p
    that no class's bulk contains sits in the gap between two classes,
    where a small change in the mix moves it a long way. Returns the
    owning class (the one whose median is nearest p) or None."""
    p = percentile([v for _, v in samples], q)
    by_class = {}
    for c, v in samples:
        by_class.setdefault(c, []).append(v)
    owners = [
        (abs(median(vs) - p), c)
        for c, vs in by_class.items()
        if percentile(vs, lo) <= p <= percentile(vs, hi)
    ]
    return min(owners)[1] if owners else None
