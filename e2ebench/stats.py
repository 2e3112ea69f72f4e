"""The benchmark's arithmetic: percentiles, the tail rule, spreads, failures.

Kept apart from run.py so test_e2ebench.py can pin every rule on hand-made
numbers.
"""

import math
import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# A tail percentile needs at least this many samples above it.
TAIL_MIN_BEYOND = 10


def _rank(count, p):
    # Rounded before the ceiling: 99.9 / 100 * 10000 is 9990.000000000002.
    return max(1, math.ceil(round(p / 100.0 * count, 9)))


def nearest_rank(values, p):
    """The p-th percentile by the nearest-rank rule (a sample, never a blend)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(count, p):
    """How many of `count` samples lie above the nearest-rank p-th percentile."""
    return count - _rank(count, p)


def tail_percentile(count):
    """The highest ladder percentile with TAIL_MIN_BEYOND samples beyond it.

    None when even the lowest rung has fewer: with under 40 samples there is
    no tail worth the name, and callers report the median instead.
    """
    for p in TAIL_LADDER:
        if beyond(count, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def tail(values):
    """(percentile, value) of the tail rule; (50.0, median) below 40 samples."""
    p = tail_percentile(len(values))
    if p is None:
        return 50.0, statistics.median(values)
    return p, nearest_rank(values, p)


def spread(values):
    """Interquartile range as a share of the median, quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def per_job_medians(rounds):
    """Median latency of each job across rounds (rounds: lists, one per round,
    indexed by job id)."""
    return [statistics.median(samples) for samples in zip(*rounds)]


def count_failures(num_jobs, rounds, bad_records, hung):
    """(attempted, failed) over every job execution of a run.

    Each finished round executes every job twice, once in the serial pass
    and once in the campaign pass. An execution fails when its record fails
    a check (`bad_records`: job ids) or when its record differs from the
    round's reference (each round's `serial_mismatch` / `campaign_mismatch`
    id lists). A round cut off by the deadline (`hung`) counts all of its
    executions as attempted and failed.
    """
    bad = set(bad_records)
    attempted = 0
    failed = 0
    for rnd in rounds:
        attempted += 2 * num_jobs
        failed += len(bad | set(rnd["serial_mismatch"]))
        failed += len(bad | set(rnd["campaign_mismatch"]))
    if hung:
        attempted += 2 * num_jobs
        failed += 2 * num_jobs
    return attempted, failed
