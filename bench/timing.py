"""The tail of timing samples: the highest percentile that still has at
least ten samples beyond it."""

from __future__ import annotations

TAIL_BEYOND = 10  # samples that must lie above a reported tail percentile


def tail(samples: list[float]) -> tuple[str, float]:
    """(label, value) of the highest whole percentile p with at least
    TAIL_BEYOND samples above it, by the nearest-rank rule.

    Below the median such a percentile says nothing about the tail, so
    with fewer than 2 * TAIL_BEYOND samples the maximum is reported and
    labelled "max".
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return "max", float(ordered[-1])
    p = 100 * (n - TAIL_BEYOND) // n
    rank = -(-p * n // 100)  # 1-based nearest rank, ceil(p * n / 100)
    return f"p{p}", float(ordered[rank - 1])
