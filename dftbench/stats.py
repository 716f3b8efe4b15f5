"""Order statistics used by the benchmark report."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: int) -> Tuple[float, int]:
    """The nearest-rank ``pct`` percentile and its 1-based rank."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))  # integer ceil(pct * n / 100)
    return ordered[rank - 1], rank


def tail(values: Sequence[float]) -> Optional[Tuple[int, float, int, int]]:
    """The highest whole percentile with at least :data:`TAIL_BEYOND`
    samples beyond it.

    Returns ``(percentile, value, samples, beyond)`` where ``beyond``
    counts the samples ranked above the percentile's order statistic,
    or ``None`` when fewer than ``TAIL_BEYOND + 1`` samples exist.
    """
    n = len(values)
    for pct in range(99, 0, -1):
        value, rank = nearest_rank(values, pct)
        if n - rank >= TAIL_BEYOND:
            return pct, value, n, n - rank
    return None
