"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import List, NamedTuple, Optional, Sequence, Tuple

#: The tail percentile, and how many samples must lie above it before
#: it is reported, so one stray sample cannot set it.
TAIL_Q = 0.95
MIN_BEYOND = 10


class Tail(NamedTuple):
    value: float
    samples: int
    beyond: int


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Optional[Tail]:
    """Nearest-rank :data:`TAIL_Q` percentile of ``values`` with its
    sample count, or None when fewer than :data:`MIN_BEYOND` samples
    lie beyond it (the percentile would rest on too few samples)."""
    n = len(values)
    if n == 0:
        return None
    rank = math.ceil(TAIL_Q * n)  # 1-based nearest rank
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None
    return Tail(float(sorted(values)[rank - 1]), n, beyond)


def best_per_op(timelines: Sequence[Sequence[Tuple[str, float]]]
                ) -> Optional[List[Tuple[str, float]]]:
    """For each position of a fixed op list, its kind and its fastest
    time over several runs of that list (one ``(kind, seconds)``
    timeline per run), or None when the runs did not issue the same
    ops in the same order.

    A slow stretch of the host slows whole runs; an op's fastest time
    is slowed only when every run of it fell in one."""
    kinds = [kind for kind, _ in timelines[0]]
    if any([kind for kind, _ in run] != kinds for run in timelines):
        return None
    return [(kind, min(run[i][1] for run in timelines))
            for i, kind in enumerate(kinds)]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid
