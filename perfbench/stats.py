"""Order statistics used by the benchmark.

Latency percentiles follow one rule: a percentile is reported only when
at least ``MIN_TAIL`` samples lie beyond it, so a p99 needs at least
1000 samples.  Failed operations enter as ``math.inf``: a request that
failed or was refused misses every latency limit instead of vanishing
from the sample.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with too few samples beyond it."""


def percentile(samples, pct: float) -> float:
    """The ``pct`` percentile (nearest rank) of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_TAIL`
    samples lie beyond the percentile's rank.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(pct * n / 100)  # 1-based nearest rank
    if n - rank < MIN_TAIL:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"{MIN_TAIL} are needed"
        )
    return ordered[rank - 1]
