"""Confidence intervals and the interval-similarity score.

Two interval families are implemented: empirical intervals read off the
order statistics of replicated simulation runs, and closed-form intervals
(t interval on log-transformed counts, normal approximation for binomial
proportions).  The similarity score relates two groups' interval
half-widths to the gap between their means; values below 1 indicate the
groups are distinguishable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, stdtrit

__all__ = [
    "Interval",
    "SimilarityInput",
    "empirical_interval",
    "log_mean_interval",
    "proportion_interval",
    "similarity",
    "limit_discrepancy",
]

_KINDS = ("empirical", "formula")

# Guard for rank arithmetic: (1 - level) has no exact binary representation,
# so products like 0.025 * 1000 land a hair above the intended integer.
_RANK_EPS = 1e-9


@dataclass(frozen=True)
class Interval:
    """A lower/upper confidence bound pair tagged with its provenance."""

    lower: float
    upper: float
    kind: str = "empirical"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class SimilarityInput:
    """Two indicator means with their intervals, ordered mean1 <= mean2."""

    mean1: float
    mean2: float
    int1: Interval
    int2: Interval

    def __post_init__(self) -> None:
        if self.mean1 > self.mean2:
            raise ValueError("means must be ordered ascending; swap the groups")


def empirical_interval(stats, level: float = 0.95) -> Interval:
    """Interval spanning the r-th smallest to r-th largest replicate statistic.

    r = ceil((1 - level)/2 * R), so for 1000 replicates at the 95% level the
    bounds are the 25th smallest and 25th largest values and the interval
    contains at least 95% of the replicate statistics.
    """
    values = np.sort(np.asarray(stats, dtype=np.float64))
    n = values.size
    tail = (1.0 - level) / 2.0
    if tail * n < 1.0 - _RANK_EPS:
        raise ValueError(
            f"need at least {math.ceil(1.0 / tail)} values for level {level}, got {n}"
        )
    rank = math.ceil(tail * n - _RANK_EPS)
    return Interval(float(values[rank - 1]), float(values[n - rank]), kind="empirical")


def log_mean_interval(mean: float, sd: float, n: int, level: float = 0.95) -> Interval:
    """t interval for the mean of y = ln(1 + c) from its summary statistics.

    mean +/- t_{a/2, n-1} * sd / sqrt(n), with sd the n-1 sample standard
    deviation of y over n observations.
    """
    if n < 2:
        raise ValueError("need at least two observations for a sample standard deviation")
    half = float(stdtrit(n - 1, 1.0 - (1.0 - level) / 2.0)) * sd / math.sqrt(n)
    return Interval(mean - half, mean + half, kind="formula")


def proportion_interval(p: float, n: int, level: float = 0.95) -> Interval:
    """Normal approximation interval p +/- z * sqrt(p(1-p)/n).

    The limits are deliberately not clamped to [0, 1]: the raw formula is
    what gets compared against the modelled intervals, and clamping would
    hide its failures near the boundaries.  No continuity correction.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    half = float(ndtri(1.0 - (1.0 - level) / 2.0)) * math.sqrt(p * (1.0 - p) / n)
    return Interval(p - half, p + half, kind="formula")


def similarity(inp: SimilarityInput) -> float:
    """Average interval half-width relative to the gap between the means.

        ((x1U - m1) + (m2 - x2L)) / (2 * (m2 - m1))

    Equals 1 when each mean sits exactly on the other group's interval
    limit; below 1 the groups are distinguishable.  When both intervals
    are [0, 0] and the means differ the expression collapses to 0.5.
    Returns NaN when the means coincide (zero denominator); callers must
    exclude such pairs.
    """
    gap = inp.mean2 - inp.mean1
    if gap == 0.0:
        return math.nan
    return ((inp.int1.upper - inp.mean1) + (inp.mean2 - inp.int2.lower)) / (2.0 * gap)


def limit_discrepancy(model: Interval, formula: Interval) -> tuple[float, float]:
    """Per-limit difference between formula and model intervals.

    Both values are fractions of the model interval's width:

        lower = (model.lower - formula.lower) / width(model)
        upper = (formula.upper - model.upper) / width(model)

    Positive values mean the formula is conservative (wider) on that side.
    """
    width = model.width
    if width <= 0.0:
        raise ValueError("model interval has zero width; discrepancy undefined")
    return (
        (model.lower - formula.lower) / width,
        (formula.upper - model.upper) / width,
    )
