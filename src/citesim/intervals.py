"""Confidence intervals and the interval-similarity score.

Two interval families are implemented: empirical intervals read off the
order statistics of replicated simulation runs, and closed-form intervals
(t interval on log-transformed counts, normal approximation for binomial
proportions).  The similarity score relates two groups' interval
half-widths to the gap between their means; values below 1 indicate the
groups are distinguishable.

Each formula has one implementation, over arrays: the `*_limits`
functions, `similarities` and `limit_discrepancies` return the limits of
many intervals at once in a trailing (lower, upper) axis.  The functions
that return one `Interval` or one score apply them to a single case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, stdtrit

__all__ = [
    "Interval",
    "SimilarityInput",
    "empirical_limits",
    "log_mean_limits",
    "proportion_limits",
    "similarities",
    "limit_discrepancies",
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
# Signs of the (lower, upper) limits around a centre: centre - half is
# computed exactly as centre + (-1.0 * half).
_SIDES = np.array([-1.0, 1.0])


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


def empirical_limits(stats, level: float = 0.95) -> np.ndarray:
    """Empirical interval limits of the statistics along the last axis.

    Returns [..., (lower, upper)]: the r-th smallest and r-th largest of the
    R values, with r = ceil((1 - level)/2 * R).  For 1000 replicates at the
    95% level the limits are the 25th smallest and 25th largest values, and
    the interval contains at least 95% of the replicate statistics.
    """
    values = np.array(stats, dtype=np.float64)
    values.sort(axis=-1)
    n = values.shape[-1]
    tail = (1.0 - level) / 2.0
    if tail * n < 1.0 - _RANK_EPS:
        raise ValueError(
            f"need at least {math.ceil(1.0 / tail)} values for level {level}, got {n}"
        )
    rank = math.ceil(tail * n - _RANK_EPS)
    return values[..., [rank - 1, n - rank]]


def log_mean_limits(mean, sd, n, level: float = 0.95) -> np.ndarray:
    """t interval limits [..., (lower, upper)] for the mean of y = ln(1 + c).

    mean +/- t_{a/2, n-1} * sd / sqrt(n), with sd the n-1 sample standard
    deviation of y over n observations; the arguments broadcast.
    """
    n = np.asarray(n)
    if n.min() < 2:
        raise ValueError("need at least two observations for a sample standard deviation")
    half = stdtrit(n - 1, 1.0 - (1.0 - level) / 2.0) * sd / np.sqrt(n)
    return _centred(mean, half)


def proportion_limits(p, n, level: float = 0.95) -> np.ndarray:
    """Normal approximation limits [..., (lower, upper)], p +/- z * sqrt(p(1-p)/n).

    The limits are deliberately not clamped to [0, 1]: the raw formula is
    what gets compared against the modelled intervals, and clamping would
    hide its failures near the boundaries.  No continuity correction.  The
    arguments broadcast.
    """
    p = np.asarray(p, dtype=np.float64)
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if np.asarray(n).min() < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    half = ndtri(1.0 - (1.0 - level) / 2.0) * np.sqrt(p * (1.0 - p) / n)
    return _centred(p, half)


def _centred(centre, half) -> np.ndarray:
    """Limits [..., (centre - half, centre + half)]."""
    return np.asarray(centre)[..., None] + np.multiply.outer(half, _SIDES)


def similarities(means, limits) -> np.ndarray:
    """Similarity score of two groups, for every indicator at once.

    means has shape (2, ...) and limits (2, ..., 2), holding each group's
    indicator means and interval limits; in each column the group with the
    smaller mean (the first on ties) plays group 1 of :func:`similarity`.
    Columns whose means coincide score NaN.
    """
    means = np.asarray(means, dtype=np.float64)
    groups = np.concatenate([means[..., None], limits], axis=-1)  # (mean, lower, upper)
    ordered = np.where(means[1, ..., None] < means[0, ..., None], groups[::-1], groups)
    mean1, upper1 = ordered[0, ..., 0], ordered[0, ..., 2]
    mean2, lower2 = ordered[1, ..., 0], ordered[1, ..., 1]
    gap = mean2 - mean1
    return np.divide((upper1 - mean1) + (mean2 - lower2), 2.0 * gap,
                     out=np.full(gap.shape, np.nan), where=gap != 0.0)


def limit_discrepancies(model, formula) -> np.ndarray:
    """Per-limit difference [..., (lower, upper)] between formula and model limits.

    Both values are fractions of the model interval's width:

        lower = (model.lower - formula.lower) / width(model)
        upper = (formula.upper - model.upper) / width(model)

    Positive values mean the formula is conservative (wider) on that side.
    Where the model interval has zero width the ratio is undefined: NaN.
    """
    model = np.asarray(model, dtype=np.float64)
    width = model[..., 1:] - model[..., :1]
    formula = np.asarray(formula, dtype=np.float64)
    diff = np.stack([model[..., 0] - formula[..., 0], formula[..., 1] - model[..., 1]], axis=-1)
    return np.divide(diff, width, out=np.full(diff.shape, np.nan), where=width > 0.0)


def empirical_interval(stats, level: float = 0.95) -> Interval:
    """:func:`empirical_limits` of one sequence of replicate statistics."""
    lower, upper = empirical_limits(stats, level).tolist()
    return Interval(lower, upper, kind="empirical")


def log_mean_interval(mean: float, sd: float, n: int, level: float = 0.95) -> Interval:
    """:func:`log_mean_limits` from one set of summary statistics."""
    lower, upper = log_mean_limits(mean, sd, n, level).tolist()
    return Interval(lower, upper, kind="formula")


def proportion_interval(p: float, n: int, level: float = 0.95) -> Interval:
    """:func:`proportion_limits` of one proportion."""
    lower, upper = proportion_limits(p, n, level).tolist()
    return Interval(lower, upper, kind="formula")


def similarity(inp: SimilarityInput) -> float:
    """Average interval half-width relative to the gap between the means.

        ((x1U - m1) + (m2 - x2L)) / (2 * (m2 - m1))

    Equals 1 when each mean sits exactly on the other group's interval
    limit; below 1 the groups are distinguishable.  When both intervals
    are [0, 0] and the means differ the expression collapses to 0.5.
    Returns NaN when the means coincide (zero denominator); callers must
    exclude such pairs.
    """
    limits = [[inp.int1.lower, inp.int1.upper], [inp.int2.lower, inp.int2.upper]]
    return float(similarities([inp.mean1, inp.mean2], limits))


def limit_discrepancy(model: Interval, formula: Interval) -> tuple[float, float]:
    """:func:`limit_discrepancies` of one pair of intervals; a model interval
    of zero width raises ValueError."""
    if model.width <= 0.0:
        raise ValueError("model interval has zero width; discrepancy undefined")
    lower, upper = limit_discrepancies([model.lower, model.upper],
                                       [formula.lower, formula.upper]).tolist()
    return lower, upper
