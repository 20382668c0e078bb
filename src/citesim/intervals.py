"""Confidence intervals and the interval-similarity score.

Two interval families are implemented: empirical intervals read off the
order statistics of replicated simulation runs, and closed-form intervals
(t interval on log-transformed counts, normal approximation for binomial
proportions).  The similarity score relates two groups' interval
half-widths to the gap between their means; values below 1 indicate the
groups are distinguishable.

Each formula has one implementation, over arrays: the `*_limits`
functions and `limit_discrepancies` return the limits of many intervals
at once in a trailing (lower, upper) axis, and `similarities` scores
every indicator at once.  A single case is an array with no leading axes.
Every interval is a two-sided 95% interval.
"""

from __future__ import annotations

import numpy as np

from ._special import ndtri, stdtrit

__all__ = [
    "empirical_limits",
    "log_mean_limits",
    "proportion_limits",
    "similarities",
    "limit_discrepancies",
]

# Upper quantile of a two-sided 95% interval: 1 - (1 - 0.95) / 2, exactly,
# and the normal quantile there.
_UPPER_QUANTILE = 0.975
_Z_UPPER = ndtri(_UPPER_QUANTILE)
# Signs of the (lower, upper) limits around a centre: centre - half is
# computed exactly as centre + (-1.0 * half).
_SIDES = np.array([-1.0, 1.0])


def empirical_limits(stats) -> np.ndarray:
    """Empirical 95% interval limits of the statistics along the last axis.

    Returns [..., (lower, upper)]: the r-th smallest and r-th largest of the
    R values, with r = ceil(0.025 * R) = ceil(R / 40).  For 1000 replicates
    the limits are the 25th smallest and 25th largest values, and the
    interval contains at least 95% of the replicate statistics.
    """
    values = np.array(stats, dtype=np.float64)
    values.sort(axis=-1)
    n = values.shape[-1]
    if n < 40:
        raise ValueError(f"need at least 40 values for 95% limits, got {n}")
    rank = -(-n // 40)
    return values[..., [rank - 1, n - rank]]


def log_mean_limits(mean, sd, n) -> np.ndarray:
    """t interval limits [..., (lower, upper)] for the mean of y = ln(1 + c).

    mean +/- t_{a/2, n-1} * sd / sqrt(n), with sd the n-1 sample standard
    deviation of y over n observations; the arguments broadcast.
    """
    n = np.asarray(n)
    if n.min() < 2:
        raise ValueError("need at least two observations for a sample standard deviation")
    half = stdtrit(n - 1, _UPPER_QUANTILE) * sd / np.sqrt(n)
    return _centred(mean, half)


def proportion_limits(p, n) -> np.ndarray:
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
    half = _Z_UPPER * np.sqrt(p * (1.0 - p) / n)
    return _centred(p, half)


def _centred(centre, half) -> np.ndarray:
    """Limits [..., (centre - half, centre + half)]."""
    return np.asarray(centre)[..., None] + np.multiply.outer(half, _SIDES)


def similarities(means, limits) -> np.ndarray:
    """Similarity score of two groups, for every indicator at once.

    means has shape (2, ...) and limits (2, ..., 2), holding each group's
    indicator means and interval limits.  In each column, with group 1 the
    group with the smaller mean (the first on ties), the score is the
    average interval half-width relative to the gap between the means:

        ((x1U - m1) + (m2 - x2L)) / (2 * (m2 - m1))

    It equals 1 when each mean sits exactly on the other group's interval
    limit; below 1 the groups are distinguishable.  Columns whose means
    coincide score NaN.
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
    # (-formula.lower) - (-model.lower) is model.lower - formula.lower, bit
    # for bit and zero signs included.
    diff = formula * _SIDES - model * _SIDES
    return np.divide(diff, width, out=np.full(diff.shape, np.nan), where=width > 0.0)
