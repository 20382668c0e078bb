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
    "formula_limits",
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


def formula_limits(centres, log_sd, n) -> np.ndarray:
    """Closed-form 95% limits [..., k, (lower, upper)] of centres [..., k].

    Column 0 is the mean of y = ln(1 + c): mean +/- t_{a/2, n-1} * log_sd /
    sqrt(n), with log_sd the n-1 sample sd of y.  Each later column is a
    proportion p: p +/- z * sqrt(p(1-p)/n), without continuity correction
    and deliberately not clamped to [0, 1], as clamping would hide the
    formula's failures near the boundaries.  log_sd and n broadcast
    against centres' leading axes.
    """
    centres = np.asarray(centres, dtype=np.float64)
    n = np.asarray(n)
    p = centres[..., 1:]
    if n.min() < 2:
        raise ValueError("need at least two observations for a sample standard deviation")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError(f"proportions must lie in [0, 1], got {p}")
    half = np.empty_like(centres)
    half[..., 0] = stdtrit(n - 1, _UPPER_QUANTILE) * log_sd / np.sqrt(n)
    half[..., 1:] = _Z_UPPER * np.sqrt(p * (1.0 - p) / n[..., None])
    return centres[..., None] + half[..., None] * _SIDES


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
