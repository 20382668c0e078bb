"""Discretised lognormal citation model and mixture-location algebra.

The distribution lives on the positive integers: the probability of k is
the continuous lognormal mass on [k - 0.5, k + 0.5] renormalised by the
mass on [0.5, inf).  Values represent shifted citation counts x = c + 1,
so uncited articles map to x = 1 and the support stays strictly positive.
"""

from __future__ import annotations

import math

import numpy as np

from ._special import ndtr, ndtri

__all__ = [
    "table_top",
    "count_table",
    "sample_histograms",
    "rest_of_world_location",
    "check_locations",
]

_LOG_HALF = math.log(0.5)
# A count table lists x = 1..top and lumps the rest into one tail cell; top
# sets only the speed of sampling, never the distribution.  A tail of 1e-4
# keeps both the table and the exact tail draws short.
TABLE_TAIL_MASS = 1e-4
MAX_TABLE_TOP = 4096
# Counts become float64 histogram axes, which are exact only below COUNT_LIMIT.
COUNT_LIMIT = 2.0**53
COUNT_LIMIT_RISK = 1e-6  # the most counts at or above it that a run may expect


def _upper_tail(x, mu, sigma: float):
    """Lognormal mass above x over the mass above 0.5, from upper-tail normal
    probabilities ndtr(-z), which keep their relative precision far into the tail."""
    # A tiny sigma overflows a z-score to +-inf, which ndtr maps exactly to 0 or 1.
    with np.errstate(over="ignore"):
        return ndtr((mu - np.log(x)) / sigma) / ndtr((mu - _LOG_HALF) / sigma)


def table_top(mu: float, sigma: float) -> int:
    """Last count a count table lists, for locations up to mu: less than
    TABLE_TAIL_MASS lies above it, unless MAX_TABLE_TOP cuts it short."""
    z = -ndtri(TABLE_TAIL_MASS * ndtr((mu - _LOG_HALF) / sigma))
    return int(min(max(math.ceil(math.exp(mu + sigma * z) - 0.5), 1), MAX_TABLE_TOP))


def count_table(mu, sigma: float, top: int) -> np.ndarray:
    """Multinomial cell probabilities P(x = 1), ..., P(x = top), P(x > top).

    An array of locations mu gives one table per location: mu's axes lead,
    the cells are the last axis.
    """
    upper = _upper_tail(np.arange(0.5, top + 1.0), np.asarray(mu, dtype=np.float64)[..., None],
                        sigma)
    return np.concatenate((upper[..., :-1] - upper[..., 1:], upper[..., -1:]), axis=-1)


def sample_histograms(mu: float, sigma: float, table: np.ndarray, n: int,
                      rng: np.random.Generator, size=None) -> tuple[np.ndarray, np.ndarray]:
    """Histograms of n shifted counts over a count table's cells, and the tail.

    hist (shape (*size, top + 1)) is one multinomial draw per histogram;
    hist[..., k - 1] counts x = k and hist[..., top] counts x > top.  tail
    holds the values above top, histogram by histogram, drawn exactly by
    inverting the normal upper tail beyond top + 0.5: nothing is truncated.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    top = table.size - 1
    hist = rng.multinomial(n, table, size=size)
    beyond_top = int(hist[..., top].sum())
    if not beyond_top:  # drawing no uniforms leaves the stream where it is
        return hist, np.empty(0, dtype=np.int64)
    u = 1.0 - rng.random(beyond_top)  # in (0, 1]
    beyond = ndtr((mu - math.log(top + 0.5)) / sigma)
    tail = np.floor(np.exp(mu - sigma * ndtri(u * beyond)) + 0.5)
    if tail.max() >= COUNT_LIMIT:
        raise ValueError(f"drew a count of {tail.max():.3g}, at or above 2**53, "
                         f"where counts are no longer exact (sigma={sigma:g})")
    return hist, np.maximum(tail.astype(np.int64), top + 1)


def rest_of_world_location(mu_overall: float, mu1: float, mu2: float,
                           p1: float, p2: float) -> float:
    """Location parameter for the rest of the world that fixes the overall mean.

    Solves the mixture-mean identity for mu0: with s = sigma^2 / 2, the
    continuous-lognormal mean of the mixture,

        p1*e^(mu1+s) + p2*e^(mu2+s) + (1-p1-p2)*e^(mu0+s),

    is then exp(mu_overall + s).  Every term carries the factor e^s, so
    sigma cancels out of the solution.

    Raises ValueError if the country means already exceed the target
    overall mean, which makes the logarithm argument non-positive, or if
    a location is too large for its exponential to be a float.
    """
    try:
        arg = math.exp(mu_overall) - p1 * math.exp(mu1) - p2 * math.exp(mu2)
    except OverflowError:
        raise ValueError(f"locations too large for e^mu: mu_overall={mu_overall}, "
                         f"mu1={mu1}, mu2={mu2}") from None
    if arg <= 0:
        raise ValueError(
            f"country means too large for overall location {mu_overall}: "
            f"p1*e^mu1 + p2*e^mu2 = {math.exp(mu_overall) - arg:.6g} "
            f">= e^mu_overall = {math.exp(mu_overall):.6g}"
        )
    return math.log(arg / (1.0 - p1 - p2))


def check_locations(low: float, high: float, sigma: float, draws) -> None:
    """Raise ValueError unless locations in [low, high] keep mass above x = 0.5 and a table's
    TABLE_TAIL_MASS cutoff, and draws counts expect at most COUNT_LIMIT_RISK >= COUNT_LIMIT."""
    if not TABLE_TAIL_MASS * ndtr((low - _LOG_HALF) / sigma) > 0.0:
        raise ValueError(f"location {low:g} leaves no mass above x = 0.5 at sigma={sigma:g}")
    expected = draws * _upper_tail(COUNT_LIMIT - 0.5, high, sigma)
    if not expected <= COUNT_LIMIT_RISK:
        raise ValueError(f"location {high:g} at sigma={sigma:g} expects {expected:.3g} counts at "
                         f"or above 2**53, where counts are inexact (limit {COUNT_LIMIT_RISK:g})")
