"""Discretised lognormal citation model and mixture-location algebra.

The distribution lives on the positive integers: the probability of k is
the continuous lognormal mass on [k - 0.5, k + 0.5] renormalised by the
mass on [0.5, inf).  Values represent shifted citation counts x = c + 1,
so uncited articles map to x = 1 and the support stays strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "InfeasibleMixtureError",
    "LognormalParams",
    "MixtureSpec",
    "pmf",
    "cdf",
    "table_top",
    "count_table",
    "sample_histograms",
    "sample",
    "sample_citations",
    "mixture_mean",
    "rest_of_world_location",
]

_LOG_HALF = math.log(0.5)
# A count table lists x = 1..top and lumps the rest into one tail cell; top
# sets only the speed of sampling, never the distribution.  A tail of 1e-4
# keeps both the table and the exact tail draws short.
TABLE_TAIL_MASS = 1e-4
MAX_TABLE_TOP = 4096


class InfeasibleMixtureError(ValueError):
    """Country means too large for the requested overall mean."""


@dataclass(frozen=True)
class LognormalParams:
    """Location/scale pair defining one discretised lognormal population."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class MixtureSpec:
    """Two country populations plus rest of world sharing one scale parameter.

    The rest-of-world location is not stored; it is solved by
    :func:`rest_of_world_location` so that the continuous mixture mean stays
    at exp(mu_overall + sigma^2 / 2) whatever the country locations are.
    """

    mu_overall: float
    sigma: float
    mu1: float
    mu2: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        for name in ("mu_overall", "mu1", "mu2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.p1 > 0 and self.p2 > 0):
            raise ValueError("country shares must be positive")
        if not self.p1 + self.p2 < 1:
            raise ValueError(
                f"country shares must leave room for the rest of the world, "
                f"got p1 + p2 = {self.p1 + self.p2}"
            )


def _upper_tail(x, params: LognormalParams):
    """Lognormal mass above x over the mass above 0.5, from upper-tail normal
    probabilities ndtr(-z), which keep their relative precision far into the tail."""
    return (ndtr((params.mu - np.log(x)) / params.sigma)
            / ndtr((params.mu - _LOG_HALF) / params.sigma))


def _per_count(k, mass):
    """mass(k) for a positive integer k or an array of them; a float for a scalar."""
    k_arr = np.asarray(k, dtype=np.float64)
    if np.any(k_arr < 1) or np.any(k_arr != np.floor(k_arr)):
        raise ValueError("k must be a positive integer; no mass below 1")
    out = mass(k_arr)
    return float(out) if np.ndim(k) == 0 else out


def pmf(k, params: LognormalParams):
    """Probability of the shifted count k (positive integer).

    Closed form of the unit-interval integral of the lognormal density
    around k, renormalised by the mass on [0.5, inf), with Q(z) = Phi(-z):

        [Q((ln(k-0.5)-mu)/sigma) - Q((ln(k+0.5)-mu)/sigma)] / Q((ln 0.5 - mu)/sigma)

    Accepts a scalar or an array of integers; sums to 1 over k >= 1.
    """
    return _per_count(k, lambda x: _upper_tail(x - 0.5, params) - _upper_tail(x + 0.5, params))


def cdf(k, params: LognormalParams):
    """Cumulative probability of shifted counts 1..k (telescoped pmf sum)."""
    return _per_count(k, lambda x: 1.0 - _upper_tail(x + 0.5, params))


def table_top(mu: float, sigma: float) -> int:
    """Last count a count table lists, for locations up to mu: less than
    TABLE_TAIL_MASS lies above it, unless MAX_TABLE_TOP cuts it short."""
    z = -ndtri(TABLE_TAIL_MASS * ndtr((mu - _LOG_HALF) / sigma))
    return int(min(max(math.ceil(math.exp(mu + sigma * z) - 0.5), 1), MAX_TABLE_TOP))


def count_table(params: LognormalParams, top: int) -> np.ndarray:
    """Multinomial cell probabilities P(x = 1), ..., P(x = top), P(x > top)."""
    upper = _upper_tail(np.arange(0.5, top + 1.0), params)
    return np.append(upper[:-1] - upper[1:], upper[-1])


def sample_histograms(params: LognormalParams, table: np.ndarray, n: int,
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
    beyond = ndtr((params.mu - math.log(top + 0.5)) / params.sigma)
    tail = np.floor(np.exp(params.mu - params.sigma * ndtri(u * beyond)) + 0.5)
    return hist, np.maximum(tail.astype(np.int64), top + 1)


def sample(params: LognormalParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n shifted counts (x = c + 1, every value >= 1) from one population:
    one histogram draw, expanded into articles in random order."""
    top = table_top(params.mu, params.sigma)
    hist, tail = sample_histograms(params, count_table(params, top), n, rng)
    return rng.permutation(np.concatenate([np.repeat(np.arange(1, top + 1), hist[:top]), tail]))


def sample_citations(params: LognormalParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n citation counts c = x - 1 (non-negative integers)."""
    return sample(params, n, rng) - 1


def mixture_mean(spec: MixtureSpec, mu0: float) -> float:
    """Continuous-lognormal mean of the three-population mixture.

    mu0 is the rest-of-world location parameter; the result is the mean of
    shifted counts, p1*e^(mu1+s) + p2*e^(mu2+s) + (1-p1-p2)*e^(mu0+s) with
    s = sigma^2 / 2.
    """
    half_var = 0.5 * spec.sigma**2
    return (
        spec.p1 * math.exp(spec.mu1 + half_var)
        + spec.p2 * math.exp(spec.mu2 + half_var)
        + (1.0 - spec.p1 - spec.p2) * math.exp(mu0 + half_var)
    )


def rest_of_world_location(spec: MixtureSpec) -> float:
    """Location parameter for the rest of the world that fixes the overall mean.

    Solves the mixture-mean identity for mu0, so substituting the result
    back into :func:`mixture_mean` recovers exp(mu_overall + sigma^2 / 2)
    exactly.

    Raises
    ------
    InfeasibleMixtureError
        If the country means already exceed the target overall mean, which
        makes the logarithm argument non-positive.
    """
    arg = (
        math.exp(spec.mu_overall)
        - spec.p1 * math.exp(spec.mu1)
        - spec.p2 * math.exp(spec.mu2)
    )
    if arg <= 0:
        raise InfeasibleMixtureError(
            f"country means too large for overall location {spec.mu_overall}: "
            f"p1*e^mu1 + p2*e^mu2 = {math.exp(spec.mu_overall) - arg:.6g} "
            f">= e^mu_overall = {math.exp(spec.mu_overall):.6g}"
        )
    return math.log(arg / (1.0 - spec.p1 - spec.p2))
