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
from scipy.special import ndtr

__all__ = [
    "InfeasibleMixtureError",
    "LognormalParams",
    "MixtureSpec",
    "pmf",
    "cdf",
    "sample",
    "sample_articles",
    "sample_citations",
    "mixture_mean",
    "rest_of_world_location",
]

_LOG_HALF = math.log(0.5)


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


def pmf(k, params: LognormalParams):
    """Probability of the shifted count k (positive integer).

    Closed form of the unit-interval integral of the lognormal density
    around k, renormalised by the mass on [0.5, inf):

        [Phi((ln(k+0.5)-mu)/sigma) - Phi((ln(k-0.5)-mu)/sigma)]
            / [1 - Phi((ln 0.5 - mu)/sigma)]

    Accepts a scalar or an array of integers; sums to 1 over k >= 1.
    """
    k_arr = np.asarray(k, dtype=np.float64)
    if np.any(k_arr < 1) or np.any(k_arr != np.floor(k_arr)):
        raise ValueError("k must be a positive integer; no mass below 1")
    z_hi = (np.log(k_arr + 0.5) - params.mu) / params.sigma
    z_lo = (np.log(k_arr - 0.5) - params.mu) / params.sigma
    # Renormalise by the mass of the continuous lognormal on [0.5, inf).
    out = (ndtr(z_hi) - ndtr(z_lo)) / (1.0 - ndtr((_LOG_HALF - params.mu) / params.sigma))
    if np.ndim(k) == 0:
        return float(out)
    return out


def cdf(k, params: LognormalParams):
    """Cumulative probability of shifted counts 1..k (telescoped pmf sum)."""
    k_arr = np.asarray(k, dtype=np.float64)
    if np.any(k_arr < 1) or np.any(k_arr != np.floor(k_arr)):
        raise ValueError("k must be a positive integer; no mass below 1")
    z0 = (_LOG_HALF - params.mu) / params.sigma
    z_hi = (np.log(k_arr + 0.5) - params.mu) / params.sigma
    out = (ndtr(z_hi) - ndtr(z0)) / (1.0 - ndtr(z0))
    if np.ndim(k) == 0:
        return float(out)
    return out


def sample_articles(mu, sigma: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n shifted counts (x = c + 1), article i at location mu[i].

    A scalar mu broadcasts to every article.  Continuous lognormal variates
    exp(mu + sigma * Z) are drawn, each article whose variate falls below
    0.5 is redrawn at its own location, and the survivors are rounded to
    the nearest integer.  This realises the unit-interval integral mass
    function exactly, with no truncation error.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")

    def draw(loc):
        return np.exp(loc + sigma * rng.standard_normal(loc.size))

    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim == 0:
        mu = np.full(n, mu)
    elif mu.shape != (n,):
        raise ValueError(f"mu must be a scalar or one location per article, got {mu.shape}")
    x = draw(mu)
    bad = np.nonzero(x < 0.5)[0]
    while bad.size:
        x[bad] = draw(mu[bad])
        bad = bad[x[bad] < 0.5]
    return np.floor(x + 0.5).astype(np.int64)


def sample(params: LognormalParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n shifted counts (x = c + 1, every value >= 1) from one population."""
    return sample_articles(params.mu, params.sigma, n, rng)


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
