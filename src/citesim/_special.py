"""Normal, Student t and Kolmogorov distribution functions from numpy and the stdlib.

The library needs four special functions, each at a handful of points per
configuration, so each is a scalar stdlib evaluation mapped over an array:

- `ndtr`, the standard normal CDF, is 0.5 * erfc(-z / sqrt(2)) with
  `math.erfc` mapped by `map`, so no Python frame runs per element; like
  any erfc form its relative error grows as z^2 * eps in the far lower
  tail, from rounding the argument.
- `ndtri`, its inverse, is `statistics.NormalDist.inv_cdf`, Wichura's
  AS 241 (Appl. Stat. 37(3), 1988).
- `stdtrit`, the Student t quantile for an integer number of degrees of
  freedom, starts from the Cornish-Fisher expansion (Abramowitz & Stegun
  26.7.5) and refines it by Newton steps on the exact finite series for
  the t CDF (A&S 26.7.3-4).  Above EXACT_DF degrees of freedom the
  expansion alone is exact to rounding.
- `kolmogorov`, the survival function of the Kolmogorov distribution, is
  its alternating series, or the Jacobi theta form below x = 1, where the
  alternating terms cancel.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

__all__ = ["ndtr", "ndtri", "stdtrit", "kolmogorov"]

EXACT_DF = 1000
_SQRT_HALF = math.sqrt(0.5)
_ndtri = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


def _floats(out):
    """A frompyfunc result as float64: an array for an array, else a float."""
    return out.astype(np.float64) if isinstance(out, np.ndarray) else float(out)


def ndtr(z):
    """Standard normal CDF, elementwise: a float for a scalar or a 0-d array."""
    w = -np.asarray(z, dtype=np.float64) * _SQRT_HALF
    erfc = np.fromiter(map(math.erfc, w.ravel().tolist()), np.float64, w.size)
    out = 0.5 * erfc.reshape(w.shape)
    return out if out.ndim else float(out)


def ndtri(p):
    """Standard normal quantile for p in (0, 1), elementwise."""
    return _floats(_ndtri(p))


def _cornish_fisher(p: float, df: int) -> float:
    """A&S 26.7.5: the t quantile as a series in 1/df around the normal one."""
    x = NormalDist().inv_cdf(p)
    y = x * x
    g1 = (y + 1.0) / 4.0
    g2 = ((5.0 * y + 16.0) * y + 3.0) / 96.0
    g3 = (((3.0 * y + 19.0) * y + 17.0) * y - 15.0) / 384.0
    g4 = ((((79.0 * y + 776.0) * y + 1482.0) * y - 1920.0) * y - 945.0) / 92160.0
    return x * (1.0 + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df)


def _t_central(t: float, df: int, weights: np.ndarray) -> float:
    """2 F(t) - 1, which is P(|T| <= t) for t >= 0: A&S 26.7.3 (odd df) and 26.7.4 (even df).

    With cos^2(theta) = df / (df + t^2), weights[k] is the coefficient of
    cos^2k(theta).  The powers come from one log1p, not from repeated
    products, so their error does not grow with k.
    """
    ratio = t * t / df
    series = math.fsum(weights * np.exp(-math.log1p(ratio) * np.arange(weights.size)))
    sin = t / math.sqrt(df + t * t)
    if df % 2 == 0:
        return sin * series
    return 2.0 / math.pi * (math.atan2(t, math.sqrt(df)) + sin * series / math.sqrt(1.0 + ratio))


@lru_cache(maxsize=None)
def _t_quantile(df: int, p: float) -> float:
    """One t quantile; cached, since a sweep has few distinct country sizes."""
    t = _cornish_fisher(p, df)
    if df > EXACT_DF:
        return t
    # Coefficients 1, 1/2, 1*3/(2*4), ... (even df) or 1, 2/3, 2*4/(3*5), ... (odd df).
    numerators = 2.0 * np.arange(1, df // 2) - 1 + df % 2
    weights = np.cumprod(np.concatenate([[1.0], numerators / (numerators + 1.0)]))[:df // 2]
    log_density = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    previous = math.inf
    for _ in range(50):
        density = math.exp(log_density - (df + 1) / 2 * math.log1p(t * t / df))
        step = (_t_central(t, df, weights) - (2.0 * p - 1.0)) / (2.0 * density)
        if abs(step) >= previous:  # Newton steps stopped shrinking: rounding noise
            break
        t -= step
        previous = abs(step)
    return t


_stdtrit = np.frompyfunc(lambda df, p: _t_quantile(int(df), float(p)), 2, 1)


def stdtrit(df, p):
    """Student t quantile for integer df >= 1 and p in (0, 1), elementwise."""
    return _floats(_stdtrit(df, p))


def kolmogorov(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution; 1 for x <= 0."""
    if x <= 0.0:
        return 1.0
    if x < 1.0:
        c = -(math.pi / x) ** 2 / 8.0
        theta = math.fsum(math.exp((2 * k - 1) ** 2 * c) for k in range(1, 8))
        return 1.0 - math.sqrt(2.0 * math.pi) / x * theta
    return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 12))
