"""Top-X% credit of articles inside a simulated world.

A country's share of the world's top 1%, 10% and 50% most cited articles
is its summed credit divided by its article count.  Articles tied at a
percentile cutoff receive a proportional fraction of the remaining slots
(Waltman & Schreiber, JASIST 64(2), 2013), so the total credit handed out
for the top X% is exactly X/100 * N.  Everything is computed from
survival counts, S[v] = #{c >= v}, so a group's credit needs only its own
histogram and the world's.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TOP_SHARES",
    "survival_counts",
    "tie_credit",
    "threshold_credit",
    "top_credit",
]

TOP_SHARES = (1.0, 10.0, 50.0)


def survival_counts(counts: np.ndarray) -> np.ndarray:
    """S[v] = number of articles with count >= v, for v = 0..max(counts)."""
    hist = np.bincount(counts)
    return np.cumsum(hist[::-1])[::-1]


def tie_credit(world_surv: np.ndarray, x_percent: float, groups=()) -> tuple[int, float, list]:
    """Cutoff, tie fraction and each group's summed credit for the top x_percent.

    world_surv is the survival_counts of the whole world, so N = world_surv[0].
    Articles cited more than t times fall fully inside the top x_percent;
    the articles cited exactly t times share the remaining q - #{c > t}
    slots equally (q = x_percent/100 * N, kept as an exact real), each
    receiving frac, which is 1.0 when the cutoff block fits entirely.
    Each entry of groups is the survival_counts of a subset of the world's
    articles; its credit is #{c > t} + frac * #{c == t} over that subset.
    """
    q = x_percent / 100.0 * int(world_surv[0])
    # Largest count t with #{c >= t} >= q; world_surv is non-increasing.
    t = int(np.count_nonzero(world_surv >= q)) - 1
    above = int(world_surv[t + 1]) if t + 1 < world_surv.size else 0
    frac = (q - above) / (int(world_surv[t]) - above)
    credits = []
    for surv in groups:
        above = int(surv[t + 1]) if t + 1 < surv.size else 0
        at = (int(surv[t]) if t < surv.size else 0) - above
        credits.append(above + frac * at)
    return t, frac, credits


def threshold_credit(counts, x_percent: float) -> tuple[int, float]:
    """Percentile cutoff count t and the fractional credit at the cutoff.

    See :func:`tie_credit` for the rule; counts holds one world's articles.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("world must contain at least one article")
    if not 0 < x_percent < 100:
        raise ValueError(f"x_percent must lie in (0, 100), got {x_percent}")
    t, frac, _ = tie_credit(survival_counts(counts), x_percent)
    return t, frac


def top_credit(counts, x_percent: float) -> np.ndarray:
    """Per-article fractional credit for membership of the world top x_percent.

    Total credit over all articles equals x_percent/100 * N exactly.
    """
    counts = np.asarray(counts, dtype=np.int64)
    t, frac = threshold_credit(counts, x_percent)
    credit = np.zeros(counts.size)
    credit[counts > t] = 1.0
    credit[counts == t] = frac
    return credit
