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
    "histogram_survival",
    "tie_credit",
    "threshold_credit",
    "top_credit",
]

TOP_SHARES = (1.0, 10.0, 50.0)


def histogram_survival(hist: np.ndarray) -> np.ndarray:
    """S[..., j] = sum of hist[..., i >= j] for j = 0..V: with hist counting
    articles at V increasing values v_0 < v_1 < ..., the number with value
    >= v_j, and a last entry 0 past the largest value."""
    hist = np.asarray(hist)
    surv = np.zeros(hist.shape[:-1] + (hist.shape[-1] + 1,))
    np.cumsum(hist[..., ::-1], axis=-1, out=surv[..., -2::-1])
    return surv


def tie_credit(world_surv: np.ndarray, x_percent, groups=()) -> tuple:
    """Cutoff, tie fraction and each group's summed credit for the top x_percent.

    world_surv is the histogram_survival of the whole world, so
    N = world_surv[..., 0]; leading axes are independent worlds.  Articles
    above the cutoff value v_t fall fully inside the top x_percent; the
    articles at v_t share the remaining q - #{c > v_t} slots equally
    (q = x_percent/100 * N, kept as an exact real), each receiving frac,
    which is 1.0 when the cutoff block fits entirely.  x_percent may be an
    array that broadcasts against world_surv[..., 0], giving t and frac
    that shape.  Each entry of groups holds the survival counts of a subset
    of the world's articles on the world's axis; its credit is
    #{c > v_t} + frac * #{c == v_t}, and credits stacks them on a leading
    axis.
    """
    world_surv = np.asarray(world_surv)
    if world_surv[..., -1].any():
        raise ValueError("survival counts must end in 0, past the largest value")
    groups = np.asarray(groups if len(groups) else np.empty((0, *world_surv.shape)))
    if groups.shape[1:] != world_surv.shape:
        raise ValueError("group survival counts must lie on the world's axis")
    q = np.divide(x_percent, 100.0) * world_surv[..., 0]
    # Largest position t with #{c >= v_t} >= q: world_surv is non-increasing
    # and ends in 0 < q, so t + 1 is the first position below q.
    t = (world_surv >= q[..., None]).argmin(axis=-1) - 1
    width = world_surv.shape[-1]
    at = t + np.arange(0, world_surv.size, width).reshape(world_surv.shape[:-1])  # flat
    above = world_surv.take(at + 1)
    frac = (q - above) / (world_surv.take(at) - above)
    at = at + np.arange(0, groups.size, world_surv.size).reshape((-1,) + (1,) * at.ndim)
    above = groups.take(at + 1)
    return t, frac, above + frac * (groups.take(at) - above)


def threshold_credit(counts, x_percent: float) -> tuple[int, float]:
    """Percentile cutoff count t and the fractional credit at the cutoff.

    See :func:`tie_credit` for the rule; counts holds one world's articles.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("world must contain at least one article")
    if not 0 < x_percent < 100:
        raise ValueError(f"x_percent must lie in (0, 100), got {x_percent}")
    t, frac, _ = tie_credit(histogram_survival(np.bincount(counts)), x_percent)
    return int(t), float(frac)


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
