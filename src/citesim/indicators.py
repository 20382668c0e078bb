"""Top-X% credit of articles inside a simulated world.

A country's share of the world's top 1%, 10% and 50% most cited articles
is its summed credit divided by its article count.  Articles tied at a
percentile cutoff receive a proportional fraction of the remaining slots
(Waltman & Schreiber, JASIST 64(2), 2013), so the total credit handed out
for the top X% is exactly X/100 * N.  Everything is computed from
histograms over one increasing axis of values, so a group's credit needs
only its own histogram and the world's.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TOP_SHARES",
    "tie_credit",
]

TOP_SHARES = (1.0, 10.0, 50.0)


def tie_credit(world: np.ndarray, x_percent, groups=()) -> tuple:
    """Cutoff, tie fraction and each group's summed credit for the top x_percent.

    world counts the whole world's articles at V increasing values
    v_0 < v_1 < ... (N = world.sum(axis=-1)); leading axes are independent
    worlds.  Articles above the cutoff value v_t fall fully inside the top
    x_percent; the articles at v_t share the remaining q - #{c > v_t} slots
    equally (q = x_percent/100 * N, kept as an exact real), each receiving
    frac, which is 1.0 when the cutoff block fits entirely.  x_percent may
    be an array that broadcasts against N, giving t and frac that shape.
    Each entry of groups is the histogram of a subset of the world's
    articles on the world's axis; its credit is
    #{c > v_t} + frac * #{c == v_t}, and credits stacks them on a leading
    axis.
    """
    world = np.asarray(world)
    groups = np.asarray(groups if len(groups) else np.empty((0, *world.shape), world.dtype))
    if groups.shape[1:] != world.shape:
        raise ValueError("group histograms must lie on the world's axis")
    # below[..., j] = #{c < v_j} for j = 0..V, so #{c >= v_j} = n - below[..., j].
    below = _below(world, world.shape[-1])
    n = below[..., -1]
    q = np.divide(x_percent, 100.0) * n
    # The cutoff is the largest position t with n - below[t] >= q, that is
    # below[t] <= n - ceil(q) in integers: below is non-decreasing and ends
    # in n > n - ceil(q), so t + 1 is the first position above that.
    t = (below > (n - np.ceil(q).astype(below.dtype))[..., None]).argmax(axis=-1) - 1
    at = _flat(t, below.shape)
    under, upto = below.take(at), below.take(at + 1)  # #{c < v_t}, #{c <= v_t}
    above = n - upto
    frac = (q - above) / (upto - under)
    # A group needs its counts below v_t and v_t+1 only: a prefix of its axis,
    # which keeps the arrays small however far the axis reaches.
    below = _below(groups, int(t.max(initial=0)) + 1)
    at = _flat(t, below.shape[1:]) + np.arange(
        0, below.size, math.prod(below.shape[1:])).reshape((-1,) + (1,) * t.ndim)
    sizes = groups.sum(axis=-1).reshape(groups.shape[:1] + (1,) * (t.ndim - n.ndim) + n.shape)
    under, upto = below.take(at), below.take(at + 1)
    return t, frac, (sizes - upto) + frac * (upto - under)


def _below(hist: np.ndarray, cells: int) -> np.ndarray:
    """Counts below each of the first cells + 1 positions of hist's axis,
    #{c < v_j} for j = 0..cells."""
    below = np.zeros(hist.shape[:-1] + (cells + 1,), hist.dtype)
    np.cumsum(hist[..., :cells], axis=-1, out=below[..., 1:])
    return below


def _flat(t: np.ndarray, shape: tuple) -> np.ndarray:
    """Flat index of position t along the last axis of each row of an array
    of this shape; t broadcasts against the rows."""
    return t + np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1])
