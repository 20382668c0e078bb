"""Independent oracles shared across test modules.

These deliberately avoid the production code paths: the credit oracle
walks the tie rule value by value with plain Python lists, the
per-article indicator set recomputes a replicate from its article counts
rather than from survival counts, and the goodness-of-fit helper only
consumes the closed-form pmf/cdf it is checking a sampler against.
"""

from dataclasses import asdict, dataclass

import numpy as np

from citesim.distribution import cdf, pmf
from citesim.indicators import TOP_SHARES, threshold_credit

COUNTRY_1, COUNTRY_2, REST = 0, 1, 2


@dataclass(frozen=True)
class WorldReplicate:
    """One simulated world: citation counts plus per-article membership."""

    counts: np.ndarray
    membership: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        membership = np.asarray(self.membership, dtype=np.int64)
        if counts.shape != membership.shape:
            raise ValueError("counts and membership must have the same length")
        if counts.size and counts.min() < 0:
            raise ValueError("citation counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "membership", membership)

    @classmethod
    def from_groups(cls, country1, country2, rest) -> "WorldReplicate":
        groups = [np.asarray(g, dtype=np.int64) for g in (country1, country2, rest)]
        labels = [COUNTRY_1, COUNTRY_2, REST]
        counts = np.concatenate(groups)
        membership = np.concatenate(
            [np.full(g.size, lab, dtype=np.int64) for g, lab in zip(groups, labels)]
        )
        return cls(counts, membership)


@dataclass(frozen=True)
class IndicatorSet:
    """The five indicator values for one country in one world replicate."""

    arith: float
    geo: float
    top1: float
    top10: float
    top50: float

    def by_name(self) -> dict:
        return asdict(self)


def arithmetic_mean(counts) -> float:
    """Plain mean of citation counts."""
    counts = np.asarray(counts)
    if counts.size == 0:
        raise ValueError("cannot average an empty sample")
    return float(counts.mean())


def geometric_mean_offset(counts) -> float:
    """Geometric mean with a +1 offset so uncited articles contribute.

    Computed as exp(mean(ln(1 + c))) - 1, always in log space.
    """
    counts = np.asarray(counts)
    if counts.size == 0:
        raise ValueError("cannot average an empty sample")
    return float(np.expm1(np.log1p(counts).mean()))


def country_indicators(world: WorldReplicate, country: int) -> IndicatorSet:
    """All five indicators for one country's articles within the world.

    Percentile cutoffs are taken over the full world sample; the country's
    top-X share is its summed per-article credit divided by its article count.
    """
    mine = world.counts[world.membership == country]
    if mine.size == 0:
        raise ValueError(f"country {country} has no articles in this world")
    tops = []
    for x_percent in TOP_SHARES:
        t, frac = threshold_credit(world.counts, x_percent)
        credit = float((mine > t).sum()) + frac * float((mine == t).sum())
        tops.append(credit / mine.size)
    return IndicatorSet(arithmetic_mean(mine), geometric_mean_offset(mine), *tops)


def credit_oracle(counts, x_percent):
    """Literal walk of the proportional tie-credit rule.

    Visits distinct values from the most cited down, granting each value
    block min(remaining slots, block size) credit shared equally.
    """
    counts = list(counts)
    remaining = x_percent / 100.0 * len(counts)
    credit_by_value = {}
    for value in sorted(set(counts), reverse=True):
        block = counts.count(value)
        take = min(max(remaining, 0.0), block)
        credit_by_value[value] = take / block
        remaining -= block
    return [credit_by_value[c] for c in counts]


def chi_square_gof(shifted_draws, params, top_bin=100):
    """Chi-square statistic/dof of draws against the closed-form pmf.

    Bins are {1, ..., top_bin} plus one tail bin for everything above.
    """
    shifted = np.asarray(shifted_draws)
    n = shifted.size
    ks = np.arange(1, top_bin + 1)
    expected = pmf(ks, params) * n
    tail_expected = (1.0 - cdf(top_bin, params)) * n
    observed = np.bincount(np.minimum(shifted, top_bin + 1), minlength=top_bin + 2)[1:]
    stat = float(((observed[:top_bin] - expected) ** 2 / expected).sum())
    stat += float((observed[top_bin] - tail_expected) ** 2 / tail_expected)
    return stat, top_bin
