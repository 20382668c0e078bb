"""Independent oracles shared across test modules.

Each oracle is written from the paper's formulas with plain `math`,
`numpy` and `scipy.stats`, and calls nothing in `citesim.intervals` or
`citesim.indicators`, so a fault in the sweep's path cannot also sit in
the reference it is checked against:

- `credit_oracle` walks the proportional tie rule value by value with
  plain Python; it shares no code with `indicators.tie_credit`.
- `country_indicators` recomputes one replicate's five indicators from
  its article counts, taking the top-X credits from `credit_oracle`; it
  shares no code with the block reduction of `replicate_statistics`.
- `replicate_world` expands one replicate's raw `sample_histograms`
  draws into article counts itself; it shares no code with
  `replicate_statistics` or `experiment._value_axis`, its exact path.
- `empirical_oracle`, `t_interval_oracle`, `normal_interval_oracle`,
  `similarity_oracle` and `discrepancy_oracle` evaluate one case of each
  interval formula on plain floats, with the quantiles from
  `scipy.stats` unless the caller passes one in; they share no code with
  `citesim.intervals`.
- `mixture_mean` is the continuous-lognormal mixture mean; it shares no
  code with `distribution.rest_of_world_location`, which solves it.
- `expand_frequencies` lists the two samples of a frequency table, so
  scipy can rank them; it shares no code with `appendix_stats`, whose
  one rank routine is `rank_sums_from_frequency`.
- `pmf` and `cdf` give the discretised lognormal from `scipy.stats`'
  normal upper tail; they share no code with `distribution.count_table`.
- `chi_square_gof` checks a sampler's histograms against `pmf`/`cdf`.

`fake_summary` is no oracle: it builds a `ConfigSummary` from chosen
similarity scores and discrepancies, without sampling, for the tests of
the fold into tables and of the artifact writer.
"""

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats as sps

from citesim.experiment import (FORMULA_INDICATOR_NAMES, INDICATOR_NAMES, ConfigSummary,
                                ParameterSet, _world_blocks)
from citesim.indicators import TOP_SHARES

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
    mine = world.membership == country
    if not mine.any():
        raise ValueError(f"country {country} has no articles in this world")
    # fsum is exactly rounded, so the shares do not depend on article order.
    tops = [math.fsum(np.asarray(credit_oracle(world.counts.tolist(), x))[mine]) / mine.sum()
            for x in TOP_SHARES]
    counts = world.counts[mine]
    return IndicatorSet(arithmetic_mean(counts), geometric_mean_offset(counts), *tops)


def credit_oracle(counts, x_percent):
    """Literal walk of the proportional tie-credit rule.

    Visits distinct values from the most cited down, granting each value
    block min(remaining slots, block size) credit shared equally.
    """
    counts = list(counts)
    remaining = x_percent / 100.0 * len(counts)
    credit_by_value = {}
    for value, block in sorted(Counter(counts).items(), reverse=True):
        take = min(max(remaining, 0.0), block)
        credit_by_value[value] = take / block
        remaining -= block
    return [credit_by_value[c] for c in counts]


def replicate_world(ps, master_seed, replicate_index):
    """Citation counts of one replicate's world, from its raw histogram draws.

    Articles [0, n1) belong to country 1, [n1, n1 + n2) to country 2 and
    the rest to the rest of the world.  Within a group, the table's counts
    come in increasing order and the values drawn above the table follow.
    """
    if not 0 <= replicate_index < ps.replicates:
        raise ValueError(f"replicate_index must lie in [0, {ps.replicates})")
    for start, top, draws in _world_blocks(ps, master_seed):
        row = replicate_index - start
        if row < draws[0][0].shape[0]:
            groups = []
            for hist, tail in draws:
                # tail lists the values above the table row by row.
                first = int(hist[:row, top].sum())
                above = tail[first:first + hist[row, top]]
                groups.append(np.concatenate([np.repeat(np.arange(top), hist[row, :top]),
                                              above - 1]))
            return np.concatenate(groups)


def empirical_oracle(values):
    """95% order-statistic interval: the r-th smallest and r-th largest of
    the R values, r = ceil(0.025 * R), computed in integers as ceil(R / 40)."""
    values = sorted(float(v) for v in values)
    r = -(-len(values) // 40)
    return values[r - 1], values[-r]


def t_interval_oracle(mean, sd, n, quantile=None):
    """95% t interval mean +/- t(0.975, n - 1) * sd / sqrt(n); the quantile
    is scipy.stats' unless one is given."""
    if quantile is None:
        quantile = sps.t.ppf(0.975, n - 1)
    half = quantile * sd / math.sqrt(n)
    return mean - half, mean + half


def normal_interval_oracle(p, n, quantile=None):
    """95% normal-approximation interval p +/- z(0.975) * sqrt(p(1 - p) / n);
    the quantile is scipy.stats' unless one is given."""
    if quantile is None:
        quantile = sps.norm.ppf(0.975)
    half = quantile * math.sqrt(p * (1.0 - p) / n)
    return p - half, p + half


def similarity_oracle(mean_a, interval_a, mean_b, interval_b):
    """((u1 - m1) + (m2 - l2)) / (2 (m2 - m1)), group 1 having the smaller
    mean (the first on ties); NaN when the means coincide."""
    (m1, (_, u1)), (m2, (l2, _)) = sorted([(mean_a, interval_a), (mean_b, interval_b)],
                                          key=lambda group: group[0])
    if m1 == m2:
        return math.nan
    return ((u1 - m1) + (m2 - l2)) / (2.0 * (m2 - m1))


def discrepancy_oracle(model, formula):
    """((model.lower - formula.lower) / w, (formula.upper - model.upper) / w)
    with w the model interval's width; NaN on both sides when w is 0."""
    width = model[1] - model[0]
    if width == 0.0:
        return math.nan, math.nan
    return (model[0] - formula[0]) / width, (formula[1] - model[1]) / width


def mixture_mean(mu0, mu1, mu2, p1, p2, sigma):
    """Continuous-lognormal mean of shifted counts in the three-population
    mixture: p1*e^(mu1+s) + p2*e^(mu2+s) + (1-p1-p2)*e^(mu0+s), s = sigma^2/2,
    with mu0 the rest-of-world location."""
    s = 0.5 * sigma**2
    return (p1 * math.exp(mu1 + s) + p2 * math.exp(mu2 + s)
            + (1.0 - p1 - p2) * math.exp(mu0 + s))


def expand_frequencies(table):
    """The two samples a frequency table encodes, each value repeated by
    its frequency in that group."""
    group1 = [value for value, f1, _ in table.rows for _ in range(f1)]
    group2 = [value for value, _, f2 in table.rows for _ in range(f2)]
    return np.array(group1), np.array(group2)


def _upper(x, mu, sigma):
    """Lognormal mass above x over the mass above 0.5."""
    return sps.norm.sf((np.log(x) - mu) / sigma) / sps.norm.sf((math.log(0.5) - mu) / sigma)


def pmf(k, mu, sigma):
    """P(x = k) of the discretised lognormal: the lognormal mass on
    [k - 0.5, k + 0.5] over the mass on [0.5, inf)."""
    k = np.asarray(k, dtype=np.float64)
    return _upper(k - 0.5, mu, sigma) - _upper(k + 0.5, mu, sigma)


def cdf(k, mu, sigma):
    """P(x <= k) of the discretised lognormal."""
    return 1.0 - _upper(np.asarray(k, dtype=np.float64) + 0.5, mu, sigma)


def chi_square_gof(table_counts, tail, mu, sigma, top_bin=100):
    """Chi-square statistic/dof of a histogram of draws against `pmf`.

    table_counts[k - 1] counts the draws of x = k, and tail lists the
    draws above the last table value, as `sample_histograms` gives them
    (its histogram without the last cell).  Bins are {1, ..., top_bin}
    plus one tail bin for everything above.
    """
    table_counts = np.asarray(table_counts)
    tail = np.asarray(tail, dtype=np.int64)
    bins = top_bin + 2
    values = np.minimum(np.arange(1, table_counts.size + 1), top_bin + 1)
    observed = (np.bincount(values, weights=table_counts, minlength=bins)
                + np.bincount(np.minimum(tail, top_bin + 1), minlength=bins))[1:]
    n = table_counts.sum() + tail.size
    ks = np.arange(1, top_bin + 1)
    expected = pmf(ks, mu, sigma) * n
    tail_expected = (1.0 - cdf(top_bin, mu, sigma)) * n
    stat = float(((observed[:top_bin] - expected) ** 2 / expected).sum())
    stat += float((observed[top_bin] - tail_expected) ** 2 / tail_expected)
    return stat, top_bin


def fake_summary(n_world, sims, discrepancy=(0.1, -0.05)):
    """A ConfigSummary at world size n_world with the similarity scores sims
    (by indicator name) and the same (lower, upper) discrepancy in every
    formula cell; its other arrays are placeholders."""
    ps = ParameterSet(mu1=0.9, mu2=1.0, p1=0.1, p2=0.1, n_world=n_world, replicates=1000)
    n_formula = len(FORMULA_INDICATOR_NAMES)
    unit = np.tile([0.0, 1.0], (2, n_formula, 1))
    return ConfigSummary(
        ps,
        mean=np.full((2, len(INDICATOR_NAMES)), 0.5),
        empirical=np.tile([0.0, 1.0], (2, len(INDICATOR_NAMES), 1)),
        model=unit,
        formula=unit.copy(),
        discrepancy=np.tile(np.asarray(discrepancy, dtype=float), (2, n_formula, 1)),
        similarity=np.array([sims[name] for name in INDICATOR_NAMES]),
    )
