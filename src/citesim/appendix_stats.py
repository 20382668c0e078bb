"""Rank-based two-sample tests and the unequal-size proportion pathology.

Demonstrates why Mann-Whitney / Kolmogorov-Smirnov tests are unsuitable for
comparing top-X% shares of differently sized countries: two countries with
identical citation distributions but different article counts produce
share distributions the tests reject as different, purely because the
attainable proportions differ.  Includes the deterministic worked example
(frequency table of yearly top-1% shares) and a live replicated demo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import kolmogorov, ndtr
from .experiment import ParameterSet, check_configurations, replicate_statistics

__all__ = [
    "FrequencyTable",
    "RankSums",
    "MannWhitneyResult",
    "KSResult",
    "DemoReport",
    "rank_sums_from_frequency",
    "mann_whitney_u",
    "ks_two_sample",
    "table4_example",
    "APPENDIX_DEMO",
    "appendix_config",
    "appendix_demo",
]

# The appendix demo's fixed inputs: country sizes, world size and the
# location both countries share.
APPENDIX_DEMO = {"sample1_size": 75, "sample2_size": 25, "world_size": 500, "mu": 0.9}


@dataclass(frozen=True)
class FrequencyTable:
    """Two groups' observation frequencies over a shared value grid.

    rows are (value, group1_freq, group2_freq) with strictly increasing
    values; a row may have zero frequency in one group.
    """

    rows: tuple[tuple[float, int, int], ...]

    def __post_init__(self) -> None:
        rows = tuple((float(v), int(f1), int(f2)) for v, f1, f2 in self.rows)
        if not rows:
            raise ValueError("frequency table must have at least one row")
        values = [r[0] for r in rows]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        if any(r[1] < 0 or r[2] < 0 for r in rows):
            raise ValueError("frequencies must be non-negative")
        if sum(r[1] for r in rows) == 0 or sum(r[2] for r in rows) == 0:
            raise ValueError("each group needs at least one observation")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_samples(cls, a, b) -> "FrequencyTable":
        """The frequency table of two samples over their distinct values."""
        a = np.asarray(a, dtype=np.float64)
        values, index = np.unique(np.concatenate([a, np.asarray(b, dtype=np.float64)]),
                                  return_inverse=True)
        f1 = np.bincount(index[:a.size], minlength=values.size)
        f2 = np.bincount(index[a.size:], minlength=values.size)
        return cls(rows=tuple(zip(values.tolist(), f1.tolist(), f2.tolist())))

    @property
    def frequencies(self) -> np.ndarray:
        """The (rows, 2) array of the two groups' frequencies."""
        return np.array([r[1:] for r in self.rows], dtype=np.int64)

    @property
    def group_sizes(self) -> tuple[int, int]:
        return sum(r[1] for r in self.rows), sum(r[2] for r in self.rows)


@dataclass(frozen=True)
class RankSums:
    group1: float
    group2: float
    average_ranks: tuple[float, ...]


@dataclass(frozen=True)
class MannWhitneyResult:
    u: float
    z: float
    p: float


@dataclass(frozen=True)
class KSResult:
    d: float
    p: float


@dataclass(frozen=True)
class DemoReport:
    """Outcome of the equal-strength, different-size comparison."""

    mean1: float
    mean2: float
    mw_p: float
    ks_p: float
    zero_prop1: float
    zero_prop2: float


def rank_sums_from_frequency(table: FrequencyTable) -> RankSums:
    """Average rank per value block and the per-group rank sums.

    Each value occupies a contiguous block of combined ranks; every tied
    observation receives the block midpoint, and a group's rank sum is the
    frequency-weighted sum of those midpoints.
    """
    freq = table.frequencies
    block = freq.sum(axis=1)
    midpoints = np.cumsum(block) - (block - 1) / 2.0
    group1, group2 = (midpoints @ freq).tolist()
    return RankSums(group1, group2, tuple(midpoints.tolist()))


def mann_whitney_u(a, b) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test via the normal approximation.

    Ties share average ranks and the variance carries the standard tie
    correction.  U is reported for the first sample.  When every value in
    both samples is identical the variance vanishes and p = 1 by
    convention.
    """
    table = FrequencyTable.from_samples(a, b)
    n1, n2 = table.group_sizes
    n = n1 + n2
    u = rank_sums_from_frequency(table).group1 - n1 * (n1 + 1) / 2.0
    tie_sizes = table.frequencies.sum(axis=1)
    tie_term = float((tie_sizes.astype(np.float64) ** 3 - tie_sizes).sum()) / (n * (n - 1.0))
    variance = n1 * n2 / 12.0 * ((n + 1.0) - tie_term)
    if variance <= 0.0:
        return MannWhitneyResult(u=u, z=0.0, p=1.0)
    z = (u - n1 * n2 / 2.0) / math.sqrt(variance)
    p = min(2.0 * float(ndtr(-abs(z))), 1.0)
    return MannWhitneyResult(u=u, z=z, p=p)


def ks_two_sample(a, b) -> KSResult:
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p value.

    D is the supremum difference of the two empirical CDFs, which step
    only at the samples' distinct values; the p value is the Kolmogorov
    survival function at sqrt(n1 n2 / (n1 + n2)) * D.
    """
    table = FrequencyTable.from_samples(a, b)
    n1, n2 = table.group_sizes
    cumulative = np.cumsum(table.frequencies, axis=0)
    d = float(np.abs(cumulative[:, 0] / n1 - cumulative[:, 1] / n2).max())
    effective_n = math.sqrt(n1 * n2 / (n1 + n2))
    p = float(kolmogorov(effective_n * d))
    return KSResult(d=d, p=min(max(p, 0.0), 1.0))


def table4_example() -> FrequencyTable:
    """Worked yearly top-1% share frequencies for two equal-strength countries.

    Country 1 publishes 75 articles a year, country 2 publishes 25; both
    draw from the same distribution over 1000 simulated years.  Values are
    the attainable shares (ties at the percentile boundary excluded), so
    3/75 coincides with 1/25 and 6/75 with 2/25.
    """
    return FrequencyTable(
        rows=(
            (0.0, 534, 815),
            (1 / 75, 359, 0),
            (2 / 75, 94, 0),
            (3 / 75, 11, 174),
            (4 / 75, 2, 0),
            (6 / 75, 0, 11),
        )
    )


def appendix_config(sigma: float = 1.0, mu_overall: float = 1.0,
                    replicates: int = 1000) -> ParameterSet:
    """The appendix demo's configuration: APPENDIX_DEMO's sizes and location.

    Raises ValueError if check_configurations rejects it or ps.mu0 does not exist.
    """
    demo, mu = APPENDIX_DEMO, APPENDIX_DEMO["mu"]
    ps = ParameterSet(mu1=mu, mu2=mu, p1=demo["sample1_size"] / demo["world_size"],
                      p2=demo["sample2_size"] / demo["world_size"], n_world=demo["world_size"],
                      sigma=sigma, mu_overall=mu_overall, replicates=replicates)
    check_configurations([ps], [mu, ps.mu0])
    return ps


def appendix_demo(ps: ParameterSet, seed: int) -> DemoReport:
    """Replicated two-country run with identical locations but unequal sizes.

    ps is appendix_config's configuration.  Both countries draw from the
    same distribution; per replicate the top-1% share of each country is
    recorded (full proportional tie credit, same pipeline as the sweeps).
    Reports the two share means, Mann-Whitney and KS p values, and each
    country's fraction of replicates with no top-1% credit at all.
    """
    share1, share2 = replicate_statistics(ps, seed)[:, 2]  # the top-1% row
    return DemoReport(
        mean1=float(share1.mean()),
        mean2=float(share2.mean()),
        mw_p=mann_whitney_u(share1, share2).p,
        ks_p=ks_two_sample(share1, share2).p,
        zero_prop1=float((share1 == 0.0).mean()),
        zero_prop2=float((share2 == 0.0).mean()),
    )
