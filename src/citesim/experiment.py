"""Seeded replicated sweeps over two-country citation worlds.

A configuration fixes the two country location parameters, their world
shares, the world size and the replicate count.  Each replicate draws a
full world (country 1, country 2, rest of world at the solved location)
as one histogram of citation counts per group, computes the five
indicators for both countries from those histograms, and the
per-replicate statistics are folded into empirical intervals, formula
intervals evaluated at the replicate-mean statistics, similarity scores
and formula-vs-model discrepancies.  Both folds work on whole arrays:
a block of replicates is reduced at once, and a configuration's summary
is a handful of small arrays (ConfigSummary).

Determinism contract: each configuration has one random stream, seeded
by hashing (master_seed, config_index, role); its replicates are drawn
from it in blocks of REPLICATE_BLOCK.  Sweep output is therefore
byte-identical for any execution order or process count.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .distribution import (LognormalParams, MixtureSpec, count_table, rest_of_world_location,
                           sample_histograms, table_top)
from .indicators import TOP_SHARES, histogram_survival, tie_credit
from .intervals import (empirical_limits, limit_discrepancies, log_mean_limits,
                        proportion_limits, similarities)

__all__ = [
    "INDICATOR_NAMES",
    "FORMULA_INDICATOR_NAMES",
    "STREAM_VERSION",
    "ParameterSet",
    "REPLICATE_STATISTICS",
    "ReplicateStats",
    "ConfigSummary",
    "Table1Cell",
    "Table2Row",
    "SweepReport",
    "derive_seed",
    "validate_grid",
    "generate_grid",
    "total_draws",
    "replicate_world",
    "replicate_statistics",
    "run_config",
    "run_sweep",
    "summarize",
]

log = logging.getLogger(__name__)

INDICATOR_NAMES = ("arith", "geo", "top1", "top10", "top50")
# Indicators with a closed-form interval to compare against the modelled one
# (no reliable formula exists for the arithmetic mean of this distribution).
FORMULA_INDICATOR_NAMES = ("geo", "top1", "top10", "top50")
# Rows of ReplicateStats.values: the five indicators in INDICATOR_NAMES
# order, the geometric mean as its ln(1 + c) mean, then the ln(1 + c) sd.
REPLICATE_STATISTICS = ("arith", "log_mean", "top1", "top10", "top50", "log_sd")

DEFAULT_MU_VALUES = tuple(round(0.9 + 0.02 * i, 10) for i in range(11))
DEFAULT_P_VALUES = (0.05, 0.1, 0.15, 0.2, 0.25)
DEFAULT_N_VALUES = (500, 1000, 5000, 10000, 50000)

# Version of the random streams, recorded in manifest.json.  2: one stream
# per configuration, drawing group histograms a block of replicates at a time.
STREAM_VERSION = 2
REPLICATE_BLOCK = 64  # bounds the histogram arrays held at once


@dataclass(frozen=True)
class ParameterSet:
    """One sweep configuration.

    `diagnostic=True` permits mu1 == mu2 (a no-difference sanity case whose
    similarity is undefined and excluded from summaries).
    """

    mu1: float
    mu2: float
    p1: float
    p2: float
    n_world: int
    sigma: float = 1.0
    mu_overall: float = 1.0
    replicates: int = 1000
    config_index: int = 0
    diagnostic: bool = False

    def __post_init__(self) -> None:
        if self.diagnostic:
            if self.mu1 > self.mu2:
                raise ValueError("mu1 must not exceed mu2")
        elif not self.mu1 < self.mu2:
            raise ValueError(
                "mu1 must be strictly below mu2; equal means are only valid "
                "with diagnostic=True"
            )
        if self.n_world < 1:
            raise ValueError(f"n_world must be positive, got {self.n_world}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be positive, got {self.replicates}")
        self.mixture()  # validates shares and sigma

    def mixture(self) -> MixtureSpec:
        return MixtureSpec(self.mu_overall, self.sigma, self.mu1, self.mu2, self.p1, self.p2)

    def country_sizes(self) -> tuple[int, int, int]:
        """Article counts (country1, country2, rest); shares are rounded
        half-up, which never engages on the default grid.

        Each country needs at least two articles for a sample standard
        deviation; smaller countries raise ValueError.
        """
        n1 = int(math.floor(self.p1 * self.n_world + 0.5))
        n2 = int(math.floor(self.p2 * self.n_world + 0.5))
        if min(n1, n2) < 2:
            raise ValueError(
                f"each country needs at least two articles per replicate, got "
                f"{n1} and {n2} (p1={self.p1:g}, p2={self.p2:g}, N={self.n_world})"
            )
        return n1, n2, self.n_world - n1 - n2


@dataclass(frozen=True)
class ReplicateStats:
    """Per-replicate statistics for one configuration.

    values has shape (2, 6, R), indexed by (country, statistic, replicate)
    with the statistics in REPLICATE_STATISTICS order.  log_mean and log_sd
    describe ln(1 + c); the offset geometric mean of a replicate is
    expm1(log_mean).  arith, log_mean and log_sd are (2, R) views; top is
    a (3, 2, R) view indexed by (share in TOP_SHARES, country).
    """

    n1: int
    n2: int
    values: np.ndarray

    @property
    def arith(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def log_mean(self) -> np.ndarray:
        return self.values[:, 1]

    @property
    def top(self) -> np.ndarray:
        return self.values[:, 2:5].swapaxes(0, 1)

    @property
    def log_sd(self) -> np.ndarray:
        return self.values[:, 5]


_SUMMARY_ARRAYS = ("mean", "empirical", "model", "formula", "discrepancy", "similarity")
_FORMULA_INDEX = {name: k for k, name in enumerate(FORMULA_INDICATOR_NAMES)}


@dataclass(frozen=True, eq=False)
class ConfigSummary:
    """Everything measured for one configuration, as small read-only arrays.

    Axes: country (2); indicator, in INDICATOR_NAMES order (5) or in
    FORMULA_INDICATOR_NAMES order (4); limit side (lower, upper).

    - mean (2, 5): each indicator's mean over the replicates;
    - empirical (2, 5, 2): the empirical interval of each indicator;
    - model (2, 4, 2) and formula (2, 4, 2): the modelled (empirical) and
      the closed-form interval on the comparison scale, which is ln(1 + c)
      for the geometric mean and the raw proportion for the top-X shares;
    - discrepancy (2, 4, 2): formula-vs-model limit discrepancies, as
      fractions of the modelled interval's width; NaN where that interval
      has zero width (the statistic was identical in every replicate);
    - similarity (5,): each indicator's similarity score; NaN when the
      two countries' means coincide and in diagnostic configurations.
    """

    params: ParameterSet
    mean: np.ndarray
    empirical: np.ndarray
    model: np.ndarray
    formula: np.ndarray
    discrepancy: np.ndarray
    similarity: np.ndarray

    def __post_init__(self) -> None:
        for name in _SUMMARY_ARRAYS:
            getattr(self, name).flags.writeable = False

    def __reduce__(self):
        # Through __init__, so an unpickled summary's arrays are read-only too.
        return ConfigSummary, (self.params, *(getattr(self, n) for n in _SUMMARY_ARRAYS))

    def to_dict(self) -> dict:
        ps = self.params
        mean, empirical = self.mean.tolist(), self.empirical.tolist()
        model, formula = self.model.tolist(), self.formula.tolist()
        discrepancy = [[[_nan_to_none(v) for v in limits] for limits in country]
                       for country in self.discrepancy.tolist()]
        countries = []
        for i in (0, 1):
            entry = {}
            for j, name in enumerate(INDICATOR_NAMES):
                k = _FORMULA_INDEX.get(name)
                entry[name] = {
                    "mean": mean[i][j],
                    "empirical": empirical[i][j],
                    "model": None if k is None else model[i][k],
                    "formula": None if k is None else formula[i][k],
                    "discrepancy": None if k is None else discrepancy[i][k],
                }
            countries.append(entry)
        return {
            "config_index": ps.config_index,
            "mu1": ps.mu1,
            "mu2": ps.mu2,
            "p1": ps.p1,
            "p2": ps.p2,
            "n_world": ps.n_world,
            "sigma": ps.sigma,
            "mu_overall": ps.mu_overall,
            "replicates": ps.replicates,
            "diagnostic": ps.diagnostic,
            "similarity": {name: _nan_to_none(v)
                           for name, v in zip(INDICATOR_NAMES, self.similarity.tolist())},
            "country1": countries[0],
            "country2": countries[1],
        }


def _nan_to_none(value: float):
    return None if value != value else value


def derive_seed(master_seed: int, config_index: int, *, stream_role: str = "world") -> int:
    """Collision-resistant 128-bit seed for one random stream.

    Pure function of its arguments, so identical streams are produced
    regardless of execution order, process count or platform.
    """
    # The 0 was a per-replicate field before stream version 2; it stays in
    # the hashed payload so that no stream moves.
    payload = f"{master_seed}:{config_index}:0:{stream_role}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")


def generate_grid(
    mu_values=None,
    p_values=None,
    n_values=None,
    sigma: float = 1.0,
    mu_overall: float = 1.0,
    replicates: int = 1000,
    include_equal_means: bool = False,
) -> list[ParameterSet]:
    """Ordered list of configurations: (mu1 < mu2) pairs x (p1, p2) x N.

    Ordering is lexicographic in (mu1, mu2, p1, p2, N).  The default grids
    produce exactly 6875 configurations.  Configurations whose rest-of-world
    location is infeasible are skipped with a warning rather than aborting.
    `include_equal_means` adds mu1 == mu2 diagnostic cases.
    """
    mu_values = DEFAULT_MU_VALUES if mu_values is None else tuple(mu_values)
    p_values = DEFAULT_P_VALUES if p_values is None else tuple(p_values)
    n_values = DEFAULT_N_VALUES if n_values is None else tuple(n_values)
    validate_grid(mu_values, p_values, n_values, sigma, mu_overall)

    sets: list[ParameterSet] = []
    index = 0
    for mu1 in mu_values:
        for mu2 in mu_values:
            if mu2 < mu1 or (mu2 == mu1 and not include_equal_means):
                continue
            for p1 in p_values:
                for p2 in p_values:
                    try:
                        rest_of_world_location(MixtureSpec(mu_overall, sigma, mu1, mu2, p1, p2))
                    except ValueError as exc:
                        log.warning(
                            "skipping infeasible configuration mu1=%g mu2=%g p1=%g p2=%g: %s",
                            mu1, mu2, p1, p2, exc,
                        )
                        continue
                    for n_world in n_values:
                        sets.append(
                            ParameterSet(
                                mu1=mu1,
                                mu2=mu2,
                                p1=p1,
                                p2=p2,
                                n_world=int(n_world),
                                sigma=sigma,
                                mu_overall=mu_overall,
                                replicates=replicates,
                                config_index=index,
                                diagnostic=mu1 == mu2,
                            )
                        )
                        index += 1
    return sets


def validate_grid(mu_values, p_values, n_values, sigma: float = 1.0,
                  mu_overall: float = 1.0) -> None:
    """Raise ValueError for a grid that could not run, before any sampling.

    Each value list must be non-empty, finite and strictly increasing.  Two
    corner configurations then bound the grid: the smallest shares at the
    smallest world give the smallest countries, the largest shares the
    largest p1 + p2.  Infeasible locations are left to generate_grid.
    """
    for name, values in (("mu_values", mu_values), ("p_values", p_values),
                         ("n_values", n_values)):
        if not values:
            raise ValueError(f"{name}: must not be empty")
        if any(not math.isfinite(v) for v in values):
            raise ValueError(f"{name}: values must be finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"{name}: values must be strictly increasing")
    for p in (p_values[0], p_values[-1]):
        ParameterSet(
            mu1=mu_values[0], mu2=mu_values[0], p1=p, p2=p, n_world=int(n_values[0]),
            sigma=sigma, mu_overall=mu_overall, diagnostic=True,
        ).country_sizes()


def total_draws(param_sets) -> int:
    """Total citation counts a sweep will generate (replicates x world size)."""
    return sum(ps.replicates * ps.n_world for ps in param_sets)


def _world_blocks(ps: ParameterSet, master_seed: int):
    """Yield (start, table_end, draws) for each block of REPLICATE_BLOCK
    replicates from the configuration's one stream: draws holds the
    sample_histograms (hist, tail) of country 1, country 2 and the rest."""
    locations = (ps.mu1, ps.mu2, rest_of_world_location(ps.mixture()))
    table_end = table_top(max(locations), ps.sigma)
    groups = [(LognormalParams(mu, ps.sigma), n) for mu, n in zip(locations, ps.country_sizes())]
    tables = [count_table(params, table_end) for params, _ in groups]
    rng = np.random.default_rng(derive_seed(master_seed, ps.config_index))
    for start in range(0, ps.replicates, REPLICATE_BLOCK):
        size = min(REPLICATE_BLOCK, ps.replicates - start)
        yield start, table_end, [sample_histograms(params, table, n, rng, size)
                                 for (params, n), table in zip(groups, tables)]


def _value_axis(table_end: int, draws) -> tuple[np.ndarray, np.ndarray]:
    """A block's histograms over one increasing axis of citation counts.

    The axis is the table's 0..table_end-1, then every distinct tail value
    drawn, so tail articles keep their exact counts.  The histograms
    (float64, exact for integers) have shape (4, B, axis size), stacked as
    (world, country 1, country 2, rest); the world is the sum of the others.
    """
    tails = np.concatenate([tail for _, tail in draws]) - 1
    extra = np.unique(tails) if tails.size else tails
    blocks = draws[0][0].shape[0]
    hists = np.zeros((4, blocks, table_end + extra.size))
    for group, (hist, _) in enumerate(draws, start=1):
        hists[group, :, :table_end] = hist[:, :table_end]
    if tails.size:
        # Row group * blocks + r of the flattened histograms is replicate r of
        # that group; tails lists each group's values replicate by replicate.
        per_row = np.concatenate([hist[:, table_end] for hist, _ in draws])
        np.add.at(hists.reshape(4 * blocks, -1),
                  (np.repeat(np.arange(blocks, 4 * blocks), per_row),
                   table_end + np.searchsorted(extra, tails)), 1.0)
    np.sum(hists[1:], axis=0, out=hists[0])
    return np.concatenate([np.arange(table_end, dtype=np.float64), extra]), hists


def replicate_world(ps: ParameterSet, master_seed: int, replicate_index: int) -> np.ndarray:
    """Reconstruct the citation counts of one replicate's world.

    Articles [0, n1) belong to country 1, [n1, n1+n2) to country 2 and the
    remainder to the rest of the world, each group in increasing order.
    Useful for inspecting the exact sample behind any reported statistic.
    """
    if not 0 <= replicate_index < ps.replicates:
        raise ValueError(f"replicate_index must lie in [0, {ps.replicates})")
    for start, table_end, draws in _world_blocks(ps, master_seed):
        if replicate_index < start + REPLICATE_BLOCK:
            values, hists = _value_axis(table_end, draws)
            row = replicate_index - start
            return np.concatenate([np.repeat(values, h[row].astype(np.int64))
                                   for h in hists[1:]]).astype(np.int64)


def replicate_statistics(ps: ParameterSet, master_seed: int) -> ReplicateStats:
    """Per-replicate indicator statistics for both countries.

    For each replicate: per-country arithmetic mean, mean and sample
    standard deviation of ln(1 + c), and the three top-X shares computed
    against the full world sample with proportional tie credit.  Each
    block of replicates is reduced in one pass: one survival count over
    the stacked (world, country 1, country 2) histograms and one tie
    credit over all three shares.
    """
    n1, n2, _ = ps.country_sizes()
    sizes = np.array([[n1], [n2]])
    shares = np.array(TOP_SHARES)[:, None]  # broadcasts against the replicates
    values = np.empty((2, len(REPLICATE_STATISTICS), ps.replicates))

    for start, table_end, draws in _world_blocks(ps, master_seed):
        axis, hists = _value_axis(table_end, draws)
        block = slice(start, start + hists.shape[1])
        surv = histogram_survival(hists[:3])
        _, _, credits = tie_credit(surv[0], shares, surv[1:3])
        values[:, 2:5, block] = credits / sizes[:, :, None]
        logs = np.log1p(axis)
        countries = hists[1:3]
        values[:, 0, block] = countries @ axis / sizes
        m = countries @ logs / sizes
        values[:, 1, block] = m
        # two-pass-free sample sd; magnitudes here keep it well conditioned
        ss = countries @ (logs * logs) - sizes * m * m
        values[:, 5, block] = np.sqrt(np.maximum(ss, 0.0) / (sizes - 1))

    return ReplicateStats(n1=n1, n2=n2, values=values)


def run_config(ps: ParameterSet, master_seed: int, level: float = 0.95) -> ConfigSummary:
    """Simulate one configuration and summarise its replicate statistics.

    The replicate statistics of both countries form one (country,
    statistic, replicate) array, which is sorted once and averaged once;
    only the offset geometric mean is averaged apart, from expm1(log_mean).
    The t and normal quantiles are taken once, for both countries.
    """
    rs = replicate_statistics(ps, master_seed)
    sizes = np.array([rs.n1, rs.n2])
    means = rs.values.sum(axis=-1) / ps.replicates  # np.mean, bit for bit
    # The geometric mean's model interval is on the ln(1 + c) scale.
    limits = empirical_limits(rs.values[:, :len(INDICATOR_NAMES)], level)
    mean = means[:, :len(INDICATOR_NAMES)].copy()
    mean[:, 1] = np.expm1(rs.log_mean).sum(axis=-1) / ps.replicates
    # expm1 is monotone, so the offset-scale empirical interval is the
    # transform of the log-scale one.
    empirical = limits.copy()
    empirical[:, 1] = [[math.expm1(v) for v in pair] for pair in limits[:, 1].tolist()]
    model = limits[:, 1:]
    formula = np.concatenate([
        log_mean_limits(means[:, 1], means[:, 5], sizes, level)[:, None],
        proportion_limits(means[:, 2:5], sizes[:, None], level),
    ], axis=1)
    if ps.mu1 == ps.mu2:
        # No population difference to test for; the score is undefined.
        similarity = np.full(len(INDICATOR_NAMES), math.nan)
    else:
        similarity = similarities(mean, empirical)
    return ConfigSummary(ps, mean, empirical, model, formula,
                         limit_discrepancies(model, formula), similarity)


def _run_config_task(args) -> ConfigSummary:
    ps, master_seed, level = args
    try:
        return run_config(ps, master_seed, level)
    except Exception as exc:
        # Pool workers lose the caller's context; name the configuration.
        raise RuntimeError(
            f"config {ps.config_index} (mu1={ps.mu1:g} mu2={ps.mu2:g} p1={ps.p1:g} "
            f"p2={ps.p2:g} N={ps.n_world}): {exc}"
        ) from exc


def run_sweep(
    param_sets,
    master_seed: int,
    processes: int = 1,
    level: float = 0.95,
) -> list[ConfigSummary]:
    """Run every configuration and return summaries in input order.

    processes <= 0 selects the CPU count.  Results are byte-identical for
    any process count: each configuration is an isolated work unit seeded
    from (master_seed, config_index) and the fold order is fixed.
    """
    param_sets = list(param_sets)
    if processes <= 0:
        processes = os.cpu_count() or 1
    processes = min(processes, max(len(param_sets), 1))
    tasks = [(ps, master_seed, level) for ps in param_sets]
    step = max(len(tasks) // 20, 1)
    chunksize = max(len(tasks) // (processes * 8), 1)
    results = []
    started = time.monotonic()
    with (multiprocessing.get_context().Pool(processes) if processes > 1
          else contextlib.nullcontext()) as pool:
        summaries = (pool.imap(_run_config_task, tasks, chunksize=chunksize) if pool
                     else map(_run_config_task, tasks))
        for done, summary in enumerate(summaries, start=1):
            results.append(summary)
            if done % step == 0 or done == len(tasks):
                rate = done / max(time.monotonic() - started, 1e-9)
                log.info("completed %d/%d configurations (%.1f configs/s, ETA %.0f s)",
                         done, len(tasks), rate, (len(tasks) - done) / rate)
    return results


@dataclass(frozen=True)
class Table1Cell:
    """Configurations whose similarity score fell below 1, out of total."""

    count: int
    total: int

    @property
    def percent(self) -> int:
        if self.total == 0:
            return 0
        return int(math.floor(100.0 * self.count / self.total + 0.5))


@dataclass(frozen=True)
class Table2Row:
    """Distribution of formula-vs-model discrepancies over configurations."""

    minimum: float
    maximum: float
    mean: float
    sd: float
    n: int


@dataclass(frozen=True)
class SweepReport:
    """Aggregated sweep output.

    table1 maps (n_world, indicator) to a similarity-below-1 count;
    table2 maps (indicator, side, n_world) to discrepancy statistics, where
    the per-configuration value averages the two countries.
    """

    table1: dict[tuple[int, str], Table1Cell]
    table2: dict[tuple[str, str, int], Table2Row]
    records: list[ConfigSummary] = field(default_factory=list)


def summarize(records) -> SweepReport:
    """Fold per-configuration summaries into the two report tables.

    Diagnostic (equal-means) configurations are excluded from both tables;
    NaN discrepancies (degenerate modelled intervals) are skipped.
    """
    records = list(records)
    counted = [r for r in records if not r.params.diagnostic]
    n_values = sorted({r.params.n_world for r in counted})

    table1: dict[tuple[int, str], Table1Cell] = {}
    table2: dict[tuple[str, str, int], Table2Row] = {}
    for n_world in n_values:
        rows = [r for r in counted if r.params.n_world == n_world]
        hits = np.count_nonzero(np.array([r.similarity for r in rows]) < 1.0, axis=0)
        for name, count in zip(INDICATOR_NAMES, hits.tolist()):
            table1[(n_world, name)] = Table1Cell(count, len(rows))
        # A configuration's value is the mean of its countries' non-NaN
        # discrepancies, sum(pair) / len(pair); it has none when both are NaN.
        disc = np.array([r.discrepancy for r in rows])
        kept = ~np.isnan(disc)
        pairs = np.where(kept, disc, 0.0).sum(axis=1)
        kept = kept.sum(axis=1)
        for k, name in enumerate(FORMULA_INDICATOR_NAMES):
            for side_index, side in enumerate(("lower", "upper")):
                counts = kept[:, k, side_index]
                arr = pairs[:, k, side_index][counts > 0] / counts[counts > 0]
                if not arr.size:
                    continue
                table2[(name, side, n_world)] = Table2Row(
                    minimum=float(arr.min()),
                    maximum=float(arr.max()),
                    mean=float(arr.mean()),
                    sd=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                    n=arr.size,
                )
    return SweepReport(table1=table1, table2=table2, records=records)
