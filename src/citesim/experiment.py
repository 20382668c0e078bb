"""Seeded replicated sweeps over two-country citation worlds.

A configuration fixes the two country location parameters, their world
shares, the world size and the replicate count.  Each replicate draws a
full world (country 1, country 2, rest of world at the solved location)
as one histogram of citation counts per group, computes the five
indicators for both countries from those histograms, and the
per-replicate statistics are folded into empirical intervals, formula
intervals evaluated at the replicate-mean statistics, similarity scores
and formula-vs-model discrepancies.

Determinism contract: each configuration has one random stream, seeded
by hashing (master_seed, config_index, 0, role); its replicates are drawn
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
from dataclasses import dataclass, field

import numpy as np

from .distribution import (LognormalParams, MixtureSpec, count_table, rest_of_world_location,
                           sample_histograms, table_top)
from .indicators import TOP_SHARES, histogram_survival, tie_credit
from .intervals import (
    Interval,
    SimilarityInput,
    empirical_interval,
    limit_discrepancy,
    log_mean_interval,
    proportion_interval,
    similarity,
)

__all__ = [
    "INDICATOR_NAMES",
    "FORMULA_INDICATOR_NAMES",
    "STREAM_VERSION",
    "ParameterSet",
    "ReplicateStats",
    "FormulaComparison",
    "IndicatorSummary",
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

    arith/log_mean/log_sd have shape (2, R) indexed by country;
    top has shape (3, 2, R) indexed by (share in TOP_SHARES, country).
    log_mean and log_sd describe ln(1 + c); the offset geometric mean of a
    replicate is expm1(log_mean).
    """

    n1: int
    n2: int
    arith: np.ndarray
    log_mean: np.ndarray
    log_sd: np.ndarray
    top: np.ndarray


@dataclass(frozen=True)
class FormulaComparison:
    """Formula interval versus modelled interval, on the comparison scale.

    The comparison scale is ln(1 + c) for the geometric mean and the raw
    proportion for the top-X shares.  Discrepancies are fractions of the
    modelled interval's width (NaN when that interval has zero width).
    """

    model: Interval
    formula: Interval
    lower_discrepancy: float
    upper_discrepancy: float


@dataclass(frozen=True)
class IndicatorSummary:
    """Aggregate of one indicator for one country across all replicates."""

    mean: float
    empirical: Interval
    comparison: FormulaComparison | None = None


@dataclass(frozen=True)
class ConfigSummary:
    """Everything measured for one configuration."""

    params: ParameterSet
    country1: dict[str, IndicatorSummary]
    country2: dict[str, IndicatorSummary]
    similarities: dict[str, float]

    def to_dict(self) -> dict:
        ps = self.params
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
            "similarity": {k: _nan_to_none(v) for k, v in self.similarities.items()},
            "country1": {k: _summary_dict(v) for k, v in self.country1.items()},
            "country2": {k: _summary_dict(v) for k, v in self.country2.items()},
        }


def _nan_to_none(value: float):
    return None if value != value else value


def _summary_dict(summary: IndicatorSummary) -> dict:
    cmp = summary.comparison
    return {
        "mean": summary.mean,
        "empirical": [summary.empirical.lower, summary.empirical.upper],
        "model": None if cmp is None else [cmp.model.lower, cmp.model.upper],
        "formula": None if cmp is None else [cmp.formula.lower, cmp.formula.upper],
        "discrepancy": None if cmp is None else [
            _nan_to_none(cmp.lower_discrepancy), _nan_to_none(cmp.upper_discrepancy)
        ],
    }


def derive_seed(
    master_seed: int,
    config_index: int,
    replicate_index: int,
    stream_role: str = "world",
) -> int:
    """Collision-resistant 128-bit seed for one random stream.

    Pure function of its arguments, so identical streams are produced
    regardless of execution order, process count or platform.
    """
    payload = f"{master_seed}:{config_index}:{replicate_index}:{stream_role}".encode()
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
    rng = np.random.default_rng(derive_seed(master_seed, ps.config_index, 0))
    for start in range(0, ps.replicates, REPLICATE_BLOCK):
        size = min(REPLICATE_BLOCK, ps.replicates - start)
        yield start, table_end, [sample_histograms(params, table, n, rng, size)
                                 for (params, n), table in zip(groups, tables)]


def _value_axis(table_end: int, draws) -> tuple[np.ndarray, list]:
    """A block's histograms (float64, exact for integers) over one increasing
    axis of citation counts: the table's 0..table_end-1, then every distinct
    tail value drawn, so tail articles keep their exact counts."""
    tails = [tail - 1 for _, tail in draws]
    extra = np.unique(np.concatenate(tails))
    hists = []
    for (hist, _), tail in zip(draws, tails):
        ext = np.zeros((hist.shape[0], table_end + extra.size))
        ext[:, :table_end] = hist[:, :table_end]
        rows = np.repeat(np.arange(hist.shape[0]), hist[:, table_end])
        np.add.at(ext, (rows, table_end + np.searchsorted(extra, tail)), 1.0)
        hists.append(ext)
    return np.concatenate([np.arange(table_end), extra]).astype(np.float64), hists


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
            return np.concatenate([np.repeat(values, h[row].astype(np.int64)) for h in hists]
                                  ).astype(np.int64)


def replicate_statistics(ps: ParameterSet, master_seed: int) -> ReplicateStats:
    """Per-replicate indicator statistics for both countries.

    For each replicate: per-country arithmetic mean, mean and sample
    standard deviation of ln(1 + c), and the three top-X shares computed
    against the full world sample with proportional tie credit, all
    reduced from the group histograms a block of replicates at a time.
    """
    n1, n2, _ = ps.country_sizes()
    reps = ps.replicates
    sizes = (n1, n2)

    arith = np.empty((2, reps))
    log_mean = np.empty((2, reps))
    log_sd = np.empty((2, reps))
    top = np.empty((3, 2, reps))

    for start, table_end, draws in _world_blocks(ps, master_seed):
        values, hists = _value_axis(table_end, draws)
        block = slice(start, start + hists[0].shape[0])
        world_surv = histogram_survival(hists[0] + hists[1] + hists[2])
        country_surv = [histogram_survival(h) for h in hists[:2]]
        for j, share in enumerate(TOP_SHARES):
            _, _, credits = tie_credit(world_surv, share, country_surv)
            for i in (0, 1):
                top[j, i, block] = credits[i] / sizes[i]
        logs = np.log1p(values)
        for i, n in enumerate(sizes):
            arith[i, block] = hists[i] @ values / n
            m = hists[i] @ logs / n
            log_mean[i, block] = m
            # two-pass-free sample sd; magnitudes here keep it well conditioned
            ss = hists[i] @ (logs * logs) - n * m * m
            log_sd[i, block] = np.sqrt(np.maximum(ss, 0.0) / (n - 1))

    return ReplicateStats(n1=n1, n2=n2, arith=arith, log_mean=log_mean, log_sd=log_sd, top=top)


def _compare(model: Interval, formula: Interval) -> FormulaComparison:
    if model.width > 0.0:
        lower, upper = limit_discrepancy(model, formula)
    else:
        # Degenerate modelled interval (statistic identical in all kept
        # replicates); the ratio is undefined, recorded as NaN and skipped
        # by summarize().
        lower = upper = math.nan
    return FormulaComparison(model, formula, lower, upper)


def run_config(ps: ParameterSet, master_seed: int, level: float = 0.95) -> ConfigSummary:
    """Simulate one configuration and aggregate its replicate statistics."""
    rs = replicate_statistics(ps, master_seed)
    countries: list[dict[str, IndicatorSummary]] = []
    for i, n_c in enumerate((rs.n1, rs.n2)):
        summaries: dict[str, IndicatorSummary] = {}

        arith_stats = rs.arith[i]
        summaries["arith"] = IndicatorSummary(
            mean=float(arith_stats.mean()),
            empirical=empirical_interval(arith_stats, level),
        )

        # Geometric mean: similarity runs on the offset scale, the formula
        # comparison on the ln(1+c) scale.  expm1 is monotone, so the offset
        # empirical interval is the transform of the log-scale one.
        log_model = empirical_interval(rs.log_mean[i], level)
        log_formula = log_mean_interval(
            float(np.mean(rs.log_mean[i])), float(np.mean(rs.log_sd[i])), n_c, level
        )
        geo_stats = np.expm1(rs.log_mean[i])
        summaries["geo"] = IndicatorSummary(
            mean=float(geo_stats.mean()),
            empirical=Interval(
                math.expm1(log_model.lower), math.expm1(log_model.upper), kind="empirical"
            ),
            comparison=_compare(log_model, log_formula),
        )

        for j, name in enumerate(("top1", "top10", "top50")):
            p_stats = rs.top[j, i]
            p_mean = float(p_stats.mean())
            model = empirical_interval(p_stats, level)
            summaries[name] = IndicatorSummary(
                mean=p_mean,
                empirical=model,
                comparison=_compare(model, proportion_interval(p_mean, n_c, level)),
            )
        countries.append(summaries)

    sims: dict[str, float] = {}
    for name in INDICATOR_NAMES:
        if ps.mu1 == ps.mu2:
            # No population difference to test for; the score is undefined.
            sims[name] = math.nan
            continue
        lo, hi = sorted((countries[0][name], countries[1][name]), key=lambda s: s.mean)
        sims[name] = similarity(SimilarityInput(lo.mean, hi.mean, lo.empirical, hi.empirical))

    return ConfigSummary(ps, countries[0], countries[1], sims)


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
    with (multiprocessing.get_context().Pool(processes) if processes > 1
          else contextlib.nullcontext()) as pool:
        summaries = (pool.imap(_run_config_task, tasks, chunksize=chunksize) if pool
                     else map(_run_config_task, tasks))
        for done, summary in enumerate(summaries, start=1):
            results.append(summary)
            if done % step == 0 or done == len(tasks):
                log.info("completed %d/%d configurations", done, len(tasks))
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
        for name in INDICATOR_NAMES:
            hits = sum(1 for r in rows if r.similarities[name] < 1.0)
            table1[(n_world, name)] = Table1Cell(hits, len(rows))
        for name in FORMULA_INDICATOR_NAMES:
            for side in ("lower", "upper"):
                values = []
                for r in rows:
                    pair = [
                        getattr(country[name].comparison, f"{side}_discrepancy")
                        for country in (r.country1, r.country2)
                    ]
                    pair = [v for v in pair if v == v]
                    if pair:
                        values.append(sum(pair) / len(pair))
                if not values:
                    continue
                arr = np.asarray(values)
                table2[(name, side, n_world)] = Table2Row(
                    minimum=float(arr.min()),
                    maximum=float(arr.max()),
                    mean=float(arr.mean()),
                    sd=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                    n=arr.size,
                )
    return SweepReport(table1=table1, table2=table2, records=records)
