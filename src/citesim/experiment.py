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
by hashing (master_seed, config_index); its replicates are drawn
from it in blocks of REPLICATE_BLOCK.  Sweep output is therefore
byte-identical for any execution order or process count.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import logging
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .distribution import (check_locations, count_table, rest_of_world_location,
                           sample_histograms, table_top)
from .indicators import TOP_SHARES, tie_credit
from .intervals import empirical_limits, formula_limits, limit_discrepancies, similarities

__all__ = [
    "INDICATOR_NAMES",
    "FORMULA_INDICATOR_NAMES",
    "STREAM_VERSION",
    "ParameterSet",
    "REPLICATE_STATISTICS",
    "ConfigSummary",
    "Table1Cell",
    "Table2Row",
    "derive_seed",
    "validate_grid",
    "generate_grid",
    "total_draws",
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
# Rows of replicate_statistics' array: the five indicators in INDICATOR_NAMES
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
    """One configuration: two countries and the rest of the world sharing
    one scale sigma, at an overall location mu_overall that the rest of
    the world's solved location holds fixed (rest_of_world_location).
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

    def __post_init__(self) -> None:
        for name in ("mu_overall", "mu1", "mu2", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.mu1 <= self.mu2:
            raise ValueError(f"mu1 must not exceed mu2, got {self.mu1} > {self.mu2}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (self.p1 > 0 and self.p2 > 0):
            raise ValueError("country shares must be positive")
        if not self.p1 + self.p2 < 1:
            raise ValueError(
                f"country shares must leave room for the rest of the world, "
                f"got p1 + p2 = {self.p1 + self.p2}"
            )
        if self.n_world < 1:
            raise ValueError(f"n_world must be positive, got {self.n_world}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be positive, got {self.replicates}")

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
      two countries' means coincide.
    """

    params: ParameterSet
    mean: np.ndarray
    empirical: np.ndarray
    model: np.ndarray
    formula: np.ndarray
    discrepancy: np.ndarray
    similarity: np.ndarray

    def __post_init__(self) -> None:
        for array in fields(self)[1:]:
            getattr(self, array.name).flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays are writeable; the cached encoded text comes along.
        self.__dict__.update(state)
        self.__post_init__()

    @cached_property
    def encoded(self) -> tuple[str, str]:
        """The configuration's records.jsonl line and figure1.csv rows, as text.

        A sweep worker encodes them, so they cross processes with the
        summary and the parent only writes them.  No figure1 field holds a
        comma, quote or line break, so the rows are csv.writer's bytes.
        """
        ps = self.params
        config = ",".join([_fmt(ps.mu1), _fmt(ps.mu2), _fmt(ps.p1), _fmt(ps.p2), str(ps.n_world)])
        rows = "".join([f"{config},{name},{_fmt(value)}\r\n"
                        for name, value in zip(INDICATOR_NAMES, self.similarity.tolist())])
        return json.dumps(self.to_dict(), separators=(",", ":")) + "\n", rows

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
            "diagnostic": ps.mu1 == ps.mu2,
            "similarity": {name: _nan_to_none(v)
                           for name, v in zip(INDICATOR_NAMES, self.similarity.tolist())},
            "country1": countries[0],
            "country2": countries[1],
        }


def _nan_to_none(value: float):
    return None if value != value else value


def _fmt(value: float) -> str:
    """A number as the CSV artifacts write it: integers without a point,
    anything else to six significant digits."""
    if value != value:
        return "nan"
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".6g")


def derive_seed(master_seed: int, config_index: int) -> int:
    """Collision-resistant 128-bit seed for one configuration's stream.

    Pure function of its arguments, so identical streams are produced
    regardless of execution order, process count or platform.
    """
    # The 0 was a per-replicate field before stream version 2, and "world"
    # the one stream role ever used; both stay in the hashed payload so
    # that no stream moves.
    payload = f"{master_seed}:{config_index}:0:world".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")


def generate_grid(
    mu_values=None,
    p_values=None,
    n_values=None,
    sigma: float = 1.0,
    mu_overall: float = 1.0,
    replicates: int = 1000,
) -> list[ParameterSet]:
    """Ordered list of configurations: (mu1 < mu2) pairs x (p1, p2) x N.

    Ordering is lexicographic in (mu1, mu2, p1, p2, N).  The default grids
    produce exactly 6875 configurations.  A grid that validate_grid rejects
    raises ValueError; configurations whose rest-of-world location is
    infeasible are skipped with a warning.
    """
    mu_values = DEFAULT_MU_VALUES if mu_values is None else tuple(mu_values)
    p_values = DEFAULT_P_VALUES if p_values is None else tuple(p_values)
    n_values = DEFAULT_N_VALUES if n_values is None else tuple(n_values)
    validate_grid(mu_values, p_values, n_values, sigma, mu_overall, replicates)

    sets: list[ParameterSet] = []
    for mu1 in mu_values:
        for mu2 in mu_values:
            if mu2 <= mu1:
                continue
            for p1 in p_values:
                for p2 in p_values:
                    try:
                        rest_of_world_location(mu_overall, mu1, mu2, p1, p2)
                    except ValueError as exc:
                        log.warning(
                            "skipping infeasible configuration mu1=%g mu2=%g p1=%g p2=%g: %s",
                            mu1, mu2, p1, p2, exc,
                        )
                        continue
                    for n_world in n_values:
                        sets.append(ParameterSet(mu1, mu2, p1, p2, int(n_world), sigma,
                                                 mu_overall, replicates, config_index=len(sets)))
    return sets


def validate_grid(mu_values, p_values, n_values, sigma: float = 1.0,
                  mu_overall: float = 1.0, replicates: int = 1000) -> None:
    """Raise ValueError for a grid that could not run, before any sampling.

    Each value list must be non-empty, finite and strictly increasing, with
    at least two locations to form mu1 < mu2.  Corner configurations then
    bound the grid: the smallest shares at the smallest world give the
    smallest countries, the largest shares the largest p1 + p2, and the
    smallest locations and shares the least demanding rest-of-world solve;
    if that one is infeasible, so is every configuration.  Other infeasible
    configurations are skipped by generate_grid.  check_locations bounds every
    draw's location: below by the least location and every feasible rest-of-world
    location solved, above by mu_overall - ln(1 - 2 max(p)), which no rest exceeds.
    """
    for name, values in (("mu_values", mu_values), ("p_values", p_values),
                         ("n_values", n_values)):
        if not values:
            raise ValueError(f"{name}: must not be empty")
        if any(not math.isfinite(v) for v in values):
            raise ValueError(f"{name}: values must be finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"{name}: values must be strictly increasing")
    if len(mu_values) < 2:
        raise ValueError("mu_values: need at least two locations to form mu1 < mu2")
    (mu1, mu2), p, q = mu_values[:2], p_values[0], p_values[-1]
    for share in (p, q):
        ParameterSet(mu1, mu2, share, share, int(n_values[0]), sigma, mu_overall).country_sizes()
    try:
        rests = [rest_of_world_location(mu_overall, mu1, mu2, p, p)]
    except ValueError as exc:
        raise ValueError(f"grid contains no feasible configurations: {exc}") from None
    for pair, shares in itertools.product(itertools.combinations(mu_values, 2),
                                          itertools.product(p_values, repeat=2)):
        with contextlib.suppress(ValueError):  # generate_grid skips an infeasible one
            rests.append(rest_of_world_location(mu_overall, *pair, *shares))
    check_locations(min(mu1, *rests), max(mu_values[-1], mu_overall - math.log1p(-2 * q)), sigma,
                    replicates * math.comb(len(mu_values), 2) * len(p_values) ** 2 * sum(n_values))


def total_draws(param_sets) -> int:
    """Total citation counts a sweep will generate (replicates x world size)."""
    return sum(ps.replicates * ps.n_world for ps in param_sets)


def _world_blocks(ps: ParameterSet, master_seed: int):
    """Yield (start, table_end, draws) for each block of REPLICATE_BLOCK
    replicates from the configuration's one stream: draws holds the
    sample_histograms (hist, tail) of country 1, country 2 and the rest."""
    locations = (ps.mu1, ps.mu2,
                 rest_of_world_location(ps.mu_overall, ps.mu1, ps.mu2, ps.p1, ps.p2))
    table_end = table_top(max(locations), ps.sigma)
    tables = count_table(mu=locations, sigma=ps.sigma, top=table_end)
    groups = list(zip(locations, tables, ps.country_sizes()))
    rng = np.random.default_rng(derive_seed(master_seed, ps.config_index))
    for start in range(0, ps.replicates, REPLICATE_BLOCK):
        size = min(REPLICATE_BLOCK, ps.replicates - start)
        yield start, table_end, [sample_histograms(mu=mu, sigma=ps.sigma, table=table, n=n,
                                                   rng=rng, size=size) for mu, table, n in groups]


def _value_axis(table_end: int, draws) -> np.ndarray:
    """A block's histograms over one increasing axis of citation counts.

    The axis is the table's 0..table_end-1, then every distinct tail value
    drawn, so tail articles keep their exact counts.  The histograms have
    shape (4, B, axis size), stacked as (world, country 1, country 2,
    rest); the world is the sum of the others.
    """
    tails = np.concatenate([tail for _, tail in draws]) - 1
    extra = np.unique(tails)
    blocks = draws[0][0].shape[0]
    hists = np.zeros((4, blocks, table_end + extra.size), dtype=np.int64)
    for group, (hist, _) in enumerate(draws, start=1):
        hists[group, :, :table_end] = hist[:, :table_end]
    # Row group * blocks + r of the flattened histograms is replicate r of
    # that group; tails lists each group's values replicate by replicate.
    per_row = np.concatenate([hist[:, table_end] for hist, _ in draws])
    np.add.at(hists.reshape(4 * blocks, -1),
              (np.repeat(np.arange(blocks, 4 * blocks), per_row),
               table_end + np.searchsorted(extra, tails)), 1)
    np.sum(hists[1:], axis=0, out=hists[0])
    return hists


def replicate_statistics(ps: ParameterSet, master_seed: int) -> np.ndarray:
    """Per-replicate indicator statistics for both countries.

    Returns a float64 array of shape (2, 6, R), indexed by (country,
    statistic, replicate) with the statistics in REPLICATE_STATISTICS
    order: the arithmetic mean, the mean of ln(1 + c) (the offset
    geometric mean is its expm1), the top-1/10/50% shares computed against
    the full world sample with proportional tie credit, and the sample
    standard deviation of ln(1 + c).

    Each block of replicates is reduced on the count table's own axis:
    cells 0..table_end-1 and one lumped cell for every count above the table.
    The countries' sums of c, ln(1 + c) and ln^2(1 + c) are one product of
    their histograms with those columns (0 in the lumped cell) plus the
    per-row sums of their tail values.  One tie credit over all three
    shares is exact whenever the world's lumped count is below every
    share's q; a block where it is not has a cutoff among the tail values
    and takes its credits from _value_axis.
    """
    n1, n2, _ = ps.country_sizes()
    sizes = np.array([[n1], [n2]])
    shares = np.array(TOP_SHARES)[:, None]  # broadcasts against the replicates
    values = np.empty((2, len(REPLICATE_STATISTICS), ps.replicates))

    for start, table_end, draws in _world_blocks(ps, master_seed):
        if not start:  # one table per configuration, so one set of columns
            c = np.arange(table_end + 1.0)
            c[-1] = 0.0
            logs = np.log1p(c)
            columns = np.stack((c, logs, logs * logs), axis=-1)
        (h1, tail1), (h2, tail2), (h0, _) = draws
        blocks = h1.shape[0]
        block = slice(start, start + blocks)
        countries = np.concatenate((h1, h2))  # row i * blocks + r: country i + 1, replicate r
        t, _, credits = tie_credit(h0 + h1 + h2, shares, countries.reshape(2, blocks, -1))
        if (t == table_end).any():  # a cutoff in the lumped cell
            hists = _value_axis(table_end, draws)
            _, _, credits = tie_credit(hists[0], shares, hists[1:3])
        values[:, 2:5, block] = credits / sizes[:, :, None]

        sums = countries @ columns
        tails = np.concatenate((tail1, tail2)) - 1.0
        if tails.size:
            rows = np.repeat(np.arange(2 * blocks), countries[:, table_end])
            tail_logs = np.log1p(tails)
            for k, weights in enumerate((tails, tail_logs, tail_logs * tail_logs)):
                sums[:, k] += np.bincount(rows, weights, 2 * blocks)
        sums = sums.reshape(2, blocks, 3)
        values[:, 0, block] = sums[..., 0] / sizes
        m = sums[..., 1] / sizes
        values[:, 1, block] = m
        # two-pass-free sample sd; magnitudes here keep it well conditioned
        ss = sums[..., 2] - sizes * m * m
        values[:, 5, block] = np.sqrt(np.maximum(ss, 0.0) / (sizes - 1))

    return values


def run_config(ps: ParameterSet, master_seed: int) -> ConfigSummary:
    """Simulate one configuration and summarise its replicate statistics.

    The replicate statistics of both countries form one (country,
    statistic, replicate) array, which is sorted once and averaged once;
    only the offset geometric mean is averaged apart, from expm1(log_mean).
    The t and normal quantiles are taken once, for both countries.
    """
    values = replicate_statistics(ps, master_seed)
    sizes = np.array(ps.country_sizes()[:2])
    means = values.sum(axis=-1) / ps.replicates  # np.mean, bit for bit
    # The geometric mean's model interval is on the ln(1 + c) scale.
    limits = empirical_limits(values[:, :len(INDICATOR_NAMES)])
    mean = means[:, :len(INDICATOR_NAMES)].copy()
    mean[:, 1] = np.expm1(values[:, 1]).sum(axis=-1) / ps.replicates
    # expm1 is monotone, so the offset-scale empirical interval is the
    # transform of the log-scale one.
    empirical = limits.copy()
    empirical[:, 1] = [[math.expm1(v) for v in pair] for pair in limits[:, 1].tolist()]
    model = limits[:, 1:]
    formula = formula_limits(means[:, 1:5], means[:, 5], sizes)
    return ConfigSummary(ps, mean, empirical, model, formula,
                         limit_discrepancies(model, formula), similarities(mean, empirical))


def _run_configs(args) -> list[ConfigSummary]:
    """Run a list of configurations, then encode them: the summaries in
    order, each with its artifact text (ConfigSummary.encoded) filled in."""
    param_sets, master_seed = args
    summaries = []
    for ps in param_sets:
        try:
            summaries.append(run_config(ps, master_seed))
        except Exception as exc:
            # Pool workers lose the caller's context; name the configuration.
            raise RuntimeError(
                f"config {ps.config_index} (mu1={ps.mu1:g} mu2={ps.mu2:g} p1={ps.p1:g} "
                f"p2={ps.p2:g} N={ps.n_world}): {exc}"
            ) from exc
    for summary in summaries:
        summary.encoded  # cached on the summary, so it pickles with it
    return summaries


def run_sweep(param_sets, master_seed: int, processes: int = 1) -> list[ConfigSummary]:
    """Run every configuration and return summaries in input order.

    processes <= 0 selects the number of CPUs this process may run on.
    Results are byte-identical for any process count: each configuration
    is an isolated work unit seeded from (master_seed, config_index) and
    the fold order is fixed.  A worker takes the configurations a few
    dozen at a time, runs them, then encodes their artifact text, which
    comes back with the summaries.
    """
    param_sets = list(param_sets)
    if processes <= 0:
        processes = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
    processes = min(processes, max(len(param_sets), 1))
    run = max(len(param_sets) // (processes * 8), 1)
    tasks = [(param_sets[i:i + run], master_seed) for i in range(0, len(param_sets), run)]
    total = len(param_sets)
    step = max(total // 20, 1)
    results = []
    started = time.monotonic()
    with (multiprocessing.get_context().Pool(processes) if processes > 1
          else contextlib.nullcontext()) as pool:
        summaries = itertools.chain.from_iterable(
            pool.imap(_run_configs, tasks) if pool else map(_run_configs, tasks))
        for done, summary in enumerate(summaries, start=1):
            results.append(summary)
            if done % step == 0 or done == total:
                rate = done / max(time.monotonic() - started, 1e-9)
                log.info("completed %d/%d configurations (%.1f configs/s, ETA %.0f s)",
                         done, total, rate, (total - done) / rate)
    return results


@dataclass(frozen=True)
class Table1Cell:
    """Configurations whose similarity score fell below 1, out of total."""

    count: int
    total: int

    @property
    def percent(self) -> int:
        return int(math.floor(100.0 * self.count / self.total + 0.5))


@dataclass(frozen=True)
class Table2Row:
    """Distribution of formula-vs-model discrepancies over configurations."""

    minimum: float
    maximum: float
    mean: float
    sd: float
    n: int


def summarize(records) -> tuple[dict, dict]:
    """Fold per-configuration summaries into the report tables (table1, table2).

    table1 maps (n_world, indicator) to a similarity-below-1 count; table2
    maps (indicator, side, n_world) to statistics of the configurations'
    two-country mean discrepancies, NaNs (degenerate modelled intervals)
    skipped.  Both are in the order of table1.csv and table2.csv: by N,
    indicator and limit side; a table2 row with no value is absent.
    """
    n_values = sorted({r.params.n_world for r in records})

    table1: dict[tuple[int, str], Table1Cell] = {}
    table2: dict[tuple[str, str, int], Table2Row] = {}
    for n_world in n_values:
        rows = [r for r in records if r.params.n_world == n_world]
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
    return table1, table2
