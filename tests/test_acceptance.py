"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Heavy replicated sweeps (the 1375-configuration rows at R=1000) are shared
across criteria through session fixtures.  Every test prints a PASS line
with the measured values once its assertions hold; run with -rA (or -s) to
see them all.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from citesim.appendix_stats import appendix_demo, rank_sums_from_frequency, table4_example
from citesim.cli import main
from citesim.distribution import count_table, rest_of_world_location, sample_histograms, table_top
from citesim.experiment import (
    DEFAULT_MU_VALUES,
    DEFAULT_P_VALUES,
    INDICATOR_NAMES,
    generate_grid,
    run_sweep,
    summarize,
)
from citesim.indicators import tie_credit
from citesim.intervals import empirical_limits, formula_limits, similarities
from helpers import chi_square_gof, credit_oracle, mixture_mean

MASTER_SEED = 1

# Reference similarity-below-1 counts for the N=5000 row at R=1000.
REFERENCE_COUNTS_N5000 = {"arith": 429, "geo": 609, "top1": 6, "top10": 306, "top50": 533}


def _pass(number, message):
    print(f"\nACCEPTANCE {number:2d}: PASS - {message}", flush=True)


@pytest.fixture(scope="session")
def n5000_r1000_tables():
    grid = generate_grid(n_values=(5000,), replicates=1000)
    return summarize(run_sweep(grid, MASTER_SEED, processes=0))


@pytest.fixture(scope="session")
def n500_r1000_tables():
    grid = generate_grid(n_values=(500,), replicates=1000)
    return summarize(run_sweep(grid, MASTER_SEED, processes=0))


def test_criterion_01_worked_rank_sums_exact():
    start = time.perf_counter()
    sums = rank_sums_from_frequency(table4_example())
    elapsed = time.perf_counter() - start
    assert sums.group1 == 1_099_200.0
    assert sums.group2 == 901_800.0
    assert sums.average_ranks == (675.0, 1529.0, 1755.5, 1895.0, 1988.5, 1995.0)
    assert elapsed < 1.0
    _pass(1, f"rank sums 1099200/901800, six average ranks exact ({elapsed:.3f}s)")


def _article_credit(counts, share):
    """tie_credit of each article of a world, as a group of one."""
    one_hot = np.eye(max(counts) + 1)[counts]
    return tie_credit(one_hot.sum(axis=0), share, one_hot)[2]


def test_criterion_02_tie_credit_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        counts = rng.integers(0, 13, size=n)
        share = float(rng.choice([1.0, 10.0, 50.0]))
        credit = _article_credit(counts, share)
        assert credit == pytest.approx(credit_oracle(counts, share), abs=1e-9)
        assert credit.sum() == pytest.approx(share / 100.0 * n, abs=1e-9)
    # three articles tied at the top-1% cutoff of a 100-article world
    assert _article_credit([10, 10, 10] + [2] * 97, 1.0)[:3] == pytest.approx([1 / 3] * 3, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(2, f"1000 random instances match the brute-force oracle ({elapsed:.1f}s)")


def test_criterion_03_mixture_identity_over_grid():
    start = time.perf_counter()
    target = math.exp(1.5)
    worst = 0.0
    combos = 0
    for i, mu1 in enumerate(DEFAULT_MU_VALUES):
        for mu2 in DEFAULT_MU_VALUES[i + 1 :]:
            for p1 in DEFAULT_P_VALUES:
                for p2 in DEFAULT_P_VALUES:
                    mu0 = rest_of_world_location(1.0, mu1, mu2, p1, p2)
                    value = mixture_mean(mu0, mu1, mu2, p1, p2, 1.0)
                    worst = max(worst, abs(value - target))
                    combos += 1
    elapsed = time.perf_counter() - start
    assert combos == 1375
    assert worst < 1e-12
    assert elapsed < 1.0
    _pass(3, f"1375 location solves recover exp(1.5), worst error {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_04_sampler_chi_square():
    start = time.perf_counter()
    table = count_table(mu=1.0, sigma=1.0, top=table_top(mu=1.0, sigma=1.0))
    hist, tail = sample_histograms(mu=1.0, sigma=1.0, table=table, n=1_000_000,
                                   rng=np.random.default_rng(MASTER_SEED))
    stat, dof = chi_square_gof(hist[:-1], tail, mu=1.0, sigma=1.0)
    critical = sps.chi2.ppf(0.999, dof)
    elapsed = time.perf_counter() - start
    assert stat < critical
    assert elapsed < 5.0
    _pass(4, f"chi-square {stat:.1f} < {critical:.1f} at alpha=0.001 over 101 bins ({elapsed:.1f}s)")


def test_criterion_05_desk_scale_ordering_and_reference_counts(n5000_r1000_tables):
    start = time.perf_counter()
    grid = generate_grid(n_values=(5000,), replicates=200)
    desk_table1, _ = summarize(run_sweep(grid, MASTER_SEED, processes=1))
    elapsed = time.perf_counter() - start
    counts = {name: desk_table1[(5000, name)].count for name in INDICATOR_NAMES}
    assert (
        counts["geo"] > counts["top50"] > counts["arith"] > counts["top10"] > counts["top1"]
    ), counts
    assert elapsed < 900.0

    full = {
        name: n5000_r1000_tables[0][(5000, name)].count for name in INDICATOR_NAMES
    }
    for name, reference in REFERENCE_COUNTS_N5000.items():
        if name == "top1":
            assert abs(full[name] - reference) <= 20, (name, full[name])
        else:
            assert abs(full[name] - reference) <= 0.15 * reference, (name, full[name])
    _pass(
        5,
        "ordering geo>top50>arith>top10>top1 at R=200 "
        f"({counts['geo']}>{counts['top50']}>{counts['arith']}>{counts['top10']}>{counts['top1']}, "
        f"{elapsed:.0f}s single-threaded); R=1000 counts {full} within tolerance of "
        f"{REFERENCE_COUNTS_N5000}",
    )


def test_criterion_06_geometric_interval_accuracy(n500_r1000_tables, n5000_r1000_tables):
    checked = []
    for n_world, (_, table2) in ((500, n500_r1000_tables), (5000, n5000_r1000_tables)):
        for side in ("lower", "upper"):
            row = table2[("geo", side, n_world)]
            assert -0.02 <= row.mean <= 0.03, (n_world, side, row.mean)
            assert abs(row.minimum) <= 0.12, (n_world, side, row.minimum)
            assert abs(row.maximum) <= 0.12, (n_world, side, row.maximum)
            checked.append(f"N={n_world} {side} mean {row.mean:+.3f}")
    _pass(6, "log-scale geometric discrepancies in band: " + "; ".join(checked))


def test_criterion_07_percentile_interval_conservatism(n500_r1000_tables):
    _, table2 = n500_r1000_tables
    top1_lower = table2[("top1", "lower", 500)].mean
    top50_lower = table2[("top50", "lower", 500)].mean
    worst_upper_min = min(
        table2[(name, "upper", 500)].minimum for name in ("top1", "top10", "top50")
    )
    assert top1_lower >= 0.25, top1_lower
    assert top1_lower > top50_lower, (top1_lower, top50_lower)
    assert worst_upper_min < -0.30, worst_upper_min
    _pass(
        7,
        f"top-1% lower mean {top1_lower:+.3f} >= +0.25 and > top-50% ({top50_lower:+.3f}); "
        f"most negative upper-limit discrepancy {worst_upper_min:+.3f} < -0.30",
    )


def test_criterion_08_unequal_size_pathology():
    start = time.perf_counter()
    report = appendix_demo(replicates=1000, seed=MASTER_SEED)
    elapsed = time.perf_counter() - start
    assert abs(report.mean1 - report.mean2) < 0.005
    assert report.mw_p < 0.001
    assert report.ks_p < 0.001
    assert report.zero_prop2 > report.zero_prop1
    assert elapsed < 120.0
    _pass(
        8,
        f"means {report.mean1:.6f}/{report.mean2:.6f}, MW p {report.mw_p:.2e}, "
        f"KS p {report.ks_p:.2e}, zero shares {report.zero_prop1:.3f} < {report.zero_prop2:.3f} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_09_thread_count_determinism(tmp_path):
    start = time.perf_counter()
    base = [
        "sweep", "--n-values", "500", "--replicates", "100",
        "--seed", str(MASTER_SEED),
    ]
    single, pooled = tmp_path / "threads1", tmp_path / "threads8"
    assert main(base + ["--threads", "1", "--out", str(single)]) == 0
    assert main(base + ["--threads", "8", "--out", str(pooled)]) == 0
    elapsed = time.perf_counter() - start
    for name in ("table1.csv", "records.jsonl"):
        assert (single / name).read_bytes() == (pooled / name).read_bytes(), name
    assert elapsed < 120.0
    _pass(9, f"table1.csv and records.jsonl byte-identical at 1 vs 8 workers ({elapsed:.0f}s)")


def _similarity(mean1, mean2, limits1, limits2):
    """similarities of one pair of groups, each a mean and (lower, upper) limits."""
    return float(similarities([mean1, mean2], [limits1, limits2]))


def test_criterion_10_interval_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)

    # empirical interval coverage on heterogeneous inputs
    for _ in range(200):
        size = int(rng.integers(40, 1500))
        flavour = rng.integers(0, 3)
        if flavour == 0:
            values = rng.random(size)
        elif flavour == 1:
            values = np.floor(rng.lognormal(1.0, 1.0, size))
        else:
            values = np.repeat(rng.integers(0, 5, size=max(size // 10, 1)), 10)[:size]
        lower, upper = empirical_limits(values)
        inside = np.count_nonzero((values >= lower) & (values <= upper))
        assert inside >= math.ceil(0.95 * values.size)

    # similarity translation/scale invariance on randomized fixtures
    for _ in range(500):
        mean1 = float(rng.normal())
        gap = float(rng.random() + 0.05)
        up1 = mean1 + float(rng.random())
        low2 = mean1 + gap - float(rng.random())
        reference = _similarity(mean1, mean1 + gap, (mean1 - 1.0, up1), (low2, mean1 + gap + 1.0))
        shift = float(rng.normal(scale=10.0))
        scale = float(rng.random() * 9.9 + 0.1)
        moved = _similarity(
            mean1 + shift, mean1 + gap + shift,
            (mean1 - 1.0 + shift, up1 + shift), (low2 + shift, mean1 + gap + 1.0 + shift),
        )
        scaled = _similarity(
            mean1 * scale, (mean1 + gap) * scale,
            ((mean1 - 1.0) * scale, up1 * scale), (low2 * scale, (mean1 + gap + 1.0) * scale),
        )
        assert moved == pytest.approx(reference, rel=1e-6, abs=1e-9)
        assert scaled == pytest.approx(reference, rel=1e-6, abs=1e-9)

    # proportion interval reflects about one half
    for numerator in range(0, 1025, 8):
        p = numerator / 1024.0
        for n in (25, 500, 12_345):
            lower, upper = formula_limits([0.0, p], 0.0, n)[1]
            mirrored_lower, mirrored_upper = formula_limits([0.0, 1.0 - p], 0.0, n)[1]
            assert lower == pytest.approx(1.0 - mirrored_upper, abs=1e-12)
            assert upper == pytest.approx(1.0 - mirrored_lower, abs=1e-12)

    # offset geometric mean never exceeds the arithmetic mean
    counts = np.floor(rng.lognormal(1.0, 1.0, size=(10_000, 60))) - 1.0
    counts = np.maximum(counts, 0.0)
    geo = np.expm1(np.log1p(counts).mean(axis=1))
    arith = counts.mean(axis=1)
    assert np.all(geo <= arith + 1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(10, f"coverage, invariance, reflection and AM-GM properties hold ({elapsed:.1f}s)")
