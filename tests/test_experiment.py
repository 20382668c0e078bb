"""Sweep engine tests: grid, seeding, replicate statistics, aggregation."""

import hashlib
import logging
import math
import pickle
import re

import numpy as np
import pytest
from scipy import stats as sps

from citesim.distribution import LognormalParams, rest_of_world_location, table_top
from citesim.experiment import (
    ConfigSummary,
    FORMULA_INDICATOR_NAMES,
    INDICATOR_NAMES,
    ParameterSet,
    derive_seed,
    generate_grid,
    replicate_statistics,
    replicate_world,
    run_config,
    run_sweep,
    summarize,
    total_draws,
)
from citesim.indicators import threshold_credit
from citesim.intervals import (
    Interval,
    SimilarityInput,
    empirical_interval,
    limit_discrepancy,
    log_mean_interval,
    proportion_interval,
    similarities,
    similarity,
)
from helpers import (
    COUNTRY_1,
    COUNTRY_2,
    REST,
    WorldReplicate,
    chi_square_gof,
    country_indicators,
)

SMALL = ParameterSet(mu1=0.9, mu2=1.1, p1=0.2, p2=0.1, n_world=60, replicates=50)
# sigma = 3 puts about 1% of articles above the count table.
HEAVY_TAIL = ParameterSet(mu1=0.9, mu2=1.1, p1=0.2, p2=0.1, n_world=200, sigma=3.0,
                          replicates=100)


class TestParameterSet:
    def test_equal_means_need_diagnostic_flag(self):
        with pytest.raises(ValueError):
            ParameterSet(mu1=1.0, mu2=1.0, p1=0.1, p2=0.1, n_world=100)
        ps = ParameterSet(mu1=1.0, mu2=1.0, p1=0.1, p2=0.1, n_world=100, diagnostic=True)
        assert ps.diagnostic

    def test_descending_means_always_rejected(self):
        with pytest.raises(ValueError):
            ParameterSet(mu1=1.1, mu2=0.9, p1=0.1, p2=0.1, n_world=100, diagnostic=True)

    def test_country_sizes_on_grid(self):
        ps = ParameterSet(mu1=0.9, mu2=1.0, p1=0.05, p2=0.25, n_world=500)
        assert ps.country_sizes() == (25, 125, 350)

    def test_share_validation_delegated(self):
        with pytest.raises(ValueError):
            ParameterSet(mu1=0.9, mu2=1.0, p1=0.7, p2=0.3, n_world=100)


class TestGrid:
    def test_default_grid_size(self):
        grid = generate_grid()
        assert len(grid) == 6875
        assert [ps.config_index for ps in grid] == list(range(6875))

    def test_single_configuration(self):
        grid = generate_grid(mu_values=(0.9, 0.92), p_values=(0.05,), n_values=(500,))
        assert len(grid) == 1
        ps = grid[0]
        assert (ps.mu1, ps.mu2, ps.p1, ps.p2, ps.n_world) == (0.9, 0.92, 0.05, 0.05, 500)

    def test_eleven_locations_give_55_pairs(self):
        grid = generate_grid(p_values=(0.05,), n_values=(500,))
        assert len(grid) == 55

    def test_lexicographic_order(self):
        grid = generate_grid(mu_values=(0.9, 0.92, 0.94), p_values=(0.05, 0.1), n_values=(500, 1000))
        keys = [(ps.mu1, ps.mu2, ps.p1, ps.p2, ps.n_world) for ps in grid]
        assert keys == sorted(keys)

    def test_infeasible_configurations_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            grid = generate_grid(
                mu_values=(0.9, 2.5),
                p_values=(0.25,),
                n_values=(500,),
                mu_overall=1.0,
            )
        assert len(grid) == 0
        assert any("infeasible" in rec.message for rec in caplog.records)

    def test_diagnostic_pairs_opt_in(self):
        grid = generate_grid(
            mu_values=(0.9, 0.92), p_values=(0.05,), n_values=(500,), include_equal_means=True
        )
        assert len(grid) == 3
        assert [ps.diagnostic for ps in grid] == [True, False, True]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            generate_grid(mu_values=())
        with pytest.raises(ValueError):
            generate_grid(mu_values=(1.0, 0.9))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)

    def test_sensitive_to_every_component(self):
        base = derive_seed(1, 2, stream_role="world")
        assert derive_seed(2, 2, stream_role="world") != base
        assert derive_seed(1, 3, stream_role="world") != base
        assert derive_seed(1, 2, stream_role="other") != base

    def test_stream_version_1_calls_rejected(self):
        # Stream version 1 took a replicate index third; such calls must not
        # silently hash a different payload.
        with pytest.raises(TypeError):
            derive_seed(1, 2, 0)
        with pytest.raises(TypeError):
            derive_seed(1, 2, 0, "world")

    def test_config_indices_all_distinct(self):
        seeds = {derive_seed(1, c) for c in range(10_000)}
        assert len(seeds) == 10_000

    def test_stream_version_2_payload(self):
        # The hashed payload keeps the stream-version-1 replicate field at 0.
        payload = hashlib.sha256(b"1:2:0:world").digest()[:16]
        assert derive_seed(1, 2) == int.from_bytes(payload, "little")

    def test_128_bit_range(self):
        assert 0 <= derive_seed(0, 0) < 2**128


class TestTotalDraws:
    def test_reference_volume(self):
        assert total_draws(generate_grid()) == 91_437_500_000

    def test_scales_linearly_in_replicates(self):
        reduced = total_draws(generate_grid(replicates=10))
        assert reduced * 100 == 91_437_500_000


class TestReplicateStatistics:
    @pytest.mark.parametrize("ps", [SMALL, HEAVY_TAIL], ids=["light-tail", "heavy-tail"])
    def test_matches_public_indicator_pipeline(self, ps):
        stats = replicate_statistics(ps, master_seed=7)
        n1, n2, n0 = ps.country_sizes()
        membership = np.repeat([COUNTRY_1, COUNTRY_2, REST], [n1, n2, n0])
        # Top-1% cutoffs among the counts drawn above the count table, which
        # the heavy tail must reach.
        table_end = table_top(max(ps.mu1, ps.mu2, rest_of_world_location(ps.mixture())),
                              ps.sigma)
        tail_cutoffs = 0
        for r in range(ps.replicates):
            counts = replicate_world(ps, 7, r)
            tail_cutoffs += threshold_credit(counts, 1.0)[0] >= table_end
            world = WorldReplicate(counts, membership)
            for i, country in enumerate((COUNTRY_1, COUNTRY_2)):
                expected = country_indicators(world, country)
                assert stats.arith[i, r] == pytest.approx(expected.arith, rel=1e-12)
                assert math.expm1(stats.log_mean[i, r]) == pytest.approx(expected.geo, rel=1e-12)
                assert stats.top[0, i, r] == pytest.approx(expected.top1, abs=1e-12)
                assert stats.top[1, i, r] == pytest.approx(expected.top10, abs=1e-12)
                assert stats.top[2, i, r] == pytest.approx(expected.top50, abs=1e-12)
                mine = counts[membership == country]
                assert stats.log_sd[i, r] == pytest.approx(np.log1p(mine).std(ddof=1), rel=1e-9)
        assert tail_cutoffs > 0 or ps is not HEAVY_TAIL

    def test_world_sampler_distribution(self):
        # equal locations everywhere turn the world into one iid sample
        ps = ParameterSet(
            mu1=1.0, mu2=1.0, p1=0.2, p2=0.2, n_world=500,
            mu_overall=1.0, replicates=400, diagnostic=True,
        )
        pooled = np.concatenate([replicate_world(ps, 3, r) for r in range(ps.replicates)])
        stat, dof = chi_square_gof(pooled + 1, LognormalParams(1.0, 1.0))
        assert stat < sps.chi2.ppf(0.999, dof)

    def test_tiny_countries_rejected(self):
        ps = ParameterSet(mu1=0.9, mu2=1.1, p1=0.01, p2=0.2, n_world=100)
        with pytest.raises(ValueError):
            replicate_statistics(ps, 0)

    def test_log_stats_feed_the_public_interval_op(self):
        # the ln(1+c) mean/sd stored per replicate must reproduce the
        # public t-interval op on that replicate's counts
        stats = replicate_statistics(SMALL, master_seed=7)
        n1 = SMALL.country_sizes()[0]
        y = np.log1p(replicate_world(SMALL, 7, 0)[:n1])
        log_scale = log_mean_interval(float(y.mean()), float(y.std(ddof=1)), n1)
        t_q = sps.t.ppf(0.975, n1 - 1)
        half = t_q * stats.log_sd[0, 0] / math.sqrt(n1)
        assert log_scale.lower == pytest.approx(stats.log_mean[0, 0] - half, rel=1e-12)
        assert log_scale.upper == pytest.approx(stats.log_mean[0, 0] + half, rel=1e-12)


# Two articles per country: at seed 7 both countries' top-1% shares are 0 in
# enough replicates for zero-width model intervals, and their means coincide.
TINY_DIAGNOSTIC = ParameterSet(mu1=1.0, mu2=1.0, p1=0.002, p2=0.002, n_world=1000,
                               replicates=50, diagnostic=True)


class TestRunConfig:
    def test_diagnostic_mode_yields_nan_similarity(self):
        ps = ParameterSet(
            mu1=1.0, mu2=1.0, p1=0.2, p2=0.2, n_world=60, replicates=50, diagnostic=True
        )
        summary = run_config(ps, master_seed=1)
        assert summary.similarity.shape == (len(INDICATOR_NAMES),)
        assert np.isnan(summary.similarity).all()
        report = summarize([summary])
        assert report.table1 == {}

    @pytest.mark.parametrize("ps", [SMALL, TINY_DIAGNOSTIC], ids=["small", "diagnostic"])
    def test_arrays_match_the_interval_functions(self, ps):
        # One implementation per formula: every entry of the summary equals,
        # exactly, what the Interval functions give on the replicate statistics.
        summary = run_config(ps, master_seed=7)
        stats = replicate_statistics(ps, master_seed=7)
        series = {"arith": stats.arith, "geo": stats.log_mean,
                  "top1": stats.top[0], "top10": stats.top[1], "top50": stats.top[2]}
        sizes = (stats.n1, stats.n2)
        empirical = {}
        for i, n in enumerate(sizes):
            for j, name in enumerate(INDICATOR_NAMES):
                values = series[name][i]
                interval = empirical_interval(values)
                mean = float(values.mean())
                if name == "geo":
                    mean = float(np.expm1(values).mean())
                    interval = Interval(math.expm1(interval.lower), math.expm1(interval.upper))
                empirical[i, name] = (mean, interval)
                assert summary.mean[i, j] == mean
                assert summary.empirical[i, j].tolist() == [interval.lower, interval.upper]
            for k, name in enumerate(FORMULA_INDICATOR_NAMES):
                model = empirical_interval(series[name][i])
                p = float(series[name][i].mean())
                formula = (log_mean_interval(p, float(stats.log_sd[i].mean()), n)
                           if name == "geo" else proportion_interval(p, n))
                assert summary.model[i, k].tolist() == [model.lower, model.upper]
                assert summary.formula[i, k].tolist() == [formula.lower, formula.upper]
                if model.width > 0:
                    assert summary.discrepancy[i, k].tolist() == list(
                        limit_discrepancy(model, formula))
                else:
                    assert np.isnan(summary.discrepancy[i, k]).all()
        scores = similarities(summary.mean, summary.empirical)
        for j, name in enumerate(INDICATOR_NAMES):
            (m1, int1), (m2, int2) = sorted((empirical[0, name], empirical[1, name]),
                                            key=lambda pair: pair[0])
            expected = similarity(SimilarityInput(m1, m2, int1, int2))
            assert scores[j] == expected or math.isnan(scores[j]) and math.isnan(expected)
        if ps.diagnostic:
            assert np.isnan(summary.similarity).all()
        else:
            assert summary.similarity.tolist() == scores.tolist()
        # The NaN cases occur in the diagnostic configuration only: zero-width
        # model intervals and equal top-1% means.
        assert np.isnan(summary.discrepancy).any() == ps.diagnostic
        assert math.isnan(scores[INDICATOR_NAMES.index("top1")]) == ps.diagnostic

    def test_empirical_intervals_contain_95_percent(self):
        summary = run_config(SMALL, master_seed=7)
        stats = replicate_statistics(SMALL, master_seed=7)
        reps = SMALL.replicates
        series = {
            "arith": stats.arith,
            "geo": np.expm1(stats.log_mean),
            "top1": stats.top[0],
            "top10": stats.top[1],
            "top50": stats.top[2],
        }
        for j, (name, values) in enumerate(series.items()):
            assert name == INDICATOR_NAMES[j]
            for i in (0, 1):
                lower, upper = summary.empirical[i, j]
                inside = np.count_nonzero((values[i] >= lower) & (values[i] <= upper))
                assert inside >= math.ceil(0.95 * reps)

    def test_widest_separation_distinguishes_all_indicators(self):
        ps = ParameterSet(mu1=0.9, mu2=1.1, p1=0.25, p2=0.25, n_world=50_000, replicates=200)
        summary = run_config(ps, master_seed=1)
        assert (summary.similarity < 1.0).all()

    def test_serialisation_round_trip(self):
        summary = run_config(SMALL, master_seed=7)
        payload = summary.to_dict()
        assert payload["mu1"] == SMALL.mu1
        assert set(payload["similarity"]) == set(INDICATOR_NAMES)
        assert payload["country1"]["arith"]["formula"] is None
        geo = payload["country1"]["geo"]
        assert geo["model"][0] <= geo["model"][1]
        assert geo["discrepancy"] is not None

    def test_pickle_round_trip_keeps_arrays_read_only(self):
        summary = run_config(SMALL, master_seed=7)
        back = pickle.loads(pickle.dumps(summary))
        assert back.to_dict() == summary.to_dict()
        for name in ("mean", "empirical", "model", "formula", "discrepancy", "similarity"):
            assert getattr(summary, name).flags.writeable is False
            assert getattr(back, name).flags.writeable is False
        with pytest.raises(ValueError):
            summary.mean[0, 0] = 0.0


class TestSweep:
    def test_process_count_does_not_change_results(self):
        grid = generate_grid(
            mu_values=(0.9, 1.0, 1.1), p_values=(0.1, 0.2), n_values=(200,), replicates=50
        )
        serial = run_sweep(grid, master_seed=11, processes=1)
        parallel = run_sweep(grid, master_seed=11, processes=4)
        assert [s.to_dict() for s in serial] == [s.to_dict() for s in parallel]

    def test_results_in_grid_order(self):
        grid = generate_grid(mu_values=(0.9, 1.0), p_values=(0.1,), n_values=(100, 200), replicates=40)
        results = run_sweep(grid, master_seed=2, processes=2)
        assert [r.params.config_index for r in results] == [ps.config_index for ps in grid]

    def test_progress_reports_rate_and_eta(self, caplog):
        grid = generate_grid(mu_values=(0.9, 1.0), p_values=(0.1,), n_values=(100, 200),
                             replicates=40)
        with caplog.at_level(logging.INFO, logger="citesim.experiment"):
            run_sweep(grid, master_seed=2)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("completed")]
        pattern = r"completed (\d+)/2 configurations \((\d+\.\d) configs/s, ETA (\d+) s\)"
        assert [re.fullmatch(pattern, line).group(1) for line in lines] == ["1", "2"]
        assert re.fullmatch(pattern, lines[-1]).group(3) == "0"


def _fake_summary(n_world, sims, diagnostic=False, discrepancy=(0.1, -0.05)):
    ps = ParameterSet(
        mu1=0.9, mu2=0.9 if diagnostic else 1.0, p1=0.1, p2=0.1,
        n_world=n_world, replicates=1000, diagnostic=diagnostic,
    )
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


class TestSummarize:
    def test_empty_rows(self):
        report = summarize([])
        assert report.table1 == {} and report.table2 == {} and report.records == []

    def test_single_hit_counted_once(self):
        sims = {name: 1.2 for name in INDICATOR_NAMES}
        sims["geo"] = 0.99
        report = summarize([_fake_summary(500, sims)])
        assert report.table1[(500, "geo")].count == 1
        assert report.table1[(500, "arith")].count == 0
        assert report.table1[(500, "geo")].total == 1

    def test_diagnostic_rows_excluded(self):
        sims = {name: math.nan for name in INDICATOR_NAMES}
        report = summarize([_fake_summary(500, sims, diagnostic=True)])
        assert report.table1 == {}
        assert report.table2 == {}

    def test_discrepancy_statistics(self):
        rows = [
            _fake_summary(500, {n: 0.5 for n in INDICATOR_NAMES}, discrepancy=(0.2, 0.0)),
            _fake_summary(500, {n: 0.5 for n in INDICATOR_NAMES}, discrepancy=(0.4, 0.1)),
        ]
        cell = summarize(rows).table2[("geo", "lower", 500)]
        assert cell.mean == pytest.approx(0.3)
        assert (cell.minimum, cell.maximum) == (0.2, 0.4)
        assert cell.sd == pytest.approx(np.std([0.2, 0.4], ddof=1))
        assert cell.n == 2

    def test_nan_discrepancies_skipped(self):
        rows = [
            _fake_summary(500, {n: 0.5 for n in INDICATOR_NAMES}, discrepancy=(math.nan, math.nan)),
            _fake_summary(500, {n: 0.5 for n in INDICATOR_NAMES}, discrepancy=(0.4, 0.1)),
        ]
        cell = summarize(rows).table2[("geo", "lower", 500)]
        assert cell.mean == pytest.approx(0.4)
        assert cell.n == 1

    def test_percent_rounding(self):
        sims_hit = {name: 0.5 for name in INDICATOR_NAMES}
        sims_miss = {name: 1.5 for name in INDICATOR_NAMES}
        rows = [_fake_summary(500, sims_hit)] + [_fake_summary(500, sims_miss)] * 2
        cell = summarize(rows).table1[(500, "geo")]
        assert (cell.count, cell.total, cell.percent) == (1, 3, 33)
