"""Sweep engine tests: grid, seeding, replicate statistics, aggregation."""

import dataclasses
import hashlib
import logging
import math
import os
import pickle
import re

import numpy as np
import pytest
from scipy import stats as sps

from citesim import experiment
from citesim._special import ndtri, stdtrit
from citesim.distribution import rest_of_world_location, table_top
from citesim.experiment import (
    ConfigSummary,
    FORMULA_INDICATOR_NAMES,
    INDICATOR_NAMES,
    REPLICATE_STATISTICS,
    ParameterSet,
    derive_seed,
    generate_grid,
    replicate_statistics,
    run_config,
    run_sweep,
    summarize,
    total_draws,
)
from citesim.indicators import TOP_SHARES, tie_credit
from citesim.intervals import formula_limits
from helpers import (
    COUNTRY_1,
    COUNTRY_2,
    REST,
    WorldReplicate,
    chi_square_gof,
    country_indicators,
    credit_oracle,
    discrepancy_oracle,
    empirical_oracle,
    fake_summary,
    normal_interval_oracle,
    replicate_world,
    similarity_oracle,
    t_interval_oracle,
)

SMALL = ParameterSet(mu1=0.9, mu2=1.1, p1=0.2, p2=0.1, n_world=60, replicates=50)
# sigma = 3 puts about 1% of articles above the count table.
HEAVY_TAIL = ParameterSet(mu1=0.9, mu2=1.1, p1=0.2, p2=0.1, n_world=200, sigma=3.0,
                          replicates=100)
LARGE_WORLD = ParameterSet(mu1=0.9, mu2=1.1, p1=0.2, p2=0.1, n_world=50_000, replicates=128)
# Row of each statistic in replicate_statistics' (country, statistic, replicate) array.
ROW = {name: k for k, name in enumerate(REPLICATE_STATISTICS)}


class TestParameterSet:
    def test_equal_means_are_diagnostic(self):
        # records.jsonl derives its "diagnostic" key from mu1 == mu2; no
        # configuration sets it.
        with pytest.raises(TypeError):
            ParameterSet(mu1=0.9, mu2=1.0, p1=0.1, p2=0.1, n_world=100, diagnostic=True)

    def test_descending_means_always_rejected(self):
        with pytest.raises(ValueError):
            ParameterSet(mu1=1.1, mu2=0.9, p1=0.1, p2=0.1, n_world=100)

    def test_country_sizes_on_grid(self):
        ps = ParameterSet(mu1=0.9, mu2=1.0, p1=0.05, p2=0.25, n_world=500)
        assert ps.country_sizes() == (25, 125, 350)

    def test_share_validation_delegated(self):
        with pytest.raises(ValueError):
            ParameterSet(mu1=0.9, mu2=1.0, p1=0.7, p2=0.3, n_world=100)

    @pytest.mark.parametrize("field,value", [
        ("sigma", 0.0), ("sigma", math.nan), ("sigma", math.inf), ("mu1", -math.inf),
        ("mu2", math.nan),
        ("mu_overall", math.inf), ("n_world", 0), ("replicates", 0),
    ])
    def test_invalid_field_rejected(self, field, value):
        kwargs = dict(mu1=0.9, mu2=1.0, p1=0.1, p2=0.1, n_world=100)
        with pytest.raises(ValueError, match=field):
            ParameterSet(**{**kwargs, field: value})


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
                mu_values=(0.9, 1.0, 2.5),
                p_values=(0.25,),
                n_values=(500,),
                mu_overall=1.0,
            )
        assert [(ps.mu1, ps.mu2) for ps in grid] == [(0.9, 1.0)]
        skipped = [rec.message for rec in caplog.records if "infeasible" in rec.message]
        assert len(skipped) == 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            generate_grid(mu_values=())
        with pytest.raises(ValueError):
            generate_grid(mu_values=(1.0, 0.9))

    def test_single_location_rejected(self):
        with pytest.raises(ValueError, match="two locations"):
            generate_grid(mu_values=(1.0,))

    def test_grid_without_feasible_configuration_rejected(self):
        with pytest.raises(ValueError, match="no feasible configurations"):
            generate_grid(mu_values=(0.9, 2.5), p_values=(0.25,), n_values=(500,))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)

    def test_sensitive_to_every_component(self):
        base = derive_seed(1, 2)
        assert derive_seed(2, 2) != base
        assert derive_seed(1, 3) != base

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
    def test_matches_public_indicator_pipeline(self, ps, monkeypatch):
        exact_blocks = []
        value_axis = experiment._value_axis
        monkeypatch.setattr(experiment, "_value_axis",
                            lambda *args: exact_blocks.append(args) or value_axis(*args))
        stats = replicate_statistics(ps, master_seed=7)
        n1, n2, n0 = ps.country_sizes()
        membership = np.repeat([COUNTRY_1, COUNTRY_2, REST], [n1, n2, n0])
        # Top-1% cutoffs among the counts drawn above the count table, which
        # the heavy tail must reach.
        mu0 = rest_of_world_location(ps.mu_overall, ps.mu1, ps.mu2, ps.p1, ps.p2)
        table_end = table_top(max(ps.mu1, ps.mu2, mu0), ps.sigma)
        tail_cutoffs = 0
        for r in range(ps.replicates):
            counts = replicate_world(ps, 7, r)
            top1 = credit_oracle(counts.tolist(), 1.0)
            tail_cutoffs += min(c for c, credit in zip(counts, top1) if credit > 0) >= table_end
            world = WorldReplicate(counts, membership)
            for i, country in enumerate((COUNTRY_1, COUNTRY_2)):
                expected = country_indicators(world, country)
                assert stats[i, ROW["arith"], r] == pytest.approx(expected.arith, rel=1e-12)
                assert math.expm1(stats[i, ROW["log_mean"], r]) == pytest.approx(expected.geo,
                                                                                 rel=1e-12)
                assert stats[i, ROW["top1"], r] == pytest.approx(expected.top1, abs=1e-12)
                assert stats[i, ROW["top10"], r] == pytest.approx(expected.top10, abs=1e-12)
                assert stats[i, ROW["top50"], r] == pytest.approx(expected.top50, abs=1e-12)
                mine = counts[membership == country]
                assert stats[i, ROW["log_sd"], r] == pytest.approx(np.log1p(mine).std(ddof=1),
                                                                   rel=1e-9)
        assert tail_cutoffs > 0 or ps is not HEAVY_TAIL
        assert exact_blocks or ps is not HEAVY_TAIL

    @pytest.mark.parametrize("ps", [SMALL, LARGE_WORLD], ids=["small", "large-world"])
    def test_lumped_and_value_axis_paths_agree(self, ps):
        # Every block reduced again over _value_axis, the exact path, as the
        # whole reduction once was: integer sums and credits agree exactly,
        # the ln(1 + c) sums only to rounding, being summed in another order.
        stats = replicate_statistics(ps, master_seed=7)
        sizes = np.array(ps.country_sizes()[:2])[:, None]
        for start, table_end, draws in experiment._world_blocks(ps, 7):
            hists = experiment._value_axis(table_end, draws)
            tails = np.concatenate([tail for _, tail in draws]) - 1
            axis = np.concatenate([np.arange(table_end), np.unique(tails)]).astype(np.float64)
            assert axis.size == hists.shape[-1]
            block = stats[:, :, start:start + hists.shape[1]]
            countries = hists[1:3]
            _, _, credits = tie_credit(hists[0], np.array(TOP_SHARES)[:, None], countries)
            assert block[:, 2:5].tolist() == (credits / sizes[:, :, None]).tolist()
            assert block[:, 0].tolist() == (countries @ axis / sizes).tolist()
            logs = np.log1p(axis)
            m = countries @ logs / sizes
            sd = np.sqrt((countries @ (logs * logs) - sizes * m * m) / (sizes - 1))
            np.testing.assert_allclose(block[:, 1], m, rtol=1e-13, atol=0)
            np.testing.assert_allclose(block[:, 5], sd, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n_world", [500, 5000, 50_000])
    def test_light_tails_never_take_the_exact_path(self, n_world, monkeypatch):
        # At sigma 1 the world's count above the table stays far below the
        # top 1%'s q, so every block is reduced on the table's own axis.
        def refuse(*args):
            raise AssertionError("a block went through _value_axis")

        monkeypatch.setattr(experiment, "_value_axis", refuse)
        ps = ParameterSet(mu1=0.9, mu2=1.1, p1=0.2, p2=0.1, n_world=n_world, replicates=200)
        assert np.isfinite(replicate_statistics(ps, master_seed=7)).all()

    @pytest.mark.parametrize("country1_tail", [[51], [51, 46]], ids=["at-q", "above-q"])
    def test_cutoff_in_lumped_cell_takes_exact_path(self, country1_tail, monkeypatch):
        # One hand-made world of 200 articles over a four-cell table, so the
        # top 1% holds q = 2 articles.  Its tail (shifted counts above the
        # table) is either exactly q articles or more: either way the cutoff
        # sits in the lumped cell and the credits must come from the exact path.
        ps = ParameterSet(mu1=0.9, mu2=1.1, p1=0.2, p2=0.1, n_world=200, replicates=1)
        lumped = len(country1_tail)
        draws = [(np.array([[10, 10, 10, 10 - lumped, lumped]]), np.array(country1_tail)),
                 (np.array([[5, 5, 5, 4, 1]]), np.array([41])),
                 (np.array([[35, 35, 35, 35, 0]]), np.empty(0, dtype=np.int64))]
        monkeypatch.setattr(experiment, "_world_blocks", lambda *args: iter([(0, 4, draws)]))
        exact_blocks = []
        value_axis = experiment._value_axis
        monkeypatch.setattr(experiment, "_value_axis",
                            lambda *args: exact_blocks.append(args) or value_axis(*args))
        stats = replicate_statistics(ps, master_seed=0)
        assert len(exact_blocks) == 1
        groups = [np.concatenate([np.repeat(np.arange(4), hist[0, :4]), tail - 1])
                  for hist, tail in draws]
        world = WorldReplicate(np.concatenate(groups), np.repeat([COUNTRY_1, COUNTRY_2, REST],
                                                                 [40, 20, 140]))
        for i, country in enumerate((COUNTRY_1, COUNTRY_2)):
            expected = country_indicators(world, country)
            assert stats[i, ROW["arith"], 0] == expected.arith
            assert math.expm1(stats[i, ROW["log_mean"], 0]) == pytest.approx(expected.geo,
                                                                             rel=1e-12)
            tops = stats[i, [ROW["top1"], ROW["top10"], ROW["top50"]], 0]
            assert tops.tolist() == pytest.approx(
                [expected.top1, expected.top10, expected.top50], abs=1e-12)
        # The above-q world's two most cited articles are both country 1's;
        # the lumped cell would have split the two slots over its three.
        top1 = stats[:, ROW["top1"], 0].tolist()
        assert top1 == ([1 / 40, 1 / 20] if lumped == 1 else [2 / 40, 0])

    def test_world_sampler_distribution(self):
        # equal locations everywhere turn the world into one iid sample
        ps = ParameterSet(
            mu1=1.0, mu2=1.0, p1=0.2, p2=0.2, n_world=500,
            mu_overall=1.0, replicates=400,
        )
        pooled = np.concatenate([replicate_world(ps, 3, r) for r in range(ps.replicates)])
        stat, dof = chi_square_gof(np.bincount(pooled), [], mu=1.0, sigma=1.0)
        assert stat < sps.chi2.ppf(0.999, dof)

    def test_world_tail_draws_follow_the_lognormal(self):
        # Equal locations everywhere at sigma 3, where about 1% of the counts
        # lie above the count table: those values are the lognormal draws
        # beyond the table's last count, rounded to the nearest integer.
        mu, sigma = 1.0, 3.0
        ps = ParameterSet(mu1=mu, mu2=mu, p1=0.2, p2=0.2, n_world=500, sigma=sigma,
                          mu_overall=mu, replicates=200)
        blocks = list(experiment._world_blocks(ps, 3))
        top = blocks[0][1]
        tails = np.concatenate([tail for _, _, draws in blocks for _, tail in draws])
        beyond = sps.norm.sf((math.log(top + 0.5) - mu) / sigma)
        assert tails.size > 500

        def rounded_cdf(x):
            return 1.0 - sps.norm.sf((np.log(x + 0.5) - mu) / sigma) / beyond

        assert sps.kstest(tails, rounded_cdf).pvalue > 1e-3

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
        lower, upper = formula_limits([float(y.mean())], float(y.std(ddof=1)), n1)[0]
        t_q = sps.t.ppf(0.975, n1 - 1)
        half = t_q * stats[0, ROW["log_sd"], 0] / math.sqrt(n1)
        assert lower == pytest.approx(stats[0, ROW["log_mean"], 0] - half, rel=1e-12)
        assert upper == pytest.approx(stats[0, ROW["log_mean"], 0] + half, rel=1e-12)


# Two articles per country at one location (mu1 == mu2): at seed 7 both
# countries' top-1% shares are 0 in enough replicates for zero-width model
# intervals, and their means coincide.
TINY_DIAGNOSTIC = ParameterSet(mu1=1.0, mu2=1.0, p1=0.002, p2=0.002, n_world=1000,
                               replicates=50)


class TestRunConfig:
    @pytest.mark.parametrize("ps", [SMALL, TINY_DIAGNOSTIC], ids=["small", "diagnostic"])
    def test_arrays_match_the_interval_functions(self, ps):
        # Every entry of the summary equals, exactly, what the independent
        # one-case oracles give on the replicate statistics.  The oracles
        # take the library's quantiles, whose accuracy test_special pins.
        summary = run_config(ps, master_seed=7)
        stats = replicate_statistics(ps, master_seed=7)
        series = {name: stats[:, ROW["log_mean" if name == "geo" else name]]
                  for name in INDICATOR_NAMES}
        sizes = ps.country_sizes()[:2]
        empirical = {}
        for i, n in enumerate(sizes):
            for j, name in enumerate(INDICATOR_NAMES):
                values = series[name][i]
                interval = empirical_oracle(values)
                mean = float(values.mean())
                if name == "geo":
                    mean = float(np.expm1(values).mean())
                    interval = tuple(math.expm1(v) for v in interval)
                empirical[i, name] = (mean, interval)
                assert summary.mean[i, j] == mean
                assert summary.empirical[i, j].tolist() == list(interval)
            for k, name in enumerate(FORMULA_INDICATOR_NAMES):
                model = empirical_oracle(series[name][i])
                p = float(series[name][i].mean())
                formula = (t_interval_oracle(p, float(stats[i, ROW["log_sd"]].mean()), n,
                                             stdtrit(n - 1, 0.975))
                           if name == "geo" else normal_interval_oracle(p, n, ndtri(0.975)))
                assert summary.model[i, k].tolist() == list(model)
                assert summary.formula[i, k].tolist() == list(formula)
                np.testing.assert_array_equal(summary.discrepancy[i, k],
                                              discrepancy_oracle(model, formula))
        scores = [similarity_oracle(*empirical[0, name], *empirical[1, name])
                  for name in INDICATOR_NAMES]
        np.testing.assert_array_equal(summary.similarity, scores)
        # The NaN cases occur in the tiny configuration only: zero-width
        # model intervals and equal top-1% means.
        tiny = ps is TINY_DIAGNOSTIC
        assert np.isnan(summary.discrepancy).any() == tiny
        assert math.isnan(scores[INDICATOR_NAMES.index("top1")]) == tiny

    def test_empirical_intervals_contain_95_percent(self):
        summary = run_config(SMALL, master_seed=7)
        stats = replicate_statistics(SMALL, master_seed=7)
        reps = SMALL.replicates
        series = {
            "arith": stats[:, ROW["arith"]],
            "geo": np.expm1(stats[:, ROW["log_mean"]]),
            "top1": stats[:, ROW["top1"]],
            "top10": stats[:, ROW["top10"]],
            "top50": stats[:, ROW["top50"]],
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


SUMMARY_ARRAYS = ("mean", "empirical", "model", "formula", "discrepancy", "similarity")


def assert_same_summary(got, want):
    for name in SUMMARY_ARRAYS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


class TestRunOrder:
    BASE = ParameterSet(mu1=0.9, mu2=1.1, p1=0.2, p2=0.1, n_world=200, replicates=40,
                        config_index=5)

    def test_results_do_not_depend_on_the_configuration_before(self):
        want = run_config(self.BASE, master_seed=7)
        same_set = dataclasses.replace(self.BASE, n_world=100, config_index=4)
        # Same country locations, so only the rest of the world's one moves.
        other_shares = dataclasses.replace(self.BASE, p1=0.1, p2=0.2, config_index=3)
        other_sigma = dataclasses.replace(self.BASE, sigma=1.5, config_index=2)
        for before in (same_set, other_shares, other_sigma):
            run_config(before, master_seed=7)
            assert_same_summary(run_config(self.BASE, master_seed=7), want)


class TestSweep:
    def test_process_count_does_not_change_results(self):
        grid = generate_grid(
            mu_values=(0.9, 1.0, 1.1), p_values=(0.1, 0.2), n_values=(200,), replicates=50
        )
        serial = run_sweep(grid, master_seed=11, processes=1)
        parallel = run_sweep(grid, master_seed=11, processes=4)
        assert [s.to_dict() for s in serial] == [s.to_dict() for s in parallel]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_summaries_come_back_as_run_config_makes_them(self, processes):
        # A summary comes back from its worker pickled, with its encoded
        # text and read-only arrays, and equals the one run_config returns
        # here.  36 configurations give two processes runs of two.
        grid = generate_grid(mu_values=(0.9, 1.0, 1.1), p_values=(0.1, 0.2),
                             n_values=(100, 150, 200), replicates=40)
        for summary, ps in zip(run_sweep(grid, master_seed=3, processes=processes), grid):
            want = run_config(ps, master_seed=3)
            assert summary.params == ps
            assert "encoded" in vars(summary)  # encoded by the worker
            assert_same_summary(summary, want)
            assert summary.encoded == want.encoded
            for name in SUMMARY_ARRAYS:
                assert getattr(summary, name).flags.writeable is False, name

    def test_auto_process_count_follows_the_affinity_mask(self, monkeypatch):
        # processes=0 (--threads 0) under a one-CPU affinity mask runs in
        # this process, whatever os.cpu_count() says.
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(experiment.multiprocessing, "get_context", no_pool)
        grid = generate_grid(mu_values=(0.9, 1.0), p_values=(0.1,), n_values=(100, 200),
                             replicates=40)
        assert len(run_sweep(grid, master_seed=2, processes=0)) == len(grid)

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


class TestSummarize:
    def test_empty_rows(self):
        assert summarize([]) == ({}, {})

    def test_single_hit_counted_once(self):
        sims = {name: 1.2 for name in INDICATOR_NAMES}
        sims["geo"] = 0.99
        table1, _ = summarize([fake_summary(500, sims)])
        assert table1[(500, "geo")].count == 1
        assert table1[(500, "arith")].count == 0
        assert table1[(500, "geo")].total == 1

    def test_discrepancy_statistics(self):
        rows = [
            fake_summary(500, {n: 0.5 for n in INDICATOR_NAMES}, discrepancy=(0.2, 0.0)),
            fake_summary(500, {n: 0.5 for n in INDICATOR_NAMES}, discrepancy=(0.4, 0.1)),
        ]
        cell = summarize(rows)[1][("geo", "lower", 500)]
        assert cell.mean == pytest.approx(0.3)
        assert (cell.minimum, cell.maximum) == (0.2, 0.4)
        assert cell.sd == pytest.approx(np.std([0.2, 0.4], ddof=1))
        assert cell.n == 2

    def test_nan_discrepancies_skipped(self):
        rows = [
            fake_summary(500, {n: 0.5 for n in INDICATOR_NAMES}, discrepancy=(math.nan, math.nan)),
            fake_summary(500, {n: 0.5 for n in INDICATOR_NAMES}, discrepancy=(0.4, 0.1)),
        ]
        cell = summarize(rows)[1][("geo", "lower", 500)]
        assert cell.mean == pytest.approx(0.4)
        assert cell.n == 1

    def test_percent_rounding(self):
        sims_hit = {name: 0.5 for name in INDICATOR_NAMES}
        sims_miss = {name: 1.5 for name in INDICATOR_NAMES}
        rows = [fake_summary(500, sims_hit)] + [fake_summary(500, sims_miss)] * 2
        cell = summarize(rows)[0][(500, "geo")]
        assert (cell.count, cell.total, cell.percent) == (1, 3, 33)
