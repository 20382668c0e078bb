"""Indicator tests, anchored on a literal brute-force credit oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citesim.indicators import TOP_SHARES, tie_credit
from helpers import (
    COUNTRY_1,
    COUNTRY_2,
    REST,
    IndicatorSet,
    WorldReplicate,
    arithmetic_mean,
    country_indicators,
    credit_oracle,
    geometric_mean_offset,
)

count_arrays = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60)


def article_credit(counts, x_percent) -> np.ndarray:
    """Each article's tie_credit for the top x_percent, the article being
    a group of one on the world's axis."""
    counts = np.asarray(counts)
    one_hot = np.eye(counts.max() + 1)[counts]
    _, _, credit = tie_credit(one_hot.sum(axis=0), x_percent, one_hot)
    return credit


class TestArithmeticMean:
    def test_all_uncited(self):
        assert arithmetic_mean([0, 0, 0]) == 0.0

    def test_pair(self):
        assert arithmetic_mean([1, 3]) == 2.0

    def test_arithmetic_series(self):
        assert arithmetic_mean(range(10)) == 4.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])


class TestGeometricMeanOffset:
    def test_all_uncited(self):
        assert geometric_mean_offset([0, 0, 0]) == 0.0

    def test_hand_computed_pair(self):
        # exp((ln 2 + ln 4) / 2) - 1 = sqrt(8) - 1
        assert geometric_mean_offset([1, 3]) == pytest.approx(math.sqrt(8) - 1, rel=1e-12)

    def test_large_counts_stay_finite(self):
        # a plain product of 400 seven-digit factors would overflow
        assert math.isfinite(geometric_mean_offset([10**6] * 400))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean_offset([])

    @given(count_arrays)
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, counts):
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(counts)
        assert geometric_mean_offset(shuffled) == pytest.approx(
            geometric_mean_offset(counts), rel=1e-12
        )


class TestTopCredit:
    def test_boundary_tie_shares_equally(self):
        # 100 articles, top 1% cut at 10 citations, three articles tied
        # there and none above: each tied article is worth 1/3.
        counts = [10, 10, 10] + [3] * 50 + [0] * 47
        credit = article_credit(counts, 1.0)
        assert credit[:3] == pytest.approx([1 / 3] * 3, abs=1e-12)
        assert np.all(credit[3:] == 0.0)

    def test_tie_credit_over_stacked_worlds(self):
        # six worlds over nine values: two groups plus a rest at every value
        rng = np.random.default_rng(5)
        groups = rng.integers(0, 4, size=(2, 6, 9))
        world = groups.sum(axis=0) + rng.integers(1, 4, size=(6, 9))
        for x in TOP_SHARES:
            t, frac, credits = tie_credit(world, x, groups)
            for r in range(6):
                t_r, frac_r, credits_r = tie_credit(world[r], x, [g[r] for g in groups])
                assert (t[r], frac[r]) == (t_r, frac_r)
                assert credits[:, r].tolist() == credits_r.tolist()
        # an array of shares broadcasts against the worlds: every share in one call
        t, frac, credits = tie_credit(world, np.array(TOP_SHARES)[:, None], groups)
        for j, x in enumerate(TOP_SHARES):
            t_x, frac_x, credits_x = tie_credit(world, x, groups)
            assert t[j].tolist() == t_x.tolist()
            assert frac[j].tolist() == frac_x.tolist()
            assert credits[:, j].tolist() == credits_x.tolist()
        with pytest.raises(ValueError, match="world's axis"):
            tie_credit(world, 10.0, [groups[0][:, 1:]])

    def test_full_tie_gives_everyone_the_share(self):
        for x in TOP_SHARES:
            credit = article_credit([4] * 40, x)
            assert credit == pytest.approx([x / 100.0] * 40, abs=1e-12)

    def test_seven_article_worked_case(self):
        credit = article_credit([5, 4, 3, 3, 2, 1, 0], 50.0)
        assert credit == pytest.approx([1.0, 1.0, 0.75, 0.75, 0.0, 0.0, 0.0], abs=1e-12)

    def test_exact_block_fit_gets_full_credit(self):
        # q = 2 and exactly two articles at the cutoff: frac degenerates to 1
        t, frac, _ = tie_credit(np.bincount([7, 7, 1, 0]), 50.0)
        assert (t, frac) == (7, 1.0)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            counts = rng.integers(0, 13, size=n)
            x = float(rng.choice([1.0, 10.0, 50.0]))
            credit = article_credit(counts, x)
            assert credit == pytest.approx(credit_oracle(counts, x), abs=1e-9)
            assert credit.sum() == pytest.approx(x / 100.0 * n, abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 20, size=200)
        for x in TOP_SHARES:
            base = article_credit(counts, x)
            shifted = article_credit(counts + 7, x)
            assert np.array_equal(base, shifted)

    @given(count_arrays, st.sampled_from([1.0, 10.0, 50.0]))
    @settings(max_examples=200, deadline=None)
    def test_credit_conservation(self, counts, x):
        credit = article_credit(counts, x)
        assert credit.sum() == pytest.approx(x / 100.0 * len(counts), abs=1e-9)


class TestCountryIndicators:
    def test_country_holding_whole_world(self):
        counts = np.arange(40)
        world = WorldReplicate(counts, [COUNTRY_1] * 40)
        result = country_indicators(world, COUNTRY_1)
        assert result.top50 == pytest.approx(0.5, abs=1e-12)
        assert result.top10 == pytest.approx(0.1, abs=1e-12)
        assert result.top1 == pytest.approx(0.01, abs=1e-12)

    def test_dominant_small_country(self):
        counts = [50, 49] + [5] * 198
        membership = [COUNTRY_1] * 2 + [REST] * 198
        result = country_indicators(WorldReplicate(counts, membership), COUNTRY_1)
        assert result.top1 == 1.0

    def test_against_oracle_on_small_world(self):
        rng = np.random.default_rng(77)
        counts = rng.integers(0, 8, size=20)
        membership = np.array([COUNTRY_1] * 4 + [COUNTRY_2] * 4 + [REST] * 12)
        world = WorldReplicate(counts, membership)
        for country in (COUNTRY_1, COUNTRY_2):
            mine = counts[membership == country]
            got = country_indicators(world, country)
            assert got.arith == pytest.approx(mine.mean())
            assert got.geo == pytest.approx(math.exp(np.log1p(mine).mean()) - 1)
            for x, name in zip(TOP_SHARES, ("top1", "top10", "top50")):
                oracle = np.asarray(credit_oracle(counts, x))
                expected = oracle[membership == country].sum() / mine.size
                assert getattr(got, name) == pytest.approx(expected, abs=1e-9)

    def test_world_permutation_invariant(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 15, size=60)
        membership = np.array([COUNTRY_1] * 10 + [COUNTRY_2] * 20 + [REST] * 30)
        order = rng.permutation(60)
        before = country_indicators(WorldReplicate(counts, membership), COUNTRY_1)
        after = country_indicators(WorldReplicate(counts[order], membership[order]), COUNTRY_1)
        assert before == after

    def test_empty_country_rejected(self):
        world = WorldReplicate([1, 2, 3], [REST, REST, REST])
        with pytest.raises(ValueError):
            country_indicators(world, COUNTRY_1)

    @given(count_arrays)
    @settings(max_examples=150, deadline=None)
    def test_geo_never_exceeds_arith(self, counts):
        world = WorldReplicate(counts, [COUNTRY_1] * len(counts))
        result = country_indicators(world, COUNTRY_1)
        assert result.geo <= result.arith + 1e-12
        if len(set(counts)) > 1:
            assert result.geo < result.arith
        else:
            assert result.geo == pytest.approx(result.arith, abs=1e-9)


class TestWorldReplicate:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WorldReplicate(np.array([1, 2]), np.array([0]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            WorldReplicate(np.array([-1]), np.array([0]))

    def test_from_groups_layout(self):
        world = WorldReplicate.from_groups([1, 2], [3], [4, 5, 6])
        assert np.array_equal(world.counts, [1, 2, 3, 4, 5, 6])
        assert np.array_equal(world.membership, [0, 0, 1, 2, 2, 2])

    def test_indicator_set_by_name(self):
        result = IndicatorSet(1.0, 0.5, 0.01, 0.1, 0.5)
        assert set(result.by_name()) == {"arith", "geo", "top1", "top10", "top50"}
