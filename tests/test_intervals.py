"""Interval construction, similarity scoring and discrepancy tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from citesim.intervals import (
    Interval,
    SimilarityInput,
    empirical_interval,
    limit_discrepancy,
    log_mean_interval,
    proportion_interval,
    similarity,
)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            Interval(0.0, 1.0, kind="guessed")

    def test_width(self):
        assert Interval(1.0, 3.5).width == 2.5


class TestEmpiricalInterval:
    def test_identity_sequence(self):
        interval = empirical_interval(np.arange(1, 1001))
        assert (interval.lower, interval.upper) == (25.0, 976.0)

    def test_constant_input(self):
        interval = empirical_interval([7.0] * 100)
        assert (interval.lower, interval.upper) == (7.0, 7.0)

    def test_uniform_coverage(self):
        rng = np.random.default_rng(11)
        values = rng.random(1000)
        interval = empirical_interval(values)
        inside = np.count_nonzero((values >= interval.lower) & (values <= interval.upper))
        assert inside >= 950

    def test_minimum_input_size(self):
        with pytest.raises(ValueError):
            empirical_interval(np.arange(39))
        interval = empirical_interval(np.arange(40))
        assert (interval.lower, interval.upper) == (0.0, 39.0)

    def test_rank_formula_at_one_hundred(self):
        # ceil(0.025 * 100) = 3: third smallest and third largest
        interval = empirical_interval(np.arange(100))
        assert (interval.lower, interval.upper) == (2.0, 97.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=40, max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_coverage_property(self, values):
        arr = np.asarray(values)
        interval = empirical_interval(arr)
        inside = np.count_nonzero((arr >= interval.lower) & (arr <= interval.upper))
        assert inside >= math.ceil(0.95 * arr.size)


class TestLogMeanInterval:
    def test_constant_counts_collapse(self):
        y = np.log1p([4] * 50)
        log_scale = log_mean_interval(float(y.mean()), float(y.std(ddof=1)), y.size)
        assert log_scale.lower == log_scale.upper == pytest.approx(math.log(5.0))

    def test_t_quantile_reference_value(self):
        # published table value for t at 97.5%, 99 degrees of freedom
        assert sps.t.ppf(0.975, 99) == pytest.approx(1.9842, abs=1e-4)

    def test_matches_scipy_interval(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 40, size=100)
        y = np.log1p(counts)
        expected = sps.t.interval(0.95, 99, loc=y.mean(), scale=y.std(ddof=1) / 10.0)
        log_scale = log_mean_interval(float(y.mean()), float(y.std(ddof=1)), y.size)
        assert (log_scale.lower, log_scale.upper) == pytest.approx(expected, rel=1e-12)

    def test_half_width_approaches_normal_limit(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 30, size=100_000)
        y = np.log1p(counts)
        log_scale = log_mean_interval(float(y.mean()), float(y.std(ddof=1)), y.size)
        half = (log_scale.upper - log_scale.lower) / 2.0
        assert half == pytest.approx(1.96 * y.std(ddof=1) / math.sqrt(y.size), rel=1e-3)

    def test_width_shrinks_like_root_n(self):
        # average interval width at n versus 4n should be ~2x over many runs
        rng = np.random.default_rng(10)
        n = 32
        reps = 100_000
        t_small = sps.t.ppf(0.975, n - 1)
        t_big = sps.t.ppf(0.975, 4 * n - 1)
        small = np.log1p(rng.integers(0, 30, size=(reps, n)))
        big = np.log1p(rng.integers(0, 30, size=(reps, 4 * n)))
        width_small = 2 * t_small * small.std(axis=1, ddof=1) / math.sqrt(n)
        width_big = 2 * t_big * big.std(axis=1, ddof=1) / math.sqrt(4 * n)
        ratio = width_small.mean() / width_big.mean()
        assert ratio == pytest.approx(2.0, rel=0.1)
        # spot-check the vectorised arithmetic against the public function
        log_scale = log_mean_interval(float(small[0].mean()), float(small[0].std(ddof=1)), n)
        assert log_scale.width == pytest.approx(width_small[0], rel=1e-9)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            log_mean_interval(math.log(4.0), 0.0, 1)


class TestProportionInterval:
    def test_degenerate_at_zero(self):
        interval = proportion_interval(0.0, 50)
        assert (interval.lower, interval.upper) == (0.0, 0.0)

    def test_hand_computed_half_width(self):
        # 1.96 * sqrt(0.25 / 100) = 0.098
        interval = proportion_interval(0.5, 100)
        assert interval.lower == pytest.approx(0.402, abs=1e-4)
        assert interval.upper == pytest.approx(0.598, abs=1e-4)

    def test_width_vanishes_with_n(self):
        widths = [proportion_interval(0.5, n).width for n in (10, 1000, 100_000)]
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 0.01

    def test_limits_not_clamped(self):
        interval = proportion_interval(0.04, 25)
        assert interval.lower < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_interval(1.2, 10)
        with pytest.raises(ValueError):
            proportion_interval(0.5, 0)

    @given(st.integers(0, 1024), st.integers(1, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_reflection_symmetry(self, numerator, n):
        # dyadic p keeps both p and 1-p exactly representable
        p = numerator / 1024.0
        forward = proportion_interval(p, n)
        mirrored = proportion_interval(1.0 - p, n)
        assert forward.lower == pytest.approx(1.0 - mirrored.upper, abs=1e-12)
        assert forward.upper == pytest.approx(1.0 - mirrored.lower, abs=1e-12)


class TestSimilarity:
    def test_boundary_case_is_one(self):
        pair = SimilarityInput(0.0, 1.0, Interval(-1.0, 1.0), Interval(0.0, 2.0))
        assert similarity(pair) == pytest.approx(1.0)

    def test_double_degenerate_intervals_give_half(self):
        pair = SimilarityInput(0.001, 0.004, Interval(0.0, 0.0), Interval(0.0, 0.0))
        assert similarity(pair) == pytest.approx(0.5)

    def test_hand_evaluated(self):
        pair = SimilarityInput(0.0, 10.0, Interval(-1.0, 1.0), Interval(9.0, 11.0))
        assert similarity(pair) == pytest.approx(0.1)

    def test_equal_means_yield_nan(self):
        pair = SimilarityInput(1.0, 1.0, Interval(0.0, 2.0), Interval(0.0, 2.0))
        assert math.isnan(similarity(pair))

    def test_descending_means_rejected(self):
        with pytest.raises(ValueError):
            SimilarityInput(2.0, 1.0, Interval(0.0, 3.0), Interval(0.0, 3.0))

    @given(
        shift=st.floats(-1e3, 1e3),
        scale=st.floats(1e-3, 1e3),
        gap=st.floats(0.1, 10.0),
        up1=st.floats(0.0, 5.0),
        low2=st.floats(0.0, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_and_scale_invariance(self, shift, scale, gap, up1, low2):
        base = SimilarityInput(0.0, gap, Interval(-1.0, up1), Interval(gap - low2, gap + 1.0))
        moved = SimilarityInput(
            shift,
            gap + shift,
            Interval(-1.0 + shift, up1 + shift),
            Interval(gap - low2 + shift, gap + 1.0 + shift),
        )
        scaled = SimilarityInput(
            0.0,
            gap * scale,
            Interval(-scale, up1 * scale),
            Interval((gap - low2) * scale, (gap + 1.0) * scale),
        )
        reference = similarity(base)
        assert similarity(moved) == pytest.approx(reference, rel=1e-6, abs=1e-9)
        assert similarity(scaled) == pytest.approx(reference, rel=1e-6, abs=1e-9)


class TestLimitDiscrepancy:
    def test_conservative_formula(self):
        lower, upper = limit_discrepancy(Interval(0.0, 10.0), Interval(-1.0, 11.0, "formula"))
        assert (lower, upper) == pytest.approx((0.1, 0.1))

    def test_identical_intervals(self):
        lower, upper = limit_discrepancy(Interval(0.0, 10.0), Interval(0.0, 10.0, "formula"))
        assert (lower, upper) == (0.0, 0.0)

    def test_anti_conservative_formula(self):
        lower, upper = limit_discrepancy(Interval(0.0, 10.0), Interval(1.0, 9.0, "formula"))
        assert (lower, upper) == pytest.approx((-0.1, -0.1))

    def test_degenerate_model_rejected(self):
        with pytest.raises(ValueError):
            limit_discrepancy(Interval(1.0, 1.0), Interval(0.0, 2.0, "formula"))
