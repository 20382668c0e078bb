"""Interval construction, similarity scoring and discrepancy tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from citesim.intervals import (
    empirical_limits,
    formula_limits,
    limit_discrepancies,
    similarities,
)


def _similarity(mean1, mean2, limits1, limits2) -> float:
    """similarities of one pair of groups, each a mean and (lower, upper) limits."""
    return float(similarities([mean1, mean2], [limits1, limits2]))


class TestEmpiricalInterval:
    def test_identity_sequence(self):
        assert empirical_limits(np.arange(1, 1001)).tolist() == [25.0, 976.0]

    def test_constant_input(self):
        assert empirical_limits([7.0] * 100).tolist() == [7.0, 7.0]

    def test_uniform_coverage(self):
        rng = np.random.default_rng(11)
        values = rng.random(1000)
        lower, upper = empirical_limits(values)
        inside = np.count_nonzero((values >= lower) & (values <= upper))
        assert inside >= 950

    def test_minimum_input_size(self):
        with pytest.raises(ValueError):
            empirical_limits(np.arange(39))
        assert empirical_limits(np.arange(40)).tolist() == [0.0, 39.0]

    def test_rank_formula_at_one_hundred(self):
        # ceil(0.025 * 100) = 3: third smallest and third largest
        assert empirical_limits(np.arange(100)).tolist() == [2.0, 97.0]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=40, max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_coverage_property(self, values):
        arr = np.asarray(values)
        lower, upper = empirical_limits(arr)
        inside = np.count_nonzero((arr >= lower) & (arr <= upper))
        assert inside >= math.ceil(0.95 * arr.size)


def _log_mean_limits(mean, sd, n):
    """formula_limits' t interval (column 0) for one mean of ln(1 + c)."""
    return formula_limits([mean], sd, n)[0]


def _proportion_limits(p, n):
    """formula_limits' normal interval (a later column) for one proportion."""
    return formula_limits([0.0, p], 0.0, n)[1]


class TestLogMeanInterval:
    def test_constant_counts_collapse(self):
        y = np.log1p([4] * 50)
        lower, upper = _log_mean_limits(float(y.mean()), float(y.std(ddof=1)), y.size)
        assert lower == upper == pytest.approx(math.log(5.0))

    def test_t_quantile_reference_value(self):
        # published table value for t at 97.5%, 99 degrees of freedom
        assert sps.t.ppf(0.975, 99) == pytest.approx(1.9842, abs=1e-4)

    def test_matches_scipy_interval(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 40, size=100)
        y = np.log1p(counts)
        expected = sps.t.interval(0.95, 99, loc=y.mean(), scale=y.std(ddof=1) / 10.0)
        limits = _log_mean_limits(float(y.mean()), float(y.std(ddof=1)), y.size)
        assert tuple(limits) == pytest.approx(expected, rel=1e-12)

    def test_half_width_approaches_normal_limit(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 30, size=100_000)
        y = np.log1p(counts)
        lower, upper = _log_mean_limits(float(y.mean()), float(y.std(ddof=1)), y.size)
        half = (upper - lower) / 2.0
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
        # spot-check the vectorised arithmetic against the library
        lower, upper = _log_mean_limits(float(small[0].mean()), float(small[0].std(ddof=1)), n)
        assert upper - lower == pytest.approx(width_small[0], rel=1e-9)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            _log_mean_limits(math.log(4.0), 0.0, 1)


class TestProportionInterval:
    def test_degenerate_at_zero(self):
        assert _proportion_limits(0.0, 50).tolist() == [0.0, 0.0]

    def test_hand_computed_half_width(self):
        # 1.96 * sqrt(0.25 / 100) = 0.098
        lower, upper = _proportion_limits(0.5, 100)
        assert lower == pytest.approx(0.402, abs=1e-4)
        assert upper == pytest.approx(0.598, abs=1e-4)

    def test_width_vanishes_with_n(self):
        widths = [np.diff(_proportion_limits(0.5, n)).item() for n in (10, 1000, 100_000)]
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 0.01

    def test_limits_not_clamped(self):
        assert _proportion_limits(0.04, 25)[0] < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _proportion_limits(1.2, 10)
        with pytest.raises(ValueError):
            _proportion_limits(math.nan, 10)
        # every column takes n >= 2, the t interval's condition
        for n in (0, 1):
            with pytest.raises(ValueError):
                _proportion_limits(0.5, n)

    @given(st.integers(0, 1024), st.integers(2, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_reflection_symmetry(self, numerator, n):
        # dyadic p keeps both p and 1-p exactly representable
        p = numerator / 1024.0
        lower, upper = _proportion_limits(p, n)
        mirrored_lower, mirrored_upper = _proportion_limits(1.0 - p, n)
        assert lower == pytest.approx(1.0 - mirrored_upper, abs=1e-12)
        assert upper == pytest.approx(1.0 - mirrored_lower, abs=1e-12)


class TestSimilarity:
    def test_boundary_case_is_one(self):
        assert _similarity(0.0, 1.0, (-1.0, 1.0), (0.0, 2.0)) == pytest.approx(1.0)

    def test_double_degenerate_intervals_give_half(self):
        assert _similarity(0.001, 0.004, (0.0, 0.0), (0.0, 0.0)) == pytest.approx(0.5)

    def test_hand_evaluated(self):
        assert _similarity(0.0, 10.0, (-1.0, 1.0), (9.0, 11.0)) == pytest.approx(0.1)

    def test_equal_means_yield_nan(self):
        assert math.isnan(_similarity(1.0, 1.0, (0.0, 2.0), (0.0, 2.0)))

    @given(
        shift=st.floats(-1e3, 1e3),
        scale=st.floats(1e-3, 1e3),
        gap=st.floats(0.1, 10.0),
        up1=st.floats(0.0, 5.0),
        low2=st.floats(0.0, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_and_scale_invariance(self, shift, scale, gap, up1, low2):
        reference = _similarity(0.0, gap, (-1.0, up1), (gap - low2, gap + 1.0))
        moved = _similarity(shift, gap + shift, (-1.0 + shift, up1 + shift),
                            (gap - low2 + shift, gap + 1.0 + shift))
        scaled = _similarity(0.0, gap * scale, (-scale, up1 * scale),
                             ((gap - low2) * scale, (gap + 1.0) * scale))
        assert moved == pytest.approx(reference, rel=1e-6, abs=1e-9)
        assert scaled == pytest.approx(reference, rel=1e-6, abs=1e-9)


class TestLimitDiscrepancy:
    def test_conservative_formula(self):
        lower, upper = limit_discrepancies([0.0, 10.0], [-1.0, 11.0])
        assert (lower, upper) == pytest.approx((0.1, 0.1))

    def test_identical_intervals(self):
        lower, upper = limit_discrepancies([0.0, 10.0], [0.0, 10.0]).tolist()
        assert (lower, upper) == (0.0, 0.0)
        # +0.0 on both sides: json.dumps would print -0.0 differently.
        assert math.copysign(1.0, lower) == math.copysign(1.0, upper) == 1.0

    def test_anti_conservative_formula(self):
        lower, upper = limit_discrepancies([0.0, 10.0], [1.0, 9.0])
        assert (lower, upper) == pytest.approx((-0.1, -0.1))

    def test_degenerate_model_rejected(self):
        # zero model width leaves the ratio undefined on both sides
        assert np.isnan(limit_discrepancies([1.0, 1.0], [0.0, 2.0])).all()
