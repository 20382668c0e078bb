"""Distribution tests: quadrature oracle, normalisation, sampler fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sps

from citesim.distribution import (
    COUNT_LIMIT_RISK,
    check_locations,
    count_table,
    rest_of_world_location,
    sample_histograms,
    table_top,
)
from citesim.experiment import DEFAULT_MU_VALUES, DEFAULT_P_VALUES, ParameterSet
from helpers import chi_square_gof, mixture_mean

STANDARD = {"mu": 1.0, "sigma": 1.0}


def draw(n, rng, mu=1.0, sigma=1.0):
    """One sample_histograms draw over the parameters' own count table:
    counts of x = 1..top, and the values above top."""
    table = count_table(mu=mu, sigma=sigma, top=table_top(mu=mu, sigma=sigma))
    hist, tail = sample_histograms(mu=mu, sigma=sigma, table=table, n=n, rng=rng)
    return hist[:-1], tail


def table_cdf(k):
    """P(x <= k): one minus the lumped cell of the count table that ends at k."""
    return 1.0 - count_table(**STANDARD, top=k)[-1]


def density(x, mu, sigma):
    """Continuous lognormal density, written straight from its definition."""
    return math.exp(-((math.log(x) - mu) ** 2) / (2.0 * sigma**2)) / (
        x * sigma * math.sqrt(2.0 * math.pi)
    )


class TestPmf:
    """The count table's cells are the pmf of x = 1..top."""

    @pytest.mark.parametrize("mu,sigma", [(1.0, 1.0), (0.9, 1.0), (2.0, 0.5), (0.0, 2.0)])
    def test_matches_quadrature_oracle(self, mu, sigma):
        table = count_table(mu=mu, sigma=sigma, top=40)
        denominator, _ = integrate.quad(density, 0.5, np.inf, args=(mu, sigma))
        for k in (1, 2, 3, 7, 40):
            mass, _ = integrate.quad(density, k - 0.5, k + 0.5, args=(mu, sigma))
            assert table[k - 1] == pytest.approx(mass / denominator, abs=1e-10)

    def test_partial_sums_approach_one_from_below(self):
        masses = count_table(**STANDARD, top=200_000)[:-1]
        assert np.all(masses >= 0.0)
        assert np.all(masses[:1000] > 0.0)  # tail masses underflow to 0.0
        partial = np.cumsum(masses)
        assert partial[-1] <= 1.0
        assert partial[-1] > 0.9999

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_far_tail_matches_mpmath(self, sigma):
        mpmath = pytest.importorskip("mpmath")
        table = count_table(mu=1.0, sigma=sigma, top=10_000)

        def upper(x):  # lognormal mass above x, unnormalised, at 50 digits
            return mpmath.ncdf((1.0 - mpmath.log(x)) / sigma)

        with mpmath.workdps(50):
            for k in (1, 10, 100, 1000, 3000, 10_000):
                exact = (upper(k - 0.5) - upper(k + 0.5)) / upper(0.5)
                assert table[k - 1] == pytest.approx(float(exact), rel=1e-11), k
            exact_tail = upper(3000.5) / upper(0.5)
            assert count_table(mu=1.0, sigma=sigma, top=3000)[-1] == pytest.approx(
                float(exact_tail), rel=1e-11)


class TestCdf:
    """One minus a count table's lumped cell is the cdf at its last count."""

    def test_telescopes_to_pmf(self):
        ks = np.arange(2, 200)
        diffs = [table_cdf(k) - table_cdf(k - 1) for k in ks]
        assert diffs == pytest.approx(count_table(**STANDARD, top=200)[ks - 1], abs=1e-12)

    def test_base_case(self):
        assert table_cdf(1) == pytest.approx(count_table(**STANDARD, top=1)[0], rel=1e-14)

    def test_tail_mass_is_negligible_at_one_million(self):
        value = table_cdf(10**6)
        assert value >= 0.9999
        assert abs(1.0 - value) < 1e-4

    def test_monotone(self):
        values = [table_cdf(k) for k in range(1, 500)]
        assert np.all(np.diff(values) > 0)


class TestSample:
    def test_zero_draws(self):
        counts, tail = draw(0, np.random.default_rng(0))
        assert counts.sum() == 0 and tail.size == 0

    def test_support(self):
        rng = np.random.default_rng(1)
        counts, tail = draw(20_000, rng)
        assert counts.min() >= 0 and counts.sum() + tail.size == 20_000
        # the values above the table lie above its last value, x = top
        assert tail.size and tail.min() > counts.size

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            draw(-1, np.random.default_rng(0))

    def test_counts_beyond_float_precision_rejected(self):
        # At sigma = 20 the tail reaches past 2**53, where the float64
        # histogram axes stop being exact and the int64 cast overflows.
        table = count_table(mu=1.0, sigma=20.0, top=table_top(mu=1.0, sigma=20.0))
        with pytest.raises(ValueError, match=r"2\*\*53"):
            sample_histograms(mu=1.0, sigma=20.0, table=table, n=1000,
                              rng=np.random.default_rng(1), size=4)

    def test_reproducible(self):
        a = draw(1000, np.random.default_rng(42))
        b = draw(1000, np.random.default_rng(42))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_chi_square_goodness_of_fit(self):
        rng = np.random.default_rng(1234)
        stat, dof = chi_square_gof(*draw(1_000_000, rng), **STANDARD)
        assert stat < sps.chi2.ppf(0.999, dof)

    @pytest.mark.parametrize("mu,sigma", [(0.9, 1.0), (1.1, 1.0)])
    def test_chi_square_other_parameters(self, mu, sigma):
        rng = np.random.default_rng(99)
        stat, dof = chi_square_gof(*draw(200_000, rng, mu, sigma), mu=mu, sigma=sigma)
        assert stat < sps.chi2.ppf(0.999, dof)


class TestCheckLocations:
    @pytest.mark.parametrize("high, sigma", [(1.22, 5.0), (30.0, 1.0), (1.0, 8.0)])
    def test_expected_counts_beyond_2_53_bounded(self, high, sigma):
        # scipy's upper tail: the chance that one draw rounds to 2**53 or more
        beyond = (sps.norm.sf((math.log(2.0**53 - 0.5) - high) / sigma)
                  / sps.norm.sf((math.log(0.5) - high) / sigma))
        most = COUNT_LIMIT_RISK / beyond
        check_locations(0.0, high, sigma, math.floor(most * 0.99))
        with pytest.raises(ValueError, match=r"2\*\*53"):
            check_locations(0.0, high, sigma, math.ceil(most * 1.01))

    def test_low_location_needs_mass_above_one_half(self):
        # At sigma 1 the mass above x = 0.5 is ndtr(low + ln 2): about 1e-319
        # at low = -38.9, 2e-321 at -39, where 1e-4 of it (a count table's
        # tail cutoff) underflows to 0, and 0 at -40.
        check_locations(-38.9, 1.0, 1.0, 100)
        for low in (-39.0, -40.0, -800.0):
            with pytest.raises(ValueError, match="no mass above x = 0.5"):
                check_locations(low, 1.0, 1.0, 100)

    def test_tiny_sigma_overflows_to_a_point_mass_without_warning(self):
        # At sigma 1e-308 the z-scores overflow to +-inf, which ndtr maps to
        # 0 or 1 exactly: each location's mass sits on the count nearest
        # e^mu, with no RuntimeWarning (an error under the pytest settings).
        tables = count_table([0.9, 2.5], 1e-308, top=3)
        np.testing.assert_array_equal(tables, [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        check_locations(0.9, 2.5, 1e-308, 100)


class TestMixture:
    def test_identical_components_collapse(self):
        assert mixture_mean(1.0, 1.0, 1.0, 0.1, 0.3, 1.0) == pytest.approx(math.exp(1.5), rel=1e-14)

    def test_vanishing_shares_leave_rest_of_world(self):
        assert mixture_mean(0.7, 3.0, -2.0, 1e-9, 1e-9, 1.0) == pytest.approx(
            math.exp(0.7 + 0.5), rel=1e-7)

    def test_round_trip_identity_single(self):
        mu0 = rest_of_world_location(1.0, 0.9, 0.92, 0.05, 0.2)
        assert abs(mixture_mean(mu0, 0.9, 0.92, 0.05, 0.2, 1.0) - math.exp(1.5)) < 1e-12

    def test_round_trip_identity_full_grid(self):
        target = math.exp(1.5)
        checked = 0
        for i, mu1 in enumerate(DEFAULT_MU_VALUES):
            for mu2 in DEFAULT_MU_VALUES[i + 1 :]:
                for p1 in DEFAULT_P_VALUES:
                    for p2 in DEFAULT_P_VALUES:
                        mu0 = rest_of_world_location(1.0, mu1, mu2, p1, p2)
                        assert abs(mixture_mean(mu0, mu1, mu2, p1, p2, 1.0) - target) < 1e-12
                        checked += 1
        assert checked == 1375

    def test_homogeneous_locations(self):
        assert rest_of_world_location(1.0, 1.0, 1.0, 0.25, 0.25) == pytest.approx(1.0, abs=1e-14)

    def test_worked_value(self):
        expected = math.log((math.e - 0.5 * math.exp(1.1)) / 0.5)
        assert rest_of_world_location(1.0, 1.1, 1.1, 0.25, 0.25) == pytest.approx(
            expected, rel=1e-14)

    @pytest.mark.parametrize("mu_overall, mu1, mu2", [(1000.0, 0.9, 1.0), (1.0, 800.0, 801.0)],
                             ids=["overall", "countries"])
    def test_location_beyond_exp_range_is_value_error(self, mu_overall, mu1, mu2):
        # generate_grid skips a configuration on ValueError; an OverflowError
        # would end the run instead.
        with pytest.raises(ValueError, match="too large for e\\^mu"):
            rest_of_world_location(mu_overall, mu1, mu2, 0.1, 0.1)

    def test_infeasible_mixture(self):
        with pytest.raises(ValueError, match="country means too large"):
            rest_of_world_location(1.0, 2.0, 2.0, 0.5, 0.49)

    def test_share_validation(self):
        with pytest.raises(ValueError):
            ParameterSet(mu1=0.9, mu2=1.0, p1=0.6, p2=0.4, n_world=100)
        with pytest.raises(ValueError):
            ParameterSet(mu1=0.9, mu2=1.0, p1=0.0, p2=0.1, n_world=100)

    @given(
        mu_lo=st.floats(min_value=0.5, max_value=1.4),
        bump=st.floats(min_value=1e-3, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_overall_mean_strictly_increases_with_location(self, mu_lo, bump):
        def solved_mean(mu_overall):
            mu0 = rest_of_world_location(mu_overall, 0.9, 0.95, 0.1, 0.1)
            return mixture_mean(mu0, 0.9, 0.95, 0.1, 0.1, 1.0)

        assert solved_mean(mu_lo + bump) > solved_mean(mu_lo)
