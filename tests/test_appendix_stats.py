"""Rank-test machinery and the unequal-size share pathology demo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from citesim.appendix_stats import (
    FrequencyTable,
    appendix_config,
    appendix_demo,
    ks_two_sample,
    mann_whitney_u,
    rank_sums_from_frequency,
    table4_example,
)
from helpers import expand_frequencies

EXPECTED_AVERAGE_RANKS = (675.0, 1529.0, 1755.5, 1895.0, 1988.5, 1995.0)


def random_samples(seed, ties=True):
    """Two samples of 120 and 80 values: small integers, continuous values
    (ties False), or with ties "shares", top-X shares of a 75- and a
    25-article country as the appendix demo draws them, where 3/75 and 1/25
    coincide and the second sample never takes 1/75 or 2/75."""
    rng = np.random.default_rng(seed)
    if ties == "shares":
        return rng.binomial(75, 0.02, size=120) / 75, rng.binomial(25, 0.02, size=80) / 25
    pool = rng.integers(0, 8, size=200) if ties else rng.random(200) * 100
    return pool[:120].astype(float), pool[120:].astype(float)


class TestFrequencyTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyTable(rows=())
        with pytest.raises(ValueError):
            FrequencyTable(rows=((1.0, 1, 1), (0.5, 1, 1)))
        with pytest.raises(ValueError):
            FrequencyTable(rows=((0.0, -1, 1),))
        with pytest.raises(ValueError):
            FrequencyTable(rows=((0.0, 3, 0),))

    def test_group_sizes(self):
        assert table4_example().group_sizes == (1000, 1000)


class TestRankSums:
    def test_worked_example_exact(self):
        sums = rank_sums_from_frequency(table4_example())
        assert sums.group1 == 1_099_200.0
        assert sums.group2 == 901_800.0
        assert sums.average_ranks == EXPECTED_AVERAGE_RANKS

    def test_single_value_single_group(self):
        table = FrequencyTable(rows=((0.5, 9, 1),))
        sums = rank_sums_from_frequency(table)
        assert sums.group1 + sums.group2 == 10 * 11 / 2

    def test_two_singletons(self):
        table = FrequencyTable(rows=((0.1, 1, 0), (0.2, 0, 1)))
        sums = rank_sums_from_frequency(table)
        assert sums.average_ranks == (1.0, 2.0)
        assert (sums.group1, sums.group2) == (1.0, 2.0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=8,
        ).filter(lambda rows: sum(r[0] for r in rows) > 0 and sum(r[1] for r in rows) > 0)
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_sums_total(self, freq_pairs):
        rows = tuple((float(i), f1, f2) for i, (f1, f2) in enumerate(freq_pairs))
        table = FrequencyTable(rows=rows)
        sums = rank_sums_from_frequency(table)
        n = sum(f1 + f2 for _, f1, f2 in rows)
        assert sums.group1 + sums.group2 == pytest.approx(n * (n + 1) / 2)

    def test_matches_rankdata_on_expanded_samples(self):
        table = table4_example()
        a, b = expand_frequencies(table)
        ranks = sps.rankdata(np.concatenate([a, b]))
        sums = rank_sums_from_frequency(table)
        assert ranks[: a.size].sum() == pytest.approx(sums.group1)
        assert ranks[a.size :].sum() == pytest.approx(sums.group2)


class TestMannWhitney:
    def test_identical_multisets(self):
        a = np.array([1.0, 2.0, 2.0, 3.0, 9.0])
        result = mann_whitney_u(a, a.copy())
        assert result.u == a.size * a.size / 2
        assert result.p == 1.0

    def test_all_values_identical(self):
        result = mann_whitney_u([3.0] * 10, [3.0] * 4)
        assert result.p == 1.0
        assert result.z == 0.0

    def test_complementarity(self):
        a, b = random_samples(1)
        fwd = mann_whitney_u(a, b)
        rev = mann_whitney_u(b, a)
        assert fwd.u + rev.u == pytest.approx(a.size * b.size)

    @pytest.mark.parametrize("seed,ties", [(2, True), (3, False), (4, True), (5, "shares")])
    def test_matches_scipy_asymptotic(self, seed, ties):
        a, b = random_samples(seed, ties)
        mine = mann_whitney_u(a, b)
        ref = sps.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=False
        )
        assert mine.u == pytest.approx(float(ref.statistic), abs=1e-9)
        assert mine.p == pytest.approx(float(ref.pvalue), rel=1e-9)

    def test_worked_example_rejects(self):
        a, b = expand_frequencies(table4_example())
        result = mann_whitney_u(a, b)
        assert result.p < 0.001

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestKolmogorovSmirnov:
    def test_identical_samples(self):
        a = np.array([0.0, 0.5, 0.5, 2.0])
        result = ks_two_sample(a, a.copy())
        assert result.d == 0.0
        assert result.p == 1.0

    def test_disjoint_supports(self):
        result = ks_two_sample([1.0, 2.0, 3.0], [10.0, 11.0])
        assert result.d == 1.0
        larger = ks_two_sample(np.arange(30.0), np.arange(100.0, 130.0))
        assert larger.d == 1.0
        assert larger.p < 1e-6

    def test_symmetric(self):
        a, b = random_samples(6)
        assert ks_two_sample(a, b).d == ks_two_sample(b, a).d

    @pytest.mark.parametrize("seed,ties", [(7, True), (8, "shares")])
    def test_statistic_matches_scipy(self, seed, ties):
        a, b = random_samples(seed, ties)
        mine = ks_two_sample(a, b)
        ref = sps.ks_2samp(a, b, method="asymp")
        assert mine.d == pytest.approx(float(ref.statistic), abs=1e-12)

    def test_worked_example_rejects(self):
        a, b = expand_frequencies(table4_example())
        assert ks_two_sample(a, b).p < 0.001

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_statistic_bounded(self, seed):
        a, b = random_samples(seed)
        result = ks_two_sample(a, b)
        assert 0.0 <= result.d <= 1.0


class TestDemo:
    def test_quick_run_shows_the_pathology(self):
        report = appendix_demo(appendix_config(replicates=300), 5)
        assert abs(report.mean1 - report.mean2) < 0.01
        assert report.mw_p < 0.01
        assert report.ks_p < 0.01
        assert report.zero_prop2 > report.zero_prop1

    def test_deterministic(self):
        ps = appendix_config(replicates=100)
        assert appendix_demo(ps, 9) == appendix_demo(ps, 9)
