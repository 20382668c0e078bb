"""Accuracy of the library's special functions over the domain it uses.

Each function is checked against `scipy.special` at 1e-13 relative, and
against an `mpmath` reference computed at 50 significant digits.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special as sc

from citesim._special import kolmogorov, ndtr, ndtri, stdtrit

EPS = np.finfo(float).eps


def assert_close(got, want, rtol=1e-13):
    np.testing.assert_allclose(np.asarray(got, dtype=np.float64),
                               np.asarray(want, dtype=np.float64), rtol=rtol, atol=0.0)


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


class TestNdtr:
    Z = np.linspace(-37.0, 8.0, 45001)

    def test_matches_scipy(self):
        assert_close(ndtr(self.Z), sc.ndtr(self.Z))

    def test_matches_mpmath(self):
        # Rounding z / sqrt(2) moves Phi(z) by about z^2 eps relative.
        for z in self.Z[::150]:
            assert_close(ndtr(z), mpmath.ncdf(z), rtol=EPS * (16.0 + z * z))

    def test_scalar_and_array(self):
        assert isinstance(ndtr(0.0), float) and ndtr(0.0) == 0.5
        out = ndtr(np.zeros((2, 3)))
        assert out.dtype == np.float64 and out.shape == (2, 3)

    def test_is_the_scalar_erfc_form_bit_for_bit(self):
        # Count tables and the tail draws depend on every bit of ndtr, so it
        # must stay 0.5 * erfc(-z * sqrt(0.5)) evaluated one float at a time.
        z = np.concatenate([np.linspace(-40.0, 10.0, 50_001), [0.0, -0.0, np.inf, -np.inf],
                            np.random.default_rng(5).normal(0.0, 10.0, 5_000)])
        want = np.array([0.5 * math.erfc(-v * math.sqrt(0.5)) for v in z.tolist()])
        assert ndtr(z).view(np.int64).tolist() == want.view(np.int64).tolist()
        assert ndtr(z[:-1].reshape(2, -1)).view(np.int64).tolist() == \
            want[:-1].reshape(2, -1).view(np.int64).tolist()
        picks = np.r_[0:z.size:97, 50_001:50_005]  # every 97th point, and the +-0, +-inf
        for v, w in zip(z[picks].tolist(), want[picks].tolist()):
            for arg in (v, np.float64(v), np.array(v)):
                got = ndtr(arg)
                assert isinstance(got, float)
                assert np.float64(got).view(np.int64) == np.float64(w).view(np.int64)


class TestNdtri:
    P = np.concatenate([np.logspace(-300, -1, 3000), np.linspace(0.1, 0.9, 801),
                        1.0 - np.logspace(-1, -16, 1500)])

    def test_matches_scipy(self):
        assert_close(ndtri(self.P), sc.ndtri(self.P))

    def test_matches_mpmath(self):
        for p in self.P[::25]:
            x = ndtri(p)
            assert_close(x, mpmath.findroot(lambda v: mpmath.ncdf(v) - p, x))


def t_quantile_mpmath(df, p, start):
    """The t quantile from the regularised incomplete beta function."""
    df = mpmath.mpf(df)

    def cdf_gap(t):
        return 1 - mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2 - p

    return mpmath.findroot(cdf_gap, mpmath.mpf(start))


class TestStudentTQuantile:
    def test_matches_scipy_at_every_df(self):
        df = np.arange(1, 50001)
        assert_close(stdtrit(df, 0.975), sc.stdtrit(df, 0.975))

    @pytest.mark.parametrize("p", [0.9, 0.995])
    def test_matches_scipy_at_other_levels(self, p):
        df = np.unique(np.geomspace(1, 50000, 400).astype(int))
        assert_close(stdtrit(df, p), sc.stdtrit(df, p))

    @pytest.mark.parametrize("p", [0.9, 0.975, 0.995])
    @pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 30, 999, 1000, 1001, 1002, 12499, 50000])
    def test_matches_mpmath(self, df, p):
        t = float(stdtrit(df, p))
        assert_close(t, t_quantile_mpmath(df, p, t))

    def test_broadcasts(self):
        out = stdtrit(np.array([[9], [99]]), np.array([0.9, 0.975]))
        assert out.shape == (2, 2)
        assert out[1, 1] == stdtrit(99, 0.975)


def kolmogorov_mpmath(x):
    """2 * sum (-1)^(k-1) exp(-2 k^2 x^2), summed until the terms fall below 1e-60."""
    x = mpmath.mpf(x)
    terms = math.ceil(math.sqrt(140.0 / 2.0) / float(x)) + 1
    return 2 * mpmath.fsum((-1) ** (k - 1) * mpmath.exp(-2 * k * k * x * x)
                           for k in range(1, terms + 1))


class TestKolmogorov:
    X = np.concatenate([[1e-3, 5e-3], np.linspace(0.01, 3.0, 600)])

    def test_matches_scipy(self):
        got = [kolmogorov(x) for x in self.X]
        assert_close(got, sc.kolmogorov(self.X))

    def test_matches_mpmath(self):
        for x in self.X[::4]:
            assert_close(kolmogorov(x), kolmogorov_mpmath(x))

    def test_at_zero(self):
        assert kolmogorov(0.0) == 1.0
