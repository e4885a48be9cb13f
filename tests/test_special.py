import math

import numpy as np
import pytest
from scipy import special as sps

from fbmax.bounds import limit_quantile
from fbmax.clark import norm_cdf, norm_pdf


#: log2 N from one point to 2^615, the crossover grid at H = 1e-4.
QUANTILE_EXPONENTS = [0, 8, 31, 100, 615]


class TestLimitQuantile:
    @pytest.mark.parametrize("j", QUANTILE_EXPONENTS)
    def test_float_matches_array(self, j):
        # quad evaluates at floats and the sampler at arrays: same bits
        n = 2 ** j
        for u in [1e-300, 1e-5, 0.3, 0.5, 0.75, 0.999999]:
            assert float(limit_quantile(u, n)).hex() == float(
                limit_quantile(np.array([u]), n)[0]).hex()

    @pytest.mark.parametrize("j", [0, 1, 8, 31, 615])
    def test_zero_up_to_half_to_the_n(self, j):
        # P(max of N normals <= 0) = 2^-N, which underflows to 0 from N = 1075
        n = 2 ** j
        atom = 2.0 ** -n if n < 1075 else 0.0
        below = np.array([0.0, 0.5 * atom, 0.999 * atom, atom])
        with np.errstate(divide="ignore"):
            assert np.all(limit_quantile(below, n) == 0.0)
        above = np.array([max(1.001 * atom, 5e-324), 0.5 + 0.5 * atom, 0.9])
        assert np.all(limit_quantile(above, n) > 0.0)

    @pytest.mark.parametrize("j", QUANTILE_EXPONENTS)
    def test_inverts_phi_to_the_n(self, j):
        # Phi(sqrt 2 q)^N = u, checked in logs so that Phi^N never underflows
        n = 2 ** j
        u = np.array([1e-300, 1e-30, 1e-3, 0.6, 0.9, 0.999999])
        u = u[u > 2.0 ** -min(n, 1074)]
        q = limit_quantile(u, n)
        np.testing.assert_allclose(n * sps.log_ndtr(math.sqrt(2.0) * q), np.log(u), rtol=1e-12)


class TestNormal:
    def test_cdf_basics(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert norm_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
        assert norm_cdf(-37.0) > 0.0  # erfc path keeps the deep tail alive
        assert norm_cdf(40.0) == 1.0

    def test_cdf_matches_scipy(self):
        xs = np.linspace(-8.0, 8.0, 33)
        ours = np.array([norm_cdf(float(x)) for x in xs])
        np.testing.assert_allclose(ours, sps.ndtr(xs), rtol=5e-14)

    def test_pdf(self):
        assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)
        assert norm_pdf(2.0) == pytest.approx(math.exp(-2.0) / math.sqrt(2 * math.pi), rel=1e-14)
