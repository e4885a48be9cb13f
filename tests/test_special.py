import math

import numpy as np
import pytest
from scipy import special as sps

from fbmax.bounds import limit_quantile


#: log2 N from one point to 2^615, the crossover grid at H = 1e-4.
QUANTILE_EXPONENTS = [0, 8, 31, 100, 615]


class TestLimitQuantile:
    @pytest.mark.parametrize("j", QUANTILE_EXPONENTS)
    def test_float_matches_array(self, j):
        # a scalar caller and the sampler's arrays get the same bits
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
