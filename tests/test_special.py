import math

import numpy as np
import pytest
from scipy import special as sps

from fbmax.bounds import inverse_erfc
from fbmax.clark import norm_cdf, norm_pdf


def inverse_erf(y):
    """erf^(-1)(y) = erfc^(-1)(1 - y), the form the limit integral uses."""
    return inverse_erfc(1.0 - y)


def bisect_inverse_erf(y, tol=1e-13):
    """Oracle: invert erf by plain bisection on a sign change."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInverseErf:
    def test_odd_and_zero(self):
        assert inverse_erf(0.0) == 0.0
        assert inverse_erf(-0.3) == -inverse_erf(0.3)

    def test_half_value(self):
        # bisection oracle gives 0.4769362762044699 to 13 digits
        assert inverse_erf(0.5) == pytest.approx(0.4769362762044698, abs=1e-12)

    @pytest.mark.parametrize("y", [-0.9999, -0.95, -0.5, -1e-8, 1e-8, 0.2, 0.9, 0.9999])
    def test_against_bisection(self, y):
        # |y| <= 0.9999 keeps the oracle's own resolution well under 1e-11
        assert inverse_erf(y) == pytest.approx(bisect_inverse_erf(y), abs=1e-11, rel=1e-11)

    @pytest.mark.parametrize("x", [-3.0, -1.0, -0.01, 0.3, 1.0, 2.5])
    def test_round_trip(self, x):
        # beyond |x| ~ 3, erf(x) itself cannot carry x to this accuracy
        assert inverse_erf(math.erf(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_matches_scipy(self):
        ys = np.linspace(-0.9999, 0.9999, 41)
        ours = np.array([inverse_erf(float(y)) for y in ys])
        np.testing.assert_allclose(ours, sps.erfinv(ys), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("y", [-1.0, 1.0, -1.5, 2.0, math.inf])
    def test_domain(self, y):
        with pytest.raises(ValueError):
            inverse_erf(y)


class TestInverseErfc:
    @pytest.mark.parametrize("q", [1e-300, 1e-16, 1e-8, 0.01, 0.4, 1.0, 1.3, 1.99])
    def test_round_trip(self, q):
        x = inverse_erfc(q)
        assert math.erfc(x) == pytest.approx(q, rel=1e-12)

    def test_mirror_identity(self):
        assert inverse_erfc(1.7) == pytest.approx(-inverse_erfc(0.3), rel=1e-14)

    def test_deep_tail_matches_scipy(self):
        # erfcinv loses nothing where erfinv(1-q) would; both sides must agree
        for q in [1e-12, 1e-100, 1e-250]:
            assert inverse_erfc(q) == pytest.approx(float(sps.erfcinv(q)), rel=1e-12)

    @pytest.mark.parametrize("q", [0.0, 2.0, -0.1, 2.5])
    def test_domain(self, q):
        with pytest.raises(ValueError):
            inverse_erfc(q)


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
