import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fbmax.bounds import (
    _quantile_integrand,
    borovkov_bounds,
    bounds_report,
    delta_upper_bound,
    limit_integral,
    limit_integral_quantile_form,
    limit_integral_tail_form,
    limit_quantile,
    relative_error_lower,
    sudakov_lower_bound,
    sudakov_maximizer,
)
from fbmax.errors import QuadratureError
from fbmax.montecarlo import iid_limit_samples, summarize

GOLDEN_DIR = Path(__file__).parent / "golden"

C1 = 1.0 / (2.0 * math.sqrt(math.pi * math.e * math.log(2.0)))


def limit_rate_bound(n_points, hurst):
    """The paper's convergence-rate bound 1 - N^(-2H) on the scaled grid maximum."""
    return -math.expm1(-2.0 * hurst * math.log(n_points))


def delta_lower_bound(n_points, hurst):
    """The discretization-error lower bound as the CLI reports it."""
    return bounds_report(n_points, hurst)["delta_lower"]


def limit_oracle(n_points):
    """(1/sqrt 2) int_0^inf (1 - Phi(x)^N) dx at 30 digits; the fixed breakpoints
    bracket the integrand's drop near sqrt(2 ln N) up to N = 2^31."""
    with mp.workdps(30):
        tail = mp.quad(lambda x: -mp.expm1(n_points * mp.log(mp.ncdf(x))),
                       [0, 1, 2, 3, 4, 5, 6, 8, 12, mp.inf])
        return float(tail / mp.sqrt(2))


class TestBorovkov:
    def test_reference_values(self):
        assert borovkov_bounds(0.5).lower == pytest.approx(0.2906364594902359, rel=1e-14)
        assert borovkov_bounds(0.0001).lower == pytest.approx(20.551101136559517, rel=1e-14)
        assert borovkov_bounds(0.09).upper == pytest.approx(16.3 / 0.3, rel=1e-14)

    def test_lower_is_scaled_constant(self):
        for h in (0.0001, 0.0013, 0.01, 0.09, 0.5, 0.9):
            assert borovkov_bounds(h).lower == pytest.approx(C1 / math.sqrt(h), rel=1e-14)

    def test_ordering(self):
        for h in (1e-6, 0.001, 0.2, 0.5, 0.999):
            lower, upper = borovkov_bounds(h)
            assert 0.0 < lower < upper

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, h):
        with pytest.raises(ValueError):
            borovkov_bounds(h)

    def test_brackets_brownian_maximum(self):
        # at H = 1/2, E max_{[0,1]} B = sqrt(2/pi) = 0.7979 (reflection principle)
        lower, upper = borovkov_bounds(0.5)
        assert lower < math.sqrt(2.0 / math.pi) < upper


class TestDeltaUpper:
    def test_large_grid_small_hurst(self):
        # N = 2^{1/H} holds with equality here, so the bound is proved
        bound = delta_upper_bound(2 ** 20, 0.05)
        assert bound < 11.18
        assert bound == pytest.approx(11.170426030342231, rel=1e-13)

    def test_validity_flag(self):
        assert delta_upper_bound(2 ** 20, 0.049) is None
        assert delta_upper_bound(2 ** 20, 0.05) > 0.0
        assert delta_upper_bound(2 ** 20, 0.051) > 0.0

    def test_hand_checkable_value(self):
        # N^H = 2 at N = 4, H = 1/2
        expected = (2.0 * math.sqrt(math.log(4.0)) / 2.0) * (
            3.0 + 0.0074 / math.log(4.0) ** 1.5
        )
        got = delta_upper_bound(4, 0.5)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(3.5375680391977133, rel=1e-13)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            delta_upper_bound(1, 0.5)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0, 1.5, math.nan])
    def test_rejects_hurst_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="hurst"):
            delta_upper_bound(2 ** 20, bad)


class TestSudakov:
    @pytest.mark.parametrize(
        "n,h,expected",
        [
            (2 ** 8, 0.09, 0.6853),
            (2 ** 19, 0.0001, 1.7367),
            (2 ** 12, 0.5, 0.0216),
        ],
    )
    def test_reference_values(self, n, h, expected):
        assert sudakov_lower_bound(n, h) == pytest.approx(expected, abs=5e-5)

    def test_single_point_is_hurst_free(self):
        # ln(N+1) = ln 2 cancels the ln 2 in the denominator
        for h in (0.001, 0.3, 0.9):
            assert sudakov_lower_bound(1, h) == pytest.approx(
                1.0 / math.sqrt(2.0 * math.pi), rel=1e-14
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            sudakov_lower_bound(0, 0.5)
        with pytest.raises(ValueError):
            sudakov_lower_bound(256, 1.0)


class TestSudakovMaximizer:
    def test_moderate_hurst(self):
        n_star, value = sudakov_maximizer(0.5)
        assert n_star == 2
        assert value == pytest.approx(0.35514406696794454, rel=1e-13)
        assert value == sudakov_lower_bound(2, 0.5)

    def test_small_hurst(self):
        assert sudakov_maximizer(0.09).n_star == 258
        assert sudakov_maximizer(0.9).n_star == 1

    def test_overflow_falls_back_to_analytic(self):
        n_star, value = sudakov_maximizer(0.0001)
        assert n_star is None
        assert value == pytest.approx(borovkov_bounds(0.0001).lower, rel=1e-14)

    @pytest.mark.parametrize("h", [0.05, 0.1])
    def test_discrete_max_near_analytic(self, h):
        # integer rounding of e^{1/(2H)} costs well under 1% here
        value = sudakov_maximizer(h).value
        analytic = borovkov_bounds(h).lower
        assert value == pytest.approx(analytic, rel=0.01)

    def test_near_discrete_maximum(self):
        # floor(e^{1/(2H)}) tracks the discrete argmax only approximately
        # (ln(N+1) in the numerator shifts it by one), so allow a whisker
        n_star, value = sudakov_maximizer(0.09)
        window = max(
            sudakov_lower_bound(n, 0.09) for n in range(n_star - 3, n_star + 4)
        )
        assert value == pytest.approx(window, rel=1e-5)
        for n in (n_star // 2, 2 * n_star):
            assert sudakov_lower_bound(n, 0.09) < value


LIMIT_TABLE = [
    (2 ** 8, 1.9989),
    (2 ** 12, 2.5640),
    (2 ** 15, 2.9232),
    (2 ** 19, 3.3469),
    (2 ** 20, 3.4452),
    (2 ** 24, 3.815),
]


class TestLimitIntegral:
    @pytest.mark.parametrize("n,expected", LIMIT_TABLE)
    def test_reference_values(self, n, expected):
        assert limit_integral(n) == pytest.approx(expected, abs=2e-3)

    def test_single_point_closed_form(self):
        # (1/sqrt(2)) E xi^+ = 1/(2 sqrt(pi))
        assert limit_integral(1) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-9)

    @pytest.mark.parametrize("n", [2 ** 8, 2 ** 12, 2 ** 16, 2 ** 20, 2 ** 24])
    def test_quadrature_forms_agree(self, n):
        assert limit_integral_quantile_form(n) == pytest.approx(
            limit_integral_tail_form(n), abs=1e-5
        )

    def test_strictly_increasing(self):
        values = [limit_integral(2 ** k) for k in range(8, 26)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "n,frozen",
        [(2 ** 8, 1.9988941940251406), (2 ** 20, 3.4452321078897086)],
    )
    def test_regression_values(self, n, frozen):
        assert limit_integral(n) == pytest.approx(frozen, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            limit_integral(0)

    @pytest.mark.parametrize("route", [limit_integral, limit_integral_quantile_form,
                                       limit_integral_tail_form])
    @pytest.mark.parametrize("n", [2 ** 1023 + 1, 2 ** 1024, 2 ** 1100])
    def test_grid_above_double_range_rejected(self, route, n, monkeypatch):
        # refused with the bound named, before either route's kernel runs
        monkeypatch.setattr("fbmax.bounds.ndtri_exp", None)
        monkeypatch.setattr("fbmax.bounds.log_ndtr", None)
        with pytest.raises(ValueError, match=r"<= 2\^1023"):
            route(n)

    def test_largest_grid_accepted_by_both_routes(self):
        quantile = limit_integral_quantile_form(2 ** 1023)
        assert quantile == pytest.approx(limit_integral_tail_form(2 ** 1023), abs=1e-4)

    def test_quadrature_failure_reported(self, monkeypatch):
        import fbmax.bounds as mod

        monkeypatch.setattr(mod, "limit_integral_tail_form", lambda n: 0.0)
        mod.limit_integral.cache_clear()
        try:
            with pytest.raises(QuadratureError):
                mod.limit_integral(2 ** 8)
        finally:
            mod.limit_integral.cache_clear()

    def test_quadrature_rule_gap_reported(self, monkeypatch):
        # a 48-point rule off by one part in 10^6 puts the rules 3e-6 apart
        import fbmax.bounds as mod

        nodes, weights = mod._GAUSS_48
        monkeypatch.setattr(mod, "_GAUSS_48", (nodes, weights * (1.0 + 1e-6)))
        with pytest.raises(QuadratureError, match="rules disagree"):
            limit_integral_quantile_form(2 ** 8)

    @pytest.mark.parametrize("n", [1, 2, 2 ** 8, 2 ** 10, 2 ** 20])
    def test_matches_30_digit_oracle(self, n):
        assert limit_integral(n) == pytest.approx(limit_oracle(n), abs=1e-12)

    @pytest.mark.parametrize("j", range(32))
    def test_quantile_route_matches_30_digit_oracle(self, j):
        assert limit_integral_quantile_form(2 ** j) == pytest.approx(
            limit_oracle(2 ** j), abs=1e-14)

    @pytest.mark.parametrize("j", [0, 8, 31, 100])
    def test_quadrature_integrates_the_sampler_quantile(self, j):
        # the rule integrates the law that iid_limit_samples draws from
        s = np.array([1e-3, 0.1, 1.0, 10.0, 40.0])
        expected = limit_quantile(np.exp(-s), 2 ** j)
        assert _quantile_integrand(s, math.log(2 ** j)) == pytest.approx(expected, rel=1e-10)

    def test_extreme_grid(self):
        assert limit_integral(2 ** 31) == pytest.approx(4.390, abs=2e-3)
        # the exact iid-limit sampler reaches the same grid at O(1) per sample
        stats = summarize(iid_limit_samples(2 ** 31, 200_000, 9))
        se = math.sqrt(stats.variance / stats.count)
        assert abs(stats.mean - limit_integral(2 ** 31)) < 4.0 * se


class TestCrossover:
    """The grid size 2^J at which L(N) first reaches Borovkov's lower bound.

    L(N) bounds E max_{i<=N} B(i/N) from above for every H, so no grid with
    fewer than 2^J points can carry the discrete maximum up to that bound.
    """

    @pytest.mark.parametrize("h,j", [(0.5, 1), (0.09, 2), (0.01, 9), (0.0013, 51),
                                     (1e-4, 615)])
    def test_pinned_exponent(self, h, j):
        # tightest at H = 1e-4: 20.5397 < 20.5511 <= 20.5566
        lower = borovkov_bounds(h).lower
        assert limit_integral(2 ** (j - 1)) < lower <= limit_integral(2 ** j)


class TestLimitRate:
    def test_single_point(self):
        assert limit_rate_bound(1, 0.3) == 0.0

    def test_reference_values(self):
        expected = 1.0 - 2.0 ** (-0.04)
        assert limit_rate_bound(2 ** 20, 0.001) == pytest.approx(expected, rel=1e-13)
        assert limit_rate_bound(2 ** 20, 0.001) == pytest.approx(0.02734, abs=5e-5)

    def test_tenth_boundary(self):
        # stays below 0.1 up to H = 0.0038 on the 2^20 grid
        assert limit_rate_bound(2 ** 20, 0.0038) == pytest.approx(0.1, abs=1e-4)
        assert limit_rate_bound(2 ** 20, 0.0037) < 0.1

    def test_monotone_in_hurst(self):
        values = [limit_rate_bound(2 ** 20, h) for h in (0.0005, 0.001, 0.002, 0.004)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestDeltaLower:
    def test_identity(self):
        # delta_lower is defined as the difference, so recombining loses at
        # most rounding of a single subtraction
        for n, h in [(256, 0.5), (2 ** 20, 0.0001), (1024, 0.09)]:
            assert delta_lower_bound(n, h) + limit_integral(n) == pytest.approx(
                borovkov_bounds(h).lower, rel=1e-15
            )

    def test_vacuous_for_moderate_hurst(self):
        assert delta_lower_bound(256, 0.5) == pytest.approx(-1.7082577345349046, rel=1e-9)

    def test_large_grid_reduction(self):
        # at N = 2^20 the bound reads 0.2055/sqrt(H) - 3.4452
        for h in (0.0001, 0.001):
            expected = 0.2055 / math.sqrt(h) - 3.4452
            assert delta_lower_bound(2 ** 20, h) == pytest.approx(expected, abs=2e-3 / math.sqrt(h))

    def test_divergence_threshold(self):
        assert delta_lower_bound(2 ** 20, 0.00085) > 3.45


class TestRelativeError:
    def test_reference_values(self):
        assert relative_error_lower(0.00022) >= 0.75
        assert relative_error_lower(0.0034) >= 0.01

    def test_constant_recompute(self):
        c2 = 2.0 * limit_integral(2 ** 20) * math.sqrt(math.pi * math.e * math.log(2.0))
        assert c2 == pytest.approx(16.765, abs=5e-3)
        assert C1 == pytest.approx(0.2055, abs=5e-5)

    def test_negative_returned_as_is(self):
        assert relative_error_lower(0.5) < 0.0

    def test_formula(self):
        assert relative_error_lower(0.01) == pytest.approx(1.0 - 16.765 * 0.1, rel=1e-13)


class TestBoundsReport:
    def test_fields_match_operations(self):
        rep = bounds_report(2 ** 20, 0.05)
        assert rep["borovkov_lower"] == borovkov_bounds(0.05).lower
        assert rep["borovkov_upper"] == borovkov_bounds(0.05).upper
        assert rep["sudakov_lower"] == sudakov_lower_bound(2 ** 20, 0.05)
        assert rep["delta_upper"] == delta_upper_bound(2 ** 20, 0.05)
        assert rep["limit_integral"] == limit_integral(2 ** 20)
        assert rep["delta_lower"] == borovkov_bounds(0.05).lower - limit_integral(2 ** 20)
        assert rep["relative_error_lower"] == relative_error_lower(0.05)
        # the report is the bounds.csv row after its cell columns h, n_exp, n
        header = (GOLDEN_DIR / "bounds.csv").read_text().splitlines()[0].split(",")
        assert header[:3] == ["h", "n_exp", "n"]
        assert list(rep) == [name for name in header[3:] if not name.endswith("_4dp")]

    def test_delta_upper_suppressed_when_invalid(self):
        assert bounds_report(2 ** 10, 0.01)["delta_upper"] is None

    def test_sudakov_never_exceeds_analytic_max(self):
        for h in (0.01, 0.05, 0.3):
            rep = bounds_report(2 ** 16, h)
            assert rep["sudakov_lower"] <= sudakov_maximizer(h).value + 1e-12
