import itertools
import math

import numpy as np
import pytest
from scipy import special as sps

import conftest
import fbmax.clark
from conftest import (
    clark_correlation_update,
    clark_recursion_oracle,
    draw_pair_cases,
    fbm_covariance_matrix,
    pair_max_moments_oracle,
)
from fbmax.clark import (
    ClarkDiagnostics,
    clark_expected_max,
    fbm_vector_spec,
    norm_cdf,
    norm_pdf,
    pair_moments,
    run_clark_recursion,
)

# (mean1, var1, mean2, var2, cov) -> (E max, E max^2); frozen from the
# kink-split nested quadrature oracle, which was cross-checked against an
# independent bivariate-CDF route to 3.5e-13 on the same draw
PAIR_ORACLE_CASES = [
    (-0.8865023241427021, 1.466007520085809, -1.8400726214048753, 0.513123665996325, -0.39350482060164266,
     -0.5936142183944344, 1.1834503182354998),
    (0.4600706737417579, 0.5042328587250907, -1.5322473781121082, 0.2664874764194052, -0.03473022930287037,
     0.4648986700906547, 0.7071863886665862),
    (-0.9102212981043944, 0.4804803404840742, 1.5004914639238964, 1.8892396595805985, 0.045938459139216,
     1.5357942740889046, 4.083928970572192),
    (0.9880190248371403, 0.155671503784907, 0.1352196676965609, 2.329698668531469, -0.49938721878223197,
     1.3826741045621942, 2.279268705479927),
    (1.81538554030453, 3.050709721267528, -0.819663051552193, 1.3733059760607487, 1.4853709279965126,
     1.8215188864494911, 6.328262898615273),
    (0.17362446566577594, 3.459213246537418, 1.4670499361017582, 0.4953314890630628, 0.7868959163864031,
     1.6403397942456655, 3.527439756524278),
    (-1.5902073809981592, 3.3287024051586696, -1.5670373295263698, 0.04324626807551347, 0.004619815512784968,
     -0.8469959403096341, 1.8516728434020617),
    (1.615445261411546, 0.24988845540283328, -1.385529281976757, 2.1284815539348783, 0.29105800428295825,
     1.6213013441774518, 2.884519450829413),
    (-1.8235616883812025, 2.6235257030852153, -0.2977719606987379, 3.4439936959712276, -0.21850217680292053,
     0.13363169795546614, 2.392017726595615),
    (1.5328125425966856, 0.13853339256022112, 1.8969173227017335, 3.395773347676319, -0.15626992233804302,
     2.5107697916692846, 7.710649762768323),
    (1.5741254131790612, 0.9019901553845969, -0.24091852384669776, 1.123612433477382, -0.2014843793069744,
     1.6680772948347542, 3.5321720336853635),
    (-1.2113504820595709, 2.9303660963514804, 0.06272147818522589, 2.7147460151033074, 1.5629182323415842,
     0.2526091220336548, 2.5460810248478305),
    (-0.9647089708355359, 2.9772644225823917, 1.1801025391213305, 0.3460716127555047, 0.8688206982954975,
     1.2029493534401074, 1.8600920458319954),
    (-0.9888696225507947, 1.3158536044182607, -1.0114588945989937, 3.141721071099557, -1.5746108942112118,
     0.10017226815692623, 1.0222430201570836),
    (0.2903828093923666, 0.6574800206935412, 0.4541028902352453, 1.073623855478276, -0.5107040702086394,
     1.0373359523132875, 1.5223263996713041),
    (1.3854198686917423, 1.3041558015931922, 1.6211026748341042, 0.2625512218504604, 0.2431604468687051,
     1.9285426553771772, 4.24223202651743),
    (-1.8685263947468904, 0.08316804413728959, 0.22415436092243946, 0.6225412917829045, -0.12319076821138289,
     0.2297284224846487, 0.6549966167208218),
    (-1.177652312161551, 0.06343703125719752, -1.5499508657091403, 2.3480600794815296, 0.23016483531938306,
     -0.786865443048886, 1.2866247039643586),
    (1.4970535594722216, 0.15932593664043318, 0.49670662559284384, 2.2224188069346837, -0.4568354271191093,
     1.8283487747160878, 3.6609612181999354),
    (1.7795189336768358, 1.726526615651214, 0.09721398547092486, 1.5823251823265878, -0.7539168053016544,
     2.0592573300328936, 5.386241969527301),
]


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


class TestPairMoments:
    @pytest.mark.parametrize("case", PAIR_ORACLE_CASES)
    def test_frozen_oracle_values(self, case):
        m1, v1, m2, v2, cov, first, second = case
        got1, got2, _ = pair_moments(m1, v1, m2, v2, cov)
        assert got1 == pytest.approx(first, abs=1e-8)
        assert got2 == pytest.approx(second, abs=1e-8)

    def test_live_quadrature_oracle(self):
        for m1, v1, m2, v2, cov in draw_pair_cases(3, seed=99):
            got = pair_moments(m1, v1, m2, v2, cov)
            ref = pair_max_moments_oracle(m1, v1, m2, v2, cov)
            assert got[0] == pytest.approx(ref[0], abs=1e-8)
            assert got[1] == pytest.approx(ref[1], abs=1e-8)

    def test_iid_standard_pair(self):
        first, second, alpha = pair_moments(0.0, 1.0, 0.0, 1.0, 0.0)
        assert first == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert second == pytest.approx(1.0, rel=1e-14)
        assert alpha == 0.0

    def test_constants_pick_larger_mean(self):
        assert pair_moments(0.0, 0.0, 1.0, 0.0, 0.0) == (1.0, 1.0, -math.inf)
        assert pair_moments(2.0, 0.0, -1.0, 0.0, 0.0) == (2.0, 4.0, math.inf)

    def test_perfectly_correlated_copy(self):
        first, second, _ = pair_moments(0.3, 2.0, 0.3, 2.0, 2.0)
        assert first == pytest.approx(0.3, rel=1e-14)
        assert second == pytest.approx(0.09 + 2.0, rel=1e-14)


class TestCorrelationUpdate:
    def test_iid_pair_with_first_member(self):
        pair = pair_moments(0.0, 1.0, 0.0, 1.0, 0.0)[:2]
        got = clark_correlation_update(
            1.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]), 0.0, pair,
            ClarkDiagnostics(),
        )
        # Corr(xi, max(xi, eta)) = (1/2) / sqrt(1 - 1/pi), and by symmetry
        # the same for eta
        expected = 0.5 / math.sqrt(1.0 - 1.0 / math.pi)
        np.testing.assert_allclose(got, [expected, expected], rtol=1e-13)

    def test_out_of_range_is_clamped_and_tallied(self):
        diag = ClarkDiagnostics()
        pair = pair_moments(0.0, 1.0, 0.0, 1.0, 0.0)[:2]
        got = clark_correlation_update(
            1.0, np.array([1.0, -1.0, 0.0]), 1.0, np.array([1.0, -1.0, 0.0]), 0.0, pair,
            diag,
        )
        np.testing.assert_array_equal(got, [1.0, -1.0, 0.0])
        assert diag.clamp_events == 2

    def test_degenerate_max_returns_zero(self):
        diag = ClarkDiagnostics()
        got = clark_correlation_update(
            1.0, np.array([0.5, 0.2]), 1.0, np.array([0.5, 0.1]), 0.0, (1.0, 1.0), diag
        )
        np.testing.assert_array_equal(got, [0.0, 0.0])
        assert diag.degenerate_events == 1


class TestRecursion:
    def test_two_point_vector_equals_pair_formula(self):
        cov = fbm_covariance_matrix(2, 0.3)
        result = run_clark_recursion(fbm_vector_spec(2, 0.3))
        ref = pair_moments(0.0, cov[0, 0], 0.0, cov[1, 1], cov[0, 1])
        assert result.expected_max == pytest.approx(ref[0], rel=1e-14)
        assert result.second_moment == pytest.approx(ref[1], rel=1e-14)

    def test_matches_scalar_operations(self):
        # the recursion must agree with a plain scalar replay built
        # from the dense covariance, the pair moments and Clark's correlation formula
        n = 6
        for h in (1e-4, 0.09, 0.5, 0.9):
            cov = fbm_covariance_matrix(n, h)
            result = run_clark_recursion(fbm_vector_spec(n, h))

            sd = np.sqrt(np.diag(cov))
            mean_m, second_m = 0.0, cov[0, 0]
            corr = [cov[0, k] / (sd[0] * sd[k]) for k in range(1, n)]
            for k in range(1, n):
                var_m = second_m - mean_m ** 2
                cov_mk = corr[0] * math.sqrt(var_m * cov[k, k])
                pair = pair_moments(mean_m, var_m, 0.0, cov[k, k], cov_mk)[:2]
                alpha = mean_m / math.sqrt(var_m + cov[k, k] - 2.0 * cov_mk)
                sd_max = math.sqrt(pair[1] - pair[0] ** 2)
                p1 = 0.5 * math.erfc(-alpha / math.sqrt(2.0))  # Phi(alpha)
                p2 = 0.5 * math.erfc(alpha / math.sqrt(2.0))  # Phi(-alpha)
                corr = [
                    (math.sqrt(var_m) * corr[j - k] * p1
                     + sd[k] * (cov[k, j] / (sd[k] * sd[j])) * p2) / sd_max
                    for j in range(k + 1, n)
                ]
                assert all(abs(c) <= 1.0 for c in corr)
                mean_m, second_m = pair
            assert result.expected_max == pytest.approx(mean_m, rel=1e-12)
            assert result.second_moment == pytest.approx(second_m, rel=1e-12)

    @pytest.mark.parametrize("h", [1e-4, 0.0013, 0.01, 0.09, 0.25, 0.5, 0.9, 0.99])
    def test_matches_vector_oracle(self, h):
        # 65 and 1000 are no powers of two and span more than one 64-step
        # block; the oracle is O(N^2), so only one H runs at 2^14
        sizes = (1, 2, 3, 6, 63, 64, 65, 100, 1000, 2 ** 12) + ((2 ** 14,) if h == 0.0013 else ())
        for n in sizes:
            v = fbm_vector_spec(n, h)
            result, expected = run_clark_recursion(v), clark_recursion_oracle(v)
            assert result.expected_max == pytest.approx(expected.expected_max, rel=1e-12)
            assert result.second_moment == pytest.approx(expected.second_moment, rel=1e-12)
            assert result.diagnostics == expected.diagnostics

    @pytest.mark.parametrize("step,events", [(100, 1), (299, 0)])
    def test_degenerate_step_matches_vector_oracle(self, monkeypatch, step, events):
        # no fBm grid has one, so one step's max is made to lose its variance:
        # at step 100 its weights still have terms pending in later blocks;
        # the last step, 299, updates no correlation and so counts nothing
        def degenerate():
            calls = itertools.count(1)

            def patched(*args):
                mean, second, alpha = pair_moments(*args)
                return mean, (mean * mean if next(calls) == step else second), alpha
            return patched

        v = fbm_vector_spec(300, 0.09)
        monkeypatch.setattr(fbmax.clark, "pair_moments", degenerate())
        monkeypatch.setattr(conftest, "pair_moments", degenerate())
        result, expected = run_clark_recursion(v), clark_recursion_oracle(v)
        assert result.expected_max == pytest.approx(expected.expected_max, rel=1e-12)
        assert result.second_moment == pytest.approx(expected.second_moment, rel=1e-12)
        assert result.diagnostics == expected.diagnostics == ClarkDiagnostics(0, events)

    def test_clamps_the_correlation_it_reads(self):
        # no covariance has these variances: Corr(x_0, x_1) = 0.5 (1 + 100 - 1) / 10
        # = 5, which the step clips to 1 and tallies once
        result = run_clark_recursion(np.array([1.0, 100.0]))
        expected = pair_moments(0.0, 1.0, 0.0, 100.0, 10.0)[:2]
        assert (result.expected_max, result.second_moment) == expected
        assert result.diagnostics == ClarkDiagnostics(clamp_events=1, degenerate_events=0)

    @pytest.mark.parametrize("h", [0.0013, 0.0001])
    def test_monotone_in_grid_size_for_small_hurst(self, h):
        values = [
            clark_expected_max(fbm_vector_spec(2 ** k, h))
            for k in range(5, 10)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "n,h,expected",
        [
            (2 ** 8, 0.0001, 1.9848255390155245),
            (2 ** 10, 0.09, 1.9646389467034484),
            (2 ** 6, 0.3, 1.054587777869121),
        ],
    )
    def test_regression_values(self, n, h, expected):
        value = clark_expected_max(fbm_vector_spec(n, h))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_error_against_exact_random_walk_maximum(self):
        # H = 1/2 is a Gaussian random walk, whose grid maximum is exact by
        # Spitzer's identity: E max_{1<=i<=N} B(i/N) = (2 pi N)^{-1/2} sum_{k<N} k^{-1/2}.
        # Clark's Gaussian approximation overshoots it, more so as N grows.
        errors = []
        for exponent, expected in [(6, 8.72), (8, 11.19), (10, 13.23), (12, 14.92)]:
            n = 2 ** exponent
            spitzer = math.fsum(k ** -0.5 for k in range(1, n)) / math.sqrt(2.0 * math.pi * n)
            result = run_clark_recursion(fbm_vector_spec(n, 0.5))
            errors.append(100.0 * (result.expected_max / spitzer - 1.0))
            assert errors[-1] == pytest.approx(expected, abs=0.05)
            assert result.diagnostics == ClarkDiagnostics(clamp_events=0, degenerate_events=0)
        assert all(a < b for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("h", [1e-4, 0.0013, 0.01, 0.09, 0.25, 0.5])
    def test_exact_at_two_points(self, h):
        # E max(X, Y) = sd(X - Y) phi(0) for a centred pair, and
        # sd(B(1) - B(1/2)) = (1/2)^H; Clark's single step is exact
        result = run_clark_recursion(fbm_vector_spec(2, h))
        assert result.expected_max == pytest.approx(0.5 ** h / math.sqrt(2.0 * math.pi),
                                                    rel=1e-15)
        assert result.diagnostics == ClarkDiagnostics(clamp_events=0, degenerate_events=0)

    @pytest.mark.parametrize(
        "h,excess",
        [(1e-4, 0.1610), (0.0013, 0.1607), (0.01, 0.1592), (0.09, 0.1746),
         (0.25, 0.3674), (0.5, 1.1067)],
    )
    def test_excess_at_three_points(self, h, excess):
        # a centred Gaussian triple has E max = (s12 + s13 + s23) / (2 sqrt(2 pi)),
        # s_ij the sd of x_i - x_j, here |t_i - t_j|^H on t = 1/3, 2/3, 1.
        # Clark overshoots it by a percentage that is not monotone in H.
        exact = (2.0 * (1.0 / 3.0) ** h + (2.0 / 3.0) ** h) / (2.0 * math.sqrt(2.0 * math.pi))
        result = run_clark_recursion(fbm_vector_spec(3, h))
        assert 100.0 * (result.expected_max / exact - 1.0) == pytest.approx(excess, abs=0.005)
        assert result.diagnostics == ClarkDiagnostics(clamp_events=0, degenerate_events=0)

    def test_fbm_spec_matches_covariance_matrix(self):
        # the variances alone give every row: Cov(B(s), B(t)) = 0.5 (v_s + v_t - v_{t-s})
        for h in (1e-4, 0.3, 0.9):
            v = fbm_vector_spec(16, h)
            cov = fbm_covariance_matrix(16, h)
            assert v.shape == (16,)
            np.testing.assert_allclose(v, np.diag(cov), rtol=1e-13)
            for k in range(16):
                np.testing.assert_allclose(0.5 * (v[k] + v[k + 1:] - v[:15 - k]),
                                           cov[k, k + 1:], rtol=1e-13)

    def test_spec_validation(self):
        for bad in (np.zeros(0), np.array([1.0, 0.0]), np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="positive"):
                run_clark_recursion(bad)
