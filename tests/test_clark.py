import math

import numpy as np
import pytest

from conftest import draw_pair_cases, pair_max_moments_oracle
from fbmax.clark import (
    CLARK_MAX_POINTS,
    ClarkDiagnostics,
    GaussianVectorSpec,
    clark_correlation_update,
    clark_expected_max,
    clark_pair_moments,
    fbm_vector_spec,
    run_clark_recursion,
)
from fbmax.fbm import fbm_covariance_matrix
from fbmax.grid import PathGrid

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


def dense_spec(means, cov):
    """Array-backed spec of N(means, cov) read from a dense covariance matrix."""
    cov = np.asarray(cov, dtype=float)
    return GaussianVectorSpec(
        mean=np.asarray(means, dtype=float),
        variance=np.diag(cov).copy(),
        cross_covariance=lambda k: cov[k, k + 1:],
    )


def iid_spec(n):
    return dense_spec(np.zeros(n), np.eye(n))


class TestPairMoments:
    @pytest.mark.parametrize("case", PAIR_ORACLE_CASES)
    def test_frozen_oracle_values(self, case):
        m1, v1, m2, v2, cov, first, second = case
        got1, got2 = clark_pair_moments(m1, v1, m2, v2, cov)
        assert got1 == pytest.approx(first, abs=1e-8)
        assert got2 == pytest.approx(second, abs=1e-8)

    def test_live_quadrature_oracle(self):
        for m1, v1, m2, v2, cov in draw_pair_cases(3, seed=99):
            got = clark_pair_moments(m1, v1, m2, v2, cov)
            ref = pair_max_moments_oracle(m1, v1, m2, v2, cov)
            assert got[0] == pytest.approx(ref[0], abs=1e-8)
            assert got[1] == pytest.approx(ref[1], abs=1e-8)

    def test_iid_standard_pair(self):
        first, second = clark_pair_moments(0.0, 1.0, 0.0, 1.0, 0.0)
        assert first == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert second == pytest.approx(1.0, rel=1e-14)

    def test_constants_pick_larger_mean(self):
        assert clark_pair_moments(0.0, 0.0, 1.0, 0.0, 0.0) == (1.0, 1.0)
        assert clark_pair_moments(2.0, 0.0, -1.0, 0.0, 0.0) == (2.0, 4.0)

    def test_perfectly_correlated_copy(self):
        first, second = clark_pair_moments(0.3, 2.0, 0.3, 2.0, 2.0)
        assert first == pytest.approx(0.3, rel=1e-14)
        assert second == pytest.approx(0.09 + 2.0, rel=1e-14)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            clark_pair_moments(0.0, -1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            clark_pair_moments(0.0, 1.0, 0.0, 1.0, 1.5)


class TestCorrelationUpdate:
    def test_iid_pair_with_first_member(self):
        pair = clark_pair_moments(0.0, 1.0, 0.0, 1.0, 0.0)
        got = clark_correlation_update(
            1.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]), 0.0, pair
        )
        # Corr(xi, max(xi, eta)) = (1/2) / sqrt(1 - 1/pi), and by symmetry
        # the same for eta
        expected = 0.5 / math.sqrt(1.0 - 1.0 / math.pi)
        np.testing.assert_allclose(got, [expected, expected], rtol=1e-13)

    def test_out_of_range_is_clamped_and_tallied(self):
        diag = ClarkDiagnostics()
        pair = clark_pair_moments(0.0, 1.0, 0.0, 1.0, 0.0)
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
        g = PathGrid(n_points=2, hurst=0.3)
        cov = fbm_covariance_matrix(g)
        result = run_clark_recursion(fbm_vector_spec(g))
        ref = clark_pair_moments(0.0, cov[0, 0], 0.0, cov[1, 1], cov[0, 1])
        assert result.expected_max == pytest.approx(ref[0], rel=1e-14)
        assert result.second_moment == pytest.approx(ref[1], rel=1e-14)

    def test_matches_scalar_operations(self):
        # the vectorized recursion must agree with a plain scalar replay
        # built from the pair moments and Clark's correlation formula
        rng = np.random.default_rng(31)
        n = 6
        a = rng.standard_normal((n, n))
        cov = a @ a.T + 0.5 * np.eye(n)
        means = rng.standard_normal(n)
        result = run_clark_recursion(dense_spec(means, cov))

        sd = np.sqrt(np.diag(cov))
        mean_m, second_m = means[0], means[0] ** 2 + cov[0, 0]
        corr = [cov[0, k] / (sd[0] * sd[k]) for k in range(1, n)]
        for k in range(1, n):
            var_m = second_m - mean_m ** 2
            cov_mk = corr[0] * math.sqrt(var_m * cov[k, k])
            pair = clark_pair_moments(mean_m, var_m, means[k], cov[k, k], cov_mk)
            a_val = math.sqrt(var_m + cov[k, k] - 2.0 * cov_mk)
            alpha = (mean_m - means[k]) / a_val
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

    def test_iid_small_sizes_near_exact(self):
        # exact for n=2; for n=3,4 the Gaussian-max approximation is known to
        # sit within a couple of 1e-3 of the true expected maximum
        assert clark_expected_max(iid_spec(2)) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-13
        )
        assert clark_expected_max(iid_spec(3)) == pytest.approx(
            1.5 / math.sqrt(math.pi), abs=2e-3
        )
        assert clark_expected_max(iid_spec(4)) == pytest.approx(1.029375, abs=2e-3)

    def test_identical_variables_collapse(self):
        result = run_clark_recursion(dense_spec(np.zeros(5), np.ones((5, 5))))
        assert result.expected_max == 0.0
        assert result.second_moment == 1.0
        assert result.diagnostics.clamp_events == 0

    def test_translation_equivariance(self):
        base = iid_spec(4)
        shifted = dense_spec(np.full(4, 2.5), np.eye(4))
        assert clark_expected_max(shifted) - clark_expected_max(base) == pytest.approx(
            2.5, rel=1e-13
        )

    @pytest.mark.parametrize("h", [0.0013, 0.0001])
    def test_monotone_in_grid_size_for_small_hurst(self, h):
        values = [
            clark_expected_max(fbm_vector_spec(PathGrid(n_points=2 ** k, hurst=h)))
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
        value = clark_expected_max(fbm_vector_spec(PathGrid(n_points=n, hurst=h)))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_fbm_spec_matches_covariance_matrix(self):
        g = PathGrid(n_points=16, hurst=0.3)
        spec = fbm_vector_spec(g)
        cov = fbm_covariance_matrix(g)
        assert spec.size == 16
        np.testing.assert_array_equal(spec.mean, np.zeros(16))
        np.testing.assert_allclose(spec.variance, np.diag(cov), rtol=1e-13)
        for k in range(16):
            np.testing.assert_allclose(spec.cross_covariance(k), cov[k, k + 1:], rtol=1e-13)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="size"):
            dense_spec(np.zeros(0), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="variances"):
            GaussianVectorSpec(mean=np.zeros(3), variance=np.ones(2),
                               cross_covariance=lambda k: np.zeros(2 - k))
        with pytest.raises(ValueError, match="variances must be positive"):
            run_clark_recursion(dense_spec(np.zeros(2), np.diag([1.0, 0.0])))

    def test_size_guard(self):
        n = CLARK_MAX_POINTS + 1
        spec = GaussianVectorSpec(
            mean=np.zeros(n), variance=np.ones(n), cross_covariance=lambda k: np.zeros(n - 1 - k)
        )
        with pytest.raises(ValueError, match="allow_large"):
            run_clark_recursion(spec)
