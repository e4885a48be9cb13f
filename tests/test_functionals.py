import numpy as np
import pytest

from conftest import fbm_covariance_matrix
from fbmax.fbm import average_second_moment
from fbmax.montecarlo import REDUCTIONS, fbm_functional_samples

MAX = REDUCTIONS["max"]
AVERAGE = REDUCTIONS["average"]


class TestFunctionals:
    def test_on_plain_arrays(self):
        paths = np.array([[-1.0, 2.5, 0.3]])
        np.testing.assert_array_equal(MAX(paths), [2.5])
        np.testing.assert_allclose(AVERAGE(paths), [0.6], rtol=1e-15)

    def test_on_paths(self):
        # one value per path: a (k, N) batch reduces along N to shape (k,)
        paths = np.array([[0.5, -0.25, 1.0], [-2.0, -3.0, -1.0]])
        np.testing.assert_array_equal(MAX(paths), [1.0, -1.0])
        np.testing.assert_allclose(AVERAGE(paths), [5.0 / 12.0, -2.0], rtol=1e-15)

    def test_evaluate_dispatch(self):
        assert list(REDUCTIONS) == ["max", "average"]
        samples = fbm_functional_samples(8, [0.3, 0.7], 4, 0)
        assert all(list(by_name) == ["max", "average"] for by_name in samples.values())
        paths = np.array([[1.0, 3.0]])
        assert MAX(paths)[0] == 3.0
        assert AVERAGE(paths)[0] == 2.0


class TestAverageSecondMoment:
    def test_two_point_brownian_value(self):
        # E[((B(1/2) + B(1))/2)^2] = (1/4)(1/2 + 2*(1/2) + 1) = 5/8
        assert average_second_moment(2, 0.5) == pytest.approx(
            5.0 / 8.0, rel=1e-15
        )

    @pytest.mark.parametrize("h", [0.0001, 0.0013, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [2, 17, 128, 512])
    def test_against_covariance_double_sum(self, h, n):
        # independent route: E[(mean of path values)^2] = mean of the full
        # covariance matrix
        oracle = fbm_covariance_matrix(n, h).sum() / n ** 2
        assert average_second_moment(n, h) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("h", [0.0001, 0.25, 0.5, 0.9])
    def test_decreases_to_limit(self, h):
        limit = 1.0 / (2.0 * h + 2.0)  # the large-N limit of the second moment
        gaps = [
            average_second_moment(2 ** k, h) - limit
            for k in range(3, 11)
        ]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_limit_values(self):
        # at H = 1/2 the moment is (N+1)(2N+1)/(6N^2), which tends to 1/3
        for n in (2 ** 4, 2 ** 10, 2 ** 16):
            moment = average_second_moment(n, 0.5)
            assert moment == pytest.approx((n + 1) * (2 * n + 1) / (6 * n * n), rel=1e-13)
        assert moment == pytest.approx(1.0 / 3.0, abs=1e-4)
