import numpy as np
import pytest

from fbmax.fbm import fbm_covariance_matrix
from fbmax.functionals import (
    REDUCTIONS,
    FunctionalKind,
    average_second_moment,
    average_second_moment_limit,
)
from fbmax.grid import PathGrid

MAX = REDUCTIONS[FunctionalKind.MAX]
AVERAGE = REDUCTIONS[FunctionalKind.AVERAGE]


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
        assert set(REDUCTIONS) == set(FunctionalKind)
        paths = np.array([[1.0, 3.0]])
        assert MAX(paths)[0] == 3.0
        assert AVERAGE(paths)[0] == 2.0


class TestAverageSecondMoment:
    def test_two_point_brownian_value(self):
        # E[((B(1/2) + B(1))/2)^2] = (1/4)(1/2 + 2*(1/2) + 1) = 5/8
        assert average_second_moment(PathGrid(n_points=2, hurst=0.5)) == pytest.approx(
            5.0 / 8.0, rel=1e-15
        )

    @pytest.mark.parametrize("h", [0.0001, 0.0013, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [2, 17, 128, 512])
    def test_against_covariance_double_sum(self, h, n):
        # independent route: E[(mean of path values)^2] = mean of the full
        # covariance matrix
        g = PathGrid(n_points=n, hurst=h)
        oracle = fbm_covariance_matrix(g).sum() / n ** 2
        assert average_second_moment(g) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("h", [0.0001, 0.25, 0.5, 0.9])
    def test_decreases_to_limit(self, h):
        limit = average_second_moment_limit(h)
        gaps = [
            average_second_moment(PathGrid(n_points=2 ** k, hurst=h)) - limit
            for k in range(3, 11)
        ]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_limit_values(self):
        assert average_second_moment_limit(0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
        with pytest.raises(ValueError):
            average_second_moment_limit(0.0)
        with pytest.raises(ValueError):
            average_second_moment_limit(1.0)
