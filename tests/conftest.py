"""Shared test helpers: the oracles that share no code with the package (dense
fBm covariance and Cholesky sampler, bivariate-max quadrature) and
acceptance reporting."""

import math

import numpy as np
from scipy.integrate import quad

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# populated by tests/test_acceptance.py; replayed after the run so the
# per-criterion verdicts stay visible in captured-output mode
ACCEPTANCE_LINES = []


def record_criterion(number: int, passed: bool, detail: str) -> bool:
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fbm_covariance_matrix(n_points, hurst):
    """Dense covariance G[i, j] = Cov(B(t_i), B(t_j)) of the path values, t_i = i/N.

    G[i, j] = 0.5 (t_i^{2H} + t_j^{2H} - |t_i - t_j|^{2H}); symmetric,
    positive semidefinite, diagonal t_i^{2H}.
    """
    t = np.arange(1, n_points + 1) / n_points
    two_h = 2.0 * hurst
    pow_t = t ** two_h
    return 0.5 * (pow_t[:, None] + pow_t[None, :] - np.abs(t[:, None] - t[None, :]) ** two_h)


def cholesky_oracle_paths(n_points, hurst, n_paths, rng):
    """Path values (n_paths, N) drawn through the dense Cholesky factor."""
    factor = np.linalg.cholesky(fbm_covariance_matrix(n_points, hurst))
    return rng.standard_normal((n_paths, n_points)) @ factor.T


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def pair_max_moments_oracle(mean1, var1, mean2, var2, cov):
    """(E max, E max^2) of a correlated Gaussian pair by nested 1-D quadrature.

    Whitened coordinates (u, v); the kink line max(x, y(u, v)) is located
    exactly and passed to the inner quadrature as a breakpoint. Shares no
    code with the closed form under test.
    """
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    rho = cov / (s1 * s2) if s1 * s2 > 0 else 0.0
    comp = math.sqrt(max(1.0 - rho * rho, 0.0))

    def inner(power, u):
        x = mean1 + s1 * u
        pts = []
        if s2 * comp > 1e-12:
            v_star = (x - mean2 - s2 * rho * u) / (s2 * comp)
            if -8.0 < v_star < 8.0:
                pts = [v_star]

        def f(v):
            return max(x, mean2 + s2 * (rho * u + comp * v)) ** power * _phi(v)

        return quad(f, -8.0, 8.0, points=pts, epsabs=1e-9, limit=60)[0]

    first = quad(lambda u: inner(1, u) * _phi(u), -8.0, 8.0, epsabs=1e-8, limit=80)[0]
    second = quad(lambda u: inner(2, u) * _phi(u), -8.0, 8.0, epsabs=1e-8, limit=80)[0]
    return first, second


def draw_pair_cases(n_cases, seed=20210907):
    """Random bivariate cases (mean1, var1, mean2, var2, cov) for oracle checks."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        mean1, mean2 = rng.uniform(-2.0, 2.0, size=2)
        sd1, sd2 = rng.uniform(0.2, 2.0, size=2)
        rho = rng.uniform(-0.95, 0.95)
        cases.append(
            (float(mean1), float(sd1 ** 2), float(mean2), float(sd2 ** 2),
             float(rho * sd1 * sd2))
        )
    return cases
