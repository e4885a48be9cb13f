"""Shared test helpers: the oracles that share no code with the package (dense
fBm covariance and Cholesky sampler, bivariate-max quadrature); Clark's
vector recursion, which the package's recursion replaced and whose pair
moments it shares; and acceptance reporting."""

import math

import numpy as np
from scipy.integrate import quad

from fbmax.clark import ClarkDiagnostics, ClarkResult, norm_cdf, pair_moments

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


def clark_correlation_update(
    var1: float,
    corr_tau_1: np.ndarray,
    var2: float,
    corr_tau_2: np.ndarray,
    alpha: float,
    max_moments: tuple[float, float],
    diagnostics: ClarkDiagnostics,
) -> np.ndarray:
    """Correlations of third variables tau with max{xi, eta}, elementwise.

        Corr(tau, max) = [sqrt(var1) Corr(tau,xi) Phi(alpha)
                          + sqrt(var2) Corr(tau,eta) Phi(-alpha)] / sd(max)

    ``corr_tau_1`` and ``corr_tau_2`` hold Corr(tau, xi) and Corr(tau, eta)
    for each tau, and ``max_moments`` the (E max, E max^2) of the pair.
    Returns zeros when the max has no variance; out-of-range results are
    clamped to [-1, 1]. Both events are tallied in ``diagnostics``, a clamp
    once per entry.
    """
    mean, second = max_moments
    var_max = second - mean * mean
    if var_max <= 0.0:
        diagnostics.degenerate_events += 1
        return np.zeros_like(corr_tau_1)
    raw = (
        math.sqrt(var1) * corr_tau_1 * norm_cdf(alpha)
        + math.sqrt(var2) * corr_tau_2 * norm_cdf(-alpha)
    ) / math.sqrt(var_max)
    diagnostics.clamp_events += int(np.count_nonzero(np.abs(raw) > 1.0))
    return np.clip(raw, -1.0, 1.0)


def clark_recursion_oracle(variances: np.ndarray) -> ClarkResult:
    """Clark's recursion with the whole correlation vector as its state: the
    O(N^2) form that ``fbmax.clark.run_clark_recursion`` replaced.

    Runs the full recursion over the fBm grid vector in ascending time order.

    ``variances`` is the vector ``fbm_vector_spec`` returns; the means are
    zero. The state after absorbing coordinates 0..k is the approximated mean
    and second moment of their maximum, plus its correlation with each
    remaining coordinate. Memory is O(N); work is O(N^2).
    """
    v = np.asarray(variances, dtype=float)
    n = v.size
    if n < 1 or not np.all(v > 0.0):
        raise ValueError("variances must be a non-empty vector of positive values")
    sd = np.sqrt(v)
    diagnostics = ClarkDiagnostics()

    def correlations(k):
        """Corr(x_k, x_j) for j = k+1, ..., N-1; the lags j - k are v's times."""
        return 0.5 * (v[k] + v[k + 1:] - v[:n - 1 - k]) / (sd[k] * sd[k + 1:])

    mean_m = 0.0
    second_m = float(v[0])
    if n > 1:
        corr = correlations(0)

    for k in range(1, n):
        var_m = max(second_m - mean_m * mean_m, 0.0)
        rho = float(corr[0])
        cov_mk = rho * math.sqrt(var_m * v[k])
        mean, second, alpha = pair_moments(mean_m, var_m, 0.0, float(v[k]), cov_mk)
        if k < n - 1:
            corr = clark_correlation_update(
                var_m, corr[1:], v[k], correlations(k), alpha, (mean, second), diagnostics
            )
        mean_m, second_m = mean, second

    return ClarkResult(expected_max=mean_m, second_moment=second_m, diagnostics=diagnostics)
