"""Closed-form bounds and the small-Hurst limit of the expected maximum.

For B a fractional Brownian motion with Hurst index H on [0, 1], the expected
maximum M(H) = E max B satisfies

    1/(2 sqrt(H pi e ln 2)) <= M(H) <= 16.3 / sqrt(H).

The discrete approximation E max_{i<=N} B(i/N) converges, after scaling by
N^H, to a limit expressible as an integral of the inverse error function; this
module evaluates that integral by two independent quadrature routes and cross
checks them. It also provides the Sudakov lower bound for the discrete
maximum, the discretization-error bounds built from these pieces, and a
one-call report combining everything for a given (N, H).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr, ndtri, ndtri_exp

from .errors import QuadratureError, check_hurst, check_points

__all__ = [
    "BorovkovBounds",
    "SudakovMaximizer",
    "borovkov_bounds",
    "delta_upper_bound",
    "sudakov_lower_bound",
    "sudakov_maximizer",
    "limit_quantile",
    "limit_integral",
    "limit_integral_quantile_form",
    "limit_integral_tail_form",
    "relative_error_lower",
    "bounds_report",
]

_TWO_PI_LN2 = 2.0 * math.pi * math.log(2.0)
#: Tolerance of the limit integral; the two quadrature routes must agree to this.
INTEGRAL_ABS_TOL = 1e-5
#: Largest N of the limit law: its quadrature routes and its sampler multiply or
#: divide by N as a double.
LIMIT_MAX_POINTS = 2 ** 1023
#: Gauss-Legendre rules on [-1, 1]; the 48-point one checks the 24-point one.
_GAUSS_24, _GAUSS_48 = (np.polynomial.legendre.leggauss(k) for k in (24, 48))
#: Panel edges in s = -ln u, graded towards the log singularity at s = 0.
_S_EDGES = np.concatenate(([0.0], np.logspace(-30.0, 0.0, 31), np.arange(2.0, 46.0)))


class BorovkovBounds(NamedTuple):
    lower: float
    upper: float


class SudakovMaximizer(NamedTuple):
    #: None when e^(1/(2H)) overflows; ``value`` is then the analytic maximum.
    n_star: int | None
    value: float


def borovkov_bounds(hurst: float) -> BorovkovBounds:
    """Two-sided bounds on E max of fBm over [0, 1].

    lower = 1/(2 sqrt(H pi e ln 2)), upper = 16.3/sqrt(H).
    """
    hurst = check_hurst(hurst)
    lower = 0.5 / math.sqrt(hurst * math.pi * math.e * math.log(2.0))
    upper = 16.3 / math.sqrt(hurst)
    return BorovkovBounds(lower=lower, upper=upper)


def delta_upper_bound(n_points: int, hurst: float) -> float | None:
    """Upper bound on the discretization error of the expected maximum.

        (2 sqrt(ln N) / N^H) (1 + 4/N^H + 0.0074/(ln N)^(3/2))

    The bound is proved for N >= 2^(1/H) only; below that it is None.
    """
    n_points = check_points(n_points, minimum=2)
    hurst = check_hurst(hurst)
    if hurst * math.log2(n_points) < 1.0:
        return None
    log_n = math.log(n_points)
    n_pow_h = math.exp(hurst * log_n)
    return (2.0 * math.sqrt(log_n) / n_pow_h) * (
        1.0 + 4.0 / n_pow_h + 0.0074 / log_n ** 1.5
    )


def sudakov_lower_bound(n_points: int, hurst: float) -> float:
    """Sudakov minoration for the maximum over the grid {i/N, i <= N}:

        sqrt( ln(N+1) / (N^{2H} 2 pi ln 2) )
    """
    n_points = check_points(n_points)
    hurst = check_hurst(hurst)
    n_pow = math.exp(2.0 * hurst * math.log(n_points))
    return math.sqrt(math.log(n_points + 1.0) / (n_pow * _TWO_PI_LN2))


def sudakov_maximizer(hurst: float) -> SudakovMaximizer:
    """Grid size maximizing the Sudakov bound, with the bound attained there.

    The maximizer is floor(e^(1/(2H))). For very small H it overflows the
    float range; then n_star is None and the analytic maximum
    (4 H pi e ln 2)^(-1/2) is returned instead.
    """
    hurst = check_hurst(hurst)
    exponent = 0.5 / hurst
    if exponent >= math.log(np.finfo(float).max):
        value = 1.0 / math.sqrt(4.0 * hurst * math.pi * math.e * math.log(2.0))
        return SudakovMaximizer(n_star=None, value=value)
    n_star = max(1, math.floor(math.exp(exponent)))
    return SudakovMaximizer(n_star=n_star, value=sudakov_lower_bound(n_star, hurst))


def limit_quantile(u: float | np.ndarray, n_points: int) -> float | np.ndarray:
    """Quantile of the limit law (1/sqrt 2) max(0, M_N) at u in [0, 1].

    M_N, the maximum of N iid standard normals, has CDF Phi^N, so
    M_N = -ndtri(1 - u^(1/N)), with 1 - u^(1/N) formed by expm1 to keep its
    digits at large N. Accepts a float or an array. At u = 0 the log divides
    by zero and the result clips to 0; a caller that passes u = 0 silences
    that warning itself, as ``iid_limit_samples`` does.
    """
    return np.maximum(-ndtri(-np.expm1(np.log(u) / n_points)), 0.0) / math.sqrt(2.0)


def _quantile_integrand(s: np.ndarray, log_n: float) -> np.ndarray:
    """``limit_quantile(exp(-s), N)`` from ln N. Below x = s/N = 1e-8, ln(1 - u^(1/N))
    = ln(-expm1(-x)) is formed as ln s - ln N + log1p(-x/2), which never underflows."""
    x = s * math.exp(-log_n)
    log_p = np.where(x < 1e-8, np.log(s) - log_n + np.log1p(-0.5 * np.minimum(x, 1e-8)),
                     np.log(-np.expm1(-np.maximum(x, 1e-8))))
    return np.maximum(-ndtri_exp(log_p), 0.0) / math.sqrt(2.0)


def _gauss_legendre(rule: tuple, edges: np.ndarray, log_n: float) -> float:
    half = 0.5 * np.diff(edges)
    s = edges[:-1, None] + half[:, None] * (rule[0] + 1.0)
    return float(half @ ((_quantile_integrand(s, log_n) * np.exp(-s)) @ rule[1]))


def limit_integral_quantile_form(n_points: int) -> float:
    """N int_{1/2}^1 erf^(-1)(2z - 1) z^(N-1) dz via t = z^N and s = -ln t.

    It becomes int_0^S q(s) e^(-s) ds with q(s) = ``limit_quantile(exp(-s), N)``
    and S = min(N ln 2, 45): q is 0 past N ln 2, and past 45 the integrand is
    below 1e-18. The 24-point Gauss-Legendre rule on the panels of ``_S_EDGES``
    below S gives it; the 48-point rule on the same panels must agree to 1e-7.
    """
    n_points = check_points(n_points, maximum=LIMIT_MAX_POINTS)
    log_n, s_max = math.log(n_points), min(n_points * math.log(2.0), 45.0)
    edges = np.append(_S_EDGES[_S_EDGES < s_max], s_max)
    value, check = (_gauss_legendre(rule, edges, log_n) for rule in (_GAUSS_24, _GAUSS_48))
    if abs(check - value) > 1e-7:
        raise QuadratureError(f"quantile-form rules disagree for N={n_points}: "
                              f"24-point {value!r} vs 48-point {check!r}")
    return value


def limit_integral_tail_form(n_points: int) -> float:
    """(1/sqrt 2) int_0^inf (1 - Phi(x)^N) dx by composite Gauss-Legendre.

    Phi(x)^N is computed as exp(N log Phi(x)) so it never underflows. The
    truncation point keeps the dropped tail below ~1e-12: past it the
    integrand is under N(1 - Phi(x)) <= N phi(x)/x.
    """
    n_points = check_points(n_points, maximum=LIMIT_MAX_POINTS)
    x_max = 1.0
    while (
        n_points * math.exp(-0.5 * x_max * x_max)
        / math.sqrt(2.0 * math.pi) / (1.0 + x_max * x_max)
    ) > 1e-13 and x_max < 60.0:
        x_max += 0.5
    nodes, weights = _GAUSS_24
    edges = np.linspace(0.0, x_max, max(8, int(2 * x_max)) + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        g = -np.expm1(n_points * log_ndtr(x))
        total += 0.5 * (hi - lo) * float(np.dot(weights, g))
    return total / math.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def limit_integral(n_points: int) -> float:
    """Small-H limit of the scaled expected maximum N^H E max_{i<=N} B(i/N).

    Equals (1/sqrt 2) E (max of N iid standard normals)^+. Both quadrature
    forms are evaluated and must agree to 1e-5; the quantile form is returned.
    """
    n_points = check_points(n_points)
    value = limit_integral_quantile_form(n_points)
    check = limit_integral_tail_form(n_points)
    if abs(value - check) > INTEGRAL_ABS_TOL:
        raise QuadratureError(
            f"limit integral routes disagree for N={n_points}: "
            f"quantile form {value!r} vs tail form {check!r}"
        )
    return value


def relative_error_lower(hurst: float) -> float:
    """Lower bound 1 - 16.765 sqrt(H) on the relative discretization error
    at N = 2^20. May be negative; returned as-is."""
    hurst = check_hurst(hurst)
    return 1.0 - 16.765 * math.sqrt(hurst)


def bounds_report(n_points: int, hurst: float) -> dict[str, float | None]:
    """Every bound this module knows at one (N, H), keyed by its ``bounds.csv``
    column, in column order.

    ``delta_upper`` is None when N < 2^(1/H), where that bound is unproven.
    """
    n_points = check_points(n_points)
    hurst = check_hurst(hurst)
    borovkov = borovkov_bounds(hurst)
    integral = limit_integral(n_points)
    return {
        "borovkov_lower": borovkov.lower,
        "borovkov_upper": borovkov.upper,
        "sudakov_lower": sudakov_lower_bound(n_points, hurst),
        "delta_upper": delta_upper_bound(n_points, hurst) if n_points >= 2 else None,
        "limit_integral": integral,
        "delta_lower": borovkov.lower - integral,
        "relative_error_lower": relative_error_lower(hurst),
    }
