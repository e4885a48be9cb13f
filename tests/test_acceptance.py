"""End-to-end acceptance checks for the expected-maximum experiments.

Each test evaluates one numbered criterion, prints a single
``criterion N: PASS/FAIL - detail`` line (replayed in the terminal summary),
and then asserts. Two published cells disagree with the formulas published
alongside them, so criteria 3 and 8 check those quantities against the
formula and independent references instead, and keep each published cell as
a documented erratum:

- criterion 3 checks the Borovkov lower bound against the 0.2055/sqrt(H)
  corollary and a 30-digit mpmath evaluation of 1/(2 sqrt(H pi e ln2)), and
  checks that the published row equals 1/sqrt(H pi 2.72 ln2);
- criterion 8 checks Clark's value at (N=2^10, H=0.09) against this suite's
  Monte Carlo, within Clark's approximation error, and reports how far the
  published 1.1971 lies from both.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from conftest import (
    cholesky_oracle_paths,
    draw_pair_cases,
    fbm_covariance_matrix,
    pair_max_moments_oracle,
    record_criterion,
)
from fbmax.bounds import (
    borovkov_bounds,
    delta_upper_bound,
    limit_integral,
    limit_integral_quantile_form,
    limit_integral_tail_form,
    sudakov_lower_bound,
)
from fbmax.clark import clark_expected_max, fbm_vector_spec, pair_moments
from fbmax.fbm import _synthesise_pairs, average_second_moment, build_embedding
from fbmax.montecarlo import fbm_functional_samples


def _max_samples(n_points, hursts, sample_size, seed):
    """Max-functional samples keyed by H; every H at this N shares its draws."""
    samples = fbm_functional_samples(n_points, hursts, sample_size, seed)
    return {hurst: by_kind["max"] for hurst, by_kind in samples.items()}


def _circulant_paths(n_points, hurst, n_paths, rng):
    spectrum = build_embedding(n_points, hurst)
    n_pairs = (n_paths + 1) // 2
    noise = rng.standard_normal((n_pairs, 2 * spectrum.size))
    fourier = np.empty((n_pairs, spectrum.size), complex)
    increments = _synthesise_pairs(spectrum, noise, fourier).reshape(2 * n_pairs, -1)[:n_paths]
    return np.cumsum(increments, axis=1)


def test_criterion_01_limit_integral_table():
    cells = [
        (2 ** 8, 1.9989), (2 ** 12, 2.5640), (2 ** 15, 2.9232),
        (2 ** 19, 3.3469), (2 ** 20, 3.4452), (2 ** 24, 3.815),
    ]
    worst_dev = 0.0
    worst_time = 0.0
    for n, published in cells:
        limit_integral.cache_clear()
        start = time.perf_counter()
        value = limit_integral(n)
        worst_time = max(worst_time, time.perf_counter() - start)
        worst_dev = max(worst_dev, abs(value - published))
    ok = worst_dev <= 2e-3 and worst_time < 1.0
    assert record_criterion(
        1, ok,
        f"6 integral cells, max |dev| {worst_dev:.1e} (tol 2e-3), "
        f"max time {worst_time * 1e3:.1f} ms (budget 1000 ms)",
    )


def test_criterion_02_quadrature_forms_agree():
    worst = 0.0
    for exponent in range(8, 25):
        n = 2 ** exponent
        gap = abs(limit_integral_quantile_form(n) - limit_integral_tail_form(n))
        worst = max(worst, gap)
    ok = worst <= 1e-5
    assert record_criterion(
        2, ok, f"two quadrature forms over N=2^8..2^24, max gap {worst:.1e} (tol 1e-5)"
    )


def test_criterion_03_bounds_table():
    sudakov_cells = [
        (2 ** 8, 0.09, 0.6853), (2 ** 19, 0.0001, 1.7367), (2 ** 12, 0.5, 0.0216),
    ]
    sudakov_dev = max(
        abs(sudakov_lower_bound(n, h) - published) for n, h, published in sudakov_cells
    )
    sudakov_ok = sudakov_dev <= 5e-5

    # The lower bound follows the displayed formula 1/(2 sqrt(H pi e ln2)):
    # the error corollary's 0.2055/sqrt(H), and a 30-digit evaluation.
    borovkov_cells = [
        (0.5, 0.5811, 5e-5), (0.09, 1.3696, 5e-5), (0.01, 4.1089, 5e-5),
        (0.0013, 11.396, 5e-4), (0.0001, 41.089, 5e-4),
    ]
    lowers = [borovkov_bounds(h).lower for h, _, _ in borovkov_cells]
    with mpmath.workdps(30):
        formula = [
            1 / (2 * mpmath.sqrt(mpmath.mpf(h) * mpmath.pi * mpmath.e * mpmath.log(2)))
            for h, _, _ in borovkov_cells
        ]
    c1_dev = max(
        abs(lower * math.sqrt(h) - 0.2055) for lower, (h, _, _) in zip(lowers, borovkov_cells)
    )
    formula_rel = max(float(abs(lower / ref - 1)) for lower, ref in zip(lowers, formula))
    formula_ok = c1_dev <= 5e-5 and formula_rel <= 1e-13

    # Erratum: the published row is 1/sqrt(H pi 2.72 ln2), the bound without
    # its factor 1/2 and with e rounded to 2.72.
    erratum_devs = [
        abs(2.0 * lower * math.sqrt(math.e / 2.72) - published)
        for lower, (_, published, _) in zip(lowers, borovkov_cells)
    ]
    erratum_ok = all(
        dev <= tol for dev, (_, _, tol) in zip(erratum_devs, borovkov_cells)
    )
    computed = ", ".join(f"{lower:.4f}" for lower in lowers)
    ok = sudakov_ok and formula_ok and erratum_ok
    assert record_criterion(
        3, ok,
        f"sudakov spot checks max |dev| {sudakov_dev:.1e} (tol 5e-5); "
        f"borovkov lower 1/(2 sqrt(H pi e ln2)) gives ({computed}), "
        f"max |lower sqrt(H) - 0.2055| {c1_dev:.1e} (tol 5e-5), "
        f"vs 30-digit mpmath rel {formula_rel:.1e} (tol 1e-13); erratum: the published "
        f"row (0.5811, 1.3696, 4.1089, 11.396, 41.089) is 1/sqrt(H pi 2.72 ln2), "
        f"max |dev| {max(erratum_devs):.1e} (tol 5e-5, 5e-4 for the last two cells)",
    )


def test_criterion_04_constants():
    c1 = 1.0 / (2.0 * math.sqrt(math.pi * math.e * math.log(2.0)))
    c2 = 2.0 * limit_integral(2 ** 20) * math.sqrt(math.pi * math.e * math.log(2.0))
    ok = abs(c1 - 0.2055) <= 5e-5 and abs(c2 - 16.765) <= 5e-3
    assert record_criterion(
        4, ok, f"c1 computed {c1:.6f} vs 0.2055; error constant {c2:.5f} vs 16.765"
    )


def test_criterion_05_delta_upper_claim():
    bound = delta_upper_bound(2 ** 20, 0.05)
    ok = bound is not None and bound < 11.18
    assert record_criterion(
        5, ok, f"delta upper bound at N=2^20, H=0.05: {bound:.4f} < 11.18, "
        f"validity condition holds with equality"
    )


def test_criterion_06_covariance_oracle():
    start = time.perf_counter()
    n_paths = 20000
    worst_z = 0.0
    for hurst in (0.0001, 0.1, 0.5, 0.9):
        paths = _circulant_paths(64, hurst, n_paths, np.random.default_rng(101))
        empirical = paths.T @ paths / n_paths
        cov = fbm_covariance_matrix(64, hurst)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n_paths)
        worst_z = max(worst_z, float(np.max(np.abs(empirical - cov) / se)))

    mc = _circulant_paths(128, 0.3, n_paths, np.random.default_rng(202)).max(axis=1)
    chol = cholesky_oracle_paths(128, 0.3, n_paths, np.random.default_rng(203)).max(axis=1)
    se = math.sqrt(mc.var(ddof=1) / mc.size + chol.var(ddof=1) / chol.size)
    sampler_z = abs(mc.mean() - chol.mean()) / se

    elapsed = time.perf_counter() - start
    ok = worst_z < 5.0 and sampler_z < 3.0 and elapsed < 120.0
    assert record_criterion(
        6, ok,
        f"N=64 sample covariance worst |z| {worst_z:.2f} (limit 5) over 4 H values; "
        f"cholesky vs circulant max-mean |z| {sampler_z:.2f} (limit 3); {elapsed:.1f} s",
    )


def test_criterion_07_monte_carlo_cells():
    cells = [(2 ** 10, 0.0001, 2.2854), (2 ** 14, 0.01, 2.7612)]
    details = []
    ok = True
    for n_points, hurst, published in cells:
        start = time.perf_counter()
        samples = _max_samples(n_points, [hurst], 1000, seed=12345)[hurst]
        elapsed = time.perf_counter() - start
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        z = (samples.mean() - published) / se
        ok = ok and abs(z) <= 3.0 and elapsed < 300.0
        details.append(f"N={n_points} H={hurst}: mean {samples.mean():.4f} "
                       f"vs {published} (z {z:+.2f}, {elapsed:.1f} s)")
    assert record_criterion(7, ok, "; ".join(details))


def test_criterion_08_clark_recursion():
    worst = 0.0
    for mean1, var1, mean2, var2, cov in draw_pair_cases(20):
        got = pair_moments(mean1, var1, mean2, var2, cov)
        ref = pair_max_moments_oracle(mean1, var1, mean2, var2, cov)
        worst = max(worst, abs(got[0] - ref[0]), abs(got[1] - ref[1]))
    pair_ok = worst <= 1e-6

    cell_small = clark_expected_max(fbm_vector_spec(2 ** 8, 0.0001))
    start = time.perf_counter()
    cell_large = clark_expected_max(fbm_vector_spec(2 ** 10, 0.09))
    elapsed = time.perf_counter() - start
    dev_small = abs(cell_small - 1.9839) / 1.9839

    # Clark's recursion is an approximation: it sits a few percent above the
    # true E max, so the large cell is checked against this suite's own Monte
    # Carlo, allowing 4% approximation error plus 3 standard errors.
    samples = _max_samples(2 ** 10, [0.09], 4000, seed=12345)[0.09]
    mc_mean = samples.mean()
    mc_se = samples.std(ddof=1) / math.sqrt(samples.size)
    mc_tol = 0.04 * mc_mean + 3.0 * mc_se
    ok = (pair_ok and dev_small <= 0.02 and abs(cell_large - mc_mean) <= mc_tol
          and elapsed < 60.0)
    assert record_criterion(
        8, ok,
        f"pair moments vs quadrature oracle max |dev| {worst:.1e} (tol 1e-6); "
        f"cell (2^8, 1e-4) {cell_small:.4f} vs 1.9839 ({dev_small:.2%}); "
        f"cell (2^10, 0.09) {cell_large:.4f} (recursion in {elapsed:.1f} s) vs Monte "
        f"Carlo {mc_mean:.4f} +- {mc_se:.4f} ({(cell_large - mc_mean) / mc_mean:+.1%}, "
        f"tol 4% + 3 SE = {mc_tol:.4f}); erratum: the published 1.1971 is "
        f"{(1.1971 - cell_large) / cell_large:+.0%} from the recursion and "
        f"{(1.1971 - mc_mean) / mc_mean:+.0%} from Monte Carlo",
    )


def test_criterion_09_average_functional():
    samples = fbm_functional_samples(2 ** 12, [0.01], 1000, 303)[0.01]["average"]
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    z_mean = samples.mean() / se
    squares = samples ** 2
    se_sq = squares.std(ddof=1) / math.sqrt(squares.size)
    z_second = (squares.mean() - average_second_moment(2 ** 12, 0.01)) / se_sq

    worst_rel = 0.0
    for n_points, hurst in [(2, 0.3), (17, 0.01), (128, 0.5), (512, 0.0013)]:
        brute = fbm_covariance_matrix(n_points, hurst).sum() / n_points ** 2
        worst_rel = max(worst_rel, abs(average_second_moment(n_points, hurst) / brute - 1.0))

    ok = abs(z_mean) <= 1.96 and abs(z_second) <= 1.96 and worst_rel <= 1e-10
    assert record_criterion(
        9, ok,
        f"mean z {z_mean:+.2f} (CI contains 0), second moment z {z_second:+.2f}; "
        f"closed form vs covariance double sum max rel dev {worst_rel:.1e} (tol 1e-10)",
    )


def test_criterion_10_paradox_reproduction():
    start = time.perf_counter()
    failures = []
    closest = math.inf
    for exponent in range(8, 20):
        n_points = 2 ** exponent
        sample_size = 1000 if exponent <= 16 else 250
        maxima = _max_samples(n_points, (0.0013, 0.0001), sample_size, seed=404)
        for hurst, samples in maxima.items():
            lower = borovkov_bounds(hurst).lower
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            mean = samples.mean()
            sandwich_low = sudakov_lower_bound(n_points, hurst) - 3.0 * se
            sandwich_high = limit_integral(n_points) + 3.0 * se
            closest = min(closest, lower - mean)
            if not (mean < lower and sandwich_low <= mean <= sandwich_high):
                failures.append(f"H={hurst} N=2^{exponent}")
    elapsed = time.perf_counter() - start
    ok = not failures
    assert record_criterion(
        10, ok,
        f"24 cells, every max-functional mean below the Borovkov lower bound "
        f"(smallest margin {closest:.3f}) and inside the Sudakov/limit-integral "
        f"sandwich up to 3 SE"
        + (f"; violations: {', '.join(failures)}" if failures else "")
        + f"; {elapsed:.0f} s",
    )
