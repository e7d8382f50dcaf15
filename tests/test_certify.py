import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg.certify import (
    bound_check,
    default_mu_grid,
    delta_contour,
    delta_direct,
    delta_scan,
    delta_series,
    resolvent_ratio_max,
    lemma_integral_zero,
    lemma_scan_bounds,
    phi_sweep,
    weighted_error_table,
)
from fracdg.special import FractionalOrder

DELTA_1_HALF_MU1 = 0.042257519575574146
# classical closed form (1+mu)^{-n} - e^{-n mu} at three spots
DELTA_CLASSICAL = {
    (1, 1.0): 0.13212055882855768,
    (5, 0.25): 0.0411752031398099,
    (20, 2.0): 2.8679719483088988e-10,
}


def test_mu_grid_shape():
    grid = default_mu_grid()
    assert grid[0] == 2.0 ** -18
    assert grid[-1] == 2.0 ** 20
    assert np.allclose(np.diff(np.log2(grid)), 1.0)


def test_delta_direct_reference_value():
    got = delta_direct(FractionalOrder(0.5), 1.0, 1)
    assert got == pytest.approx(DELTA_1_HALF_MU1, rel=1e-13)


def test_delta_direct_classical_values():
    order = FractionalOrder(1.0)
    for (n, mu), want in DELTA_CLASSICAL.items():
        assert delta_direct(order, mu, n) == pytest.approx(want, rel=1e-10)


def test_delta_series_consistent_with_single_values():
    order = FractionalOrder(0.75)
    series, ml_err = delta_series(order, 2.0, 12)
    assert np.all(ml_err < 1e-12)
    for n in (1, 5, 12):
        assert series[n - 1] == pytest.approx(
            delta_direct(order, 2.0, n), abs=1e-15)


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.9])
def test_delta_scan_rows_equal_series_bitwise(nu):
    order = FractionalOrder(nu)
    mus = default_mu_grid()
    scan = delta_scan(order, n_max=200)
    blocks = scan.rows.reshape(mus.size, 200, 6)
    ns = np.arange(1, 201, dtype=float)
    for mu, block in zip(mus, blocks):
        delta, ml_err = delta_series(order, mu, 200)
        assert np.all(block[:, 0] == mu)
        assert np.array_equal(block[:, 1], ns)
        assert np.array_equal(block[:, 3], delta)
        assert np.array_equal(block[:, 4], ml_err)


def test_delta_zero_eigenvalue_is_exact():
    assert delta_direct(FractionalOrder(0.5), 0.0, 7) == 0.0


def test_delta_contour_matches_direct_spot():
    order = FractionalOrder(0.5)
    got = delta_contour(order, 1.0, 1)
    assert got == pytest.approx(DELTA_1_HALF_MU1, abs=5e-9)


def test_delta_contour_validation():
    with pytest.raises(ValueError):
        delta_contour(FractionalOrder(1.0), 1.0, 1)
    with pytest.raises(ValueError):
        delta_contour(FractionalOrder(0.5), -1.0, 1)
    with pytest.raises(ValueError):
        delta_contour(FractionalOrder(0.5), 1.0, 0)


@given(nu=st.floats(0.1, 0.95), log_mu=st.floats(-8.0, 8.0),
       n=st.integers(1, 60))
@settings(max_examples=50, deadline=None)
def test_delta_positive_and_bounded(nu, log_mu, n):
    order = FractionalOrder(nu)
    mu = 2.0 ** log_mu
    delta = delta_direct(order, mu, n)
    # kernel = step minus decay; both lie in [0, 1]
    assert -1e-12 <= delta <= 1.0
    rho = mu * n ** nu
    assert abs(delta) <= 1.1 / n * min(rho ** 2, 1.0 / rho)


def test_scan_small_grid():
    order = FractionalOrder(0.5)
    scan = delta_scan(order, mu_grid=np.array([0.5, 1.0, 2.0]), n_max=20)
    assert scan.rows.shape == (60, 6)
    mu, n, rho, delta, ml_err, ratio = scan.rows.T
    assert np.all(ml_err < 1e-11)
    assert np.allclose(rho, mu * n ** 0.5, rtol=1e-15)
    assert scan.max_ratio == pytest.approx(np.max(ratio), rel=0)
    assert scan.max_ratio <= 1.1


def test_bound_check_moderate_grid():
    value = bound_check(FractionalOrder(0.5),
                        mu_grid=2.0 ** np.arange(-6, 7), n_max=50)
    assert 0.0 < value <= 1.1


def test_phi_sweep_moderate():
    sweep = phi_sweep(FractionalOrder(0.6), mu_grid=2.0 ** np.arange(-8, 9),
                      n_max=60)
    assert 0.0 < sweep.phi1 <= 1.1
    assert 0.0 < sweep.phi2 <= 1.1
    assert sweep.min_delta >= -1e-12
    mu1, n1 = sweep.phi1_arg
    assert mu1 * n1 ** 0.6 <= 1.0 + 1e-12
    mu2, n2 = sweep.phi2_arg
    assert mu2 * n2 ** 0.6 >= 1.0 - 1e-12


def looped_phi(scan, nu):
    # point-by-point restatement of the weighted suprema
    phi1 = phi2 = -math.inf
    arg1 = arg2 = (math.nan, 0)
    skipped = 0
    for mu, n, rho, delta, ml_err, _ in scan.rows:
        if rho <= 1.0:
            if abs(delta) <= 10.0 * ml_err:
                skipped += 1
                continue
            w = n ** (1.0 - 2.0 * nu) * delta / mu ** 2
            if w > phi1:
                phi1, arg1 = w, (mu, int(n))
        if rho >= 1.0:
            w = n ** (1.0 + nu) * mu * delta
            if w > phi2:
                phi2, arg2 = w, (mu, int(n))
    return phi1, phi2, arg1, arg2, skipped


@pytest.mark.parametrize("nu, mu_grid, n_max", [
    (0.1, None, 200),               # the standard grid
    (0.5, 2.0 ** np.arange(-30, 4, 3), 50),  # the guard skips 150 points
    (0.6, 2.0 ** np.arange(-8, 9), 60),
    (0.6, [4.0], 5),                # rho > 1 only: no Phi_1 point
])
def test_phi_sweep_equals_point_loop(nu, mu_grid, n_max):
    order = FractionalOrder(nu)
    sweep = phi_sweep(order, mu_grid=mu_grid, n_max=n_max)
    phi1, phi2, arg1, arg2, skipped = looped_phi(
        delta_scan(order, mu_grid, n_max), nu)
    assert (sweep.phi1, sweep.phi2, sweep.skipped) == (phi1, phi2, skipped)
    assert sweep.phi2_arg == arg2
    if phi1 == -math.inf:
        assert math.isnan(sweep.phi1_arg[0]) and sweep.phi1_arg[1] == 0
    else:
        assert sweep.phi1_arg == arg1


def test_lemma_integral_zero_inside_range():
    assert abs(lemma_integral_zero(FractionalOrder(0.75))) <= 1e-8
    with pytest.raises(ValueError):
        lemma_integral_zero(FractionalOrder(0.5))   # endpoint excluded
    with pytest.raises(ValueError):
        lemma_integral_zero(FractionalOrder(0.3))


def test_lemma_scans_within_bounds():
    small, large = lemma_scan_bounds()
    assert small.overall_max <= 3.0
    assert large.overall_max <= 3.0
    # interior maximum of the nu < 1/2 family: 3/e at x = e^{-3}
    row = small.rows[np.isclose(small.rows[:, 0], 1.0 / 3.0)][0]
    assert row[1] == pytest.approx(3.0 / math.e, abs=1e-4)
    assert row[2] == pytest.approx(math.exp(-3.0), rel=0.1)


def test_resolvent_ratio_scan_below_one():
    value = resolvent_ratio_max()
    assert value <= 1.0
    # the large-X limit of the ratio is (1-nu)^2; the scan must reach it
    assert value == pytest.approx(0.81, abs=0.01)


def synthetic_samples(rate, n_values, beta=0.3, c=2.0):
    samples = {}
    for n in n_values:
        t = np.arange(1, n // 2 + 1) / n
        err = c * t ** -beta / n ** rate
        samples[n] = (t, err)
    return samples


def test_weighted_table_recovers_exact_rates():
    n_values = (40, 80, 160, 320)
    table = weighted_error_table(synthetic_samples(0.75, n_values),
                                 alphas=(0.5, 1.0))
    for alpha in (0.5, 1.0):
        assert table.errors[alpha][0] == pytest.approx(
            2.0 * 0.5 ** (alpha - 0.3) / 40 ** 0.75, rel=1e-12)
        for rate in table.rates[alpha]:
            assert rate == pytest.approx(0.75, abs=1e-12)


def test_weighted_table_requires_doubling():
    with pytest.raises(ValueError):
        weighted_error_table(synthetic_samples(1.0, (40, 100)), alphas=(0.5,))


def test_weighted_table_requires_window_samples():
    bad = {8: (np.array([0.75, 1.0]), np.array([1.0, 1.0]))}
    with pytest.raises(ValueError):
        weighted_error_table(bad, alphas=(0.5,))


def test_weighted_table_single_run_has_no_rates():
    table = weighted_error_table(synthetic_samples(1.0, (64,)), alphas=(0.5,))
    assert table.n_values == (64,)
    assert table.rates[0.5] == ()
