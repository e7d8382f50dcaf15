import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg import certify, special
from fracdg.certify import (
    MU_GRID,
    Check,
    delta_contour,
    delta_direct,
    delta_scan,
    resolvent_ratio_max,
    lemma_integral_zero,
    lemma_scan_bounds,
    phi_sweep,
    symbol_checks,
)
from fracdg.special import FractionalOrder, QuadratureError

DELTA_1_HALF_MU1 = 0.042257519575574146
# classical closed form (1+mu)^{-n} - e^{-n mu} at three spots
DELTA_CLASSICAL = {
    (1, 1.0): 0.13212055882855768,
    (5, 0.25): 0.0411752031398099,
    (20, 2.0): 2.8679719483088988e-10,
}


def test_mu_grid_shape():
    grid = MU_GRID
    assert not grid.flags.writeable
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
    _, (series,), (ml_err,) = next(delta_scan([order], [2.0], 12))
    assert np.all(ml_err < 1e-12)
    for n in (1, 5, 12):
        assert series[n - 1] == pytest.approx(
            delta_direct(order, 2.0, n), abs=1e-15)


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.9])
def test_delta_scan_rows_equal_series_bitwise(nu):
    order = FractionalOrder(nu)
    mus = MU_GRID
    rho, deltas, ml_errs = next(delta_scan([order], n_max=200))
    ns = np.arange(1, 201, dtype=float)
    for mu, rho_row, delta_row, ml_err_row in zip(mus, rho, deltas, ml_errs):
        (mu_rho,), (delta,), (ml_err,) = next(delta_scan([order], [mu], 200))
        assert np.array_equal(rho_row, mu * ns ** nu)
        assert np.array_equal(rho_row, mu_rho)
        assert np.array_equal(delta_row, delta)
        assert np.array_equal(ml_err_row, ml_err)


def test_delta_zero_eigenvalue_is_exact():
    assert delta_direct(FractionalOrder(0.5), 0.0, 7) == 0.0


def test_delta_direct_validation():
    for mu in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="mu must be finite and >= 0"):
            delta_direct(FractionalOrder(0.5), mu, 1)
    with pytest.raises(ValueError):
        delta_direct(FractionalOrder(0.5), 1.0, 0)


def test_delta_direct_refuses_an_unconverged_mittag_leffler_value(monkeypatch):
    # a stubbed estimate above 1e-9 stands in for a value the evaluator disowns
    def disowned(order, s):
        value, _ = special.mittag_leffler_neg_array(order, s)
        return value, np.full_like(value, 2e-9)

    monkeypatch.setattr(certify, "mittag_leffler_neg_array", disowned)
    with pytest.raises(QuadratureError, match="2.000e-09"):
        delta_direct(FractionalOrder(0.5), 0.999, 1)


def test_delta_scan_validation():
    for mu_grid in ([], [1.0, 0.0], [-1.0]):
        with pytest.raises(ValueError, match="nonempty and positive"):
            delta_scan([FractionalOrder(0.5)], mu_grid, 5)


def test_delta_contour_matches_direct_spot():
    order = FractionalOrder(0.5)
    got = delta_contour(order, 1.0, 1)
    assert got == pytest.approx(DELTA_1_HALF_MU1, abs=5e-9)


def test_delta_contour_matches_direct_tightly():
    # criterion 4's points with an absolute gate far inside its pinned
    # max(1e-6, 1e-4 |delta|); the worst gap measured is 7.2e-15
    for nu in (0.25, 0.5, 0.75):
        order = FractionalOrder(nu)
        for mu in (0.25, 1.0, 4.0):
            for n in (1, 4, 16):
                gap = abs(delta_contour(order, mu, n) - delta_direct(order, mu, n))
                assert gap <= 1e-13, (nu, mu, n)


def test_delta_contour_matches_direct_relatively_at_large_rho():
    # At rho = mu n^nu >= 20 delta is 1e-6..7e-5, so the CLI's
    # max(1e-6, 1e-4 |delta|) agreement bound passes gaps as large as
    # delta itself.  The worst relative gap measured here is 5.4e-9
    # (nu = 0.9, mu = 4, n = 200).
    for nu in (0.3, 0.5, 0.75, 0.9):
        order = FractionalOrder(nu)
        for mu, n in ((4.0, 200), (64.0, 50), (1.0, 400)):
            direct = delta_direct(order, mu, n)
            gap = abs(delta_contour(order, mu, n) - direct)
            assert gap <= 2e-8 * abs(direct), (nu, mu, n)


# (nu, log2 mu, n) where adaptive quadpack on the contour route did not
# reach its 1e-9 estimate: 26 points of phi's grid (mu = 2^-18..2^20,
# n in {1, 2, 4, 10, 50, 100, 200}, nu = 0.1..0.95), then three CLI points.
CONTOUR_HARD_POINTS = (
    [(0.8, -15, 1), (0.8, -15, 2), (0.8, -15, 4), (0.85, -15, 1),
     (0.9, -18, 10), (0.9, -17, 4), (0.9, -16, 1), (0.9, -16, 2),
     (0.9, -15, 1), (0.9, 2, 1)]
    + [(0.95, j, n) for j, n in ((-18, 4), (-18, 10), (-17, 2), (-17, 4),
                                 (-16, 1), (-16, 2), (-16, 4), (-15, 1),
                                 (-15, 2), (-14, 1), (-1, 2), (0, 2),
                                 (1, 1), (1, 2), (2, 1), (3, 1))]
    + [(0.999, -2, 1), (0.99, -2, 1), (0.999, 0, 4)])


def test_delta_contour_at_hard_points():
    # Every point returns.  Where rho >= 1 the worst relative gap to the
    # recurrence measured is 1.6e-15; where rho < 1, delta ~ mu^2 is as
    # small as 2.6e-11 and the worst absolute gap is 8.0e-16.
    for nu, j, n in CONTOUR_HARD_POINTS:
        order, mu = FractionalOrder(nu), 2.0 ** j
        got, direct = delta_contour(order, mu, n), delta_direct(order, mu, n)
        if mu * n ** nu >= 1.0:
            assert abs(got - direct) <= 1e-10 * abs(direct), (nu, j, n)
        else:
            assert abs(got - direct) <= 1e-14, (nu, j, n)


def test_delta_contour_at_extreme_mu():
    # The CLI takes any finite mu > 0.  At huge mu the products overflow to
    # terms that are 0; at tiny mu a peak sits far below 1/n, where a rule
    # end node would meet rounding noise of size eps mu s^{-nu-1} (this
    # raised with an estimate of 6e70 at nu = 0.95, mu = 1e-100).  delta
    # is below 1e-60 at all these points.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (0.3, 0.95, 0.999):
            for mu in (1e-300, 1e-100, 1e100, 1e300, 1.7e308):
                for n in (1, 1000):
                    got = delta_contour(FractionalOrder(nu), mu, n)
                    assert abs(got) <= 1e-14, (nu, mu, n)


def test_delta_contour_validation():
    with pytest.raises(ValueError):
        delta_contour(FractionalOrder(1.0), 1.0, 1)
    with pytest.raises(ValueError):
        delta_contour(FractionalOrder(0.5), -1.0, 1)
    with pytest.raises(ValueError):
        delta_contour(FractionalOrder(0.5), 1.0, 0)
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError, match="mu must be finite and > 0"):
            delta_contour(FractionalOrder(0.75), mu, 3)


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


def max_bound_ratio(rho, delta):
    # |delta| over the bound n^{-1} min(rho^2, 1/rho), maximised over the scan
    n = np.arange(1, rho.shape[1] + 1, dtype=float)
    return np.max(np.abs(delta) / (np.minimum(rho ** 2, 1.0 / rho) / n))


def test_scan_small_grid():
    order = FractionalOrder(0.5)
    mu = np.array([0.5, 1.0, 2.0])
    rho, delta, ml_err = next(delta_scan([order], mu_grid=mu, n_max=20))
    assert rho.shape == delta.shape == ml_err.shape == (3, 20)
    n = np.arange(1, 21, dtype=float)
    assert np.all(ml_err < 1e-11)
    assert np.allclose(rho, mu[:, None] * n ** 0.5, rtol=1e-15)
    assert max_bound_ratio(rho, delta) <= 1.1


def test_bound_check_moderate_grid():
    rho, delta, _ = next(delta_scan([FractionalOrder(0.5)],
                                    mu_grid=2.0 ** np.arange(-6, 7), n_max=50))
    value = max_bound_ratio(rho, delta)
    assert 0.0 < value <= 1.1


def test_phi_sweep_moderate():
    [sweep] = phi_sweep([FractionalOrder(0.6)], mu_grid=2.0 ** np.arange(-8, 9),
                        n_max=60)
    assert 0.0 < sweep.phi1 <= 1.1
    assert 0.0 < sweep.phi2 <= 1.1
    assert sweep.min_delta >= -1e-12


def looped_phi(mu_grid, scan, nu):
    # point-by-point restatement of the weighted suprema
    phi1 = phi2 = -math.inf
    skipped = 0
    grid_rho, grid_delta, grid_ml_err = scan
    ns = np.arange(1, grid_rho.shape[1] + 1, dtype=float)
    points = zip(np.repeat(mu_grid, len(ns)), np.tile(ns, len(mu_grid)),
                 grid_rho.ravel(), grid_delta.ravel(), grid_ml_err.ravel())
    for mu, n, rho, delta, ml_err in points:
        if rho <= 1.0:
            if abs(delta) <= 10.0 * ml_err:
                skipped += 1
                continue
            phi1 = max(phi1, n ** (1.0 - 2.0 * nu) * delta / mu ** 2)
        if rho >= 1.0:
            phi2 = max(phi2, n ** (1.0 + nu) * mu * delta)
    return phi1, phi2, skipped


@pytest.mark.parametrize("nu, mu_grid, n_max", [
    (0.1, None, 200),               # the standard grid
    (0.5, 2.0 ** np.arange(-30, 4, 3), 50),  # the guard skips 150 points
    (0.6, 2.0 ** np.arange(-8, 9), 60),
    (0.6, [4.0], 5),                # rho > 1 only: no Phi_1 point
])
def test_phi_sweep_equals_point_loop(nu, mu_grid, n_max):
    order = FractionalOrder(nu)
    mus = MU_GRID if mu_grid is None else np.asarray(mu_grid, dtype=float)
    [sweep] = phi_sweep([order], mu_grid=mus, n_max=n_max)
    phi1, phi2, skipped = looped_phi(mus, next(delta_scan([order], mus, n_max)), nu)
    assert (sweep.phi1, sweep.phi2, sweep.skipped) == (phi1, phi2, skipped)


def test_phi_sweep_over_the_order_grid_equals_single_orders():
    # phi's nine orders share one time loop; each sweep keeps its bits
    orders = [FractionalOrder(round(0.1 * k, 1)) for k in range(1, 10)]
    assert phi_sweep(orders) == [phi_sweep([order])[0] for order in orders]


def test_delta_scan_over_orders_equals_single_scans():
    orders = [FractionalOrder(0.3), FractionalOrder(1.0), FractionalOrder(0.75)]
    mu = 2.0 ** np.arange(-6, 7)
    scans = list(delta_scan(orders, mu, 30))
    assert len(scans) == len(orders)
    for order, scan in zip(orders, scans):
        for grid, single in zip(scan, next(delta_scan([order], mu, 30))):
            assert np.array_equal(grid, single)


def test_lemma_integral_zero_inside_range():
    assert abs(lemma_integral_zero(FractionalOrder(0.75))) <= 1e-8
    with pytest.raises(ValueError):
        lemma_integral_zero(FractionalOrder(0.5))   # endpoint excluded
    with pytest.raises(ValueError):
        lemma_integral_zero(FractionalOrder(0.3))


# Criterion 7 gates the moment at 1e-8; on the tanh-sinh rule it is round-off
# (9e-17..1.5e-15 measured, step-2h gaps at most 2.4e-15) at these orders.
MOMENT_ORDERS = (0.51, 0.6, 0.75, 0.9)


def mp_moment_halves(mpmath, nu):
    # The moment's two integrals on [0, 1] in 30 digits, without the
    # package's substitution: the second's u^a weight, a = 1 - 1/nu, is
    # integrated in closed form against g(0) and by quadrature against
    # g(u) - g(0).
    with mpmath.workdps(30):
        nu = mpmath.mpf(nu)
        p = -mpmath.cos(mpmath.pi * nu)
        a = 1 - 1 / nu

        def q(y):
            return y * y - 2 * p * y + 1

        def g(u):
            return (u - p) / q(u) ** 2

        first = mpmath.quad(lambda x: x ** (1 / nu) * (1 - p * x) / q(x) ** 2, [0, 1])
        second = g(0) / (a + 1) + mpmath.quad(lambda u: u ** a * (g(u) - g(0)), [0, 1])
        return float(first), float(second)


@pytest.mark.parametrize("nu", MOMENT_ORDERS)
def test_moment_halves_match_multiprecision(nu):
    mpmath = pytest.importorskip("mpmath")
    halves = np.multiply(certify._moment_integrands(nu), special._TS_WEIGHTS).sum(axis=-1)
    for got, want in zip(halves, mp_moment_halves(mpmath, nu)):
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)


@pytest.mark.parametrize("nu", MOMENT_ORDERS)
def test_moment_vanishes_to_round_off(nu):
    f = certify._moment_integrands(nu).sum(axis=0)
    fine = np.multiply(f, special._TS_WEIGHTS).sum()
    gap = abs(fine - np.multiply(f, special._TS_COARSE).sum()) / nu
    assert gap <= 1e-14
    assert abs(lemma_integral_zero(FractionalOrder(nu))) <= 1e-14


def test_moment_near_one_raises():
    # the integrands peak sharply at 1 as nu -> 1: the step-2h gap is
    # 6.7e-10 at nu = 0.995 and 1.8e-6 at 0.999
    assert abs(lemma_integral_zero(FractionalOrder(0.995))) <= 1e-9
    with pytest.raises(QuadratureError) as info:
        lemma_integral_zero(FractionalOrder(0.999))
    assert info.value.achieved > 1e-9


def test_lemma_scans_within_bounds():
    small, large = lemma_scan_bounds()
    assert small[:, 1].max() <= 3.0
    assert large[:, 1].max() <= 3.0
    # interior maximum of the nu < 1/2 family: 3/e at x = e^{-3}
    row = small[np.isclose(small[:, 0], 1.0 / 3.0)][0]
    assert row[1] == pytest.approx(3.0 / math.e, abs=1e-4)
    assert row[2] == pytest.approx(math.exp(-3.0), rel=0.1)


def test_resolvent_ratio_scan_below_one():
    value = resolvent_ratio_max()
    assert value <= 1.0
    # the large-X limit of the ratio is (1-nu)^2; the scan must reach it
    assert value == pytest.approx(0.81, abs=0.01)


def test_check_passes_up_to_its_bound_and_fails_on_nan():
    assert Check("x", 1.0, 1.0).passed
    assert not Check("x", 1.0 + 1e-15, 1.0).passed
    assert not Check("x", math.nan, 1.0).passed


def test_symbol_checks_pass_at_their_bounds():
    checks = symbol_checks()
    assert [c.bound for c in checks] == [1e-12, 1e-13, 0.15]
    assert all(c.passed for c in checks), checks
