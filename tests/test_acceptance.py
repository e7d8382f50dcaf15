"""The package's acceptance gate.

Each test is tagged with its criterion number; the terminal summary
prints one PASS/FAIL line per criterion (see conftest).  Tolerances are
part of the contract and must not be loosened.
"""

import math

import numpy as np
import pytest

from fracdg.certify import (
    MU_GRID,
    delta_contour,
    delta_direct,
    delta_scan,
    resolvent_ratio_max,
    lemma_integral_zero,
    lemma_scan_bounds,
)
from fracdg.cli import RunConfig, run_convergence
from fracdg.exact import quarter_pi_coefficients
from fracdg.laplace import ContourSpec, reference_mode
from fracdg.special import (
    FractionalOrder,
    mittag_leffler_neg_with_error,
    symbol_asym_origin,
    symbol_series,
)
from fracdg.stepping import TimeGrid, step_galerkin, step_spectral
from fracdg.fem1d import assemble, graded_mesh
from oracles import symbol_integral

# Reference study at nu = 0.75, M = 1000, N doubling 80 -> 1280: weighted
# errors and observed rates per alpha.  Rates are trusted to +-0.03 and
# raw errors to 25% (mesh-grading sensitivity).
STUDY = {
    0.6: ((2.14e-3, 1.24e-3, 7.20e-4, 4.17e-4, 2.42e-4),
          (0.788, 0.787, 0.787, 0.787)),
    0.7: ((1.48e-3, 7.94e-4, 4.29e-4, 2.32e-4, 1.25e-4),
          (0.894, 0.888, 0.887, 0.887)),
    0.8125: ((1.16e-3, 5.91e-4, 2.98e-4, 1.50e-4, 7.53e-5),
             (0.978, 0.988, 0.992, 0.993)),
}


@pytest.fixture(scope="module")
def headline_table():
    # alpha -> (weighted errors over the N chain, observed rates)
    config = RunConfig()
    _, errors, rates = run_convergence(config)
    return dict(zip(config.alphas, zip(errors.T, rates.T)))


@pytest.mark.acceptance(1)
def test_weighted_rates_match_reference_study(headline_table):
    for alpha, (want_errors, want_rates) in STUDY.items():
        got_errors, got_rates = headline_table[alpha]
        for got, want in zip(got_errors, want_errors):
            assert got == pytest.approx(want, rel=0.25), f"alpha={alpha}"
        for got, want in zip(got_rates, want_rates):
            assert got == pytest.approx(want, abs=0.03), f"alpha={alpha}"


@pytest.mark.acceptance(2)
@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
def test_kernel_bound_ratio(nu):
    rho, delta, _ = next(delta_scan([FractionalOrder(nu)]))
    n = np.arange(1, rho.shape[1] + 1, dtype=float)
    assert np.max(abs(delta) / (np.minimum(rho ** 2, 1 / rho) / n)) <= 1.1


@pytest.mark.acceptance(3)
def test_classical_limit_matches_closed_form():
    order = FractionalOrder(1.0)
    ns = np.arange(1, 201, dtype=float)
    for mu in MU_GRID:
        _, (delta,), _ = next(delta_scan([order], [mu], 200))
        with np.errstate(under="ignore"):
            closed = (1.0 + mu) ** -ns - np.exp(-mu * ns)
        assert np.max(np.abs(delta - closed)) <= 1e-12


@pytest.mark.acceptance(4)
def test_dual_oracle_kernel_agreement():
    for nu in (0.25, 0.5, 0.75):
        order = FractionalOrder(nu)
        for mu in (0.25, 1.0, 4.0):
            for n in (1, 4, 16):
                direct = delta_direct(order, mu, n)
                contour = delta_contour(order, mu, n)
                gap = abs(direct - contour)
                assert gap <= max(1e-6, 1e-4 * abs(direct)), (nu, mu, n)


@pytest.mark.acceptance(5)
def test_mittag_leffler_dual_route():
    spec = ContourSpec.for_window(1.0, 1.0)
    for nu in (0.25, 0.5, 0.75):
        order = FractionalOrder(nu)
        for s in (0.01, 0.1, 1.0, 10.0, 100.0):
            series_value = mittag_leffler_neg_with_error(order, s)[0]
            inverted = reference_mode(order, s, 1.0, 1.0, spec)
            assert abs(inverted - series_value) <= 1e-10, (nu, s)
    classical = FractionalOrder(1.0)
    for s in (0.01, 0.1, 1.0, 10.0, 100.0):
        assert abs(mittag_leffler_neg_with_error(classical, s)[0] - math.exp(-s)) <= 1e-13


@pytest.mark.acceptance(6)
def test_symbol_identities():
    # series vs integral on a 20-point strip grid
    for nu in (0.25, 0.75):
        order = FractionalOrder(nu)
        for re in (0.2, 0.9, 1.6, 2.3, 3.0):
            for im in (-(math.pi - 0.1), -1.0, 0.5, math.pi - 0.1):
                z = complex(re, im)
                gap = abs(symbol_series(order, z) - symbol_integral(order, z))
                assert gap <= 1e-10, (nu, z)

    # periodicity and conjugate symmetry
    for nu in (0.25, 0.6, 0.9):
        order = FractionalOrder(nu)
        for z in (complex(0.5, 0.7), complex(2.0, -1.3), complex(5.0, 2.1)):
            base = symbol_series(order, z)
            assert abs(symbol_series(order, z + 2j * math.pi) - base) <= 1e-13
            assert abs(symbol_series(order, z.conjugate())
                       - base.conjugate()) <= 1e-13

    # origin expansion residual decays like |z|^{2-nu} under halving
    for nu in (0.5, 0.75):
        order = FractionalOrder(nu)
        z0 = 0.1 * complex(math.cos(0.4), math.sin(0.4))
        residuals = [abs(symbol_series(order, z0 / 2 ** k)
                         - symbol_asym_origin(order, z0 / 2 ** k))
                     for k in range(3)]
        target = 2.0 ** (2.0 - nu)
        for r_coarse, r_fine in zip(residuals, residuals[1:]):
            assert r_coarse / r_fine == pytest.approx(target, rel=0.15)


@pytest.mark.acceptance(7)
def test_lemma_quadratures_and_scans():
    for nu in (0.6, 0.75, 0.9):
        assert abs(lemma_integral_zero(FractionalOrder(nu))) <= 1e-8
    small, large = lemma_scan_bounds()
    assert small[:, 1].max() <= 3.0
    assert large[:, 1].max() <= 3.0
    assert resolvent_ratio_max() <= 1.0


STABILITY_ORDERS = tuple(round(0.1 * k, 1) for k in range(1, 10)) + (1.0,)


@pytest.mark.acceptance(8)
@pytest.mark.parametrize("nu", STABILITY_ORDERS)
def test_stability_spectral_paths(nu):
    order = FractionalOrder(nu)
    grid = TimeGrid(dt=1.0, n_steps=200)
    lambdas = 2.0 ** np.arange(-10, 11, dtype=float)

    # scalar route, every mu separately (one-column spectral runs)
    for lam in lambdas:
        u = step_spectral([order], [lam], [1.0], grid)[0, :, 0]
        assert np.all(np.abs(u) <= abs(u[0]))

    # vectorized route, l2 norm across modes
    u = step_spectral([order], lambdas, np.ones(lambdas.size), grid)[0]
    norms = np.linalg.norm(u, axis=1)
    assert np.all(norms <= norms[0])


@pytest.mark.acceptance(8)
@pytest.mark.parametrize("nu", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("dt", [2.0 ** -10, 1.0, 2.0 ** 10])
def test_stability_galerkin_path(nu, dt):
    order = FractionalOrder(nu)
    mesh = graded_mesh(64, 2.0)
    mass, stiff = assemble(1.0, mesh)
    rng = np.random.default_rng(11)
    u0 = rng.standard_normal(len(mass.diag))
    u = step_galerkin(order, mass, stiff, [TimeGrid(dt, 200)], u0)
    gram = np.diag(mass.diag) + np.diag(mass.off, 1) + np.diag(mass.off, -1)
    norms = np.sqrt(np.einsum("ni,ij,nj->n", u, gram, u))
    assert np.all(norms <= norms[0] * (1.0 + 1e-12))


@pytest.mark.acceptance(9)
def test_parseval_error_identity():
    order = FractionalOrder(0.75)
    modes = 50
    u0 = quarter_pi_coefficients(modes)
    lambdas = np.arange(1, modes + 1, dtype=float) ** 2
    dt = 0.02
    grid = TimeGrid(dt=dt, n_steps=50)
    u = step_spectral([order], lambdas, u0, grid)[0]

    deltas = np.empty((grid.n_steps, modes))
    for m, lam in enumerate(lambdas):
        if u0[m] == 0.0 or lam == 0.0:
            # delta scales linearly in the data; unused columns stay 0
            deltas[:, m] = 0.0
            continue
        _, (series,), _ = next(delta_scan([order], [lam * dt ** order.nu], grid.n_steps))
        deltas[:, m] = series

    for n in (1, 10, 50):
        exact = u0 * np.array(
            [mittag_leffler_neg_with_error(order, lam * (n * dt) ** order.nu)[0]
             for lam in lambdas])
        lhs = float(np.sum((u[n] - exact) ** 2))
        rhs = float(np.sum((deltas[n - 1] * u0) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-10)
