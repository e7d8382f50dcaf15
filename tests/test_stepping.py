import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg.fem1d import assemble, graded_mesh, l2_project
from fracdg.special import FractionalOrder
from fracdg.stepping import TimeGrid, dg_weights, step_galerkin, step_spectral

BETA0_HALF = 1.1283791670955126         # 1/Gamma(3/2)
TELESCOPED_10_HALF = 0.17416208620401286  # sum of beta_1..beta_10 at nu = 0.5
U1_HALF_MU1 = 0.46984109573138115        # one step, nu = 0.5, mu = 1


def one_mode(order, mu, u0, grid):
    # the scalar recurrence: a one-column spectral run
    return step_spectral(order, [mu], [u0], grid)[:, 0]


def stable_partial_sum(order, j):
    # sum_{k<=j} beta_k telescopes to ((j+1)^nu - j^nu) / Gamma(1+nu); the
    # right side is evaluated without forming the large-power difference.
    nu = order.nu
    return j ** nu * math.expm1(nu * math.log1p(1.0 / j)) / order.gamma_1p


def test_weights_head_values():
    order = FractionalOrder(0.5)
    w = dg_weights(order, 11)  # beta_0..beta_10
    assert w[0] == pytest.approx(BETA0_HALF, rel=1e-15)
    assert np.sum(w) == pytest.approx(TELESCOPED_10_HALF, rel=1e-13)


def test_weights_classical_vanish():
    w = dg_weights(FractionalOrder(1.0), 200)
    assert w[0] == 1.0
    assert np.all(w[1:] == 0.0)


def test_weights_sign_pattern():
    for nu in (0.1, 0.45, 0.8, 0.99):
        w = dg_weights(FractionalOrder(nu), 500)
        assert w[0] > 0.0
        assert np.all(w[1:] <= 0.0)


def test_weights_magnitude_decreasing():
    w = dg_weights(FractionalOrder(0.6), 1000)
    mags = -w[1:]
    assert np.all(np.diff(mags) <= 1e-18)


def test_weights_series_branch_continuity():
    # the closed-form difference and the binomial series must agree where
    # the implementation switches between them
    for nu in (0.2, 0.5, 0.9):
        w = dg_weights(FractionalOrder(nu), 80)
        g = math.gamma(1.0 + nu)
        for j in (63, 64, 65, 66, 70):
            direct = ((j + 1) ** nu - 2.0 * j ** nu + (j - 1) ** nu) / g
            assert w[j] == pytest.approx(direct, rel=5e-11, abs=1e-18)


@given(nu=st.floats(0.05, 1.0), j=st.integers(1, 100_000))
@settings(max_examples=120, deadline=None)
def test_weights_telescoping(nu, j):
    order = FractionalOrder(nu)
    w = dg_weights(order, j + 1)  # beta_0..beta_j
    total = float(np.sum(w))
    assert total == pytest.approx(stable_partial_sum(order, j), abs=1e-12)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 0)


def test_single_step_reference():
    order = FractionalOrder(0.5)
    u = one_mode(order, 1.0, 1.0, TimeGrid(1.0, 1))
    assert u[0] == 1.0
    assert u[1] == pytest.approx(U1_HALF_MU1, rel=1e-14)


def test_classical_trajectory_closed_form():
    order = FractionalOrder(1.0)
    for mu in (0.25, 1.0, 4.0):
        u = one_mode(order, mu, 1.0, TimeGrid(1.0, 40))
        want = (1.0 + mu) ** -np.arange(41)
        assert np.max(np.abs(u - want)) <= 1e-14


@given(nu=st.floats(0.05, 1.0), log_mu=st.floats(-6.0, 6.0))
@settings(max_examples=80, deadline=None)
def test_mode_trajectory_decays(nu, log_mu):
    # positivity and monotone decay hold down to an eps-level floor: for
    # nu within a few ulps of 1 the weights are second-difference
    # cancellation noise (~1e-14), so trajectory values below that are
    # noise around zero
    order = FractionalOrder(nu)
    mu = 2.0 ** log_mu
    u = one_mode(order, mu, 1.0, TimeGrid(1.0, 60))
    floor = 1e-13 * u[0]
    assert np.all(u >= -floor)
    assert np.all(np.diff(u) <= floor)


def test_spectral_matches_scalar_path():
    order = FractionalOrder(0.4)
    grid = TimeGrid(0.05, 30)
    lams = np.array([0.0, 1.0, 7.5, 140.0])
    u0 = np.array([1.0, -2.0, 0.5, 3.0])
    traj = step_spectral(order, lams, u0, grid)
    assert traj.shape == (31, 4)
    for k, (lam, c) in enumerate(zip(lams, u0)):
        if lam == 0.0:
            assert np.all(traj[:, k] == c)
            continue
        u = one_mode(order, lam, c, grid)
        assert np.max(np.abs(traj[:, k] - u)) <= 1e-13 * abs(c)


def dense_galerkin(order, mass, stiff, grid, u0):
    # plain-matrix restatement of the stepping recurrence
    beta = dg_weights(order, grid.n_steps)
    dtn = grid.dt ** order.nu
    m = mass.toarray()
    k = stiff.toarray()
    lhs = m + beta[0] * dtn * k
    u = np.empty((grid.n_steps + 1, len(u0)))
    u[0] = u0
    for n in range(1, grid.n_steps + 1):
        rhs = m @ u[n - 1]
        for j in range(1, n):
            rhs -= dtn * beta[n - j] * (k @ u[j])
        u[n] = np.linalg.solve(lhs, rhs)
    return u


def test_galerkin_matches_dense_restatement():
    order = FractionalOrder(0.7)
    mesh = graded_mesh(16, 2.0)
    mats = assemble(4.0 / math.pi ** 2, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    grid = TimeGrid(0.05, 20)
    fast = step_galerkin(order, mats.mass, mats.stiff, grid, u0)
    slow = dense_galerkin(order, mats.mass, mats.stiff, grid, u0)
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_spectral_columns_equal_scalar_runs_bitwise():
    # the kernel scan's 39-point mu grid with dt = 1, so lam = mu
    grid = TimeGrid(1.0, 200)
    mus = 2.0 ** np.arange(-18, 21, dtype=float)
    for nu in (0.3, 0.75):
        order = FractionalOrder(nu)
        traj = step_spectral(order, mus, np.ones(mus.size), grid)
        for k, mu in enumerate(mus):
            u = one_mode(order, mu, 1.0, grid)
            assert np.array_equal(traj[:, k], u)


def ordered_galerkin(order, mass, stiff, grid, u0):
    # the history summed one term at a time for ascending j, then K applied
    # once, with the same sparse factorization as step_galerkin
    beta = dg_weights(order, grid.n_steps)
    dtn = grid.dt ** order.nu
    solver = splu(sp.csc_matrix(mass + (beta[0] * dtn) * stiff))
    u = np.zeros((grid.n_steps + 1, len(u0)))
    u[0] = u0
    for n in range(1, grid.n_steps + 1):
        acc = np.zeros(len(u0))
        for j in range(1, n):
            acc += beta[n - j] * u[j]
        u[n] = solver.solve(mass @ u[n - 1] - dtn * (stiff @ acc))
    return u


@pytest.mark.parametrize("m", [2, 40])  # one DOF and 39 DOF
def test_galerkin_history_order_is_pinned(m):
    order = FractionalOrder(0.3)
    mesh = graded_mesh(m, 3.0)
    mats = assemble(4.0 / math.pi ** 2, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    grid = TimeGrid(1.0 / 320, 160)
    fast = step_galerkin(order, mats.mass, mats.stiff, grid, u0)
    slow = ordered_galerkin(order, mats.mass, mats.stiff, grid, u0)
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("nu", [0.3, 0.75])
def test_spectral_history_order_is_pinned(nu):
    # the kernel scan's 39-point mu grid against the recurrence written as
    # a plain loop, the history summed one term at a time for ascending j
    order = FractionalOrder(nu)
    grid = TimeGrid(1.0, 200)
    mus = 2.0 ** np.arange(-18, 21, dtype=float)
    beta = dg_weights(order, grid.n_steps)
    u = np.zeros((grid.n_steps + 1, mus.size))
    u[0] = 1.0
    for n in range(1, grid.n_steps + 1):
        acc = np.zeros(mus.size)
        for j in range(1, n):
            acc += beta[n - j] * u[j]
        u[n] = (u[n - 1] - mus * acc) / (1.0 + beta[0] * mus)
    traj = step_spectral(order, mus, np.ones(mus.size), grid)
    assert np.array_equal(traj, u)


def test_galerkin_rejects_singular_system():
    order = FractionalOrder(0.5)
    zero = sp.csc_matrix((3, 3))
    with pytest.raises(ValueError):
        step_galerkin(order, zero, zero, TimeGrid(0.1, 2), np.zeros(3))


def test_galerkin_shape_mismatch():
    order = FractionalOrder(0.5)
    mesh = graded_mesh(8, 1.0)
    mats = assemble(1.0, mesh)
    with pytest.raises(ValueError):
        step_galerkin(order, mats.mass, mats.stiff, TimeGrid(0.1, 2),
                      np.zeros(3))
