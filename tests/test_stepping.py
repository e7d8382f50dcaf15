import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf, dpttrs
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg import fem1d, stepping
from fracdg.fem1d import SymTridiagonal, assemble, graded_mesh, l2_project
from fracdg.special import FractionalOrder
from fracdg.stepping import TimeGrid, dg_weights, step_galerkin, step_spectral

BETA0_HALF = 1.1283791670955126         # 1/Gamma(3/2)
TELESCOPED_10_HALF = 0.17416208620401286  # sum of beta_1..beta_10 at nu = 0.5
U1_HALF_MU1 = 0.46984109573138115        # one step, nu = 0.5, mu = 1


def one_mode(order, mu, u0, grid):
    # the scalar recurrence: a one-column spectral run
    return step_spectral([order], [mu], [u0], grid)[0, :, 0]


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
    # the direct second difference, which loses about 2*log10(j) digits,
    # still agrees with the series around j = 64
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


@pytest.mark.parametrize("n", [2.0, 2.5, "3", None])
def test_weights_reject_non_integer_count(n):
    with pytest.raises(ValueError):
        dg_weights(FractionalOrder(0.5), n)


def test_weights_reject_counts_below_one():
    for n in (0, -3):
        with pytest.raises(ValueError, match="need n >= 1"):
            dg_weights(FractionalOrder(0.5), n)


def per_term_beta_series(nu, j):
    # the even binomial series with one pass per term k, each over the
    # prefix of j that still takes it
    x2 = (1.0 / j) ** 2
    terms = np.maximum(5, np.ceil(28.0 * math.log(2.0) / np.log(j)))
    acc = np.zeros_like(x2)
    coeff = 1.0
    for k in range(1, int(np.max(terms, initial=0)) + 1):
        coeff *= (nu - (2 * k - 2)) * (nu - (2 * k - 1)) / ((2 * k - 1) * (2 * k))
        live = np.count_nonzero(terms >= k)
        acc[:live] = acc[:live] + coeff * x2[:live] ** k
    return 2.0 * acc


@pytest.mark.parametrize("nu", [0.1, 0.3, 0.5, 0.75, 0.999])
@pytest.mark.parametrize("n", [2, 3, 4, 49, 50, 51, 80, 2560])
def test_beta_series_table_equals_the_per_term_loop_bitwise(nu, n):
    j = np.arange(2, n, dtype=float)
    assert np.array_equal(stepping._beta_series(nu, j), per_term_beta_series(nu, j))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 0)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), -0.1])
def test_time_grid_rejects_nonfinite_or_negative_dt(dt):
    with pytest.raises(ValueError):
        TimeGrid(dt, 3)


@pytest.mark.parametrize("n_steps", [2.5, 3.0, "3", None])
def test_time_grid_rejects_non_integer_steps(n_steps):
    with pytest.raises(ValueError):
        TimeGrid(0.1, n_steps)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_spectral_rejects_nonfinite_or_negative_eigenvalues(bad):
    with pytest.raises(ValueError):
        step_spectral([FractionalOrder(0.5)], [1.0, bad], [1.0, 1.0],
                      TimeGrid(0.1, 4))


def test_single_step_reference():
    order = FractionalOrder(0.5)
    u = one_mode(order, 1.0, 1.0, TimeGrid(1.0, 1))
    assert u[0] == 1.0
    assert u[1] == pytest.approx(U1_HALF_MU1, rel=1e-14)


def test_classical_trajectory_closed_form():
    # the second length is past the far-history crossover, where nu = 1
    # keeps the direct sum (every far weight is zero)
    order = FractionalOrder(1.0)
    for n_steps in (40, stepping._SOE_FROM + 9):
        for mu in (0.25, 1.0, 4.0):
            u = one_mode(order, mu, 1.0, TimeGrid(1.0, n_steps))
            want = (1.0 + mu) ** -np.arange(n_steps + 1)
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


@pytest.mark.parametrize("n_steps", [3, 600])
def test_spectral_overflowing_denominator_gives_the_zero_trajectory(n_steps):
    # beta_0 mu overflows to inf: no warning (the suite runs with
    # RuntimeWarning as an error), and the mode is zero after row 0
    order = FractionalOrder(0.3)
    u = step_spectral([order], [1.7e308, 1.0], [1.0, 1.0], TimeGrid(1.0, n_steps))[0]
    assert np.all(u[1:, 0] == 0.0)
    assert np.array_equal(u[:, 1], one_mode(order, 1.0, 1.0, TimeGrid(1.0, n_steps)))


def test_spectral_matches_scalar_path():
    order = FractionalOrder(0.4)
    grid = TimeGrid(0.05, 30)
    lams = np.array([0.0, 1.0, 7.5, 140.0])
    u0 = np.array([1.0, -2.0, 0.5, 3.0])
    traj = step_spectral([order], lams, u0, grid)[0]
    assert traj.shape == (31, 4)
    for k, (lam, c) in enumerate(zip(lams, u0)):
        if lam == 0.0:
            assert np.all(traj[:, k] == c)
            continue
        u = one_mode(order, lam, c, grid)
        assert np.max(np.abs(traj[:, k] - u)) <= 1e-13 * abs(c)


def dense(mat):
    # the full matrix of a SymTridiagonal
    return np.diag(mat.diag) + np.diag(mat.off, 1) + np.diag(mat.off, -1)


def leading_block(mat, ndof):
    return SymTridiagonal(mat.diag[:ndof], mat.off[:ndof - 1])


def dense_galerkin(order, mass, stiff, grid, u0):
    # plain-matrix restatement of the stepping recurrence
    beta = dg_weights(order, grid.n_steps)
    dtn = grid.dt ** order.nu
    m = dense(mass)
    k = dense(stiff)
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
    mass, stiff = assemble(4.0 / math.pi ** 2, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    grid = TimeGrid(0.05, 20)
    fast = step_galerkin(order, mass, stiff, [grid], u0)
    slow = dense_galerkin(order, mass, stiff, grid, u0)
    assert np.max(np.abs(fast - slow)) <= 1e-12


@pytest.mark.parametrize("ndof", [1, 2])
def test_galerkin_smallest_systems_match_dense_restatement(ndof):
    # the one-DOF solve is a division, the two-DOF one LAPACK's sweeps
    order = FractionalOrder(0.7)
    mesh = graded_mesh(16, 2.0)
    mass, stiff = assemble(4.0 / math.pi ** 2, mesh)
    mass = leading_block(mass, ndof)
    stiff = leading_block(stiff, ndof)
    u0 = np.linspace(1.0, -0.5, ndof)
    grid = TimeGrid(0.05, 20)
    fast = step_galerkin(order, mass, stiff, [grid], u0)
    slow = dense_galerkin(order, mass, stiff, grid, u0)
    assert np.max(np.abs(fast - slow)) <= 1e-15  # measured 3.3e-19


def longdouble_galerkin(order, mass, stiff, grid, u0):
    # the literal recurrence A U^n = M U^{n-1} - dt^nu K H in 80-bit
    # arithmetic: the same float64 inputs, the history summed term by
    # term, A factored as L D L^T and solved by forward and back sweeps
    ld = np.longdouble
    beta = dg_weights(order, grid.n_steps).astype(ld)
    dtn = ld(grid.dt ** order.nu)
    dm, em, dk, ek = (np.asarray(a, dtype=ld)
                      for a in (mass.diag, mass.off, stiff.diag, stiff.off))

    def product(d, e, v):
        out = d * v
        out[1:] += e * v[:-1]
        out[:-1] += e * v[1:]
        return out

    piv = dm + beta[0] * dtn * dk
    off = em + beta[0] * dtn * ek
    low = np.zeros_like(off)
    for i in range(len(off)):
        low[i] = off[i] / piv[i]
        piv[i + 1] -= low[i] * off[i]
    u = np.zeros((grid.n_steps + 1, len(u0)), dtype=ld)
    u[0] = u0
    for n in range(1, grid.n_steps + 1):
        hist = np.zeros(len(u0), dtype=ld)
        for j in range(1, n):
            hist += beta[n - j] * u[j]
        x = product(dm, em, u[n - 1]) - dtn * product(dk, ek, hist)
        for i in range(1, len(x)):
            x[i] -= low[i - 1] * x[i - 1]
        x /= piv
        for i in range(len(x) - 2, -1, -1):
            x[i] -= low[i] * x[i + 1]
        u[n] = x
    return u


def test_galerkin_round_off_against_longdouble():
    # the coarsest long-history study level: nu = 0.3, M = 200, N = 80 (40
    # steps, 100 DOF).  Measured 7.4e-15 of max|U|, and 7.0e-15 on the 199
    # DOF of the whole of (-1, 1); at M = 100 on (-1, 1) this form measured
    # 2.7e-15 and the form with M, K and a sparse LU solve 5.9e-14
    assert np.finfo(np.longdouble).eps < 1e-18, "needs 80-bit long double"
    order = FractionalOrder(0.3)
    mesh = graded_mesh(200, 3.0)
    mass, stiff = assemble(4.0 / math.pi ** 2, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    grid = TimeGrid(1.0 / 80, 40)
    fast = step_galerkin(order, mass, stiff, [grid], u0)
    exact = longdouble_galerkin(order, mass, stiff, grid, u0)
    assert float(np.max(np.abs(fast - exact)) / np.max(np.abs(exact))) <= 1e-14


def test_spectral_columns_equal_scalar_runs_bitwise():
    # the kernel scan's 39-point mu grid with dt = 1, so lam = mu; the
    # second grid is past the far-history crossover, where each order has
    # its own far nodes (nu = 1 none).  A call over several orders gives
    # each order's run alone.
    mus = 2.0 ** np.arange(-18, 21, dtype=float)
    orders = [FractionalOrder(nu) for nu in (0.3, 0.75, 1.0)]
    for grid in (TimeGrid(1.0, 200), TimeGrid(1.0, stepping._SOE_FROM + 9)):
        multi = step_spectral(orders, mus, np.ones(mus.size), grid)
        assert multi.shape == (len(orders), grid.n_steps + 1, mus.size)
        for order, block in zip(orders, multi):
            traj = step_spectral([order], mus, np.ones(mus.size), grid)[0]
            assert np.array_equal(block, traj)
            if order.nu == 1.0:
                continue
            for k, mu in enumerate(mus):
                u = one_mode(order, mu, 1.0, grid)
                assert np.array_equal(traj[:, k], u)


def test_spectral_rejects_an_empty_order_grid():
    with pytest.raises(ValueError):
        step_spectral([], [1.0], [1.0], TimeGrid(1.0, 4))


def test_spectral_rejects_mismatched_mode_arrays():
    order = FractionalOrder(0.5)
    for lams, u0 in (([1.0, 2.0], [1.0]), ([[1.0, 2.0]], [[1.0, 2.0]])):
        with pytest.raises(ValueError, match="1-d of equal length"):
            step_spectral([order], lams, u0, TimeGrid(1.0, 4))


def ordered_galerkin(order, mass, stiff, grid, u0):
    # the history H summed one term at a time for ascending j, then
    # U^n = A^{-1} M (U^{n-1} + H/beta_0) - H/beta_0 with the same LAPACK
    # factorization and sweeps as step_galerkin (a division at one DOF)
    beta = dg_weights(order, grid.n_steps)
    c = beta[0] * grid.dt ** order.nu
    d = mass.diag + c * stiff.diag
    e = mass.off + c * stiff.off
    if len(d) > 1:
        d, e, info = dpttrf(d, e)
        assert info == 0
    u = np.zeros((grid.n_steps + 1, len(u0)))
    u[0] = u0
    for n in range(1, grid.n_steps + 1):
        acc = np.zeros(len(u0))
        for j in range(1, n):
            acc += beta[n - j] * u[j]
        shift = acc / beta[0]
        w = u[n - 1] + shift
        rhs = mass.diag * w
        rhs[1:] += mass.off * w[:-1]
        rhs[:-1] += mass.off * w[1:]
        u[n] = (dpttrs(d, e, rhs)[0] if len(d) > 1 else rhs / d) - shift
    return u


@pytest.mark.parametrize("m", [2, 80])  # one DOF and 40 DOF
def test_galerkin_history_order_is_pinned(m):
    order = FractionalOrder(0.3)
    mesh = graded_mesh(m, 3.0)
    mass, stiff = assemble(4.0 / math.pi ** 2, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    grid = TimeGrid(1.0 / 320, 160)
    fast = step_galerkin(order, mass, stiff, [grid], u0)
    slow = ordered_galerkin(order, mass, stiff, grid, u0)
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
    traj = step_spectral([order], mus, np.ones(mus.size), grid)[0]
    assert np.array_equal(traj, u)


def plain_spectral(order, lams, u0, grid):
    # the spectral recurrence as a plain loop, the history summed one term
    # at a time for ascending j
    beta = dg_weights(order, grid.n_steps)
    mu = lams * grid.dt ** order.nu
    u = np.zeros((grid.n_steps + 1, len(u0)))
    u[0] = u0
    for n in range(1, grid.n_steps + 1):
        acc = np.zeros(len(u0))
        for j in range(1, n):
            acc += beta[n - j] * u[j]
        u[n] = (u[n - 1] - mu * acc) / (1.0 + beta[0] * mu)
    return u


TILE = stepping._TILE
# the last entry ends on a one-step tile after a long history
TILE_EDGES = [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5, 16 * TILE + 1]


@pytest.mark.parametrize("n_steps", TILE_EDGES)
@pytest.mark.parametrize("cols", [1, 2, 39])
def test_spectral_equals_plain_loop_at_tile_edges(n_steps, cols):
    order = FractionalOrder(0.3)
    grid = TimeGrid(0.01, n_steps)
    lams = np.geomspace(37.0, 5e4, cols)
    u0 = np.linspace(1.0, -0.5, cols)
    traj = step_spectral([order], lams, u0, grid)[0]
    assert np.array_equal(traj, plain_spectral(order, lams, u0, grid))


@pytest.mark.parametrize("n_steps", TILE_EDGES)
@pytest.mark.parametrize("ndof", [1, 2, 39])
def test_galerkin_equals_plain_loop_at_tile_edges(n_steps, ndof):
    # leading blocks of the 40-DOF system, which stay symmetric positive
    # definite
    order = FractionalOrder(0.75)
    mesh = graded_mesh(80, 2.0)
    mass, stiff = assemble(4.0 / math.pi ** 2, mesh)
    mass = leading_block(mass, ndof)
    stiff = leading_block(stiff, ndof)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)[:ndof]
    grid = TimeGrid(1.0 / 64, n_steps)
    fast = step_galerkin(order, mass, stiff, [grid], u0)
    slow = ordered_galerkin(order, mass, stiff, grid, u0)
    assert np.array_equal(fast, slow)


# A chain with far-sum runs (1,030 and 515 steps) and direct-sum runs in
# one loop, the shorter ones stopping mid-tile
CHAIN_STEPS = (1030, 515, 257, 9, 1)


def chain_system(ndof):
    # leading block of the 40-DOF system, and its projected data
    mesh = graded_mesh(80, 2.0)
    mass, stiff = assemble(4.0 / math.pi ** 2, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)[:ndof]
    return leading_block(mass, ndof), leading_block(stiff, ndof), u0


@pytest.mark.parametrize("ndof", [1, 39])
def test_galerkin_chain_equals_one_call_per_grid_bitwise(ndof):
    order = FractionalOrder(0.3)
    mass, stiff, u0 = chain_system(ndof)
    grids = [TimeGrid(0.5 / n, n) for n in CHAIN_STEPS]
    chain = step_galerkin(order, mass, stiff, grids, u0)
    assert chain.shape == (sum(n + 1 for n in CHAIN_STEPS), ndof)
    runs = np.split(chain, np.cumsum([n + 1 for n in CHAIN_STEPS])[:-1])
    for grid, run in zip(grids, runs):
        assert np.array_equal(run, step_galerkin(order, mass, stiff, [grid], u0))


def test_galerkin_chain_factors_once(monkeypatch):
    mass, stiff, u0 = chain_system(39)
    factor, rows = fem1d.dpttrf, []

    def counted(diag, off):
        rows.append(len(diag))
        return factor(diag, off)

    monkeypatch.setattr(fem1d, "dpttrf", counted)
    step_galerkin(FractionalOrder(0.3), mass, stiff,
                  [TimeGrid(0.5 / n, n) for n in CHAIN_STEPS], u0)
    assert rows == [len(CHAIN_STEPS) * 39]


def test_galerkin_chain_runs_finest_first():
    order = FractionalOrder(0.5)
    mass, stiff, u0 = chain_system(3)
    with pytest.raises(ValueError, match="at least one"):
        step_galerkin(order, mass, stiff, [], u0)
    with pytest.raises(ValueError, match="finest first"):
        step_galerkin(order, mass, stiff, [TimeGrid(0.1, 4), TimeGrid(0.05, 8)], u0)


def test_galerkin_chain_names_the_singular_block():
    # A = M + beta_0 dt^nu K is diag(1, 1, 1 - 1.128 dt^0.5): positive
    # definite at dt = 0.1, with a negative last pivot at dt = 1
    order = FractionalOrder(0.5)
    mass = SymTridiagonal(np.ones(3), np.zeros(2))
    stiff = SymTridiagonal(np.array([0.0, 0.0, -1.0]), np.zeros(2))
    grids = [TimeGrid(0.1, 4), TimeGrid(1.0, 2)]
    with pytest.raises(ValueError, match=r"at dt=1\.0: .*\(pivot 3\)"):
        step_galerkin(order, mass, stiff, grids, np.ones(3))


def gather_march(beta, u0, n_steps, advance):
    # the per-step gather the tiled loop replaced: step n contracts the
    # reversed weights with the whole stored trajectory
    rev = np.ascontiguousarray(beta[::-1])
    top = len(beta)
    u = np.zeros((n_steps + 1, len(u0)))
    u[0] = u0
    for n in range(1, n_steps + 1):
        if u.shape[1] == 1:
            hist = beta[n - 1:0:-1] @ u[1:n]
        else:
            hist = np.einsum("i,ij->j", rev[top - n:top - 1], u[1:n])
        u[n] = advance(u[n - 1], hist)
    return u


def test_tiled_march_equals_per_step_gather_bitwise():
    # 249 columns, as in the long-history study, over 1,003 steps so the
    # last tile is partial
    order = FractionalOrder(0.3)
    n_steps = 1003
    beta = dg_weights(order, n_steps)
    mus = (math.pi * np.arange(1, 250)) ** 2 * (1.0 / n_steps) ** order.nu
    u0 = 1.0 / np.arange(1, 250)
    denom = 1.0 + beta[0] * mus

    def advance(prev, hist):
        return (prev - mus * hist) / denom

    tiled = stepping._march(beta[None], u0, [n_steps], advance, [None])
    assert np.array_equal(tiled, gather_march(beta, u0, n_steps, advance))


def beta_multiprecision(mpmath, nu, j):
    # the second difference of j^nu / Gamma(1+nu) at 40 digits
    with mpmath.workdps(40):
        nu = mpmath.mpf(nu)
        j = mpmath.mpf(j)
        return float(((j + 1) ** nu - 2 * j ** nu + (j - 1) ** nu)
                     / mpmath.gamma(1 + nu))


MP_ORDERS = [0.1, 0.3, 0.5, 0.75, 0.95, 0.999]


@pytest.mark.parametrize("nu", MP_ORDERS)
def test_weights_match_multiprecision(nu):
    # every weight, beta_0 included; measured worst case 8.3e-16 relative
    mpmath = pytest.importorskip("mpmath")
    w = dg_weights(FractionalOrder(nu), 201)
    with mpmath.workdps(40):
        assert w[0] == pytest.approx(float(1 / mpmath.gamma(1 + mpmath.mpf(nu))),
                                     rel=1e-14)
    for j in range(1, 201):
        want = beta_multiprecision(mpmath, nu, j)
        assert abs(w[j] - want) <= 1e-14 * abs(want), j


@pytest.mark.parametrize("n_steps", [stepping._SOE_FROM, 1024, 2560, 5120, 10240])
@pytest.mark.parametrize("nu", MP_ORDERS)
def test_far_weights_match_multiprecision(nu, n_steps):
    # measured worst case 4.0e-15 relative (nu = 0.1, j = 138 of 10,240),
    # the trapezoid rule's aliasing term at h = 1/4; the Gauss rule below
    # p = 1/n_steps adds nothing visible
    mpmath = pytest.importorskip("mpmath")
    p, w = stepping._far_nodes(FractionalOrder(nu), n_steps)
    for j in np.unique(np.geomspace(stepping._J0, n_steps, 25).round()):
        far = float(np.sum(w * np.exp(-p * j)))
        want = beta_multiprecision(mpmath, nu, j)
        assert abs(far - want) <= 1e-14 * abs(want), j


@pytest.mark.parametrize("nu", MP_ORDERS)
def test_far_nodes_are_few_and_decaying(nu):
    # 8 Gauss nodes below p = 1/n_steps and the trapezoid nodes above it:
    # 39 at 512 steps, 48 at 5,120 and 51 at 10,240; every term decays, and
    # all have the sign of c = nu (nu - 1) / (Gamma(2 - nu) Gamma(1 + nu)) < 0
    order = FractionalOrder(nu)
    for n_steps in (stepping._SOE_FROM, 1280, 2560, 5120, 10240):
        p, w = stepping._far_nodes(order, n_steps)
        assert len(p) == len(w) <= 51
        assert np.all(p >= 0.0)
        assert np.all(w < 0.0)


def test_far_history_only_from_the_crossover():
    order = FractionalOrder(0.5)
    assert stepping._far_nodes(order, stepping._SOE_FROM - 1) is None
    assert stepping._far_nodes(order, stepping._SOE_FROM) is not None
    assert stepping._far_nodes(FractionalOrder(1.0), 5120) is None


def test_spectral_below_crossover_equals_plain_loop():
    n_steps = stepping._SOE_FROM - 1
    order = FractionalOrder(0.3)
    grid = TimeGrid(1.0 / n_steps, n_steps)
    lams = np.array([9.87, 2.5e4])
    u0 = np.array([1.0, -0.5])
    traj = step_spectral([order], lams, u0, grid)[0]
    assert np.array_equal(traj, plain_spectral(order, lams, u0, grid))


# the crossover, and every tile-edge residue of a longer far-path run
SOE_LENGTHS = [stepping._SOE_FROM] + [1024 + k for k in (0, 1, 7, 8, 9)]
SOE_ORDERS = [0.1, 0.3, 0.75, 0.95]


def direct_sum(monkeypatch, n_steps, run):
    # the same public call with the crossover moved past the run
    with monkeypatch.context() as patch:
        patch.setattr(stepping, "_SOE_FROM", n_steps + 1)
        return run()


@pytest.mark.parametrize("nu", SOE_ORDERS)
@pytest.mark.parametrize("n_steps", SOE_LENGTHS)
@pytest.mark.parametrize("cols", [1, 2, 39, 249])
def test_spectral_far_history_matches_direct_sum(cols, n_steps, nu, monkeypatch):
    # measured worst case 2.9e-16 * max|u0|
    order = FractionalOrder(nu)
    grid = TimeGrid(1.0 / n_steps, n_steps)
    lams = (math.pi * np.arange(1, cols + 1)) ** 2
    u0 = np.linspace(1.0, -0.5, cols)

    def run():
        return step_spectral([order], lams, u0, grid)[0]

    far = run()
    direct = direct_sum(monkeypatch, n_steps, run)
    assert np.max(np.abs(far - direct)) <= 2e-14 * np.max(np.abs(u0))


@pytest.mark.parametrize("nu", SOE_ORDERS)
@pytest.mark.parametrize("n_steps", SOE_LENGTHS)
def test_galerkin_far_history_matches_direct_sum(n_steps, nu, monkeypatch):
    # 40 DOF; measured worst case 2.4e-15 * max|u0| (nu = 0.1)
    order = FractionalOrder(nu)
    mesh = graded_mesh(80, 2.0)
    mass, stiff = assemble(4.0 / math.pi ** 2, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    grid = TimeGrid(1.0 / n_steps, n_steps)

    def run():
        return step_galerkin(order, mass, stiff, [grid], u0)

    far = run()
    direct = direct_sum(monkeypatch, n_steps, run)
    assert np.max(np.abs(far - direct)) <= 1e-13 * np.max(np.abs(u0))


def test_galerkin_far_history_matches_direct_sum_at_default_size(monkeypatch):
    # the default study's finest run: 500 DOF, 640 steps of 1/1280;
    # measured 1.2e-15 * max|u0|
    order = FractionalOrder(0.75)
    mesh = graded_mesh(1000, 3.0)
    mass, stiff = assemble(4.0 / math.pi ** 2, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    grid = TimeGrid(1.0 / 1280, 640)
    assert stepping._far_nodes(order, grid.n_steps) is not None

    def run():
        return step_galerkin(order, mass, stiff, [grid], u0)

    far = run()
    direct = direct_sum(monkeypatch, grid.n_steps, run)
    assert np.max(np.abs(far - direct)) <= 1e-13 * np.max(np.abs(u0))


def test_galerkin_rejects_singular_system():
    order = FractionalOrder(0.5)
    zero = SymTridiagonal(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        step_galerkin(order, zero, zero, [TimeGrid(0.1, 2)], np.zeros(3))


@pytest.mark.parametrize("diag", [[0.0], [-1.0], [0.0, 0.0], [1.0, -1.0],
                                  [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]])
def test_galerkin_rejects_indefinite_system(diag):
    # the last case has off-diagonals 1, so the 3 x 3 matrix is indefinite
    order = FractionalOrder(0.5)
    n = len(diag)
    mat = SymTridiagonal(diag, np.ones(n - 1))
    with pytest.raises(ValueError):
        step_galerkin(order, mat, mat, [TimeGrid(0.1, 2)], np.ones(n))


def test_galerkin_shape_mismatch():
    order = FractionalOrder(0.5)
    mesh = graded_mesh(14, 1.0)  # 7 DOF
    mass, stiff = assemble(1.0, mesh)
    with pytest.raises(ValueError):
        step_galerkin(order, mass, stiff, [TimeGrid(0.1, 2)],
                      np.zeros(3))
    with pytest.raises(ValueError):
        step_galerkin(order, mass, leading_block(stiff, 5),
                      [TimeGrid(0.1, 2)], np.zeros(7))
