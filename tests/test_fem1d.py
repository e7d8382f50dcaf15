import math
import re
from importlib.machinery import ModuleSpec

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh, lapack

from fracdg import fem1d
from fracdg.exact import KAPPA
from fracdg.special import FractionalOrder
from fracdg.stepping import TimeGrid, step_galerkin
from fracdg.fem1d import (
    Mesh1D,
    SymTridiagonal,
    assemble,
    gauss_points,
    graded_mesh,
    l2_error_from_values,
    l2_project,
)
from oracles import FullDomain


def dense(mat):
    # the full matrix of a SymTridiagonal
    return np.diag(mat.diag) + np.diag(mat.off, 1) + np.diag(mat.off, -1)


def p1_function(mesh, coeffs):
    # piecewise-linear interpolant with a zero at x = 1
    padded = np.concatenate([coeffs, [0.0]])
    return lambda x: np.interp(x, mesh.nodes, padded)


def test_graded_mesh_small_example():
    mesh = graded_mesh(4, 2.0)
    assert np.allclose(mesh.nodes, [0.0, 0.75, 1.0], atol=0)


def test_graded_mesh_uniform_case():
    mesh = graded_mesh(8, 1.0)
    assert np.allclose(mesh.nodes, np.linspace(0.0, 1.0, 5), atol=1e-15)


def test_graded_mesh_validation():
    with pytest.raises(ValueError):
        graded_mesh(5, 2.0)   # odd subinterval count
    with pytest.raises(ValueError):
        graded_mesh(4, 0.5)   # grading below 1 coarsens the boundary
    with pytest.raises(ValueError, match="gamma"):
        graded_mesh(8, math.nan)


def test_graded_mesh_rejects_grading_that_rounds_onto_the_boundary():
    # 1 - (2/1000)^7 = 1 - 1.3e-19 rounds to 1.0, the Dirichlet node
    assert graded_mesh(1000, 6.0).nodes[-2] < 1.0
    with pytest.raises(ValueError) as info:
        graded_mesh(1000, 7)
    assert str(info.value) == (
        "mesh grading gamma=7 is too strong for M=1000: the last interior "
        "node 1 - (2/M)^gamma rounds to x = 1 in double precision")


def test_mesh_symmetry_and_spacing():
    # graded_mesh(M) is the x >= 0 half of a mesh of (-1, 1) with M cells
    for gamma in (1.0, 2.0, 3.0, 4.5):
        mesh = graded_mesh(64, gamma)
        h = mesh.spacings
        assert len(h) == 32 and np.all(h > 0.0)
        full = FullDomain(mesh, KAPPA).nodes
        assert len(full) == 65 and np.array_equal(full, -full[::-1])
        if gamma > 1.0:
            # cells shrink toward the endpoint x = 1
            assert h[-1] < h[0]


def test_mesh_type_validation():
    with pytest.raises(ValueError):
        Mesh1D(np.array([1.0]))  # no interval
    with pytest.raises(ValueError):
        Mesh1D(np.array([[0.0, 1.0]]))  # not a vector
    with pytest.raises(ValueError):
        Mesh1D(np.array([0.0, 0.5, 0.25, 0.75, 1.0]))  # not increasing
    with pytest.raises(ValueError, match="span"):
        Mesh1D(np.array([0.1, 0.5, 0.9]))  # wrong span
    with pytest.raises(ValueError, match="span"):
        Mesh1D(np.array([-1.0, 0.0, 1.0]))  # the whole of (-1, 1)
    with pytest.raises(ValueError, match="increasing"):
        Mesh1D(np.array([0.0, math.nan, 1.0]))


def test_uniform_assembly_closed_forms():
    mesh = graded_mesh(8, 1.0)
    h = 0.25
    mass, stiff = assemble(KAPPA, mesh)
    stiff = dense(stiff)
    mass = dense(mass)
    assert stiff.shape == mass.shape == (4, 4)
    cells = np.array([1.0, 2.0, 2.0, 2.0])  # elements at each free node
    assert np.allclose(np.diag(stiff), cells * KAPPA / h, atol=1e-14)
    assert np.allclose(np.diag(stiff, 1), -KAPPA / h, atol=1e-14)
    assert np.allclose(np.diag(mass), cells * h / 3.0, atol=1e-16)
    assert np.allclose(np.diag(mass, 1), h / 6.0, atol=1e-16)
    assert np.allclose(stiff, stiff.T, atol=0)
    assert np.allclose(mass, mass.T, atol=0)


def test_gauss_points_rejects_order_below_one():
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be >= 1"):
            gauss_points(graded_mesh(8, 2.0), order)


def test_assembly_rejects_bad_diffusivity():
    mesh = graded_mesh(8, 1.0)
    with pytest.raises(ValueError):
        assemble(0.0, mesh)
    with pytest.raises(ValueError):
        assemble(-2.0, mesh)
    with pytest.raises(ValueError):
        assemble(math.nan, mesh)


def test_first_eigenvalue_converges_to_one():
    # the even modes cos(k pi x / 2), k odd, have eigenvalues k^2
    mesh = graded_mesh(128, 1.0)
    mass, stiff = assemble(KAPPA, mesh)
    w = eigh(dense(stiff), dense(mass), eigvals_only=True)
    assert abs(w[0] - 1.0) <= 1e-3
    assert abs(w[1] - 9.0) <= 1e-2


def test_gauss_points_integrate_polynomials():
    mesh = graded_mesh(16, 2.0)
    pts, wts, _ = gauss_points(mesh, order=4)
    for power, exact in ((0, 1.0), (2, 1.0 / 3.0), (6, 1.0 / 7.0)):
        got = float(np.sum(wts * pts ** power))
        assert got == pytest.approx(exact, rel=1e-13)


def test_projection_reproduces_members_of_the_space():
    mesh = graded_mesh(32, 3.0)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(mesh.n_intervals)
    f = p1_function(mesh, coeffs)
    back = l2_project(f, mesh)
    assert np.max(np.abs(back - coeffs)) <= 1e-11
    assert l2_error_from_values(back, mesh, f(gauss_points(mesh)[0])) <= 1e-12


def test_projection_error_decays_quadratically():
    f = lambda x: np.sin(math.pi * (x + 1.0) / 2.0)
    errs = []
    for m in (16, 32, 64):
        mesh = graded_mesh(m, 1.0)
        errs.append(l2_error_from_values(l2_project(f, mesh), mesh,
                                        f(gauss_points(mesh)[0])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_error_against_zero_recovers_norms():
    mesh = graded_mesh(64, 2.0)
    zero = np.zeros(mesh.n_intervals)
    # ||1|| over (-1, 1) = sqrt(2); ||phi_1|| = 1
    const = l2_error_from_values(zero, mesh, np.ones_like(gauss_points(mesh)[0]))
    assert const == pytest.approx(math.sqrt(2.0), rel=1e-13)
    mode = l2_error_from_values(
        zero, mesh, np.sin(math.pi * (gauss_points(mesh)[0] + 1.0) / 2.0))
    assert mode == pytest.approx(1.0, rel=1e-9)


def test_error_routes_agree():
    mesh = graded_mesh(16, 2.0)
    f = lambda x: np.cos(x)
    coeffs = l2_project(f, mesh)
    pts, _, _ = gauss_points(mesh, order=4)
    direct = l2_error_from_values(coeffs, mesh, f(pts.ravel()).reshape(pts.shape))
    from_values = l2_error_from_values(coeffs, mesh, f(pts))
    assert direct == from_values


def test_stacked_levels_equal_single_calls_bitwise():
    mesh = graded_mesh(40, 3.0)
    pts = gauss_points(mesh)[0]
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((7, mesh.n_intervals))
    refs = rng.standard_normal((7,) + pts.shape)
    stacked = l2_error_from_values(coeffs, mesh, refs)
    assert stacked.shape == (7,)
    for c, r, e in zip(coeffs, refs, stacked):
        assert l2_error_from_values(c, mesh, r) == e
    with pytest.raises(ValueError):
        l2_error_from_values(coeffs, mesh, refs[:6])


def broadcast_error(coeffs, mesh, ref_values):
    # the error norm with its two products broadcast over the Gauss axis
    _, weights, local = gauss_points(mesh)
    c = np.asarray(coeffs, dtype=float)
    vals = np.concatenate([c, np.zeros(c.shape[:-1] + (1,))], axis=-1)
    sq = vals[..., :-1, None] * (1.0 - local)
    sq += vals[..., 1:, None] * local
    sq -= ref_values
    sq *= sq
    sq *= weights
    return np.sqrt(2.0 * np.sum(sq, axis=(-2, -1)))


@pytest.mark.parametrize("levels", [1, 7, 16])
def test_error_products_per_gauss_point_equal_the_broadcast_bitwise(levels):
    mesh = graded_mesh(250, 3.0)
    pts = gauss_points(mesh)[0]
    rng = np.random.default_rng(levels)
    coeffs = rng.standard_normal((levels, mesh.n_intervals))
    refs = rng.standard_normal((2 * levels,) + pts.shape)
    for ref in (refs[:levels], refs[1::2], refs[::2]):
        got = l2_error_from_values(coeffs, mesh, ref)
        assert np.array_equal(got, broadcast_error(coeffs, mesh, ref))
    one = l2_error_from_values(coeffs[0], mesh, refs[1])
    assert isinstance(one, float) and one == broadcast_error(coeffs[0], mesh, refs[1])


@pytest.mark.parametrize("order", [1, 3, 4])
def test_gauss_data_is_cached_read_only_and_equal_to_a_fresh_build(order):
    mesh = graded_mesh(40, 3.0)
    rule = gauss_points(mesh, order)
    assert gauss_points(mesh, order) is rule
    ref, wref = leggauss(order)
    h = mesh.spacings[:, None]
    local = 0.5 * (ref[None, :] + 1.0)
    fresh = (mesh.nodes[:-1, None] + h * local, 0.5 * h * wref[None, :], local)
    for cached, built in zip(rule, fresh):
        assert not cached.flags.writeable
        assert cached.shape == built.shape and np.array_equal(cached, built)
    with pytest.raises(ValueError):
        rule[0][0, 0] = 0.0
    # each mesh builds its own
    assert gauss_points(graded_mesh(40, 3.0), order) is not rule


@pytest.mark.parametrize("m", [4, 80, 250, 1000])
def test_half_system_is_the_full_one_with_the_centre_row_halved_bitwise(m):
    # The full system's equations for the DOFs x >= 0, the centre row
    # halved; the Gauss rule and the norm of its elements x >= 0, that
    # half counted twice.
    mesh = graded_mesh(m, 3.0)
    mass, stiff = assemble(KAPPA, mesh)
    full = FullDomain(mesh, KAPPA)
    centre = m // 2 - 1
    assert full.nodes[centre + 1] == 0.0
    for half, whole in ((mass, full.mass), (stiff, full.stiff)):
        assert len(half.diag) == m // 2
        assert half.diag[0] == 0.5 * whole.diag[centre]
        assert np.array_equal(half.diag[1:], whole.diag[centre + 1:])
        assert np.array_equal(half.off, whole.off[centre:])
    points, weights, _ = gauss_points(mesh)
    assert np.array_equal(points, full.points[m // 2:])
    assert np.array_equal(weights, full.weights[m // 2:])
    rng = np.random.default_rng(m)
    coeffs = rng.standard_normal((5, m // 2))
    refs = rng.standard_normal((5,) + full.points.shape)
    right = full.squares(full.mirror(coeffs), refs)[:, m // 2:]
    want = np.sqrt(2.0 * np.sum(np.ascontiguousarray(right), axis=(-2, -1)))
    assert np.array_equal(l2_error_from_values(coeffs, mesh, refs[:, m // 2:]), want)


@pytest.mark.parametrize("m, gamma, nu, n_steps, dt", [
    (40, 3.0, 0.75, 160, 1.0 / 320),     # 20 DOF (39 full), direct history sum
    (250, 3.0, 0.3, 2560, 1.0 / 5120),   # 125 DOF (249 full), far sums
    (1000, 3.0, 0.75, 640, 1.0 / 1280),  # 500 DOF (999 full), far sums
    (4, 1.0, 0.5, 20, 1.0 / 40),         # 2 DOF (3 full)
])
def test_folded_trajectory_is_the_right_half_of_the_full_one(m, gamma, nu, n_steps, dt):
    # The converge study's data pi/4, stepped on the half system and on
    # the whole of (-1, 1), each projected on its own.
    order = FractionalOrder(nu)
    mesh = graded_mesh(m, gamma)
    mass, stiff = assemble(KAPPA, mesh)
    full = FullDomain(mesh, KAPPA)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    grid = TimeGrid(dt, n_steps)
    whole = step_galerkin(order, full.mass, full.stiff, [grid],
                          full.project_constant(0.25 * math.pi))
    half = step_galerkin(order, mass, stiff, [grid], u0)
    assert half.shape == (n_steps + 1, m // 2)
    gap = np.max(np.abs(half - whole[:, m // 2 - 1:]))
    assert gap <= 1e-12 * np.max(np.abs(u0)), gap


def test_half_norm_equals_the_norm_of_the_mirrored_field():
    mesh = graded_mesh(40, 3.0)
    full = FullDomain(mesh, KAPPA)
    points = gauss_points(mesh)[0]
    rng = np.random.default_rng(11)
    half = rng.standard_normal((5, mesh.n_intervals))
    f = lambda x: np.cos(0.5 * math.pi * x) + x ** 2
    levels = np.arange(1.0, 6.0)[:, None, None]
    got = l2_error_from_values(half, mesh, levels * f(points))
    want = full.error(full.mirror(half), levels * f(full.points))
    assert got.shape == (5,)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13
    one = l2_error_from_values(half[2], mesh, levels[2] * f(points))
    assert isinstance(one, float) and one == got[2]
    with pytest.raises(ValueError):
        l2_error_from_values(full.mirror(half), mesh, levels * f(points))


@given(m=st.sampled_from([8, 16, 32]), gamma=st.floats(1.0, 5.0))
@settings(max_examples=30, deadline=None)
def test_mass_matrix_total_weight(m, gamma):
    # row sums of the mass matrix against the hat-function integrals over
    # [0, 1]; the last row misses the eliminated hat at x = 1
    mesh = graded_mesh(m, gamma)
    mass, _ = assemble(1.0, mesh)
    h = mesh.spacings
    want = 0.5 * (np.concatenate([[0.0], h[:-1]]) + h)
    want[-1] -= h[-1] / 6.0
    got = dense(mass).sum(axis=1)
    assert np.allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("diag, off", [
    ([], []), ([1.0], [0.5]), ([1.0, 2.0], []), ([1.0, 2.0], [0.5, 0.5]),
    ([[1.0, 2.0]], [0.5]), ([1.0, 2.0], [[0.5]])])
def test_tridiagonal_rejects_mismatched_diagonals(diag, off):
    with pytest.raises(ValueError):
        SymTridiagonal(diag, off)


def definite_tridiagonal(rng, n):
    off = rng.standard_normal(n - 1)
    diag = 2.0 + np.abs(np.concatenate([[0.0], off])) + np.abs(
        np.concatenate([off, [0.0]]))  # diagonally dominant, so definite
    return SymTridiagonal(diag, off)


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_tridiagonal_product_and_solve_match_dense(n):
    rng = np.random.default_rng(n)
    mat = definite_tridiagonal(rng, n)
    v = rng.standard_normal(n)
    assert np.allclose(mat.matvec(v), dense(mat) @ v, rtol=1e-15, atol=1e-15)
    assert np.allclose(mat.solver()(v), np.linalg.solve(dense(mat), v),
                       rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 40])
def test_tridiagonal_leading_blocks_match_their_own_matrix_bitwise(n):
    # one factor serves every leading block, a one-row block included
    rng = np.random.default_rng(n)
    mat = definite_tridiagonal(rng, n)
    solve = mat.solver()
    for k in range(1, n + 1):
        block = SymTridiagonal(mat.diag[:k], mat.off[:k - 1])
        v = rng.standard_normal(k)
        assert np.array_equal(mat.matvec(v), block.matvec(v))
        assert np.array_equal(solve(v), block.solver()(v))


@pytest.mark.parametrize("diag, off", [
    ([0.0], []), ([-2.0], []), ([1.0, -1.0], [0.0]), ([1.0, 1.0], [1.0]),
    ([1.0, 1.0, 1.0], [1.0, 1.0])])
def test_tridiagonal_solver_rejects_indefinite(diag, off):
    with pytest.raises(ValueError):
        SymTridiagonal(diag, off).solver()


@pytest.mark.parametrize("diag, off, pivot", [
    ([math.nan], [], 1), ([math.nan, 1.0], [0.0], 1), ([1.0, 1.0], [math.nan], 2),
    ([1.0, math.nan, 1.0], [0.0, 0.0], 2)])
def test_tridiagonal_solver_rejects_nan_pivots(diag, off, pivot):
    # LAPACK's test d <= 0 lets a NaN pivot through
    with pytest.raises(ValueError, match=f"pivot {pivot}"):
        SymTridiagonal(diag, off).solver()


@pytest.mark.parametrize("m", [2, 4])  # one DOF and two DOF
def test_projection_on_smallest_meshes_matches_dense_solve(m):
    # a constant's load vector is c times the hat integrals over [0, 1],
    # (h_{i-1} + h_i)/2 with h_{-1} = 0
    mesh = graded_mesh(m, 2.0)
    h = mesh.spacings
    load = 0.25 * math.pi * 0.5 * (np.concatenate([[0.0], h[:-1]]) + h)
    want = np.linalg.solve(dense(assemble(1.0, mesh)[0]), load)
    got = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    assert np.allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [2, 3, 249, 999])
def test_lapack_kernels_match_scipy_linalg(n):
    # fem1d loads scipy's _flapack extension itself; its kernels must give
    # the bits that scipy.linalg.lapack's give
    rng = np.random.default_rng(n)
    off = rng.standard_normal(n - 1)
    diag = 2.0 + np.abs(np.concatenate([[0.0], off])) + np.abs(
        np.concatenate([off, [0.0]]))  # diagonally dominant, so definite
    b = rng.standard_normal(n)
    got = fem1d.dpttrf(diag, off)
    want = lapack.dpttrf(diag, off)
    assert got[2] == want[2] == 0
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    x, info = fem1d.dpttrs(got[0], got[1], b)
    y, info_want = lapack.dpttrs(want[0], want[1], b)
    assert info == info_want == 0
    assert x.tobytes() == y.tobytes()


def test_lapack_kernels_report_the_same_pivot_on_an_indefinite_system():
    diag = np.array([2.0, 1.0, -1.0, 3.0])
    off = np.array([1.0, 0.5, 0.5])
    info = fem1d.dpttrf(diag, off)[2]
    assert info == lapack.dpttrf(diag, off)[2] == 3


def test_missing_lapack_extension_names_the_directory(tmp_path, monkeypatch):
    fake = ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(fem1d.importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        fem1d._load_flapack()
    monkeypatch.setattr(fem1d.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        fem1d._load_flapack()
