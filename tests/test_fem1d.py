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
    fold_even,
    gauss_points,
    graded_mesh,
    l2_error_from_values,
    l2_project,
)


def dense(mat):
    # the full matrix of a SymTridiagonal
    return np.diag(mat.diag) + np.diag(mat.off, 1) + np.diag(mat.off, -1)


def p1_function(mesh, coeffs):
    # piecewise-linear interpolant with zero boundary values
    padded = np.concatenate([[0.0], coeffs, [0.0]])
    return lambda x: np.interp(x, mesh.nodes, padded)


def test_graded_mesh_small_example():
    mesh = graded_mesh(4, 2.0)
    assert np.allclose(mesh.nodes, [-1.0, -0.75, 0.0, 0.75, 1.0], atol=0)


def test_graded_mesh_uniform_case():
    mesh = graded_mesh(8, 1.0)
    assert np.allclose(mesh.nodes, np.linspace(-1.0, 1.0, 9), atol=1e-15)


def test_graded_mesh_validation():
    with pytest.raises(ValueError):
        graded_mesh(5, 2.0)   # odd subinterval count
    with pytest.raises(ValueError):
        graded_mesh(4, 0.5)   # grading below 1 coarsens the boundary


def test_mesh_symmetry_and_spacing():
    for gamma in (1.0, 2.0, 3.0, 4.5):
        mesh = graded_mesh(64, gamma)
        h = mesh.spacings
        assert np.all(h > 0.0)
        assert np.allclose(mesh.nodes + mesh.nodes[::-1], 0.0, atol=1e-15)
        if gamma > 1.0:
            # cells shrink toward the endpoints
            assert h[0] < h[len(h) // 2]


def test_mesh_type_validation():
    with pytest.raises(ValueError):
        Mesh1D(np.array([-1.0, 0.5, 1.0, 2.0]))  # even node count
    with pytest.raises(ValueError):
        Mesh1D(np.array([-1.0, 0.5, 0.25, 0.75, 1.0]))  # not increasing
    with pytest.raises(ValueError):
        Mesh1D(np.array([-0.9, -0.5, 0.0, 0.5, 0.9]))  # wrong span
    with pytest.raises(ValueError, match="symmetric"):
        Mesh1D(np.array([-1.0, -0.5, 0.1, 0.5, 1.0]))


def test_uniform_assembly_closed_forms():
    mesh = graded_mesh(8, 1.0)
    h = 0.25
    mats = assemble(KAPPA, mesh)
    stiff = dense(mats.stiff)
    mass = dense(mats.mass)
    assert np.allclose(np.diag(stiff), 2.0 * KAPPA / h, atol=1e-14)
    assert np.allclose(np.diag(stiff, 1), -KAPPA / h, atol=1e-14)
    assert np.allclose(np.diag(mass), 2.0 * h / 3.0, atol=1e-16)
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


def test_first_eigenvalue_converges_to_one():
    mesh = graded_mesh(128, 1.0)
    mats = assemble(KAPPA, mesh)
    w = eigh(dense(mats.stiff), dense(mats.mass), eigvals_only=True)
    assert abs(w[0] - 1.0) <= 1e-3
    assert abs(w[1] - 4.0) <= 1e-2


def test_gauss_points_integrate_polynomials():
    mesh = graded_mesh(16, 2.0)
    pts, wts, _ = gauss_points(mesh, order=4)
    for power, exact in ((0, 2.0), (2, 2.0 / 3.0), (6, 2.0 / 7.0)):
        got = float(np.sum(wts * pts ** power))
        assert got == pytest.approx(exact, rel=1e-13)


def test_projection_reproduces_members_of_the_space():
    mesh = graded_mesh(32, 3.0)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(mesh.n_intervals - 1)
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
    zero = np.zeros(mesh.n_intervals - 1)
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
    coeffs = rng.standard_normal((7, mesh.n_intervals - 1))
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
    pad = np.zeros(c.shape[:-1] + (1,))
    vals = np.concatenate([pad, c, pad], axis=-1)
    sq = vals[..., :-1, None] * (1.0 - local)
    sq += vals[..., 1:, None] * local
    sq -= ref_values
    sq *= sq
    sq *= weights
    return np.sqrt(np.sum(sq, axis=(-2, -1)))


@pytest.mark.parametrize("levels", [1, 7, 16])
def test_error_products_per_gauss_point_equal_the_broadcast_bitwise(levels):
    mesh = graded_mesh(250, 3.0)
    pts = gauss_points(mesh)[0]
    rng = np.random.default_rng(levels)
    coeffs = rng.standard_normal((levels, mesh.n_intervals - 1))
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


def test_fold_keeps_the_centre_on_and_halves_its_diagonal_entries():
    mesh = graded_mesh(40, 3.0)
    mats = assemble(KAPPA, mesh)
    even = fold_even(mats, mesh)
    centre = mesh.n_intervals // 2 - 1
    assert mesh.nodes[centre + 1] == 0.0
    assert even.dofs == slice(centre, None) and even.mesh is mesh
    for full, folded in ((mats.mass, even.mats.mass), (mats.stiff, even.mats.stiff)):
        assert len(folded.diag) == mesh.n_intervals // 2
        assert folded.diag[0] == 0.5 * full.diag[centre]
        assert np.array_equal(folded.diag[1:], full.diag[centre + 1:])
        assert np.array_equal(folded.off, full.off[centre:])
    assert np.array_equal(even.points, gauss_points(mesh)[0][mesh.n_intervals // 2:])
    assert not even.points.flags.writeable


@pytest.mark.parametrize("m, gamma, nu, n_steps, dt", [
    (40, 3.0, 0.75, 160, 1.0 / 320),     # 39 DOF, direct history sum
    (250, 3.0, 0.3, 2560, 1.0 / 5120),   # 249 DOF, far sums
    (1000, 3.0, 0.75, 640, 1.0 / 1280),  # 999 DOF, far sums
    (4, 1.0, 0.5, 20, 1.0 / 40),         # 3 DOF, two of them kept
])
def test_folded_trajectory_is_the_right_half_of_the_full_one(m, gamma, nu, n_steps, dt):
    # The converge study's data pi/4, stepped on both systems.
    order = FractionalOrder(nu)
    mesh = graded_mesh(m, gamma)
    mats = assemble(KAPPA, mesh)
    even = fold_even(mats, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    grid = TimeGrid(dt, n_steps)
    full = step_galerkin(order, mats.mass, mats.stiff, [grid], u0)
    folded = step_galerkin(order, even.mats.mass, even.mats.stiff, [grid], u0[even.dofs])
    assert folded.shape == (n_steps + 1, m // 2)
    gap = np.max(np.abs(folded - full[:, even.dofs]))
    assert gap <= 1e-12 * np.max(np.abs(u0)), gap


def test_half_norm_equals_the_norm_of_the_mirrored_field():
    mesh = graded_mesh(40, 3.0)
    even = fold_even(assemble(KAPPA, mesh), mesh)
    rng = np.random.default_rng(11)
    half = rng.standard_normal((5, mesh.n_intervals // 2))
    mirrored = np.concatenate([half[:, :0:-1], half], axis=1)
    f = lambda x: np.cos(0.5 * math.pi * x) + x ** 2
    levels = np.arange(1.0, 6.0)[:, None, None]
    got = even.error(half, levels * f(even.points))
    want = l2_error_from_values(mirrored, mesh, levels * f(gauss_points(mesh)[0]))
    assert got.shape == (5,)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13
    one = even.error(half[2], levels[2] * f(even.points))
    assert isinstance(one, float) and one == got[2]
    with pytest.raises(ValueError):
        even.error(mirrored, levels * f(even.points))


def test_fold_rejects_meshes_that_do_not_mirror_exactly():
    nodes = graded_mesh(8, 2.0).nodes.copy()
    nodes[1:-1] += 4e-15  # within Mesh1D's symmetry tolerance; no node at 0
    shifted = Mesh1D(nodes)
    with pytest.raises(ValueError, match="mirror exactly"):
        fold_even(assemble(KAPPA, shifted), shifted)
    mesh = graded_mesh(8, 2.0)
    with pytest.raises(ValueError, match="interior nodes"):
        fold_even(assemble(KAPPA, graded_mesh(10, 2.0)), mesh)


@given(m=st.sampled_from([8, 16, 32]), gamma=st.floats(1.0, 5.0))
@settings(max_examples=30, deadline=None)
def test_mass_matrix_total_weight(m, gamma):
    # row sums of the mass matrix against the hat-function integrals;
    # the rows next to the boundary miss the eliminated boundary hats
    mesh = graded_mesh(m, gamma)
    mats = assemble(1.0, mesh)
    h = mesh.spacings
    want = 0.5 * (h[:-1] + h[1:])
    want[0] -= h[0] / 6.0
    want[-1] -= h[-1] / 6.0
    got = dense(mats.mass).sum(axis=1)
    assert np.allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("diag, off", [
    ([], []), ([1.0], [0.5]), ([1.0, 2.0], []), ([1.0, 2.0], [0.5, 0.5]),
    ([[1.0, 2.0]], [0.5]), ([1.0, 2.0], [[0.5]])])
def test_tridiagonal_rejects_mismatched_diagonals(diag, off):
    with pytest.raises(ValueError):
        SymTridiagonal(diag, off)


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_tridiagonal_product_and_solve_match_dense(n):
    rng = np.random.default_rng(n)
    off = rng.standard_normal(n - 1)
    diag = 2.0 + np.abs(np.concatenate([[0.0], off])) + np.abs(
        np.concatenate([off, [0.0]]))  # diagonally dominant, so definite
    mat = SymTridiagonal(diag, off)
    v = rng.standard_normal(n)
    assert np.allclose(mat.matvec(v), dense(mat) @ v, rtol=1e-15, atol=1e-15)
    assert np.allclose(mat.solver()(v), np.linalg.solve(dense(mat), v),
                       rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("diag, off", [
    ([0.0], []), ([-2.0], []), ([1.0, -1.0], [0.0]), ([1.0, 1.0], [1.0]),
    ([1.0, 1.0, 1.0], [1.0, 1.0])])
def test_tridiagonal_solver_rejects_indefinite(diag, off):
    with pytest.raises(ValueError):
        SymTridiagonal(diag, off).solver()


@pytest.mark.parametrize("m", [2, 4])  # one DOF and three DOF
def test_projection_on_smallest_meshes_matches_dense_solve(m):
    # a constant's load vector is c times the hat integrals (h_i + h_{i+1})/2
    mesh = graded_mesh(m, 2.0)
    h = mesh.spacings
    load = 0.25 * math.pi * 0.5 * (h[:-1] + h[1:])
    want = np.linalg.solve(dense(assemble(1.0, mesh).mass), load)
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
