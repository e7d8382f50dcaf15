import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from fracdg.exact import KAPPA
from fracdg.fem1d import (
    Mesh1D,
    assemble,
    gauss_points,
    graded_mesh,
    l2_error,
    l2_error_from_values,
    l2_project,
)


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
        Mesh1D(np.array([-1.0, 0.5, 1.0, 2.0]), 1.0)  # even node count
    with pytest.raises(ValueError):
        Mesh1D(np.array([-1.0, 0.5, 0.25, 0.75, 1.0]), 1.0)  # not increasing
    with pytest.raises(ValueError):
        Mesh1D(np.array([-0.9, -0.5, 0.0, 0.5, 0.9]), 1.0)  # wrong span


def test_uniform_assembly_closed_forms():
    mesh = graded_mesh(8, 1.0)
    h = 0.25
    mats = assemble(KAPPA, mesh)
    stiff = mats.stiff.toarray()
    mass = mats.mass.toarray()
    assert np.allclose(np.diag(stiff), 2.0 * KAPPA / h, atol=1e-14)
    assert np.allclose(np.diag(stiff, 1), -KAPPA / h, atol=1e-14)
    assert np.allclose(np.diag(mass), 2.0 * h / 3.0, atol=1e-16)
    assert np.allclose(np.diag(mass, 1), h / 6.0, atol=1e-16)
    assert np.allclose(stiff, stiff.T, atol=0)
    assert np.allclose(mass, mass.T, atol=0)


def test_assembly_rejects_bad_diffusivity():
    mesh = graded_mesh(8, 1.0)
    with pytest.raises(ValueError):
        assemble(0.0, mesh)
    with pytest.raises(ValueError):
        assemble(-2.0, mesh)


def test_first_eigenvalue_converges_to_one():
    mesh = graded_mesh(128, 1.0)
    mats = assemble(KAPPA, mesh)
    w = eigh(mats.stiff.toarray(), mats.mass.toarray(), eigvals_only=True)
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
    assert l2_error(back, mesh, f) <= 1e-12


def test_projection_error_decays_quadratically():
    f = lambda x: np.sin(math.pi * (x + 1.0) / 2.0)
    errs = []
    for m in (16, 32, 64):
        mesh = graded_mesh(m, 1.0)
        errs.append(l2_error(l2_project(f, mesh), mesh, f))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_error_against_zero_recovers_norms():
    mesh = graded_mesh(64, 2.0)
    zero = np.zeros(mesh.n_intervals - 1)
    # ||1|| over (-1, 1) = sqrt(2); ||phi_1|| = 1
    const = l2_error(zero, mesh, lambda x: np.ones_like(x))
    assert const == pytest.approx(math.sqrt(2.0), rel=1e-13)
    mode = l2_error(zero, mesh, lambda x: np.sin(math.pi * (x + 1.0) / 2.0))
    assert mode == pytest.approx(1.0, rel=1e-9)


def test_error_routes_agree():
    mesh = graded_mesh(16, 2.0)
    f = lambda x: np.cos(x)
    coeffs = l2_project(f, mesh)
    pts, _, _ = gauss_points(mesh, order=4)
    direct = l2_error(coeffs, mesh, f)
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
    got = np.asarray(mats.mass.sum(axis=1)).ravel()
    assert np.allclose(got, want, rtol=1e-13)
