"""P1 finite elements on a symmetric graded mesh of (-1, 1).

The mesh concentrates nodes near the endpoints x = +-1, where the
solution of the model problem is least regular for non-smooth initial
data.  Assembly produces the interior (homogeneous-Dirichlet) tridiagonal
mass and stiffness matrices; projection and error evaluation use fixed
Gauss rules per element.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import factorized

__all__ = [
    "Mesh1D",
    "FemMatrices",
    "graded_mesh",
    "assemble",
    "l2_project",
    "l2_error",
    "l2_error_from_values",
    "gauss_points",
]


@dataclass(frozen=True)
class Mesh1D:
    """Nodes -1 = x_0 < ... < x_M = 1, symmetric about 0, M even."""

    nodes: np.ndarray
    gamma: float

    def __post_init__(self):
        x = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", x)
        if x.ndim != 1 or len(x) < 3 or len(x) % 2 == 0:
            raise ValueError("need an odd node count (even interval count M >= 2)")
        if x[0] != -1.0 or x[-1] != 1.0:
            raise ValueError("mesh must span [-1, 1]")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if not np.allclose(x + x[::-1], 0.0, atol=1e-14):
            raise ValueError("mesh must be symmetric about 0")

    @property
    def n_intervals(self) -> int:
        return len(self.nodes) - 1

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)


@dataclass(frozen=True)
class FemMatrices:
    """Interior-DOF tridiagonal mass and (kappa-weighted) stiffness."""

    mass: sp.csc_matrix
    stiff: sp.csc_matrix


def graded_mesh(m: int, gamma: float = 3.0) -> Mesh1D:
    """Symmetric mesh with M intervals graded toward x = +-1.

    On [0, 1] the node fractions are xi_k = 1 - (1 - k/(M/2))^gamma for
    k = 0..M/2, mirrored to [-1, 0]; gamma = 1 is uniform.
    """
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    half = m // 2
    k = np.arange(half + 1, dtype=float)
    xi = 1.0 - (1.0 - k / half) ** gamma
    xi[0] = 0.0
    xi[-1] = 1.0
    nodes = np.concatenate([-xi[:0:-1], xi])
    return Mesh1D(nodes=nodes, gamma=gamma)


def assemble(kappa: float, mesh: Mesh1D) -> FemMatrices:
    """Exact P1 mass and stiffness on the interior nodes.

    Element contributions: stiffness (kappa/h)[[1,-1],[-1,1]], mass
    (h/6)[[2,1],[1,2]]; boundary rows and columns are eliminated.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    h = mesh.spacings
    n = mesh.n_intervals - 1  # interior DOFs
    main_k = kappa * (1.0 / h[:-1] + 1.0 / h[1:])
    off_k = -kappa / h[1:-1]
    main_m = (h[:-1] + h[1:]) / 3.0
    off_m = h[1:-1] / 6.0
    stiff = sp.diags([off_k, main_k, off_k], [-1, 0, 1], shape=(n, n), format="csc")
    mass = sp.diags([off_m, main_m, off_m], [-1, 0, 1], shape=(n, n), format="csc")
    return FemMatrices(mass=mass, stiff=stiff)


@lru_cache(maxsize=None)
def _legendre_rule(order: int):
    # Reference nodes and weights on [-1, 1], shared by every call; read-only
    # so that no caller can alter the cached copy.
    ref, wref = np.polynomial.legendre.leggauss(order)
    ref.flags.writeable = False
    wref.flags.writeable = False
    return ref, wref


def gauss_points(mesh: Mesh1D, order: int = 4):
    """Gauss-Legendre points and weights on every element.

    Returns (points, weights, local) each of shape (M, order); ``local``
    holds the hat-function coordinates (x - x_i)/h_i in [0, 1].
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    ref, wref = _legendre_rule(order)
    a = mesh.nodes[:-1, None]
    h = mesh.spacings[:, None]
    local = 0.5 * (ref[None, :] + 1.0)
    points = a + h * local
    weights = 0.5 * h * wref[None, :]
    return points, weights, local


def _padded(coeffs, mesh) -> np.ndarray:
    # Interior coefficients (last axis) with the two boundary zeros added.
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1:] != (mesh.n_intervals - 1,):
        raise ValueError(
            f"expected {mesh.n_intervals - 1} interior coefficients, got {c.shape}"
        )
    pad = np.zeros(c.shape[:-1] + (1,))
    return np.concatenate([pad, c, pad], axis=-1)


def l2_project(f, mesh: Mesh1D, order: int = 3) -> np.ndarray:
    """Interior coefficients of the L2 projection of f.

    f must accept an ndarray of points.  The load vector uses an
    ``order``-point Gauss rule per element (>= 3 keeps the quadrature
    error below the projection error for smooth f).
    """
    mats = assemble(1.0, mesh)  # mass is kappa-independent
    points, weights, local = gauss_points(mesh, order)
    fv = np.asarray(f(points.ravel()), dtype=float).reshape(points.shape)
    contrib_left = np.sum(weights * fv * (1.0 - local), axis=1)
    contrib_right = np.sum(weights * fv * local, axis=1)
    load = contrib_right[:-1] + contrib_left[1:]
    return factorized(mats.mass)(load)


def l2_error_from_values(coeffs, mesh: Mesh1D, ref_values: np.ndarray,
                         order: int = 4):
    """L2 norm of (P1 field - reference) given reference values.

    ref_values must match the layout of gauss_points(mesh, order)[0].
    Stacked levels are accepted: with coeffs of shape (L, M-1) and
    ref_values of shape (L, M, order) the result is an array of L norms,
    each summed exactly as a call for that level alone would sum it.
    """
    points, weights, local = gauss_points(mesh, order)
    vals = _padded(coeffs, mesh)
    if ref_values.shape != vals.shape[:-1] + points.shape:
        raise ValueError(
            f"ref_values shape {ref_values.shape} != quadrature {points.shape}"
            f" for coefficients of shape {np.shape(coeffs)}"
        )
    # weights * (uh - ref)^2, formed in place to hold two level stacks only.
    sq = vals[..., :-1, None] * (1.0 - local)
    sq += vals[..., 1:, None] * local
    sq -= ref_values
    sq *= sq
    sq *= weights
    err = np.sqrt(np.sum(sq, axis=(-2, -1)))
    return float(err) if err.ndim == 0 else err


def l2_error(coeffs, mesh: Mesh1D, reference, order: int = 4) -> float:
    """L2 norm of (P1 field - reference(x)); reference takes an ndarray."""
    points = gauss_points(mesh, order)[0]
    ref = np.asarray(reference(points.ravel()), dtype=float).reshape(points.shape)
    return l2_error_from_values(coeffs, mesh, ref, order)
