"""P1 finite elements on a symmetric graded mesh of (-1, 1).

The mesh concentrates nodes near the endpoints x = +-1, where the
solution of the model problem is least regular for non-smooth initial
data.  Assembly produces the interior (homogeneous-Dirichlet) mass and
stiffness matrices, each stored as its two diagonals: both are symmetric
tridiagonal, and the mass and every M + c K with c >= 0 are positive
definite, so products are three vector operations and solves are LAPACK's
L D L^T kernels (dpttrf once, dpttrs per right-hand side).  Projection
and error evaluation use fixed Gauss rules per element, built once per
mesh; the error norm forms its products one Gauss point at a time.

``fold_even`` restricts the system of a mesh that mirrors exactly about 0
to even fields, on the DOFs of x >= 0 with the centre node free; its
error norm integrates over x >= 0 and counts that half twice.

The two kernels are scipy's f2py wrappers, taken from its compiled
``scipy.linalg._flapack`` extension, which this module loads from scipy's
install directory.  ``scipy.linalg.lapack`` only re-exports the same
functions, and importing it runs the ``scipy.linalg`` package import,
whose numpy namespace clone (numpy.f2py, numpy.testing, ...) would cost
more set-up time than the rest of ``import fracdg.cli`` and about 20 MB.
"""

import importlib.util
import os
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Mesh1D",
    "SymTridiagonal",
    "FemMatrices",
    "EvenHalf",
    "graded_mesh",
    "assemble",
    "fold_even",
    "l2_project",
    "l2_error_from_values",
    "gauss_points",
]


def _load_flapack():
    # Finding scipy's spec imports nothing; if scipy.linalg is already
    # imported, loading the extension returns the loaded module.
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed; fracdg needs its LAPACK wrappers")
    where = os.path.join(scipy.submodule_search_locations[0], "linalg")
    finder = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Nodes -1 = x_0 < ... < x_M = 1, symmetric about 0, M even."""

    nodes: np.ndarray
    # gauss_points' arrays by rule order, built on first use
    _gauss: dict = field(default_factory=dict, init=False, repr=False)

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
class SymTridiagonal:
    """Symmetric tridiagonal matrix: main diagonal and the off-diagonal."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.off, dtype=float)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", e)
        if d.ndim != 1 or e.ndim != 1 or len(d) < 1 or len(e) != len(d) - 1:
            raise ValueError(
                f"need diagonals of lengths n >= 1 and n - 1, got {d.shape} and {e.shape}"
            )

    def matvec(self, v) -> np.ndarray:
        """A v for one vector, summed in a fixed order without BLAS."""
        out = self.diag * v
        out[1:] += self.off * v[:-1]
        out[:-1] += self.off * v[1:]
        return out

    def solver(self):
        """b -> A^{-1} b for one vector; A must be positive definite.

        Factors A = L D L^T once (dpttrf); each call is one dpttrs sweep.
        Raises ValueError when a pivot is not positive.
        """
        if len(self.diag) == 1:
            # the LAPACK wrappers reject an empty off-diagonal
            d = self.diag
            if d[0] <= 0.0:
                raise ValueError("matrix is not positive definite (pivot 1)")
            return lambda b: b / d
        d, e, info = dpttrf(self.diag, self.off)
        if info != 0:
            raise ValueError(f"matrix is not positive definite (pivot {info})")
        return lambda b: dpttrs(d, e, b)[0]


@dataclass(frozen=True)
class FemMatrices:
    """Interior-DOF mass and (kappa-weighted) stiffness, both tridiagonal."""

    mass: SymTridiagonal
    stiff: SymTridiagonal


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
    return Mesh1D(nodes=nodes)


def assemble(kappa: float, mesh: Mesh1D) -> FemMatrices:
    """Exact P1 mass and stiffness on the interior nodes.

    Element contributions: stiffness (kappa/h)[[1,-1],[-1,1]], mass
    (h/6)[[2,1],[1,2]]; boundary rows and columns are eliminated.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    h = mesh.spacings
    main_k = kappa * (1.0 / h[:-1] + 1.0 / h[1:])
    off_k = -kappa / h[1:-1]
    main_m = (h[:-1] + h[1:]) / 3.0
    off_m = h[1:-1] / 6.0
    return FemMatrices(mass=SymTridiagonal(main_m, off_m),
                       stiff=SymTridiagonal(main_k, off_k))


@dataclass(frozen=True, eq=False)
class EvenHalf:
    """The system of a symmetric mesh folded onto its even half, x >= 0.

    ``mats`` acts on the M/2 DOFs ``dofs`` of the full interior vector;
    ``points`` are the Gauss points of the M/2 elements in [0, 1], the
    layout ``error`` takes reference values in.
    """

    mesh: Mesh1D
    mats: FemMatrices
    dofs: slice
    points: np.ndarray

    def error(self, coeffs, ref_values):
        """L2 norm over (-1, 1) of (even P1 field - even reference).

        coeffs holds the field's values on ``dofs``, stacked levels as for
        l2_error_from_values; the norm is sqrt(2 * (its square over x >= 0)).
        """
        return l2_error_from_values(coeffs, self.mesh, ref_values, half=True)


def fold_even(mats: FemMatrices, mesh: Mesh1D) -> EvenHalf:
    """Fold the system assembled on ``mesh`` onto its even fields.

    Keeps the DOFs from the centre node, which stays free, to the last
    interior node, and halves the centre's mass and stiffness diagonal
    entries, which is exact in floating point.  As the two elements at the
    centre have equal widths, the centre's two off-diagonal entries are
    equal, and the folded system is the full one's equations for the kept
    DOFs with the centre row halved.  Raises ValueError unless the nodes
    mirror exactly about 0, with a centre node at 0 (graded_mesh's do),
    or unless ``mats`` has the mesh's interior size.
    """
    if not np.array_equal(mesh.nodes, -mesh.nodes[::-1]):
        raise ValueError("folding needs nodes that mirror exactly about 0, "
                         "with a centre node at 0")
    ndof = mesh.n_intervals - 1
    if not len(mats.mass.diag) == len(mats.stiff.diag) == ndof:
        raise ValueError(f"matrices do not fit a mesh with {ndof} interior nodes")
    half = mesh.n_intervals // 2

    def fold(mat):
        diag = mat.diag[half - 1:].copy()
        diag[0] *= 0.5
        return SymTridiagonal(diag, mat.off[half - 1:])

    return EvenHalf(mesh, FemMatrices(fold(mats.mass), fold(mats.stiff)),
                    slice(half - 1, None), gauss_points(mesh)[0][half:])


def gauss_points(mesh: Mesh1D, order: int = 4):
    """Gauss-Legendre points and weights on every element.

    Returns (points, weights, local) of shapes (M, order), (M, order) and
    (1, order); ``local`` holds the hat-function coordinates (x - x_i)/h_i
    in [0, 1].  Built once per mesh and order, and read-only.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order not in mesh._gauss:
        ref, wref = leggauss(order)
        a = mesh.nodes[:-1, None]
        h = mesh.spacings[:, None]
        local = 0.5 * (ref[None, :] + 1.0)
        rule = (a + h * local, 0.5 * h * wref[None, :], local)
        for array in rule:
            array.flags.writeable = False
        mesh._gauss[order] = rule
    return mesh._gauss[order]


def _padded(coeffs, mesh, half=False) -> np.ndarray:
    # Interior coefficients (last axis) with the boundary zeros added; with
    # half, the coefficients from the centre node on and the zero at x = 1.
    c = np.asarray(coeffs, dtype=float)
    count = mesh.n_intervals // 2 if half else mesh.n_intervals - 1
    if c.shape[-1:] != (count,):
        raise ValueError(
            f"expected {count} {'half' if half else 'interior'} coefficients, got {c.shape}"
        )
    pad = np.zeros(c.shape[:-1] + (1,))
    return np.concatenate([c, pad] if half else [pad, c, pad], axis=-1)


def l2_project(f, mesh: Mesh1D) -> np.ndarray:
    """Interior coefficients of the L2 projection of f.

    f must accept an ndarray of points.  The load vector uses a 3-point
    Gauss rule per element, which keeps the quadrature error below the
    projection error for smooth f.
    """
    mass = assemble(1.0, mesh).mass  # kappa-independent
    points, weights, local = gauss_points(mesh, 3)
    fv = np.asarray(f(points.ravel()), dtype=float).reshape(points.shape)
    contrib_left = np.sum(weights * fv * (1.0 - local), axis=1)
    contrib_right = np.sum(weights * fv * local, axis=1)
    load = contrib_right[:-1] + contrib_left[1:]
    return mass.solver()(load)


def l2_error_from_values(coeffs, mesh: Mesh1D, ref_values: np.ndarray,
                         half: bool = False):
    """L2 norm of (P1 field - reference) given reference values.

    ref_values must match the layout of gauss_points(mesh)[0].
    Stacked levels are accepted: with coeffs of shape (L, M-1) and
    ref_values of shape (L, M, 4), a strided view included, the result is
    an array of L norms, each summed exactly as a call for that level
    alone would sum it.  Each product a (1 - xi_g) or b xi_g is formed for
    one Gauss point g over every level and element at once.

    With half, field and reference are even: coeffs holds the M/2 values
    from the centre node on (EvenHalf.dofs), ref_values the layout of the
    last M/2 rows of the rule (EvenHalf.points), and the norm over (-1, 1)
    is sqrt(2 * (the sum over those elements)).
    """
    points, weights, local = gauss_points(mesh)
    if half:
        cut = mesh.n_intervals // 2
        points, weights = points[cut:], weights[cut:]
    vals = _padded(coeffs, mesh, half)
    if ref_values.shape != vals.shape[:-1] + points.shape:
        raise ValueError(
            f"ref_values shape {ref_values.shape} != quadrature {points.shape}"
            f" for coefficients of shape {np.shape(coeffs)}"
        )
    # weights * (uh - ref)^2, formed in place to hold two level stacks only.
    sq, right = np.empty((2,) + ref_values.shape)
    for g, xi in enumerate(local[0]):
        np.multiply(vals[..., :-1], 1.0 - xi, out=sq[..., g])
        np.multiply(vals[..., 1:], xi, out=right[..., g])
    sq += right
    sq -= ref_values
    sq *= sq
    sq *= weights
    total = np.sum(sq, axis=(-2, -1))
    err = np.sqrt(2.0 * total if half else total)
    return float(err) if err.ndim == 0 else err
