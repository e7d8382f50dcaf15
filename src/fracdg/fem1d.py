"""P1 finite elements on a graded mesh of [0, 1], the even half of (-1, 1).

The model problem's data pi/4 and its graded mesh are even in x, and so
is every Galerkin solution, so the system is posed on x >= 0 only: the
node x = 0 is free, where u'(0) = 0 is the natural condition of an even
field, and x = 1 is homogeneous Dirichlet.  The mesh concentrates nodes
near x = 1, where the solution is least regular for non-smooth initial
data.  Assembly produces the mass and stiffness matrices on the free
nodes, each stored as its two diagonals: both are symmetric tridiagonal,
and the mass and every M + c K with c >= 0 are positive definite, so
products are three vector operations and solves are LAPACK's L D L^T
kernels (dpttrf once, dpttrs per right-hand side).  Projection and error
evaluation use fixed Gauss rules per element, built once per mesh; the
error norm forms its products one Gauss point at a time, and counts the
half twice, so that it is the norm over (-1, 1) of the mirrored field.

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
    "NotPositiveDefinite",
    "graded_mesh",
    "assemble",
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
    """Nodes 0 = x_0 < ... < x_K = 1, K >= 1."""

    nodes: np.ndarray
    # gauss_points' arrays by rule order, built on first use
    _gauss: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", x)
        if x.ndim != 1 or len(x) < 2:
            raise ValueError(f"need a vector of at least two nodes, got shape {x.shape}")
        if x[0] != 0.0 or x[-1] != 1.0:
            raise ValueError("mesh must span [0, 1]")
        if not np.all(np.diff(x) > 0.0):
            raise ValueError("nodes must be strictly increasing")

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
        """B v, B the leading len(v) x len(v) block, summed in a fixed order without BLAS."""
        off = self.off[:len(v) - 1]
        out = self.diag[:len(v)] * v
        out[1:] += off * v[:-1]
        out[:-1] += off * v[1:]
        return out

    def solver(self):
        """b -> B^{-1} b for one vector, B the leading len(b) x len(b) block.

        A must be positive definite.  Factors A = L D L^T once (dpttrf),
        and a leading block's factor is the leading part of A's, so each
        call is one dpttrs sweep.  Raises NotPositiveDefinite, naming the
        first, when a pivot is not positive.
        """
        # the LAPACK wrappers reject an empty off-diagonal: one row is its
        # own pivot, and a one-row block is solved by a division
        d, e = dpttrf(self.diag, self.off)[:2] if len(self.off) else (self.diag, self.off)
        if not np.all(d > 0.0):
            # dpttrf stops at, and keeps, the first pivot <= 0; NaN passes
            raise NotPositiveDefinite(int(np.argmin(d > 0.0)) + 1)
        return lambda b: b / d[:1] if len(b) == 1 else dpttrs(d[:len(b)], e[:len(b) - 1], b)[0]


class NotPositiveDefinite(ValueError):
    """A pivot that is not positive, at 1-based position ``pivot``."""

    def __init__(self, pivot: int):
        super().__init__(f"matrix is not positive definite (pivot {pivot})")
        self.pivot = pivot


def graded_mesh(m: int, gamma: float = 3.0) -> Mesh1D:
    """The x >= 0 half of the symmetric mesh of (-1, 1) with M intervals.

    Its M/2 intervals are graded toward x = 1, with nodes
    x_k = 1 - (1 - k/(M/2))^gamma for k = 0..M/2; gamma = 1 is uniform.
    """
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if not gamma >= 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    half = m // 2
    k = np.arange(half + 1, dtype=float)
    x = 1.0 - (1.0 - k / half) ** gamma
    if not x[-2] < 1.0:
        raise ValueError(
            f"mesh grading gamma={gamma} is too strong for M={m}: the last interior "
            f"node 1 - (2/M)^gamma rounds to x = 1 in double precision")
    x[0] = 0.0
    x[-1] = 1.0
    return Mesh1D(nodes=x)


def assemble(kappa: float, mesh: Mesh1D):
    """Exact P1 (mass, stiffness) on the free nodes x_0 .. x_{K-1}.

    Element contributions: stiffness (kappa/h)[[1,-1],[-1,1]], mass
    (h/6)[[2,1],[1,2]]; node 0 has element 0 only, and the Dirichlet
    node x = 1 is eliminated.
    """
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    h = mesh.spacings
    inv = 1.0 / h
    # node i has element i on its right and, for i >= 1, i - 1 on its left
    main_k = kappa * (np.concatenate([[0.0], inv[:-1]]) + inv)
    off_k = -kappa / h[:-1]
    main_m = (np.concatenate([[0.0], h[:-1]]) + h) / 3.0
    off_m = h[:-1] / 6.0
    return SymTridiagonal(main_m, off_m), SymTridiagonal(main_k, off_k)


def gauss_points(mesh: Mesh1D, order: int = 4):
    """Gauss-Legendre points and weights on every element.

    Returns (points, weights, local) of shapes (K, order), (K, order) and
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


def l2_project(f, mesh: Mesh1D) -> np.ndarray:
    """Free-node coefficients of the L2 projection of f onto [0, 1].

    f must accept an ndarray of points.  The load vector uses a 3-point
    Gauss rule per element, which keeps the quadrature error below the
    projection error for smooth f.
    """
    mass, _ = assemble(1.0, mesh)  # kappa-independent
    points, weights, local = gauss_points(mesh, 3)
    fv = np.asarray(f(points.ravel()), dtype=float).reshape(points.shape)
    # node i is the left end of element i and the right end of element i - 1
    load = np.sum(weights * fv * (1.0 - local), axis=1)
    load[1:] += np.sum(weights * fv * local, axis=1)[:-1]
    return mass.solver()(load)


def l2_error_from_values(coeffs, mesh: Mesh1D, ref_values: np.ndarray):
    """L2 norm over (-1, 1) of (even P1 field - even reference).

    coeffs holds the field's values at the K free nodes and ref_values the
    reference at gauss_points(mesh)[0]; the norm is
    sqrt(2 * (the squared norm over [0, 1])).  Stacked levels are
    accepted: with coeffs of shape (L, K) and ref_values of shape
    (L, K, 4), a strided view included, the result is an array of L
    norms, each summed exactly as a call for that level alone would sum
    it.  Each product a (1 - xi_g) or b xi_g is formed for one Gauss point
    g over every level and element at once.
    """
    points, weights, local = gauss_points(mesh)
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1:] != (mesh.n_intervals,):
        raise ValueError(f"expected {mesh.n_intervals} coefficients, got {c.shape}")
    vals = np.concatenate([c, np.zeros(c.shape[:-1] + (1,))], axis=-1)  # x = 1
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
    err = np.sqrt(2.0 * np.sum(sq, axis=(-2, -1)))
    return float(err) if err.ndim == 0 else err
