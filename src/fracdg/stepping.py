"""The piecewise-constant DG time-stepping scheme.

One module covers the convolution weights beta_j, the scalar-mode
recurrence

    (1 + beta_0 mu) U^n = U^{n-1} - mu * sum_{j=1}^{n-1} beta_{n-j} U^j,

its vectorized form over an eigenmode expansion (the scalar form is one
column of it), and the Galerkin matrix form
(M + beta_0 dt^nu K) U^n = M U^{n-1} - dt^nu sum beta_{n-j} K U^j.
All three share one history contraction.  The history sum is a direct
O(N^2) convolution whose terms are added one at a time in ascending j,
without BLAS, so trajectories are bit-identical from run to run and do
not depend on the BLAS thread count.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .special import FractionalOrder

__all__ = [
    "DgWeights",
    "TimeGrid",
    "ModeProblem",
    "dg_weights",
    "step_mode",
    "step_spectral",
    "step_galerkin",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time levels t_n = n*dt, n = 0..n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    def times(self):
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class ModeProblem:
    """Single decoupled mode: operator eigenvalue lam, initial value u0m.

    mu = lam * dt^nu is the only combination the recurrence sees.
    """

    order: FractionalOrder
    lam: float
    u0m: float
    mu: float

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.mu < 0.0 or (self.mu == 0.0) != (self.lam == 0.0):
            raise ValueError(f"inconsistent mu={self.mu} for lam={self.lam}")

    @classmethod
    def from_grid(cls, order, lam, u0m, grid: TimeGrid):
        return cls(order=order, lam=lam, u0m=u0m,
                   mu=lam * grid.dt ** order.nu)


@dataclass(frozen=True)
class DgWeights:
    """Convolution weights beta_0..beta_{N-1} for one fractional order."""

    order: FractionalOrder
    beta: np.ndarray

    def __post_init__(self):
        if self.beta.ndim != 1 or len(self.beta) < 1:
            raise ValueError("beta must be a nonempty 1-d array")


def _beta_series(nu: float, j: np.ndarray) -> np.ndarray:
    # (1+x)^nu - 2 + (1-x)^nu at x = 1/j, summed as the even binomial
    # series 2*sum_k C(nu,2k) x^{2k}; five terms leave a relative error
    # below (1/j)^10, i.e. < 1e-18 for j > 64.
    x2 = (1.0 / j) ** 2
    acc = np.zeros_like(x2)
    coeff = 1.0
    for k in range(1, 6):
        coeff *= (nu - (2 * k - 2)) * (nu - (2 * k - 1)) / ((2 * k - 1) * (2 * k))
        acc = acc + coeff * x2 ** k
    return 2.0 * acc


def dg_weights(order: FractionalOrder, n: int) -> DgWeights:
    """Weights beta_0..beta_{n-1}; beta_j = ((j+1)^nu - 2 j^nu + (j-1)^nu)/Gamma(1+nu).

    The second difference of j^nu is formed directly for small j and by
    an even-power binomial series for large j, where naive subtraction
    would lose about 2*log10(j) digits.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 weights, got {n}")
    nu = order.nu
    beta = np.zeros(n)
    beta[0] = 1.0 / order.gamma_1p
    if n == 1:
        return DgWeights(order=order, beta=beta)
    if nu == 1.0:
        return DgWeights(order=order, beta=beta)  # exact second difference of j
    cut = min(n - 1, 64)
    j_small = np.arange(1, cut + 1, dtype=float)
    beta[1:cut + 1] = (j_small + 1.0) ** nu - 2.0 * j_small ** nu + (j_small - 1.0) ** nu
    if n - 1 > 64:
        j_large = np.arange(65, n, dtype=float)
        beta[65:] = j_large ** nu * _beta_series(nu, j_large)
    beta[1:] /= order.gamma_1p
    return DgWeights(order=order, beta=beta)


def _history(beta: np.ndarray):
    """Contraction (rows, n) -> sum_{j=1}^{n-1} beta_{n-j} rows[j] over 2-d rows.

    The weights are reversed once into a contiguous array, so step n reads
    rev[N-n:N-1] against rows[1:n] with unit strides.  einsum adds the
    terms row by row for ascending j, the order of the plain loop.  On a
    single column it would switch to a blocked SIMD reduction instead;
    that case keeps the negative-stride product, which numpy evaluates
    outside BLAS as one running sum in the same order.
    """
    rev = np.ascontiguousarray(beta[::-1])
    top = len(beta)

    def contract(rows, n):
        if rows.shape[1] == 1:
            return beta[n - 1:0:-1] @ rows[1:n]
        return np.einsum("i,ij->j", rev[top - n:top - 1], rows[1:n])

    return contract


def _march(beta: np.ndarray, mu: np.ndarray, u0: np.ndarray,
           n_steps: int) -> np.ndarray:
    # The scalar recurrence for every column of mu at once.
    history = _history(beta[:n_steps])
    u = np.zeros((n_steps + 1, len(mu)))
    u[0] = u0
    denom = 1.0 + beta[0] * mu
    for n in range(1, n_steps + 1):
        hist = history(u, n) if n > 1 else 0.0
        u[n] = (u[n - 1] - mu * hist) / denom
    return u


def step_mode(problem: ModeProblem, grid: TimeGrid,
              weights: DgWeights | None = None) -> np.ndarray:
    """Trajectory U^0..U^N of the scalar recurrence (U^0 = u0m).

    This is one column of step_spectral, with mu taken from the problem.
    """
    if weights is None:
        weights = dg_weights(problem.order, grid.n_steps)
    beta = weights.beta
    if len(beta) < grid.n_steps:
        raise ValueError(f"need {grid.n_steps} weights, got {len(beta)}")
    return _march(beta, np.array([problem.mu]), problem.u0m, grid.n_steps)[:, 0]


def step_spectral(order: FractionalOrder, eigenvalues, u0_coeffs,
                  grid: TimeGrid) -> np.ndarray:
    """Modal trajectories, shape (n_steps+1, n_modes); row 0 is u0_coeffs.

    Column k equals step_mode for eigenvalue k bit for bit; the history
    contraction is shared across modes.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    u0 = np.asarray(u0_coeffs, dtype=float)
    if lam.shape != u0.shape or lam.ndim != 1:
        raise ValueError("eigenvalues and u0_coeffs must be 1-d of equal length")
    if np.any(lam < 0.0):
        raise ValueError("eigenvalues must be >= 0")
    beta = dg_weights(order, grid.n_steps).beta
    return _march(beta, lam * grid.dt ** order.nu, u0, grid.n_steps)


def step_galerkin(order: FractionalOrder, mass, stiff, grid: TimeGrid,
                  u0_vec) -> np.ndarray:
    """Coefficient trajectories, shape (n_steps+1, ndof); row 0 is u0_vec.

    Factors M + beta_0 dt^nu K once; each step costs one banded solve
    plus one history contraction over the stored K U^j vectors.
    """
    u0 = np.asarray(u0_vec, dtype=float)
    mass = sp.csc_matrix(mass)
    stiff = sp.csc_matrix(stiff)
    ndof = len(u0)
    if mass.shape != (ndof, ndof) or stiff.shape != (ndof, ndof):
        raise ValueError("matrix shapes do not match u0_vec")
    beta = dg_weights(order, grid.n_steps).beta
    dtn = grid.dt ** order.nu
    try:
        solver = splu(mass + (beta[0] * dtn) * stiff)
    except RuntimeError as exc:
        raise ValueError(f"singular stepping system: {exc}") from exc
    history = _history(beta)
    u = np.zeros((grid.n_steps + 1, ndof))
    ku = np.zeros((grid.n_steps + 1, ndof))  # rows K @ U^j, filled as we go
    u[0] = u0
    for n in range(1, grid.n_steps + 1):
        rhs = mass @ u[n - 1]
        if n > 1:
            rhs -= dtn * history(ku, n)
        u[n] = solver.solve(rhs)
        ku[n] = stiff @ u[n]
    return u
