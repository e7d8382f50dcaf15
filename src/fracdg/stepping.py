"""The piecewise-constant DG time-stepping scheme.

One module covers the convolution weights beta_j, the scalar-mode
recurrence

    (1 + beta_0 mu) U^n = U^{n-1} - mu * sum_{j=1}^{n-1} beta_{n-j} U^j,

which step_spectral runs for every mode of an eigenmode expansion at
once (the scalar recurrence is a one-column call), and the Galerkin
matrix form
(M + beta_0 dt^nu K) U^n = M U^{n-1} - dt^nu K sum beta_{n-j} U^j,
which step_galerkin runs on the tridiagonal M and K with LAPACK's
kernels, in a form that needs no product by K.  Both run in one time
loop, which sums the stored trajectory.  The history sum goes in tiles
of _TILE future steps: one pass over the stored rows at the start of a
tile serves every step of the tile.

Runs shorter than _SOE_FROM (512) steps sum the whole history directly,
an O(N^2) convolution.  Each step's sum gets its terms one at a time in
ascending j, a multiply then an add, so these trajectories are
bit-identical to the plain per-step loop.  Longer runs keep the exact
weights only for lags below _J0 and carry all older rows in a sum of
exponentials, beta_j ~= sum_q w_q e^{-p_q j}: a trapezoid rule in log p
down to p = 1/N and a Gauss rule below it, 39 nodes at 512 steps and 48
at 5,120.  With one running sum per node, a step costs O(len(p)) rows
and a run grows about linearly in N.  Those trajectories move from the
direct sum's by round-off, at most about 3e-15 of the largest initial
value in the tests.  Every contraction is an einsum in a fixed order,
outside BLAS, so either way trajectories are the same from run to run
and whatever the BLAS thread count.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .fem1d import SymTridiagonal
from .special import FractionalOrder

__all__ = [
    "TimeGrid",
    "dg_weights",
    "step_spectral",
    "step_galerkin",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time levels t_n = n*dt, n = 0..n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        try:
            n_steps = operator.index(self.n_steps)
        except TypeError:
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}") from None
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")


def _beta_series(nu: float, j: np.ndarray) -> np.ndarray:
    # (1+x)^nu - 2 + (1-x)^nu at x = 1/j, j >= 2 ascending, summed as the
    # even binomial series 2*sum_k C(nu,2k) x^{2k}.  Every term has the sign
    # of nu(nu-1), which the first coefficient carries as an exact product,
    # so nothing cancels; and |C(nu,2k)| falls with k, so after K terms the
    # relative error is below x^{2K}/(1-x^2).  K(j) = ceil(28 ln 2/ln j)
    # keeps x^{2K} <= 2^-56 (28 terms at j = 2), and at least five terms
    # are taken, which leave a relative error below (1/j)^10 for j > 64.
    # K falls as j rises, so term k is added to a prefix of j.
    x2 = (1.0 / j) ** 2
    terms = np.maximum(5, np.ceil(28.0 * math.log(2.0) / np.log(j)))
    acc = np.zeros_like(x2)
    coeff = 1.0
    for k in range(1, int(np.max(terms, initial=0)) + 1):
        coeff *= (nu - (2 * k - 2)) * (nu - (2 * k - 1)) / ((2 * k - 1) * (2 * k))
        live = np.count_nonzero(terms >= k)
        acc[:live] = acc[:live] + coeff * x2[:live] ** k
    return 2.0 * acc


def dg_weights(order: FractionalOrder, n: int) -> np.ndarray:
    """Weights beta_0..beta_{n-1}; beta_j = ((j+1)^nu - 2 j^nu + (j-1)^nu)/Gamma(1+nu).

    The second difference of j^nu is never formed by subtraction, which
    would lose about 2*log10(j) digits: beta_1 is 2*expm1((nu-1) ln 2),
    and every later weight is j^nu times an even-power binomial series
    in 1/j.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"need n >= 1 weights, got {n}")
    nu = order.nu
    beta = np.zeros(n)
    beta[0] = 1.0 / order.gamma_1p
    if n == 1 or nu == 1.0:
        return beta  # nu = 1: exact second difference of j
    beta[1] = 2.0 * math.expm1((nu - 1.0) * math.log(2.0))
    j = np.arange(2, n, dtype=float)
    beta[2:] = j ** nu * _beta_series(nu, j)
    beta[1:] /= order.gamma_1p
    return beta


# Steps per tile of the history sum.  The tile's partial sums, _TILE rows
# of the trajectory's width, stay in cache while one pass streams the
# stored trajectory.  On a 2-vCPU Xeon, tiles of 4 to 16 steps timed
# within 10% of each other at 249 to 4,000 columns; 24 was slower at 249
# and 999 columns.
_TILE = 8

# Far history.  For j >= 1,
#     beta_j = c int_0^inf p^{-1-nu} e^{-p(j-1)} (1 - e^{-p})^2 dp
#            = c int_0^inf p^{-1-nu} 4 sinh^2(p/2) e^{-pj} dp,
# c = nu (nu - 1) / (Gamma(2 - nu) Gamma(1 + nu)), a completely monotone
# tail, so a trapezoid rule in log p gives beta_j ~= sum_q w_q e^{-p_q j}
# for every lag j >= _J0 (Jiang, Zhang, Zhang & Zhang, Commun. Comput.
# Phys. 21 (2017) 650; McLean, SIAM J. Sci. Comput. 34 (2012) A3039).
# Lags below _J0 keep the exact weights.  The rule's top node is
# p = 60/(_J0 - 1), where e^{-p _J0} is below 1e-26, so each halving of _J0
# adds about three nodes while each doubling adds _J0 exact rows per tile;
# at 2,560 steps, _J0 = 8 and 32 timed 0-20% slower than 16 at 39, 249 and
# 999 columns.
_J0 = 16
# Step of the rule in log p.  Its error is the rule's aliasing term, about
# exp(-pi^2/h) times a power of 1/h: against 40-digit second differences at
# nu in {0.1, 0.3, 0.5, 0.75, 0.95, 0.999} and 16 <= j <= n_steps in
# {1024, 5120}, h = 1/4 is within 3.8e-15 relative, h = 9/32 within 2.3e-13
# and h = 5/16 within 6.7e-12.  A power of two keeps every node exactly h
# from the next in log p.
_SOE_H = 0.25
# Lowest node p_lo = _SOE_P_LO / n_steps.  The rule's nodes below p_lo fold
# into one p = 0 node, their sum taken with the integrand replaced by its
# small-p form c p^{2-nu}.  That form is off by O(p j) <= O(_SOE_P_LO), and
# the weight error falls about 100-fold per decade of _SOE_P_LO: 3.7e-13
# relative at 1e-6 (nu = 0.999, j = 5120), under the aliasing floor at
# 1e-7.  1e-8 leaves a margin of about 100.
_SOE_P_LO = 1e-8
# Below p = 1/n_steps, e^{-p j} is close to a polynomial in p for every
# lag j <= n_steps, so the rule's nodes there (about 75, the p = 0 node
# included) are replaced by the _SOE_GAUSS-point Gauss rule of their
# discrete measure (McLean, "Exponential sum approximations for
# t^{-beta}", Springer 2018, shrinks this end of the sum the same way).
# The Gauss rule is exact up to degree 2 _SOE_GAUSS - 1 in p, and its error
# at p j <= 1 is below 1e-22 of that part of beta_j.  The sums then have
# 39 nodes at 512 steps, 43 at 1,280, 45 at 2,560, 48 at 5,120 and 51 at
# 10,240, every node above 0 and every weight of the sign of c.  Against
# 40-digit second differences at nu in {0.1, 0.3, 0.5, 0.75, 0.95, 0.999}
# and 16 <= j <= n_steps for n_steps from 512 to 10,240, they are within
# 4.0e-15 relative, the aliasing floor.
_SOE_GAUSS = 8
# Runs of at least this many steps carry the far history in exponential
# sums; shorter runs sum the whole history directly.  Against the direct
# sum, on a 2-vCPU Xeon (minimum of 7 in-process runs), the sums cost:
# step_galerkin at 999 DOF, 0.78x at 256 steps, 0.67x at 384 and 0.54x at
# 640 (0.099 -> 0.053 s); at 249 DOF, 1.24x at 256, 1.01x at 320 and 0.91x
# at 512; at 39 DOF, 1.06x at 384 and 0.96x at 512; step_spectral at 39
# columns, 1.09x at 384 and 0.92x at 512, and at 4,000 columns 0.46x at
# 512.  512 is the first power of two at which the Galerkin runs and the
# multi-column spectral runs were never slower (one column, which no
# workflow runs this long, is within +-20% at 4 ms).  It stays above phi's
# n_max = 200 and the quick study's 80 steps, which keep the direct sum bit
# for bit; the default study's 640-step run takes the sums.
_SOE_FROM = 512


def _gauss_rule(p: np.ndarray, m: np.ndarray, size: int):
    """Nodes and weights of the size-point Gauss rule of sum_k m_k delta(p - p_k), m_k > 0.

    Lanczos on diag(p) from the start vector sqrt(m / sum m), with full
    reorthogonalisation in two passes, gives the Jacobi matrix; its
    eigenvalues are the nodes, and the squared first components of its
    eigenvectors times sum m are the weights (Golub & Welsch, Math. Comp.
    23 (1969) 221).
    """
    total = float(np.sum(m))
    basis = np.zeros((size, len(p)))
    diag = np.zeros(size)
    off = np.zeros(size - 1)
    v = np.sqrt(m / total)
    for i in range(size):
        basis[i] = v
        r = p * v
        diag[i] = v @ r
        for _ in range(2):
            r -= basis[:i + 1].T @ (basis[:i + 1] @ r)
        if i + 1 < size:
            off[i] = math.sqrt(r @ r)
            v = r / off[i]
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, total * vecs[0] ** 2


def _far_nodes(order: FractionalOrder, n_steps: int):
    """Nodes p_q, weights w_q: beta_j ~= sum_q w_q exp(-p_q j), _J0 <= j <= n_steps.

    None for runs shorter than _SOE_FROM, which sum their history
    directly, and at nu = 1, where every beta_j with j >= 1 is zero.
    The first _SOE_GAUSS nodes are the Gauss rule that stands for the
    trapezoid rule below p = 1/n_steps.
    """
    nu = order.nu
    if n_steps < _SOE_FROM or nu == 1.0:
        return None
    c = nu * (nu - 1.0) / (math.gamma(2.0 - nu) * order.gamma_1p)
    h = _SOE_H
    s_top = math.log(60.0 / (_J0 - 1))
    count = math.ceil((s_top - math.log(_SOE_P_LO / n_steps)) / h)
    p = np.exp(s_top - h * np.arange(count, -1, -1.0))
    m = h * p ** -nu * (2.0 * np.sinh(0.5 * p)) ** 2  # w / c, all > 0
    # h * sum_{k>=1} (p_lo e^{-kh})^{2-nu}: the rule continued below p_lo
    a = 2.0 - nu
    m_zero = h * p[0] ** a / math.expm1(a * h)
    low = p < 1.0 / n_steps
    p_low, m_low = _gauss_rule(np.concatenate(([0.0], p[low])),
                               np.concatenate(([m_zero], m[low])), _SOE_GAUSS)
    return np.concatenate((p_low, p[~low])), c * np.concatenate((m_low, m[~low]))


def _march(beta: np.ndarray, u0: np.ndarray, n_steps: int, advance,
           far=None) -> np.ndarray:
    """The one time loop: u[n] = advance(u[n-1], hist), u[0] = u0.

    hist = sum_{j=1}^{n-1} beta_{n-j} u[j] over the stored trajectory, an
    empty sum (zeros) at n = 1.  Steps go in tiles of _TILE.  At the start
    n0 of a tile, one einsum fills acc[i] with the terms j < n0 of step
    n0 + i, for every i at once.  Its weight block T[i, j] = beta_{n0+i-j}
    is a reversed column slice of a Fortran-ordered Hankel table, so
    einsum runs with j outermost, then i, then the columns, and adds each
    term to each acc[i, k] as a separate multiply and add, in ascending j,
    outside BLAS.  After step n = n0 + i, its row u[n] is added to the
    later rows of acc, the terms j = n that those steps still lack, which
    continues the ascending order.  The table and acc always have _TILE
    rows (the weights are padded with zeros past beta_{n_steps-1}), so
    einsum's innermost loop never becomes a blocked reduction over j,
    even on one column.

    far = (p, w) from _far_nodes switches the rows j <= n0 - _J0 to
    exponential sums: S[q] = sum_{j <= n0-_J0} e^{-p_q (n0-j)} u[j], and
    acc[i] starts from sum_q w_q e^{-p_q i} S[q] plus the Hankel block over
    only the last _J0 - 1 stored rows.  After the tile, S moves on by
    _TILE steps, S = e^{-_TILE p} S + sum of the _TILE rows that reach lag
    _J0, so a step costs O(len(p)) rows instead of O(n).  With far=None
    the loop is the direct sum above, bit for bit.
    """
    tile = _TILE
    padded = np.zeros(len(beta) + tile)
    padded[:len(beta)] = beta
    # hankel[i, m] = beta_{m+i}, Fortran-ordered: each column is contiguous
    hankel = padded[np.add.outer(np.arange(n_steps), np.arange(tile))].T
    u = np.zeros((n_steps + 1, len(u0)))
    u[0] = u0
    acc = np.empty((tile, len(u0)))
    if far is not None:
        p, w = far
        lags = np.arange(tile)
        # Fortran order again keeps every innermost loop running over the
        # tile or the nodes, never a blocked reduction, even on one column
        to_acc = np.asfortranarray(w * np.exp(-np.outer(lags, p)))
        to_far = np.asfortranarray(np.exp(-np.outer(p, _J0 + tile - 1 - lags)))
        decay = np.exp(-tile * p)[:, None]
        far_sums = np.zeros((len(p), len(u0)))
    for n0 in range(1, n_steps + 1, tile):
        lo = 1 if far is None else max(1, n0 - _J0 + 1)
        np.einsum("ij,jk->ik", hankel[:, n0 - lo:0:-1], u[lo:n0], out=acc)
        if far is not None:
            acc += np.einsum("iq,qk->ik", to_acc, far_sums)
        for i in range(min(tile, n_steps + 1 - n0)):
            n = n0 + i
            u[n] = advance(u[n - 1], acc[i])
            acc[i + 1:] += padded[1:tile - i, None] * u[n]
        if far is not None:
            # rows first..first+tile-1 reach lag _J0 at the next tile
            first = n0 - _J0 + 1
            skip = max(0, 1 - first)
            far_sums *= decay
            if skip < tile:
                far_sums += np.einsum("qr,rk->qk", to_far[:, skip:],
                                      u[first + skip:first + tile])
    return u


def step_spectral(order: FractionalOrder, eigenvalues, u0_coeffs,
                  grid: TimeGrid) -> np.ndarray:
    """Modal trajectories, shape (n_steps+1, n_modes); row 0 is u0_coeffs.

    The history contraction is shared across modes.  A one-column call,
    step_spectral(order, [mu], [1.0], TimeGrid(1.0, n))[:, 0], is the
    scalar recurrence for mu.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    u0 = np.asarray(u0_coeffs, dtype=float)
    if lam.shape != u0.shape or lam.ndim != 1:
        raise ValueError("eigenvalues and u0_coeffs must be 1-d of equal length")
    if not np.all(np.isfinite(lam) & (lam >= 0.0)):
        raise ValueError("eigenvalues must be finite and >= 0")
    beta = dg_weights(order, grid.n_steps)
    mu = lam * grid.dt ** order.nu
    denom = 1.0 + beta[0] * mu
    return _march(beta, u0, grid.n_steps, lambda prev, hist: (prev - mu * hist) / denom,
                  _far_nodes(order, grid.n_steps))


def step_galerkin(order: FractionalOrder, mass: SymTridiagonal,
                  stiff: SymTridiagonal, grid: TimeGrid, u0_vec) -> np.ndarray:
    """Coefficient trajectories, shape (n_steps+1, ndof); row 0 is u0_vec.

    Factors A = M + beta_0 dt^nu K once (LAPACK dpttrf) and raises
    ValueError unless it is positive definite.  With the history
    H = sum_{j<n} beta_{n-j} U^j and A - M = beta_0 dt^nu K, each step is

        U^n = A^{-1} M (U^{n-1} + H / beta_0) - H / beta_0,

    the same recurrence with no product by K: one history contraction
    over the stored U^j, one tridiagonal product with M and one dpttrs
    solve.
    """
    u0 = np.asarray(u0_vec, dtype=float)
    ndof = len(mass.diag)
    if u0.shape != (ndof,) or len(stiff.diag) != ndof:
        raise ValueError("matrix shapes do not match u0_vec")
    beta = dg_weights(order, grid.n_steps)
    c = beta[0] * grid.dt ** order.nu
    try:
        solve = SymTridiagonal(mass.diag + c * stiff.diag,
                               mass.off + c * stiff.off).solver()
    except ValueError as exc:
        raise ValueError(f"singular stepping system: {exc}") from exc
    b0 = beta[0]

    def advance(prev, hist):
        shift = hist / b0
        return solve(mass.matvec(prev + shift)) - shift

    return _march(beta, u0, grid.n_steps, advance, _far_nodes(order, grid.n_steps))
