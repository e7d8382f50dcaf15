"""The piecewise-constant DG time-stepping scheme.

One module covers the convolution weights beta_j, the scalar-mode
recurrence

    (1 + beta_0 mu) U^n = U^{n-1} - mu * sum_{j=1}^{n-1} beta_{n-j} U^j,

which step_spectral runs for every mode of an eigenmode expansion and
every order of a sequence at once, each order's columns a group with its
own weights (the scalar recurrence is one order and one column), and
the Galerkin matrix form

    (M + beta_0 dt^nu K) U^n = M U^{n-1} - dt^nu K sum beta_{n-j} U^j,

which step_galerkin runs on the tridiagonal M and K with LAPACK's
kernels, in a form that needs no product by K, for a chain of time
grids, finest first, as the blocks of one factored block-diagonal
system.  Both run in one time loop, which sums the stored trajectory.

The history sum goes in tiles of _TILE future steps: one pass over the
stored rows at the start of a tile serves every step of the tile.  The
per-step work runs once over the columns of every group still stepping;
the per-tile contractions run per group, so each order's or grid's
columns are the bits of its own run.  The loop runs as many iterations
as the longest group has steps: 200 for phi's nine orders, and 2,560
for converge's chain N = 640..5,120, whose coarser grids stop early.

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

from .fem1d import NotPositiveDefinite, SymTridiagonal
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
    # The terms go in a table, a row per k and zero beyond K(j), summed row
    # after row in ascending k by add.accumulate (add.reduce would sum a
    # lone column pairwise).  K is five from j = 49 on: those j get their
    # own five-row table.
    x2 = (1.0 / j) ** 2
    terms = np.maximum(5, np.ceil(28.0 * math.log(2.0) / np.log(j)))
    k = np.arange(1.0, np.max(terms, initial=5) + 1)[:, None]
    coeff = np.cumprod((nu - (2 * k - 2)) * (nu - (2 * k - 1)) / ((2 * k - 1) * (2 * k)))
    acc = np.empty_like(x2)
    split = np.count_nonzero(terms > 5)
    for cols, rows in ((slice(0, split), len(k)), (slice(split, None), 5)):
        table = np.power(x2[cols], k[:rows], where=k[:rows] <= terms[cols],
                         out=np.zeros((rows, len(x2[cols]))))
        table *= coeff[:rows, None]
        acc[cols] = np.add.accumulate(table, axis=0, out=table)[-1]
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


def _march(beta: np.ndarray, u0: np.ndarray, steps, advance, far) -> np.ndarray:
    """The one time loop: u[n] = advance(u[n-1], hist), u[0] = u0.

    The columns of u0 fall into len(steps) groups of equal width, in
    order.  Group g steps steps[g] times, and the counts never increase,
    so the groups still stepping at any n are the leading ones; advance
    gets their columns side by side.  Group g has the weights beta[g]
    (a beta of one row is every group's) and far[g] (None: the group sums
    directly).  hist = sum_{j=1}^{n-1} beta_{n-j} u[j] over the group's
    stored trajectory, an empty sum (zeros) at n = 1.  The result holds
    the groups' trajectories one after another, shape
    (sum of (steps[g] + 1), width), each sized to its own steps.

    Steps go in tiles of _TILE.  At the start n0 of a tile, one einsum
    per group fills acc[i] with the terms j < n0 of step n0 + i, for every
    i at once.  Its weight block T[i, j] = beta_{n0+i-j} is a reversed
    column slice of a Fortran-ordered Hankel table, so einsum runs with j
    outermost, then i, then the columns, and adds each term to each
    acc[i, k] as a separate multiply and add, in ascending j, outside
    BLAS.  After step n = n0 + i, its row u[n] times each column's head of
    weights is added to the later rows of acc, the terms j = n that those
    steps still lack, which continues the ascending order.  The table and
    acc always have _TILE rows (the weights are padded with zeros past
    the last one given), so einsum's innermost loop never becomes a
    blocked reduction over j, even on one column.  The advance and the
    in-tile adds run once over the live columns; the tile's einsums run
    per group, the same calls a one-group run makes, so each group's
    trajectory is the bits of its run alone.

    far[g] = (p, w) from _far_nodes switches group g's rows
    j <= n0 - _J0 to exponential sums: S[q] = sum_{j <= n0-_J0}
    e^{-p_q (n0-j)} u[j], and acc[i] starts from sum_q w_q e^{-p_q i} S[q]
    plus the Hankel block over only the last _J0 - 1 stored rows.  After
    the tile, S moves on by _TILE steps, S = e^{-_TILE p} S + sum of the
    _TILE rows that reach lag _J0, so a step costs O(len(p)) rows instead
    of O(n).  With far[g] None the group sums directly, bit for bit as
    above.
    """
    tile = _TILE
    groups = len(steps)
    width = len(u0) // groups
    top = steps[0]
    padded = np.zeros((len(beta), beta.shape[1] + tile))
    padded[:, :beta.shape[1]] = beta
    # head[r, k] = beta_r of column k's group
    head = np.repeat(np.broadcast_to(padded[:, :tile], (groups, tile)).T, width, axis=1)
    # hankels[g, i, m] = beta_{m+i} of group g; each hankels[g] is
    # Fortran-ordered: each column is contiguous
    hankels = padded[:, np.add.outer(np.arange(top), np.arange(tile))]
    hankels = np.broadcast_to(hankels.transpose(0, 2, 1), (groups, tile, top))
    ends = np.cumsum([n + 1 for n in steps])
    u = np.zeros((ends[-1], width))
    parts = []
    for g, hankel in enumerate(hankels):
        cols = slice(g * width, (g + 1) * width)
        traj = u[ends[g] - steps[g] - 1:ends[g]]
        traj[0] = u0[cols]
        soe = None
        if far[g] is not None:
            p, w = far[g]
            lags = np.arange(tile)
            # Fortran order again keeps every innermost loop running over
            # the tile or the nodes, never a blocked reduction, even on one
            # column; the last entry holds the running sums S
            soe = (np.asfortranarray(w * np.exp(-np.outer(lags, p))),
                   np.asfortranarray(np.exp(-np.outer(p, _J0 + tile - 1 - lags))),
                   np.exp(-tile * p)[:, None], np.zeros((len(p), width)))
        parts.append((traj, cols, hankel, soe))
    acc = np.empty((tile, len(u0)))
    # the live groups' columns of u[n-1], of acc and of head
    row, acc_live, head_live = u0, acc, head
    live = going = groups  # groups stepping at n; with steps left at n0
    for n0 in range(1, top + 1, tile):
        for traj, cols, hankel, soe in parts[:going]:
            lo = 1 if soe is None else max(1, n0 - _J0 + 1)
            np.einsum("ij,jk->ik", hankel[:, n0 - lo:0:-1], traj[lo:n0],
                      out=acc[:, cols])
            if soe is not None:
                to_acc, _, _, far_sums = soe
                acc[:, cols] += np.einsum("iq,qk->ik", to_acc, far_sums)
        for i in range(min(tile, top + 1 - n0)):
            n = n0 + i
            if steps[live - 1] < n:
                live = sum(m >= n for m in steps)
                k = live * width
                row, acc_live, head_live = row[:k], acc[:, :k], head[:, :k]
            row = advance(row, acc_live[i])
            if i + 1 < tile:
                acc_live[i + 1:] += head_live[1:tile - i] * row
            for traj, cols, _, _ in parts[:live]:
                traj[n] = row[cols]
        # rows first..first+tile-1 reach lag _J0 at the next tile
        going = sum(n >= n0 + tile for n in steps)
        first = n0 - _J0 + 1
        skip = max(0, 1 - first)
        for traj, _, _, soe in parts[:going]:
            if soe is not None:
                _, to_far, decay, far_sums = soe
                far_sums *= decay
                if skip < tile:
                    far_sums += np.einsum("qr,rk->qk", to_far[:, skip:],
                                          traj[first + skip:first + tile])
    return u


def step_spectral(orders, eigenvalues, u0_coeffs, grid: TimeGrid) -> np.ndarray:
    """Modal trajectories, shape (n_orders, n_steps+1, n_modes); row 0 is u0_coeffs.

    Every order runs the same modes in the one time loop, each order's
    block the bits of its own call.  step_spectral([order], [mu], [1.0],
    TimeGrid(1.0, n))[0, :, 0] is the scalar recurrence for mu.
    """
    orders = tuple(orders)
    lam = np.asarray(eigenvalues, dtype=float)
    u0 = np.asarray(u0_coeffs, dtype=float)
    if not orders:
        raise ValueError("need at least one order")
    if lam.shape != u0.shape or lam.ndim != 1:
        raise ValueError("eigenvalues and u0_coeffs must be 1-d of equal length")
    if not np.all(np.isfinite(lam) & (lam >= 0.0)):
        raise ValueError("eigenvalues must be finite and >= 0")
    n = grid.n_steps
    beta = np.array([dg_weights(o, n) for o in orders])
    mu = np.concatenate([lam * grid.dt ** o.nu for o in orders])
    # beta_0 mu may overflow to inf, whose trajectory is the limit, zero
    with np.errstate(over="ignore"):
        denom = 1.0 + np.repeat(beta[:, 0], lam.size) * mu
    u = _march(beta, np.tile(u0, len(orders)), [n] * len(orders),
               lambda prev, hist: (prev - mu * hist) / denom,
               [_far_nodes(o, n) for o in orders])
    return u.reshape(len(orders), n + 1, lam.size)


def step_galerkin(order: FractionalOrder, mass: SymTridiagonal,
                  stiff: SymTridiagonal, grids, u0_vec) -> np.ndarray:
    """Trajectories of a chain of runs, shape (sum of (n_steps+1), ndof).

    grids holds the runs' TimeGrids, finest first (step counts that never
    increase), and each run starts from u0_vec.  Each run's system
    A = M + beta_0 dt^nu K must be positive definite, or ValueError names
    the first run's dt that is not.  With the history
    H = sum_{j<n} beta_{n-j} U^j and A - M = beta_0 dt^nu K, each step is

        U^n = A^{-1} M (U^{n-1} + H / beta_0) - H / beta_0,

    the same recurrence with no product by K: one history contraction
    over the stored U^j, one tridiagonal product with M and one dpttrs
    solve.

    The runs step in the one time loop as the blocks of one
    block-diagonal system, whose off-diagonal is zero between blocks, so
    its one factorization (LAPACK dpttrf), the solve and the product by M
    give each block the bits of its own run.  The beta_j do not depend on
    dt, so one table serves every run; each run keeps its own far-history
    nodes.  A run leaves the loop after its own steps, and the solve and
    the product then take the leading blocks only.
    """
    grids = tuple(grids)
    if not grids:
        raise ValueError("need at least one time grid")
    steps = [g.n_steps for g in grids]
    if any(b > a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"time grids must go finest first, got step counts {steps}")
    u0 = np.asarray(u0_vec, dtype=float)
    ndof = len(mass.diag)
    if u0.shape != (ndof,) or len(stiff.diag) != ndof:
        raise ValueError("matrix shapes do not match u0_vec")
    beta = dg_weights(order, steps[0])
    b0 = beta[0]
    scale = b0 * np.array([g.dt ** order.nu for g in grids])[:, None]

    def chain(diag, off):
        # the runs' blocks as one matrix, its off-diagonal zero between runs
        gaps = np.zeros((len(grids), ndof))
        gaps[:, :-1] = off
        return SymTridiagonal(np.broadcast_to(diag, gaps.shape).ravel(), gaps.ravel()[:-1])

    matvec = chain(mass.diag, mass.off).matvec
    try:
        solve = chain(mass.diag + scale * stiff.diag, mass.off + scale * stiff.off).solver()
    except NotPositiveDefinite as exc:
        # the blocks factor apart, so the first bad pivot is a run's own
        run, pivot = divmod(exc.pivot - 1, ndof)
        raise ValueError(f"singular stepping system at dt={grids[run].dt}: "
                         f"{NotPositiveDefinite(pivot + 1)}") from exc

    def advance(prev, hist):
        shift = hist / b0
        return solve(matvec(prev + shift)) - shift

    return _march(beta[None], np.tile(u0, len(grids)), steps, advance,
                  [_far_nodes(order, n) for n in steps])
