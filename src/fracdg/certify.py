"""Certification harness for the stepping scheme's error kernel.

delta(n, mu) = U^n - E_nu(-mu n^nu) is the per-mode discretization error
with unit data and unit step (only mu = lam dt^nu enters, so this loses
no generality).  The harness computes it by two independent routes (the
recurrence itself, and adaptive quadrature of its branch-cut integral
representation), scans the bound |delta| <= C n^{-1} min(rho^2, 1/rho)
with rho = mu n^nu, extracts the weighted suprema Phi_1/Phi_2, checks
the inequalities the bound's proof rests on, and turns per-run error
samples into weighted convergence tables.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import (
    FractionalOrder,
    QuadratureError,
    _quad,
    mittag_leffler_neg_array,
    mittag_leffler_neg_with_error,
    symbol_cut,
)
from .stepping import DgWeights, ModeProblem, TimeGrid, step_mode, step_spectral

__all__ = [
    "DeltaScan",
    "PhiSweep",
    "LemmaScan",
    "ErrorTable",
    "delta_direct",
    "delta_series",
    "delta_contour",
    "delta_scan",
    "bound_check",
    "phi_sweep",
    "lemma_integral_zero",
    "lemma_scan_bounds",
    "resolvent_ratio_max",
    "weighted_error_table",
]


def default_mu_grid() -> np.ndarray:
    """The standard sweep grid mu = 2^j, j = -18..20."""
    return 2.0 ** np.arange(-18, 21, dtype=float)


def delta_direct(order: FractionalOrder, mu: float, n: int,
                 weights: DgWeights | None = None) -> float:
    """Error kernel via the recurrence: U^n with dt=1, lam=mu, u0=1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mu < 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if mu == 0.0:
        return 0.0
    grid = TimeGrid(dt=1.0, n_steps=n)
    problem = ModeProblem.from_grid(order, mu, 1.0, grid)
    u = step_mode(problem, grid, weights=weights)
    exact, _ = mittag_leffler_neg_with_error(order, mu * float(n) ** order.nu)
    return float(u[n]) - exact


def delta_series(order: FractionalOrder, mu: float, n_max: int,
                 weights: DgWeights | None = None):
    """delta(1..n_max, mu) from one recurrence run.

    Returns (delta, ml_err): the kernel values and the error estimates of
    the Mittag-Leffler evaluations they subtract, used as an accuracy
    guard by the sweeps.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if mu <= 0.0:
        raise ValueError(f"mu must be > 0, got {mu}")
    grid = TimeGrid(dt=1.0, n_steps=n_max)
    problem = ModeProblem.from_grid(order, mu, 1.0, grid)
    u = step_mode(problem, grid, weights=weights)
    ns = np.arange(1, n_max + 1, dtype=float)
    exact, ml_err = mittag_leffler_neg_array(order, mu * ns ** order.nu)
    return u[1:] - exact, ml_err


def delta_contour(order: FractionalOrder, mu: float, n: int,
                  tol: float = 1e-9) -> float:
    """Error kernel via its branch-cut integral representation,

      delta = (sin(pi nu)/pi) * int_0^inf e^{-ns} mu s^{-nu-1}
              [ |1 + mu psi_+(s)|^{-2} - |1 + mu s^{-nu} e^{-i pi nu}|^{-2} ] ds,

    independent of the recurrence.  Only 0 < nu < 1 (the cut vanishes at
    nu = 1, where the kernel has an elementary closed form).
    """
    nu = order.nu
    if not 0.0 < nu < 1.0:
        raise ValueError("contour route needs 0 < nu < 1")
    if mu <= 0.0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phase = complex(math.cos(math.pi * nu), -math.sin(math.pi * nu))

    def integrand(s):
        smn = s ** -nu
        num = 1.0 + mu * symbol_cut(order, s, "+")
        ref = 1.0 + mu * smn * phase
        bracket = 1.0 / (num.real * num.real + num.imag * num.imag) \
            - 1.0 / (ref.real * ref.real + ref.imag * ref.imag)
        return math.exp(-n * s) * mu * smn / s * bracket

    upper = 45.0 / n
    # The integrand is O(s^{nu-1}) at 0; split at the e^{-ns} knee so the
    # generic rule resolves both scales.
    pts = [p for p in (1.0 / n, 10.0 / n) if p < upper]
    val, est = _quad(integrand, 0.0, upper, points=pts or None,
                     limit=400, epsabs=0.1 * tol, epsrel=1e-9)
    if est > tol:
        raise QuadratureError("error-kernel quadrature did not converge", est)
    return order.sin_pi / math.pi * val


@dataclass(frozen=True)
class DeltaScan:
    """Grid scan of the kernel against the n^{-1} min(rho^2, 1/rho) bound.

    rows columns: mu, n, rho, delta, ml_err, bound_ratio.
    """

    order: FractionalOrder
    rows: np.ndarray
    max_ratio: float
    argmax: tuple  # (mu, n) attaining max_ratio


def delta_scan(order: FractionalOrder, mu_grid=None, n_max: int = 200) -> DeltaScan:
    """Tabulate delta and its bound ratio over (mu_grid) x (1..n_max).

    One spectral run with dt = 1 and the mu values as eigenvalues gives
    every trajectory; its columns equal delta_series bit for bit.
    """
    if mu_grid is None:
        mu_grid = default_mu_grid()
    mu_grid = np.asarray(mu_grid, dtype=float)
    if len(mu_grid) == 0 or np.any(mu_grid <= 0.0):
        raise ValueError("mu_grid must be nonempty and positive")
    u = step_spectral(order, mu_grid, np.ones(len(mu_grid)),
                      TimeGrid(dt=1.0, n_steps=n_max))
    ns = np.arange(1, n_max + 1, dtype=float)
    rho = mu_grid[:, None] * ns ** order.nu
    exact, ml_err = mittag_leffler_neg_array(order, rho)
    delta = u[1:].T - exact
    bound = np.minimum(rho ** 2, 1.0 / rho) / ns
    ratio = np.abs(delta) / bound
    rows = np.stack([np.repeat(mu_grid, n_max), np.tile(ns, len(mu_grid)),
                     rho.ravel(), delta.ravel(), ml_err.ravel(), ratio.ravel()],
                    axis=1)
    k = int(np.argmax(ratio))  # first occurrence, mu-major as in rows
    return DeltaScan(order=order, rows=rows, max_ratio=float(ratio.flat[k]),
                     argmax=(float(mu_grid[k // n_max]), k % n_max + 1))


def bound_check(order: FractionalOrder, mu_grid=None, n_max: int = 200) -> float:
    """Worst ratio |delta| / [n^{-1} min(rho^2, 1/rho)] over the grid."""
    return delta_scan(order, mu_grid, n_max).max_ratio


@dataclass(frozen=True)
class PhiSweep:
    """Weighted suprema of the kernel over the scan grid.

    phi1 = sup over rho <= 1 of n^{1-2 nu} mu^{-2} delta,
    phi2 = sup over rho >= 1 of n^{1+nu} mu delta,
    both signed (delta itself, not |delta|).  min_delta records the most
    negative kernel value seen; genuinely negative values (beyond the
    -1e-12 noise floor) would contradict the kernel's expected sign.
    skipped counts rho <= 1 points excluded by the accuracy guard
    |delta| > 10 * ml_err.
    """

    order: FractionalOrder
    phi1: float
    phi2: float
    phi1_arg: tuple
    phi2_arg: tuple
    min_delta: float
    skipped: int


def _first_max(w, keep, mu, ns):
    # Largest w where keep holds, first occurrence on ties (NaN never
    # wins); (-inf, (nan, 0)) when nothing qualifies.
    w = np.where(keep & ~np.isnan(w), w, -math.inf)
    k = int(np.argmax(w))
    if w.flat[k] == -math.inf:
        return -math.inf, (math.nan, 0)
    return w.flat[k], (mu.flat[k], int(ns.flat[k]))


def phi_sweep(order: FractionalOrder, mu_grid=None, n_max: int = 200) -> PhiSweep:
    """Compute (Phi_1, Phi_2) from a fresh grid scan."""
    scan = delta_scan(order, mu_grid, n_max)
    grid = scan.rows.reshape(-1, n_max, 6)  # (mu, n, column)
    mu, ns, rho, delta, ml_err = (grid[..., k] for k in range(5))
    nu = order.nu
    # Powers are taken once per grid value with scalar pow and broadcast:
    # numpy's vectorised pow can differ from scalar pow in the last bit.
    mu_sq = np.array([m ** 2 for m in mu[:, 0]])[:, None]
    n_pow1 = np.array([n ** (1.0 - 2.0 * nu) for n in ns[0]])
    n_pow2 = np.array([n ** (1.0 + nu) for n in ns[0]])
    guarded = (rho <= 1.0) & (np.abs(delta) <= 10.0 * ml_err)
    phi1, phi1_arg = _first_max(n_pow1 * delta / mu_sq,
                                (rho <= 1.0) & ~guarded, mu, ns)
    phi2, phi2_arg = _first_max(n_pow2 * mu * delta,
                                (rho >= 1.0) & ~guarded, mu, ns)
    return PhiSweep(order=order, phi1=phi1, phi2=phi2,
                    phi1_arg=phi1_arg, phi2_arg=phi2_arg,
                    min_delta=float(np.min(delta)),
                    skipped=int(np.count_nonzero(guarded)))


def lemma_integral_zero(order: FractionalOrder) -> float:
    """The vanishing moment int_0^inf (s^nu + s^{2nu} cos(pi nu)) / |s^nu + e^{i pi nu}|^4 ds.

    Exact value is 0 for 1/2 < nu < 1.  Substituting x = s^nu and folding
    [1, inf) back onto (0, 1] by x -> 1/x gives two finite integrals whose
    only singularity is the integrable u^{1-1/nu} weight at u = 0.
    """
    nu = order.nu
    if not 0.5 < nu < 1.0:
        raise ValueError(f"identity requires 1/2 < nu < 1, got {nu}")
    p = -math.cos(math.pi * nu)  # in (0, 1)

    def q(y):
        return y * y - 2.0 * p * y + 1.0

    v0, e0 = _quad(lambda x: x ** (1.0 / nu) * (1.0 - p * x) / q(x) ** 2,
                   0.0, 1.0, limit=200, epsabs=1e-12, epsrel=1e-12)
    v1, e1 = _quad(lambda u: (u - p) / q(u) ** 2,
                   0.0, 1.0, weight="alg", wvar=(1.0 - 1.0 / nu, 0.0),
                   limit=200, epsabs=1e-12, epsrel=1e-12)
    if e0 + e1 > 1e-9:
        raise QuadratureError("moment quadrature did not converge", e0 + e1)
    return (v0 + v1) / nu


@dataclass(frozen=True)
class LemmaScan:
    """Max of a scanned inequality per parameter value.

    rows columns: nu, max value over the x grid, arg max x.
    """

    rows: np.ndarray
    overall_max: float


def _stable_power_difference(b: np.ndarray, logx: np.ndarray) -> np.ndarray:
    # (x^b - 1)/b elementwise with the b -> 0 limit log x, via expm1.
    out = np.empty(np.broadcast(b, logx).shape)
    bb, lx = np.broadcast_arrays(b, logx)
    zero = bb == 0.0
    out[zero] = lx[zero]
    out[~zero] = np.expm1(bb[~zero] * lx[~zero]) / bb[~zero]
    return out


def lemma_scan_bounds(nu_small=None, nu_large=None, x_count: int = 161) -> tuple:
    """Scan the two weighted-integral inequalities; both stay below 3.

    Small orders (0 <= nu <= 1/2): f(x) = x^nu int_x^1 s^{-3 nu} ds on
    (0, 1].  Large orders (1/2 <= nu <= 1): g(x) = x^{nu-1} int_1^x
    s^{1-3 nu} ds on [1, 1e6].  Closed forms are used, with the
    removable 1 - 3 nu = 0 and 2 - 3 nu = 0 cases handled by expm1.
    Returns (small_scan, large_scan).
    """
    if nu_small is None:
        nu_small = np.append(np.linspace(0.0, 0.5, 11), 1.0 / 3.0)
    if nu_large is None:
        nu_large = np.append(np.linspace(0.5, 1.0, 11), 2.0 / 3.0)
    nu_small = np.asarray(nu_small, dtype=float)
    nu_large = np.asarray(nu_large, dtype=float)
    if np.any(nu_small < 0.0) or np.any(nu_small > 0.5):
        raise ValueError("small-order grid must lie in [0, 1/2]")
    if np.any(nu_large < 0.5) or np.any(nu_large > 1.0):
        raise ValueError("large-order grid must lie in [1/2, 1]")

    x5 = np.logspace(-8.0, 0.0, x_count)
    rows5 = np.empty((len(nu_small), 3))
    for i, nu in enumerate(nu_small):
        # f = x^nu (1 - x^{1-3nu})/(1-3nu) = -x^nu * ((x^b - 1)/b), b = 1-3nu
        vals = x5 ** nu * -_stable_power_difference(
            np.full_like(x5, 1.0 - 3.0 * nu), np.log(x5))
        k = int(np.argmax(vals))
        rows5[i] = (nu, vals[k], x5[k])

    x6 = np.logspace(0.0, 6.0, x_count)
    rows6 = np.empty((len(nu_large), 3))
    for i, nu in enumerate(nu_large):
        # g = x^{nu-1} (x^{2-3nu} - 1)/(2-3nu)
        vals = x6 ** (nu - 1.0) * _stable_power_difference(
            np.full_like(x6, 2.0 - 3.0 * nu), np.log(x6))
        k = int(np.argmax(vals))
        rows6[i] = (nu, vals[k], x6[k])

    return (
        LemmaScan(rows=rows5, overall_max=float(rows5[:, 1].max())),
        LemmaScan(rows=rows6, overall_max=float(rows6[:, 1].max())),
    )


def resolvent_ratio_max(nu_values=None, x_max: float = 1e4,
                     x_count: int = 4001) -> float:
    """Largest |1 + X e^{i pi nu}|^{-2} relative to (1-nu)^{-2} (1+X^2)^{-1}.

    The claimed inequality makes this <= 1.  The grid includes X = 0 and
    the exact minimizer X = -cos(pi nu) of the left denominator.
    """
    if nu_values is None:
        nu_values = np.linspace(0.1, 0.9, 9)
    worst = 0.0
    for nu in np.asarray(nu_values, dtype=float):
        if not 0.0 < nu < 1.0:
            raise ValueError(f"nu must lie in (0, 1), got {nu}")
        x = np.concatenate([[0.0], np.logspace(-4.0, math.log10(x_max), x_count)])
        c = math.cos(math.pi * nu)
        if c < 0.0:
            x = np.append(x, -c)
        ratio = (1.0 - nu) ** 2 * (1.0 + x * x) / (1.0 + 2.0 * x * c + x * x)
        worst = max(worst, float(ratio.max()))
    return worst


@dataclass(frozen=True)
class ErrorTable:
    """Weighted errors E_N and observed rates over a doubling N chain.

    errors[alpha] has one entry per N; rates[alpha] one per successive
    pair, rate = log2(E at N/2 divided by E at N) so that first-order
    convergence gives +1.
    """

    n_values: tuple
    alphas: tuple
    errors: dict
    rates: dict


def weighted_error_table(samples: dict, alphas, t_top: float = 0.5) -> ErrorTable:
    """Build the weighted table from per-run error curves.

    samples maps N -> (t, err) arrays over t in [dt, t_top]; N values
    must form a doubling chain.  E_N = max of t^alpha * err over the
    window.
    """
    n_values = sorted(samples)
    if len(n_values) < 1:
        raise ValueError("need at least one run")
    for a, b in zip(n_values, n_values[1:]):
        if b != 2 * a:
            raise ValueError(f"N values must double: {a} -> {b}")
    alphas = tuple(float(a) for a in alphas)
    errors = {a: [] for a in alphas}
    for n in n_values:
        t, err = samples[n]
        t = np.asarray(t, dtype=float)
        err = np.asarray(err, dtype=float)
        if t.shape != err.shape or t.ndim != 1 or len(t) == 0:
            raise ValueError(f"bad sample arrays for N={n}")
        keep = t <= t_top * (1.0 + 1e-12)
        if not np.any(keep):
            raise ValueError(f"no sample times below {t_top} for N={n}")
        for a in alphas:
            errors[a].append(float(np.max(t[keep] ** a * err[keep])))
    rates = {
        a: tuple(
            math.log2(errors[a][i] / errors[a][i + 1])
            for i in range(len(n_values) - 1)
        )
        for a in alphas
    }
    return ErrorTable(
        n_values=tuple(n_values),
        alphas=alphas,
        errors={a: tuple(v) for a, v in errors.items()},
        rates=rates,
    )
