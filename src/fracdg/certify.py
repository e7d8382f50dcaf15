"""Certification harness for the stepping scheme's error kernel.

delta(n, mu) = U^n - E_nu(-mu n^nu) is the per-mode discretization error
with unit data and unit step (only mu = lam dt^nu enters, so this loses
no generality).  The harness computes it by two independent routes (the
recurrence itself, and a fixed tanh-sinh rule on its branch-cut integral
representation), scans it over a (mu, n) grid, extracts the weighted
suprema Phi_1/Phi_2, and checks the inequalities the bound's proof
rests on.  The scan and the sweep take a list of orders, which share
one spectral run with the bits of their own, and scan MU_GRID by
default; the scan yields each order's rho = mu n^nu, delta and
Mittag-Leffler error grids.  The direct route refuses a Mittag-Leffler estimate above 1e-9.
The ratio to the bound |delta| <= C n^{-1} min(rho^2, 1/rho) is formed
by the acceptance test of criterion 2.  Built-in checks are ``Check``
records, which the command line prints and turns into its exit status;
``symbol_checks`` returns the symbol's identity checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import (
    FractionalOrder,
    QuadratureError,
    _TS_COARSE,
    _TS_NODES,
    _TS_WEIGHTS,
    mittag_leffler_neg_array,
    symbol_asym_origin,
    symbol_cut,
    symbol_lattice,
    symbol_series,
)
from .stepping import TimeGrid, step_spectral

__all__ = [
    "Check",
    "PhiSweep",
    "MU_GRID",
    "delta_direct",
    "delta_contour",
    "delta_scan",
    "phi_sweep",
    "lemma_integral_zero",
    "lemma_scan_bounds",
    "resolvent_ratio_max",
    "symbol_checks",
]

@dataclass(frozen=True)
class Check:
    """One built-in check; it passes when value <= bound, so NaN fails."""

    label: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


# The standard sweep grid mu = 2^j, j = -18..20.
MU_GRID = 2.0 ** np.arange(-18, 21, dtype=float)
MU_GRID.flags.writeable = False


def delta_direct(order: FractionalOrder, mu: float, n: int) -> float:
    """Error kernel via the recurrence: U^n with dt=1, lam=mu, u0=1.

    A Mittag-Leffler estimate above 1e-9, the absolute limit of
    delta_contour, raises QuadratureError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    u = step_spectral([order], [mu], [1.0], TimeGrid(1.0, n))[0, :, 0]
    exact, err = mittag_leffler_neg_array(order, mu * float(n) ** order.nu)
    if not err <= 1e-9:
        raise QuadratureError("Mittag-Leffler value did not converge", float(err))
    return float(u[n] - exact)


def delta_contour(order: FractionalOrder, mu: float, n: int) -> float:
    """Error kernel via its branch-cut integral representation,

      delta = (sin(pi nu)/pi) * int_0^inf e^{-ns} mu s^{-nu-1}
              [ |1 + mu psi_+(s)|^{-2} - |1 + mu s^{-nu} e^{-i pi nu}|^{-2} ] ds,

    independent of the recurrence.  Only 0 < nu < 1 (the cut vanishes at
    nu = 1, where the kernel has an elementary closed form).  A gap above
    1e-9 to the tanh-sinh rule with step 2h raises QuadratureError.
    """
    nu = order.nu
    if not 0.0 < nu < 1.0:
        raise ValueError("contour route needs 0 < nu < 1")
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cos = math.cos(math.pi * nu)
    upper = 45.0 / n
    # Pieces split at the e^{-ns} knees and, for nu > 1/2, at 1 and 16
    # relative widths sin(pi nu)/nu around two peaks clamped to
    # [45/n e^-600, 45/n]: where mu s^{-nu} = -cos(pi nu) (reference term)
    # and 1 + mu Re psi_+(s) = 0 (cut term; -inf at 0, bisected in log s).
    cuts = [0.0, 1.0 / n, 10.0 / n, upper]
    if nu > 0.5:
        lo, hi = math.log(upper) - 600.0, math.log(upper)
        ref_peak = math.exp(min(max(math.log(mu / -cos) / nu, lo), hi))
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            above = 1.0 + mu * symbol_cut(order, math.exp(mid)).real > 0.0
            lo, hi = (lo, mid) if above else (mid, hi)
        cuts += [p * (1.0 + r * order.sin_pi / nu) for p in (ref_peak, math.exp(hi))
                 for r in (-16.0, -1.0, 1.0, 16.0)]
    cuts = np.array(sorted({min(max(c, 0.0), upper) for c in cuts}))
    width = cuts[1:] - cuts[:-1]
    # special's tanh-sinh rule without its end nodes (weights 4e-17): they
    # are s = 0 or sit in a peak's rounding noise eps mu s^{-nu-1}.  Huge
    # mu overflows to terms of 0, as they would be exactly.
    s = (cuts[:-1, None] + width[:, None] * _TS_NODES[1:-1]).ravel()
    smn = s ** -nu
    with np.errstate(over="ignore"):
        num = 1.0 + mu * symbol_cut(order, s)
        ref = 1.0 + mu * smn * complex(cos, -order.sin_pi)
        bracket = np.abs(num) ** -2.0 - np.abs(ref) ** -2.0
    f = (np.exp(-n * s) * smn * (mu * bracket) / s).reshape(width.size, -1)
    fine = (width * np.multiply(f, _TS_WEIGHTS[1:-1]).sum(axis=1)).sum()
    coarse = (width * np.multiply(f, _TS_COARSE[1:-1]).sum(axis=1)).sum()
    est = order.sin_pi / math.pi * abs(fine - coarse)
    if not est <= 1e-9:
        raise QuadratureError("error-kernel quadrature did not converge", est)
    return float(order.sin_pi / math.pi * fine)


def delta_scan(orders, mu_grid=MU_GRID, n_max: int = 200):
    """An iterator over the orders' kernel grids (rho, delta, ml_err).

    Each grid has shape (len(mu_grid), n_max); row i, column n-1 holds
    mu_grid[i] and step n.  One spectral run with dt = 1 and the mu
    values as eigenvalues gives every trajectory; each order's grids, and
    each mu's row, are the same bits as a scan of that order and mu
    alone.  The grids are made one order at a time, so a caller that
    takes them in turn holds one order's grids at once.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if len(mu_grid) == 0 or np.any(mu_grid <= 0.0):
        raise ValueError("mu_grid must be nonempty and positive")
    orders = tuple(orders)
    u = step_spectral(orders, mu_grid, np.ones(len(mu_grid)),
                      TimeGrid(dt=1.0, n_steps=n_max))
    ns = np.arange(1, n_max + 1, dtype=float)

    def scans():
        for o, traj in zip(orders, u):
            rho = mu_grid[:, None] * ns ** o.nu
            exact, ml_err = mittag_leffler_neg_array(o, rho)
            yield rho, traj[1:].T - exact, ml_err

    return scans()


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

    phi1: float
    phi2: float
    min_delta: float
    skipped: int


def _first_max(w, keep):
    # Largest w where keep holds, first occurrence on ties (NaN never
    # wins); -inf when nothing qualifies.
    w = np.where(keep & ~np.isnan(w), w, -math.inf)
    return w.flat[int(np.argmax(w))]


def phi_sweep(orders, mu_grid=MU_GRID, n_max: int = 200):
    """(Phi_1, Phi_2) of each order, as a list of PhiSweep, from one delta_scan.

    Each order's PhiSweep equals that order's own sweep.
    """
    orders = tuple(orders)
    mu = np.asarray(mu_grid, dtype=float)
    return [_sweep(o.nu, mu, n_max, *scan)
            for o, scan in zip(orders, delta_scan(orders, mu, n_max))]


def _sweep(nu, mu, n_max, rho, delta, ml_err):
    # Powers are taken once per grid value with scalar pow and broadcast:
    # numpy's vectorised pow can differ from scalar pow in the last bit.
    ns = np.arange(1, n_max + 1, dtype=float)
    mu_sq = np.array([m ** 2 for m in mu])[:, None]
    n_pow1 = np.array([n ** (1.0 - 2.0 * nu) for n in ns])
    n_pow2 = np.array([n ** (1.0 + nu) for n in ns])
    guarded = (rho <= 1.0) & (np.abs(delta) <= 10.0 * ml_err)
    phi1 = _first_max(n_pow1 * delta / mu_sq, (rho <= 1.0) & ~guarded)
    phi2 = _first_max(n_pow2 * mu[:, None] * delta, (rho >= 1.0) & ~guarded)
    return PhiSweep(phi1=phi1, phi2=phi2, min_delta=float(np.min(delta)),
                    skipped=int(np.count_nonzero(guarded)))


def _moment_integrands(nu: float) -> np.ndarray:
    # lemma_integral_zero's two integrands as rows, at the tanh-sinh nodes
    # on [0, 1]; u = v^k in the second absorbs its u^{1-1/nu} weight.
    p = -math.cos(math.pi * nu)  # in (0, 1)
    k = nu / (2.0 * nu - 1.0)
    x, u = _TS_NODES, _TS_NODES ** k
    return np.stack([x ** (1.0 / nu) * (1.0 - p * x) / (x * x - 2.0 * p * x + 1.0) ** 2,
                     k * (u - p) / (u * u - 2.0 * p * u + 1.0) ** 2])


def lemma_integral_zero(order: FractionalOrder) -> float:
    """The vanishing moment int_0^inf (s^nu + s^{2nu} cos(pi nu)) / |s^nu + e^{i pi nu}|^4 ds.

    Exact value is 0 for 1/2 < nu < 1.  Substituting x = s^nu and folding
    [1, inf) back onto (0, 1] by x -> 1/x gives two integrals; the second's
    u^{1-1/nu} weight goes under u = v^{nu/(2nu-1)}.  The fixed tanh-sinh
    rule of special sums both at once, its gap to the rule with step 2h is
    the estimate, and above 1e-9 (nu >~ 0.996) QuadratureError is raised.
    """
    nu = order.nu
    if not 0.5 < nu < 1.0:
        raise ValueError(f"identity requires 1/2 < nu < 1, got {nu}")
    f = _moment_integrands(nu).sum(axis=0)
    fine = np.multiply(f, _TS_WEIGHTS).sum()
    est = abs(fine - np.multiply(f, _TS_COARSE).sum()) / nu
    if est > 1e-9:
        raise QuadratureError("moment quadrature did not converge", est)
    return float(fine / nu)


def lemma_scan_bounds() -> tuple:
    """Scan the two weighted-integral inequalities; both stay below 3.

    Small orders (0 <= nu <= 1/2, eleven even steps plus 1/3): f(x) =
    x^nu int_x^1 s^{-3 nu} ds on (0, 1].  Large orders (1/2 <= nu <= 1,
    eleven even steps plus 2/3): g(x) = x^{nu-1} int_1^x s^{1-3 nu} ds
    on [1, 1e6].  Each runs over 161 log-spaced x.  Closed forms are
    used, with the removable 1 - 3 nu = 0 and 2 - 3 nu = 0 cases handled
    by expm1.  Returns (small_rows, large_rows), each an array whose rows
    are (nu, max value over the x grid, arg max x).
    """
    def scan(nus, x, k, sign):
        # sign x^{nu+1-k} (x^b - 1)/b with b = k - 3 nu: f is k = 1 with
        # sign -1, g is k = 2 with sign +1; (x^b - 1)/b is log x at b = 0
        logx = np.log(x)
        rows = np.empty((len(nus), 3))
        for i, nu in enumerate(nus):
            b = k - 3.0 * nu
            power = logx if b == 0.0 else np.expm1(b * logx) / b
            vals = x ** (nu + (1.0 - k)) * (sign * power)
            j = int(np.argmax(vals))
            rows[i] = (nu, vals[j], x[j])
        return rows

    return (scan(np.append(np.linspace(0.0, 0.5, 11), 1.0 / 3.0),
                 np.logspace(-8.0, 0.0, 161), 1.0, -1.0),
            scan(np.append(np.linspace(0.5, 1.0, 11), 2.0 / 3.0),
                 np.logspace(0.0, 6.0, 161), 2.0, 1.0))


def resolvent_ratio_max() -> float:
    """Largest |1 + X e^{i pi nu}|^{-2} relative to (1-nu)^{-2} (1+X^2)^{-1}.

    The claimed inequality makes this <= 1.  It is scanned for nu =
    0.1..0.9 over X = 0 and 4001 log-spaced X in [1e-4, 1e4], plus the
    exact minimizer X = -cos(pi nu) of the left denominator.
    """
    worst = 0.0
    for nu in np.linspace(0.1, 0.9, 9):
        x = np.concatenate([[0.0], np.logspace(-4.0, 4.0, 4001)])
        c = math.cos(math.pi * nu)
        if c < 0.0:
            x = np.append(x, -c)
        ratio = (1.0 - nu) ** 2 * (1.0 + x * x) / (1.0 + 2.0 * x * c + x * x)
        worst = max(worst, float(ratio.max()))
    return worst


def symbol_checks() -> list:
    """The series against the lattice sum (relative gap), its 2 pi i
    periodicity and conjugate symmetry, and the halving ratio 2^{2-nu} of
    its gap to the origin expansion, as three checks."""
    worst = 0.0
    for nu in (0.25, 0.75):
        order = FractionalOrder(nu)
        for re in (0.3, 1.0, 3.0, 8.0):
            for im in (-2.5, 1.5):
                z = complex(re, im)
                a = symbol_series(order, z)
                worst = max(worst, abs(a - symbol_lattice(order, z)) / abs(a))
    checks = [Check("symbol series vs lattice", worst, 1e-12)]

    worst = 0.0
    z = complex(1.2, 0.7)
    for nu in (0.25, 0.6, 0.9):
        order = FractionalOrder(nu)
        base = symbol_series(order, z)
        scale = max(1.0, abs(base))
        worst = max(worst,
                    abs(symbol_series(order, z + 2j * math.pi) - base) / scale,
                    abs(symbol_series(order, z.conjugate()) - base.conjugate()) / scale)
    checks.append(Check("symbol periodicity/conjugacy", worst, 1e-13))

    worst = 0.0
    z0 = 0.1 * complex(math.cos(0.4), math.sin(0.4))
    for nu in (0.5, 0.75):
        order = FractionalOrder(nu)
        residuals = [abs(symbol_series(order, z0 / 2 ** k)
                         - symbol_asym_origin(order, z0 / 2 ** k))
                     for k in range(3)]
        target = 2.0 ** (2.0 - nu)
        for r0, r1 in zip(residuals, residuals[1:]):
            worst = max(worst, abs(r0 / r1 / target - 1.0))
    checks.append(Check("origin expansion halving ratio dev", worst, 0.15))
    return checks
