"""Special functions for the convolution-quadrature scheme.

Everything here is double precision and deliberately boring: zeta at small
negative arguments through the functional equation, the one-parameter
Mittag-Leffler function E_nu(-s) on the negative real axis (over arrays
for every workflow, and per point as the reference the array evaluator
is checked against: the same series branches, with quadpack where the
array evaluator takes a fixed tanh-sinh rule),
and the generating symbol of the piecewise-constant DG weights

    psi(z) = (e^z - 1) Li_{-nu}(e^{-z}) / Gamma(1+nu),

evaluated four independent ways (Dirichlet series, real-axis integral
representation, one-sided limits on the branch cut, truncated expansions).
The redundant routes exist so that each can certify the others.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np


def _quad(f, a, b, **kw):
    # quadpack run with its warnings silenced; callers inspect the returned
    # error estimate instead.  scipy.integrate is imported on first use:
    # converge and phi make no quadpack call, and without it they load
    # neither scipy.integrate nor the scipy.special and scipy.optimize it
    # pulls in.
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, a, b, **kw)

__all__ = [
    "FractionalOrder",
    "QuadratureError",
    "zeta_neg",
    "mittag_leffler_neg_with_error",
    "mittag_leffler_neg_array",
    "symbol_series",
    "symbol_integral",
    "symbol_cut",
    "symbol_asym_origin",
]

_EPS = 2.220446049250313e-16


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    The achieved error estimate is stored in ``achieved``.
    """

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved estimate {achieved:.3e})")
        self.achieved = achieved


# Bernoulli numbers B_2, B_4, ..., B_14 for the Euler-Maclaurin tail.
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def _zeta_1p(nu: float) -> float:
    # zeta(1 + nu) by Euler-Maclaurin with cutoff 24; for nu in (0, 1] the
    # first omitted correction is below 1e-19, far inside double precision.
    # Takes the offset nu rather than s = 1 + nu so the pole term 1/(s - 1)
    # keeps full relative accuracy as nu -> 0.
    n = 24
    s = 1.0 + nu
    acc = sum(k ** -s for k in range(1, n))
    acc += math.exp(-nu * math.log(n)) / nu + 0.5 * n ** -s
    rising = s          # s (s+1) ... (s+2k-2)
    npow = float(n) ** (-s - 1.0)
    fact = 2.0          # (2k)!
    for k, b in enumerate(_B2K, start=1):
        acc += b / fact * rising * npow
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        npow /= n * n
        fact *= (2 * k + 1) * (2 * k + 2)
    return acc


def zeta_neg(nu: float) -> float:
    """zeta(-nu) for 0 < nu <= 1 via the functional equation.

    zeta(-nu) = 2^{-nu} pi^{-nu-1} sin(-pi nu/2) Gamma(1+nu) zeta(1+nu),
    which only ever needs zeta on (1, 2] where Euler-Maclaurin converges.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu={nu} outside (0, 1]")
    return (
        2.0 ** -nu
        * math.pi ** (-nu - 1.0)
        * math.sin(-0.5 * math.pi * nu)
        * math.gamma(1.0 + nu)
        * _zeta_1p(nu)
    )


@dataclass(frozen=True)
class FractionalOrder:
    """Time-fractional order nu in (0, 1] with its derived constants.

    nu = 1 is the classical limit: gamma_1p = 1 and zeta_neg = -1/12.
    """

    nu: float
    gamma_1p: float = field(init=False)
    zeta_neg: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu={self.nu} outside (0, 1]")
        object.__setattr__(self, "gamma_1p", math.gamma(1.0 + self.nu))
        object.__setattr__(self, "zeta_neg", zeta_neg(self.nu))

    @property
    def sin_pi(self) -> float:
        return math.sin(math.pi * self.nu)


# ---------------------------------------------------------------------------
# Mittag-Leffler E_nu(-s), s >= 0
# ---------------------------------------------------------------------------

def _ml_taylor(nu: float, s: float):
    # E_nu(-s) = sum_k (-s)^k / Gamma(1+nu k); safe for s <~ 1 where the
    # alternating terms never grow much beyond 1.
    acc = 1.0
    mx = 1.0
    logs = math.log(s)
    prev = math.inf
    k = 1
    while k < 400:
        t = math.exp(k * logs - math.lgamma(1.0 + nu * k))
        if k % 2:
            t = -t
        acc += t
        at = abs(t)
        mx = max(mx, at)
        if at < 1e-17 * abs(acc) and at < prev:
            break
        prev = at
        k += 1
    err = _EPS * (mx + abs(acc)) + abs(t)
    return acc, err


def _ml_asym(nu: float, s: float):
    # Divergent large-s expansion sum_{k>=1} (-1)^{k+1} s^{-k} / Gamma(1-nu k),
    # with 1/Gamma(1-nu k) = Gamma(nu k) sin(pi nu k) / pi.  Stop at the
    # smallest term; the achieved error is about that term's size.
    logs = math.log(s)
    acc = 0.0
    prev = math.inf
    err = math.inf
    for k in range(1, 400):
        mag = math.exp(math.lgamma(nu * k) - k * logs) / math.pi
        t = mag * math.sin(math.pi * nu * k)
        if k % 2 == 0:
            t = -t
        amag = abs(mag)
        if amag > prev:
            err = prev
            break
        acc += t
        prev = amag
        if amag < 1e-18:
            err = amag
            break
    return acc, err


def _ml_spectral_quad(nu: float, s: float):
    # Completely monotone spectral form, obtained by collapsing the Bromwich
    # contour of z^{nu-1}/(z^nu + s) onto the negative axis and substituting
    # u = r^nu:
    #   E_nu(-s) = (s sin(pi nu)/(nu pi)) *
    #              int_0^inf exp(-u^{1/nu}) / ((u + s c)^2 + (s d)^2) du,
    # c = cos(pi nu), d = sin(pi nu).  The integrand is smooth and positive.
    c = s * math.cos(math.pi * nu)
    d = s * math.sin(math.pi * nu)
    pref = d / (nu * math.pi)
    inv_nu = 1.0 / nu
    dd = d * d

    def f(u):
        return math.exp(-(u ** inv_nu)) / ((u + c) ** 2 + dd)

    umax = 42.0 ** nu
    pts = []
    if c < 0.0:  # nu > 1/2: Lorentzian-type peak at u = -c
        for p in (-0.5 * c, -c, -c + 2.0 * abs(d)):
            if 0.0 < p < umax:
                pts.append(p)
    val, aerr = _quad(f, 0.0, umax, points=pts or None, limit=300,
                     epsabs=1e-15, epsrel=1e-13)
    return pref * val, pref * aerr + 1e-18


def mittag_leffler_neg_with_error(order: FractionalOrder, s: float):
    """E_nu(-s) together with a conservative absolute-error estimate."""
    if s < 0.0:
        raise ValueError(f"s={s} must be nonnegative")
    if s == 0.0:
        return 1.0, 0.0
    nu = order.nu
    if nu == 1.0:
        return math.exp(-s), _EPS * math.exp(-s)
    if s <= 1.0:
        return _ml_taylor(nu, s)
    val, err = _ml_asym(nu, s)
    if err <= 1e-13:
        return val, err
    return _ml_spectral_quad(nu, s)


def _ml_taylor_array(nu, s):
    # _ml_taylor on every point at once.  The arrays hold only the points
    # still summing; a point leaves at the term where the scalar loop breaks.
    val, err = np.empty(s.size), np.empty(s.size)
    idx = np.arange(s.size)
    logs = np.log(s)
    acc = np.ones(s.size)
    mx = np.ones(s.size)
    at = np.full(s.size, math.inf)
    for k in range(1, 400):
        if not idx.size:
            break
        t = np.exp(k * logs - math.lgamma(1.0 + nu * k))
        if k % 2:
            t = -t
        acc += t
        prev, at = at, np.abs(t)
        np.maximum(mx, at, out=mx)
        done = (at < 1e-17 * np.abs(acc)) & (at < prev)
        if done.any():
            out = idx[done]
            val[out] = acc[done]
            err[out] = _EPS * (mx[done] + np.abs(acc[done])) + at[done]
            keep = ~done
            idx, logs, acc, mx, at = idx[keep], logs[keep], acc[keep], mx[keep], at[keep]
    val[idx] = acc
    err[idx] = _EPS * (mx + np.abs(acc)) + at
    return val, err


def _ml_asym_array(nu, s):
    # _ml_asym on every point at once, with the same smallest-term stop.
    val, err = np.empty(s.size), np.empty(s.size)
    idx = np.arange(s.size)
    logs = np.log(s)
    acc = np.zeros(s.size)
    prev = np.full(s.size, math.inf)
    for k in range(1, 400):
        if not idx.size:
            break
        mag = np.exp(math.lgamma(nu * k) - k * logs) / math.pi
        t = mag * math.sin(math.pi * nu * k)
        if k % 2 == 0:
            t = -t
        grown = mag > prev
        if grown.any():
            out = idx[grown]
            val[out] = acc[grown]
            err[out] = prev[grown]
            keep = ~grown
            idx, logs, acc, mag, t = idx[keep], logs[keep], acc[keep], mag[keep], t[keep]
        acc += t
        prev = mag
        done = mag < 1e-18
        if done.any():
            out = idx[done]
            val[out] = acc[done]
            err[out] = mag[done]
            keep = ~done
            idx, logs, acc, prev = idx[keep], logs[keep], acc[keep], prev[keep]
    val[idx] = acc
    err[idx] = math.inf
    return val, err


def _tanh_sinh_rule(h, tmax):
    # Tanh-sinh rule on [0, 1] (Takahasi & Mori, Publ. RIMS 9 (1974) 721):
    # nodes (1 + tanh(pi/2 sinh t))/2 at t = k h, |t| <= tmax.  The even-k
    # nodes with doubled weights are the rule with step 2h; its weights are
    # stored zero-padded to full length so both sums reduce the same array.
    t = h * np.arange(-int(tmax / h), int(tmax / h) + 1)
    y = 0.5 * math.pi * np.sinh(t)
    nodes = 0.5 * (1.0 + np.tanh(y))
    weights = 0.25 * math.pi * h * np.cosh(t) / np.cosh(y) ** 2
    coarse = np.where(np.arange(t.size) % 2 == 0, 2.0 * weights, 0.0)
    return nodes, weights, coarse


# h = 1/32 and |t| <= 3.2: 205 nodes; the weights at |t| = 3.2 are 5e-18,
# and the nodes there are the endpoints to double precision.
_TS_NODES, _TS_WEIGHTS, _TS_COARSE = _tanh_sinh_rule(1.0 / 32.0, 3.2)

# Points per block of _ml_spectral_fixed: a block's temporaries are
# 64 x 5 x 205 doubles, about 0.5 MB each.
_ML_BLOCK = 64


def _ml_spectral_fixed(nu, s):
    # _ml_spectral_quad's integral on every point at once, by the fixed
    # tanh-sinh rule on each piece of [0, 42^nu] between the split points:
    # u = 1, where exp(-u^{1/nu}) turns sharply for small nu, and for
    # nu > 1/2 quadpack's three points around the Lorentzian peak at
    # u = -c, clipped to the interval (a clipped piece has zero width).
    # The estimate is the gap to the rule with step 2h, plus
    # _ml_spectral_quad's 1e-18 floor.  Sums are elementwise products
    # reduced along the last axis, never BLAS, so a point's value does
    # not depend on the other points in the call.
    c = s * math.cos(math.pi * nu)
    d = s * math.sin(math.pi * nu)
    pref = d / (nu * math.pi)
    inv_nu = 1.0 / nu
    dd = d * d
    umax = 42.0 ** nu   # > 1
    cuts = [np.zeros_like(s), np.ones_like(s), np.full_like(s, umax)]
    if math.cos(math.pi * nu) < 0.0:
        cuts += [-0.5 * c, -c, -c + 2.0 * np.abs(d)]
    cuts = np.sort(np.clip(np.stack(cuts, axis=1), 0.0, umax), axis=1)
    val, err = np.empty(s.size), np.empty(s.size)
    for lo in range(0, s.size, _ML_BLOCK):
        blk = slice(lo, lo + _ML_BLOCK)
        a = cuts[blk, :-1, None]
        width = cuts[blk, 1:] - cuts[blk, :-1]
        u = a + width[..., None] * _TS_NODES
        f = np.exp(-(u ** inv_nu)) / ((u + c[blk, None, None]) ** 2 + dd[blk, None, None])
        fine = (width * (f * _TS_WEIGHTS).sum(axis=-1)).sum(axis=-1)
        coarse = (width * (f * _TS_COARSE).sum(axis=-1)).sum(axis=-1)
        val[blk] = pref[blk] * fine
        err[blk] = pref[blk] * np.abs(fine - coarse) + 1e-18
    return val, err


def mittag_leffler_neg_array(order: FractionalOrder, s):
    """E_nu(-s) and absolute-error estimates over an array of s >= 0.

    Point by point this takes the branches of mittag_leffler_neg_with_error:
    Taylor series for s <= 1, asymptotic series beyond, and the spectral
    integral only where the asymptotic estimate exceeds 1e-13.  Both
    series run over the whole array, one term at a time, and give the
    per-point evaluator's values and estimates.  The spectral integral
    takes a fixed tanh-sinh rule over all its points at once instead of
    quadpack per point; its values agree with quadpack's to a few 1e-16
    and its estimate is the gap to the rule with twice the step.  Each
    point's result is independent of the other points in the call.
    Returns (values, errors), each with the shape of s.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0.0):
        raise ValueError(f"s={s[~(s >= 0.0)].flat[0]} must be nonnegative")
    flat = s.ravel()
    nu = order.nu
    if nu == 1.0:
        val = np.exp(-flat)
        err = _EPS * val
    else:
        val, err = np.empty(flat.size), np.empty(flat.size)
        small = (flat > 0.0) & (flat <= 1.0)
        val[small], err[small] = _ml_taylor_array(nu, flat[small])
        large = np.flatnonzero(flat > 1.0)
        v, e = _ml_asym_array(nu, flat[large])
        spectral = ~(e <= 1e-13)
        v[spectral], e[spectral] = _ml_spectral_fixed(nu, flat[large[spectral]])
        val[large], err[large] = v, e
    zero = flat == 0.0
    val[zero] = 1.0
    err[zero] = 0.0
    return val.reshape(s.shape), err.reshape(s.shape)


# ---------------------------------------------------------------------------
# Generating symbol psi(z)
# ---------------------------------------------------------------------------

def _pow_diff(nu: float, n: int) -> float:
    # (n+1)^nu - n^nu without cancellation for large n.
    if n < 64:
        return (n + 1.0) ** nu - float(n) ** nu
    return float(n) ** nu * math.expm1(nu * math.log1p(1.0 / n))


def symbol_series(order: FractionalOrder, z: complex) -> complex:
    """Dirichlet-series form of the weight symbol, valid for Re z > 0.

    psi(z) = (1/Gamma(1+nu)) (1 + sum_{n>=1} [(n+1)^nu - n^nu] e^{-n z}).
    Terms are added until they fall below 1e-16 of the running sum.
    """
    z = complex(z)
    if z.real <= 0.0:
        raise ValueError("series form needs Re z > 0; use symbol_integral")
    nu = order.nu
    q = cmath.exp(-z)
    acc = 1.0 + 0.0j
    p = q
    n = 1
    while n <= 1_000_000:
        term = _pow_diff(nu, n) * p
        acc += term
        if abs(term) < 1e-16 * abs(acc):
            break
        p *= q
        n += 1
    else:
        raise QuadratureError("symbol series did not converge", abs(term))
    return acc / order.gamma_1p


def _one_m_exp(w: complex) -> complex:
    # 1 - e^{-w} without subtractive cancellation:
    # Re = -expm1(-x) + 2 e^{-x} sin^2(y/2), Im = e^{-x} sin y.
    x, y = w.real, w.imag
    ex = math.exp(-x)
    sh = math.sin(0.5 * y)
    return complex(-math.expm1(-x) + 2.0 * ex * sh * sh, ex * math.sin(y))


def symbol_integral(order: FractionalOrder, z: complex) -> complex:
    """Integral form of the symbol on the strip |Im z| <= pi, z off (-inf, 0].

    psi(z) = (sin(pi nu)/pi) int_0^inf s^{-nu}/(1 - e^{-z-s}) (1-e^{-s})/s ds,
    for 0 < nu < 1.  The s^{-nu} endpoint factor is handled with a weighted
    rule on [0, 1]; the algebraic tail is integrated directly.
    """
    z = complex(z)
    nu = order.nu
    if not 0.0 < nu < 1.0:
        raise ValueError("integral form needs 0 < nu < 1")
    if abs(z.imag) > math.pi + 1e-12:
        raise ValueError(f"Im z = {z.imag} outside [-pi, pi]")
    if z.imag == 0.0 and z.real <= 0.0:
        raise ValueError("z on the branch cut (-inf, 0]; use symbol_cut")

    def smooth(s):
        # (1-e^{-s})/s / (1 - e^{-z-s})
        g = -math.expm1(-s) / s if s > 1e-8 else 1.0 - 0.5 * s
        return g / _one_m_exp(z + s)

    def tail(s):
        return s ** (-nu - 1.0) * (-math.expm1(-s)) / _one_m_exp(z + s)

    re0, e0 = _quad(lambda s: smooth(s).real, 0.0, 1.0,
                   weight="alg", wvar=(-nu, 0.0), limit=400,
                   epsabs=1e-12, epsrel=1e-11)
    im0, e1 = _quad(lambda s: smooth(s).imag, 0.0, 1.0,
                   weight="alg", wvar=(-nu, 0.0), limit=400,
                   epsabs=1e-12, epsrel=1e-11)
    re1, e2 = _quad(lambda s: tail(s).real, 1.0, math.inf, limit=400,
                   epsabs=1e-12, epsrel=1e-11)
    im1, e3 = _quad(lambda s: tail(s).imag, 1.0, math.inf, limit=400,
                   epsabs=1e-12, epsrel=1e-11)
    est = e0 + e1 + e2 + e3
    if est > 1e-8:
        raise QuadratureError("symbol integral did not converge", est)
    pref = order.sin_pi / math.pi
    return pref * complex(re0 + re1, im0 + im1)


def _r_recip(x: float) -> float:
    # 1/(1 - e^{-x}) for x != 0.  For x <= -36 the direct form overflows;
    # there 1/(1 - e^{-x}) = -e^x/(1 - e^x) = -e^x to machine precision.
    if x <= -36.0:
        return -math.exp(x)
    return 1.0 / -math.expm1(-x)


def _r_minus_pole(x: float) -> float:
    # 1/(1 - e^{-x}) - 1/x, analytic through x = 0.
    if abs(x) < 0.5:
        x2 = x * x
        return 0.5 + x * (1.0 / 12.0 + x2 * (-1.0 / 720.0 + x2 * (
            1.0 / 30240.0 - x2 / 1209600.0)))
    return _r_recip(x) - 1.0 / x


def _cut_h(nu: float, t: float) -> float:
    # h(t) = (1 - e^{-t}) t^{-nu-1}
    return -math.expm1(-t) * t ** (-nu - 1.0)


def symbol_cut(order: FractionalOrder, s: float, side: str = "+") -> complex:
    """One-sided limit psi(s e^{+-i pi}) on the branch cut, s > 0, 0 < nu < 1.

    The imaginary part has the closed form -+ (1-e^{-s}) s^{-nu-1} sin(pi nu).
    The shared real part is a principal-value integral,

      Re psi = (sin(pi nu)/pi) PV int_0^inf (1-e^{-t}) t^{-nu-1} / (1-e^{s-t}) dt,

    with the simple pole at t = s removed by symmetric subtraction.
    """
    nu = order.nu
    if not 0.0 < nu < 1.0:
        raise ValueError("cut limits need 0 < nu < 1")
    if s <= 0.0:
        raise ValueError(f"s={s} must be positive")
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")

    # Below the pole window the value is dominated by the principal powers and
    # the expansion is accurate to ~s^2 relative; quadrature estimates degrade
    # there because the pole sits inside a vanishing integration scale.
    if s <= 1e-5:
        return symbol_asym_origin(order, complex(-s, 0.0 if side == "+" else -0.0))

    hs = _cut_h(nu, s)
    dhs = math.exp(-s) * s ** (-nu - 1.0) - (nu + 1.0) * hs / s
    hw = min(1.0, 0.5 * s)

    def f(t):
        return _cut_h(nu, t) * _r_recip(t - s)

    def window(t):
        x = t - s
        if abs(x) < 1e-12 * max(1.0, s):
            return dhs + 0.5 * hs
        return (_cut_h(nu, t) - hs) * _r_recip(x) + hs * _r_minus_pole(x)

    est = 0.0
    acc = 0.0
    a = s - hw
    # [0, a]: weighted rule near the t^{-nu} endpoint, plain beyond 1.
    if a > 0.0:
        b = min(1.0, a)

        def smooth0(t):
            g = -math.expm1(-t) / t if t > 1e-8 else 1.0 - 0.5 * t
            return g * _r_recip(t - s)

        v, e = _quad(smooth0, 0.0, b, weight="alg", wvar=(-nu, 0.0),
                    limit=400, epsabs=1e-12, epsrel=1e-11)
        acc += v
        est += e
        if a > b:
            # 1/(1-e^{s-t}) decays like e^{t-s} to the left of the pole, so
            # everything left of s - 40 is below 1e-17 and quadpack's coarse
            # first rule would miss the boundary layer on a wide interval.
            v, e = _quad(f, max(b, a - 40.0), a, limit=400,
                        epsabs=1e-12, epsrel=1e-11)
            acc += v
            est += e
    v, e = _quad(window, a, s + hw, points=[s], limit=400,
                epsabs=1e-12, epsrel=1e-11)
    acc += v
    est += e
    # Past s + 40 the integrand is t^{-nu-1} to machine precision; integrate
    # the transition region and close the algebraic tail analytically.  The
    # power-law zone right of the pole can span many decades for small s,
    # so it is traversed in log space where the variation is exponential.
    d = s + 40.0
    lo = s + hw
    c = min(max(1.0, 2.0 * s), d)
    if c > lo * (1.0 + 1e-12):
        v, e = _quad(lambda y: (lambda t: f(t) * t)(math.exp(y)),
                    math.log(lo), math.log(c),
                    limit=400, epsabs=1e-12, epsrel=1e-11)
        acc += v
        est += e
        lo = c
    if d > lo * (1.0 + 1e-12):
        v, e = _quad(f, lo, d, limit=400, epsabs=1e-12, epsrel=1e-11)
        acc += v
        est += e
    acc += d ** -nu / nu
    # Relative gate: the integral grows like s^{-nu} as s -> 0, so an
    # absolute tolerance there would be unattainable and meaningless.
    if est > 1e-8 * max(1.0, abs(acc)):
        raise QuadratureError("principal-value quadrature did not converge", est)

    re = order.sin_pi / math.pi * acc
    im = -(-math.expm1(-s)) * s ** (-nu - 1.0) * order.sin_pi
    if side == "-":
        im = -im
    return complex(re, im)


def symbol_asym_origin(order: FractionalOrder, z: complex) -> complex:
    """Three-term expansion of the symbol near z = 0 (principal powers).

    psi(z) = z^{-nu} + z^{1-nu}/2 + zeta(-nu) z / Gamma(1+nu) + O(z^{2-nu}).
    At nu = 1 this is the Laurent series 1/z + 1/2 - z/12 of 1/(1-e^{-z}).
    """
    z = complex(z)
    nu = order.nu
    return z ** -nu + 0.5 * z ** (1.0 - nu) + order.zeta_neg / order.gamma_1p * z
