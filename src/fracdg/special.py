"""Special functions for the convolution-quadrature scheme.

Everything here is double precision and deliberately boring: zeta at small
negative arguments through the functional equation, the one-parameter
Mittag-Leffler function E_nu(-s) on the negative real axis (over arrays,
with the one implementation of its two series in fracdg.mlseries and a
fixed tanh-sinh rule for its spectral integral whose nodes all points of
a call share; per point, the same series with quadpack for the integral,
the fixed rule's reference), and the generating symbol of the
piecewise-constant DG weights

    psi(z) = (e^z - 1) Li_{-nu}(e^{-z}) / Gamma(1+nu),

evaluated three independent ways (Dirichlet series, Jonquiere's lattice
sum on and off the branch cut, truncated expansion at the origin) so that
each can certify the others; the quadpack integral form is a test oracle.
"""

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mlseries import _EPS, asym_array, taylor_array


def _quad(f, a, b, **kw):
    # quadpack run with its warnings silenced; callers inspect the returned
    # error estimate instead.  Only the per-point Mittag-Leffler evaluator
    # and the tests' oracles call it, so no workflow loads scipy.integrate.
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
    "symbol_lattice",
    "symbol_cut",
    "symbol_asym_origin",
]


class QuadratureError(RuntimeError):
    """A quadrature failed to reach the requested tolerance.

    The achieved error estimate is stored in ``achieved``.
    """

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved estimate {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class FractionalOrder:
    """Time-fractional order: normal nu in (0, 1], gamma_1p = Gamma(1 + nu)."""

    nu: float
    gamma_1p: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu={self.nu} outside (0, 1]")
        if self.nu < sys.float_info.min:
            raise ValueError(f"nu={self.nu} is subnormal (below {sys.float_info.min})")
        object.__setattr__(self, "gamma_1p", math.gamma(1.0 + self.nu))

    @property
    def sin_pi(self) -> float:
        return math.sin(math.pi * self.nu)


# Bernoulli numbers B_2, B_4, ..., B_14 for the Euler-Maclaurin tails of
# zeta(1 + nu) and of the lattice sum.
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


def zeta_neg(order: FractionalOrder) -> float:
    """zeta(-nu) for the order's nu via the functional equation.

    zeta(-nu) = 2^{-nu} pi^{-nu-1} sin(-pi nu/2) Gamma(1+nu) zeta(1+nu),
    which only ever needs zeta on (1, 2] where Euler-Maclaurin converges.
    nu = 1 is the classical limit zeta(-1) = -1/12.
    """
    nu = order.nu
    return (
        2.0 ** -nu
        * math.pi ** (-nu - 1.0)
        * math.sin(-0.5 * math.pi * nu)
        * order.gamma_1p
        * _zeta_1p(nu)
    )


# ---------------------------------------------------------------------------
# Mittag-Leffler E_nu(-s), s >= 0
# ---------------------------------------------------------------------------

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
    """E_nu(-s) together with a conservative absolute-error estimate.

    One point of mittag_leffler_neg_array, with its branch rule on both
    sides of s = 1: a series, and the spectral integral where the series'
    estimate exceeds 1e-13.  For s > 1 adaptive quadpack computes that
    integral instead of the fixed tanh-sinh rule.  Raises ValueError
    unless s >= 0.
    """
    if not s >= 0.0:
        raise ValueError(f"s={s} must be nonnegative")
    point = np.array([s], dtype=float)
    if s > 1.0 and order.nu != 1.0:
        val, err = asym_array(order.nu, point)
        if not err[0] <= 1e-13:
            return _ml_spectral_quad(order.nu, float(s))
    else:
        val, err = mittag_leffler_neg_array(order, point)
    return float(val[0]), float(err[0])


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

# Points per block of _ml_spectral_fixed for a rule of at most 4 pieces:
# each temporary of a block is then at most 16 x 4 x 205 doubles, 105 KB
# (52 KB with the 2 pieces of nu <= 1/2), under glibc's 128 KB mmap
# threshold, so it is not mapped and faulted in anew, and a block runs in
# L2.  A rule with more pieces takes proportionally fewer points per block.
_ML_BLOCK = 16


def _ml_spectral_fixed(nu, s):
    # _ml_spectral_quad's integral on every point at once, by the fixed
    # tanh-sinh rule on each piece between split points.  The estimate is
    # the gap to the rule with step 2h, plus _ml_spectral_quad's 1e-18
    # floor, plus round-off c eps |value|, which that gap cannot see: both
    # rules share the nodes and the constants.  c = log2(nodes) counts the
    # pairwise sums of positive terms, and pi nu |cot(pi nu)| the rounding
    # of pi nu in sin(pi nu), whose relative error grows as 1/(1 - nu)
    # (109 eps at nu = 0.999, where it is most of the error at large s).
    # Sums are elementwise products reduced along the last axis,
    # never BLAS, so a point's value does not depend on the other points.
    #
    # nu > 1/2 (c = cos(pi nu) < 0, d = sin(pi nu)): with u = s v,
    #   E_nu(-s) = (d/(nu pi)) int_0^{42^nu} exp(-s^{1/nu} v^{1/nu}) / ((v + c)^2 + d^2) dv,
    # where 42^nu >= 42^nu/s adds only terms below exp(-42 s^{1/nu}).  The
    # peak sits at v = -c with width d for every s, so the splits are
    # per-order constants: quadpack's -c/2, -c, -c + 2d and, for a narrow
    # peak, -c - 4^k d (k >= 0) and -c + 4^k d (k >= 1) up to 4^k d = 1/4
    # (4 pieces up to nu = 0.92, 7 at 0.99, 11 at 0.999; k < 26 reaches 1/4
    # from d = 5.7e-16 at the largest double nu < 1).  The nodes, v^{1/nu}
    # and the rational factor times the fine and coarse weights are made
    # once per call; a point costs one product with s^{1/nu}, one exp and
    # the two sums.  Nodes held as x = v + c spare 1/(x^2 + d^2) the
    # cancellation in v + c.
    #
    # nu <= 1/2 (c >= 0; at nu = 1/2 it is 6e-17) stays in u, where the
    # splits 0, 1 and 42^nu hold for every s (in v the knee of exp(-u^{1/nu})
    # at u = 1 would move to 1/s): the nodes u and exp(-u^{1/nu}) are made
    # once and each point forms the rational factor.
    inv_nu = 1.0 / nu
    top = 42.0 ** nu
    cos, sin = math.cos(math.pi * nu), math.sin(math.pi * nu)
    if cos >= 0.0:
        c, d = s * cos, s * sin
        pref, dd = d / (nu * math.pi), d * d
        cuts = np.array([[0.0, 1.0, top]])
        width = cuts[:, 1:] - cuts[:, :-1]
        nodes = cuts[:, :-1, None] + width[..., None] * _TS_NODES
        factor = np.exp(-(nodes ** inv_nu))
    else:
        rungs = [sin * 4.0 ** k for k in range(26) if sin * 4.0 ** k <= 0.25]
        cuts = np.sort([cos, 0.5 * cos, 0.0, 2.0 * sin, top + cos,
                        *np.negative(rungs), *rungs[1:]])
        width = np.diff(cuts)[:, None]
        nodes = (cuts[:-1, None] + width * _TS_NODES).reshape(1, -1)
        neg_w = -((nodes - cos) ** inv_nu)
        lorentz = 1.0 / (nodes * nodes + sin * sin)
        fine_w = lorentz * (width * _TS_WEIGHTS).reshape(1, -1)
        coarse_w = lorentz * (width * _TS_COARSE).reshape(1, -1)
        a = s ** inv_nu
        pref = np.full_like(s, sin / (nu * math.pi))
    roundoff = (math.log2(nodes.size) + math.pi * nu * abs(cos / sin)) * _EPS
    block = _ML_BLOCK * 4 // max(4, width.size)
    val, err = np.empty(s.size), np.empty(s.size)
    for lo in range(0, s.size, block):
        blk = slice(lo, lo + block)
        if cos >= 0.0:
            f = factor / (np.square(nodes + c[blk, None, None]) + dd[blk, None, None])
            fine = (width * (f * _TS_WEIGHTS).sum(axis=-1)).sum(axis=-1)
            coarse = (width * (f * _TS_COARSE).sum(axis=-1)).sum(axis=-1)
        else:
            f = np.exp(a[blk, None] * neg_w)
            fine = (f * fine_w).sum(axis=-1)
            coarse = (f * coarse_w).sum(axis=-1)
        val[blk] = pref[blk] * fine
        err[blk] = pref[blk] * np.abs(fine - coarse) + 1e-18 + roundoff * np.abs(val[blk])
    return val, err


def mittag_leffler_neg_array(order: FractionalOrder, s):
    """E_nu(-s) and absolute-error estimates over an array of s >= 0.

    Point by point: Taylor series for s <= 1, asymptotic series beyond,
    and on either side the spectral integral where the series' estimate
    exceeds 1e-13.  On the Taylor side that happens only near s = 1 for
    nu below about 0.045, where the series stops at its term cap; the
    rule then runs in its u form, which holds for every s.  Both series
    run over the whole array in fracdg.mlseries, the package's one
    implementation of them, one term at a time until at most a few
    hundred points are still summing, which finish in blocks of terms;
    scalar loops in the tests' oracles are their reference.
    The spectral integral takes a fixed tanh-sinh rule over all its
    points at once, on nodes they share; its values agree with those of
    mittag_leffler_neg_with_error, which runs quadpack per point, to a
    few 1e-16, and its estimate is the gap to the rule with twice the
    step plus a bound on the round-off.  Each point's result is
    independent of the other points in the call.
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
        for side, series in (((flat > 0.0) & (flat <= 1.0), taylor_array),
                             (flat > 1.0, asym_array)):
            points = np.flatnonzero(side)
            v, e = series(nu, flat[points])
            spectral = ~(e <= 1e-13)
            if spectral.any():
                v[spectral], e[spectral] = _ml_spectral_fixed(nu, flat[points[spectral]])
            val[points], err[points] = v, e
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
        raise ValueError("series form needs Re z > 0; use symbol_lattice")
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


# _lattice_half sums k < _CUT_K directly and closes the tail with all seven
# terms of _B2K.  Against a 40-digit mpmath polylog (nu 0.02..0.999, s
# 1e-4..300) symbol_cut is 3.5e-15 relative for nu <= 0.9 and 1.7e-13 at
# 0.999; B_2..B_10 alone leave 1.5e-12 there; K = 6 is 5e-14 off at 0.3.
_CUT_K = 12
_TWO_PI_I = 2j * math.pi


def _lattice_half(nu: float, z: complex) -> complex:
    # sum_{k>=1} (z + 2 pi i k)^{-1-nu}, for Im z > -2 pi.
    p = -1.0 - nu
    acc = sum((z + _TWO_PI_I * k) ** p for k in range(1, _CUT_K))
    # sum_{k>=K} f(k) = int_K^inf f + f(K)/2 - sum_j B_2j/(2j)! f^(2j-1)(K)
    # for f(x) = w(x)^p, w(x) = z + 2 pi i x.
    w = z + _TWO_PI_I * _CUT_K
    wp = w ** p
    acc += w * wp / (_TWO_PI_I * nu) + 0.5 * wp
    ratio = _TWO_PI_I / w
    term = wp * ratio   # (2 pi i)^{2j-1} w^{p-2j+1}
    rising = -p         # (1+nu)(2+nu) ... (2j-1+nu)
    fact = 2.0          # (2j)!
    for j, b in enumerate(_B2K, start=1):
        acc += b / fact * rising * term
        term *= ratio * ratio
        rising *= (nu + 2 * j) * (nu + 2 * j + 1)
        fact *= (2 * j + 1) * (2 * j + 2)
    return acc


def symbol_lattice(order: FractionalOrder, z: complex) -> complex:
    """Lattice-sum form of the symbol on the strip |Im z| <= pi, z off (-inf, 0].

    Jonquiere's lattice sum for the polylogarithm gives, for 0 < nu < 1,
    psi(z) = (e^z - 1) sum_{k in Z} (z + 2 pi i k)^{-1-nu}; the k < 0 half is
    the k > 0 half at conj(z), conjugated.  A few ulps for Re z <= 3, 6e-13
    at Re z = 8; further right e^z - 1 multiplies a sum that cancels to
    about e^{-z} (7e-8 relative at Re z = 20, no digit right at 40), so
    Re z > 8 raises ValueError and symbol_series is the route.
    """
    z = complex(z)
    nu = order.nu
    if not 0.0 < nu < 1.0:
        raise ValueError("lattice sum needs 0 < nu < 1")
    if not cmath.isfinite(z):
        raise ValueError(f"z={z} must be finite")
    if abs(z.imag) > math.pi + 1e-12:
        raise ValueError(f"Im z = {z.imag} outside [-pi, pi]")
    if z.imag == 0.0 and z.real <= 0.0:
        raise ValueError("z on the branch cut (-inf, 0]; use symbol_cut")
    if z.real > 8.0:
        raise ValueError(f"Re z = {z.real} > 8: the lattice sum cancels there; "
                         "use symbol_series")
    lattice = (z ** (-1.0 - nu) + _lattice_half(nu, z)
               + _lattice_half(nu, z.conjugate()).conjugate())
    return -_one_m_exp(-z) * lattice


def symbol_cut(order: FractionalOrder, s):
    """Limit psi(s e^{i pi}) from above on the branch cut, s > 0, 0 < nu < 1.

    The limit from below is its conjugate.  symbol_lattice's sum at
    z = -s, where only the k = 0 term is complex:
    Im psi = -(1-e^{-s}) s^{-nu-1} sin(pi nu) and
    Re psi = (1-e^{-s}) s^{-nu-1} cos(pi nu) + 2 expm1(-s) Re _lattice_half(-s).
    One route serves every s > 0, finite down to the smallest double.
    An ndarray of s gives an ndarray, within a few 1e-16 of scalar calls.
    """
    nu = order.nu
    if not 0.0 < nu < 1.0:
        raise ValueError("cut limit needs 0 < nu < 1")
    array = isinstance(s, np.ndarray)
    lo, hi = (s.min(), s.max()) if array else (s, s)
    if not (lo > 0.0 and hi < math.inf):
        raise ValueError(f"s={hi if lo > 0.0 else lo} must be finite and positive")

    acc = _lattice_half(nu, -s)
    one_m = -(np.expm1 if array else math.expm1)(-s)
    h = one_m / s * s ** -nu   # (1-e^{-s}) s^{-1-nu} without overflow
    re = h * math.sin(math.pi * (0.5 - nu)) - 2.0 * one_m * acc.real
    return re - 1j * h * order.sin_pi if array else complex(re, -h * order.sin_pi)


def symbol_asym_origin(order: FractionalOrder, z: complex) -> complex:
    """Three-term expansion of the symbol near z = 0 (principal powers).

    psi(z) = z^{-nu} + z^{1-nu}/2 + zeta(-nu) z / Gamma(1+nu) + O(z^{2-nu}).
    At nu = 1 this is the Laurent series 1/z + 1/2 - z/12 of 1/(1-e^{-z}).
    """
    z = complex(z)
    nu = order.nu
    return z ** -nu + 0.5 * z ** (1.0 - nu) + zeta_neg(order) / order.gamma_1p * z
