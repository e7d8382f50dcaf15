"""Reference routes that only the tests use.

Each is an independent derivation or implementation of a quantity the
package computes another way; the tests check the package against them.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from fracdg import special
from fracdg.fem1d import SymTridiagonal
from fracdg.special import _EPS, FractionalOrder, QuadratureError, _one_m_exp, _quad


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


def mittag_leffler_neg(order: FractionalOrder, s: float):
    """E_nu(-s) and its error estimate by scalar loops over the series.

    The branches of fracdg.special.mittag_leffler_neg_with_error, one term
    at a time in plain floats: the reference for fracdg.mlseries' array
    loops.  Where either series' estimate exceeds 1e-13 it looks up
    special._ml_spectral_quad at call time, so a test can spy on it.
    """
    if s < 0.0:
        raise ValueError(f"s={s} must be nonnegative")
    if s == 0.0:
        return 1.0, 0.0
    nu = order.nu
    if nu == 1.0:
        return math.exp(-s), _EPS * math.exp(-s)
    val, err = _ml_taylor(nu, s) if s <= 1.0 else _ml_asym(nu, s)
    if err <= 1e-13:
        return val, err
    return special._ml_spectral_quad(nu, s)


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


class FullDomain:
    """The P1 system of the whole of (-1, 1) on a mirrored mesh of [0, 1].

    The nodes are -x_K, ..., -x_1, 0, x_1, ..., x_K, with both ends
    Dirichlet and no use of a field's symmetry: the 2K - 1 interior
    nodes' mass and (kappa-weighted) stiffness, each element's 4-point
    Gauss rule, and the L2 norm over (-1, 1).
    """

    def __init__(self, mesh, kappa):
        x = np.concatenate([-mesh.nodes[:0:-1], mesh.nodes])
        h = np.diff(x)
        self.nodes = x
        self.mass = SymTridiagonal((h[:-1] + h[1:]) / 3.0, h[1:-1] / 6.0)
        self.stiff = SymTridiagonal(kappa * (1.0 / h[:-1] + 1.0 / h[1:]),
                                    -kappa / h[1:-1])
        ref, wref = leggauss(4)
        self.local = 0.5 * (ref + 1.0)
        self.points = x[:-1, None] + h[:, None] * self.local
        self.weights = 0.5 * h[:, None] * wref

    @staticmethod
    def mirror(coeffs):
        """The interior values of an even field from its values at x_0..x_{K-1}."""
        return np.concatenate([coeffs[..., :0:-1], coeffs], axis=-1)

    def project_constant(self, c):
        """Interior coefficients of the L2 projection of the constant c."""
        h = np.diff(self.nodes)
        return self.mass.solver()(c * 0.5 * (h[:-1] + h[1:]))  # hat integrals

    def squares(self, coeffs, ref_values):
        """weights * (P1 field - reference)^2 at every Gauss point.

        Stacked levels lead both arguments; ref_values is in the layout of
        ``points``.
        """
        pad = np.zeros(coeffs.shape[:-1] + (1,))
        vals = np.concatenate([pad, coeffs, pad], axis=-1)
        sq = vals[..., :-1, None] * (1.0 - self.local)
        sq += vals[..., 1:, None] * self.local
        sq -= ref_values
        sq *= sq
        sq *= self.weights
        return sq

    def error(self, coeffs, ref_values):
        """L2 norm over (-1, 1) of (P1 field - reference), one per level."""
        return np.sqrt(np.sum(self.squares(coeffs, ref_values), axis=(-2, -1)))
