"""Reference routes that only the tests use.

Each is an independent derivation of a quantity the package computes
another way; the tests check the package against them.
"""

import math

from fracdg.special import FractionalOrder, QuadratureError, _one_m_exp, _quad


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

