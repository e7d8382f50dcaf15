"""Exact solutions of the 1D model problem on (-1, 1).

With diffusivity kappa = 4/pi^2 and homogeneous Dirichlet conditions the
operator -(kappa u_x)_x has eigenvalues m^2 and orthonormal
eigenfunctions sin(m pi (x+1)/2), so each Fourier mode decays like
E_nu(-m^2 t^nu) and the field is a sine series.  ``exact_field`` builds
its sine table once for every time from t_min on and returns an
evaluator t -> values, as ``laplace.inverter`` does.  For the constant
initial value pi/4 the Laplace transform of the field also has the
closed form (pi/4)(1/z)(1 - cosh(w x)/cosh(w)) with w = (pi/2) z^{nu/2},
used by the convergence experiments as a mode-sum-free reference.
"""

import math

import numpy as np

from .special import FractionalOrder, mittag_leffler_neg_array

__all__ = [
    "quarter_pi_coefficients",
    "exact_field",
    "constant_data_transform",
    "KAPPA",
]

KAPPA = 4.0 / math.pi ** 2


def quarter_pi_coefficients(count: int) -> np.ndarray:
    """Sine coefficients of the constant pi/4: 1/m for odd m, 0 for even m."""
    m = np.arange(1, count + 1)
    return np.where(m % 2 == 1, 1.0 / m, 0.0)


def _truncation_cutoff(lam, coefficients, t, nu, tol):
    # Smallest M with sum_{m>M} u0m^2 min(1, 2/(lam_m t^nu))^2 < tol^2.
    # The decay-aware factor keeps M modest for t bounded away from 0;
    # the stored expansion itself is treated as the exact data.
    w = coefficients ** 2 * np.minimum(1.0, 2.0 / (lam * t ** nu)) ** 2
    tail = np.cumsum(w[::-1])[::-1]  # tail[m] = sum_{k>=m} w_k (0-based)
    small = np.nonzero(tail < tol * tol)[0]
    return int(small[0]) if len(small) else len(w)


def exact_field(order: FractionalOrder, coefficients, x_points, t_min: float,
                tol: float = 1e-8):
    """u(x, t) by the truncated eigenfunction expansion; returns t -> values.

    coefficients[m-1] is the sine coefficient of mode m, eigenvalue m^2.
    The given coefficients are taken as the exact data: tol bounds, at
    each time, the L2 norm of the part of that expansion the truncation
    drops, and says nothing about modes beyond len(coefficients).  The
    cutoff only shrinks as t grows, so one sine table over the modes kept
    at t_min serves every later time; modes with a zero coefficient are
    skipped.  The evaluator takes a time or an array of times, all
    >= t_min, and returns shape ``t.shape + (len(x_points),)``.  t_min
    must be positive since the series of discontinuous data converges
    too slowly at t = 0.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.ndim != 1 or len(coefficients) < 1:
        raise ValueError("coefficients must be a nonempty 1-d array")
    if not t_min > 0.0:
        raise ValueError(f"t_min must be > 0, got {t_min}")
    nu = order.nu
    lam = np.arange(1, len(coefficients) + 1, dtype=float) ** 2
    top = max(1, _truncation_cutoff(lam, coefficients, t_min, nu, tol))
    live = np.flatnonzero(coefficients[:top])
    # One sine table phi_m(x) over the modes kept at t_min, built in place.
    x = np.asarray(x_points, dtype=float)
    table = np.outer(live + 1.0, x + 1.0)
    table *= 0.5 * math.pi
    np.sin(table, out=table)

    def evaluate(t):
        times = np.asarray(t, dtype=float)
        if not np.all(times >= t_min):
            raise ValueError(f"t must be >= t_min={t_min}, got {np.min(times)}")
        flat_t = [float(ti) for ti in times.ravel()]
        cuts = np.array([max(1, _truncation_cutoff(lam, coefficients, ti, nu, tol))
                         for ti in flat_t])
        kept = live[None, :] < cuts[:, None]
        s = lam[live] * np.array([ti ** nu for ti in flat_t])[:, None]
        weights = np.zeros(s.shape)
        weights[kept] = mittag_leffler_neg_array(order, s[kept])[0]
        weights *= coefficients[live]
        return (weights @ table).reshape(times.shape + x.shape)

    return evaluate


def constant_data_transform(order: FractionalOrder, x, z) -> np.ndarray:
    """Laplace transform of the field for constant initial data pi/4.

    u_hat(x, z) = (pi/4)(1/z)(1 - cosh(w x)/cosh(w)), w = (pi/2) z^{nu/2},
    evaluated stably via e^{w(|x|-1)}(1+e^{-2w|x|})/(1+e^{-2w}), valid for
    z off the cut (-inf, 0] where Re w > 0.  Vectorized over x.
    """
    x = np.abs(np.asarray(x, dtype=float))
    if np.any(x > 1.0 + 1e-14):
        raise ValueError("x must lie in [-1, 1]")
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise ValueError(f"z={z} lies on the branch cut")
    w = 0.5 * math.pi * z ** (0.5 * order.nu)
    if w.real <= 0.0:
        raise ValueError(f"z={z} lies on or across the branch cut")
    ratio = np.exp(w * (x - 1.0)) * (1.0 + np.exp(-2.0 * w * x)) / (1.0 + np.exp(-2.0 * w))
    return (0.25 * math.pi / z) * (1.0 - ratio)
