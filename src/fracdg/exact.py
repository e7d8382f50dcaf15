"""Exact solutions of the 1D model problem on (-1, 1).

With diffusivity kappa = 4/pi^2 and homogeneous Dirichlet conditions the
operator -(kappa u_x)_x has eigenvalues m^2 and orthonormal
eigenfunctions sin(m pi (x+1)/2), so each Fourier mode decays like
E_nu(-m^2 t^nu) and the field is a sine series.  ``exact_field`` sums
every mode of the given coefficients: it builds one sine table and
returns an evaluator t -> values for t >= 0, as ``laplace.inverter``
does.  For the constant initial value pi/4 the Laplace transform of the
field also has the closed form (pi/4)(1/z)(1 - cosh(w x)/cosh(w)) with
w = (pi/2) z^{nu/2}, used by the convergence experiments as a
mode-sum-free reference.
"""

import math

import numpy as np

from .special import FractionalOrder, QuadratureError, mittag_leffler_neg_array

__all__ = [
    "quarter_pi_coefficients",
    "exact_field",
    "constant_data_transform",
    "KAPPA",
]

KAPPA = 4.0 / math.pi ** 2

# Times per (time x mode) block of exact_field's evaluator, which bounds
# its temporaries whatever the call holds.
_TIME_BLOCK = 16


def quarter_pi_coefficients(count: int) -> np.ndarray:
    """Sine coefficients of the constant pi/4: 1/m for odd m, 0 for even m."""
    m = np.arange(1, count + 1)
    return np.where(m % 2 == 1, 1.0 / m, 0.0)


def exact_field(order: FractionalOrder, coefficients, x_points):
    """u(x, t) as the partial sum of the given sine modes; returns t -> values.

    coefficients[m-1] is the sine coefficient of mode m, eigenvalue m^2;
    every mode given is summed, and none beyond.  One sine table over the
    modes with a nonzero coefficient serves every time.  The evaluator
    takes a time or an array of times, all >= 0, and returns shape
    ``t.shape + (len(x_points),)``; at t = 0 it is the partial sine sum of
    the data.  It works through the times in blocks of _TIME_BLOCK.  Where
    sum_m |c_m| err_m, the Mittag-Leffler estimates weighted by the
    coefficients, exceeds 1e-9 at some time, it raises QuadratureError.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.ndim != 1 or len(coefficients) < 1:
        raise ValueError("coefficients must be a nonempty 1-d array")
    live = np.flatnonzero(coefficients)
    lam = (live + 1.0) ** 2
    sizes = np.abs(coefficients[live])
    # One sine table phi_m(x) over the live modes, built in place.
    x = np.asarray(x_points, dtype=float)
    table = np.outer(live + 1.0, x + 1.0)
    table *= 0.5 * math.pi
    np.sin(table, out=table)

    def evaluate(t):
        times = np.asarray(t, dtype=float)
        if not np.all(times >= 0.0):
            raise ValueError(f"t={times[~(times >= 0.0)].flat[0]} must be nonnegative")
        flat = times.ravel()
        out = np.empty((flat.size, x.size))
        for lo in range(0, flat.size, _TIME_BLOCK):
            s = np.outer(flat[lo:lo + _TIME_BLOCK] ** order.nu, lam)
            weights, err = mittag_leffler_neg_array(order, s)
            worst = float(np.max(np.einsum("tm,m->t", err, sizes)))
            del err  # not held through the next block's evaluation
            if not worst <= 1e-9:
                raise QuadratureError("mode sum's Mittag-Leffler values did not converge",
                                      worst)
            weights *= coefficients[live]
            out[lo:lo + _TIME_BLOCK] = weights @ table
        return out.reshape(times.shape + x.shape)

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
    ratio = np.exp(w * (x - 1.0)) * (1.0 + np.exp(-2.0 * w * x)) / (1.0 + np.exp(-2.0 * w))
    return (0.25 * math.pi / z) * (1.0 - ratio)
