"""Laplace-transform inversion on a truncated hyperbolic contour.

The Bromwich integral is deformed onto z(x) = g(1 + sin(ix - a)), whose
wings recede into the left half plane at angle pi/2 - a to the negative
real axis, and discretized by the trapezoidal rule.  The contour
parameters are balanced so that the three error sources (wing
truncation, and the discretization errors controlled by the strip of
analyticity above and below the real x-axis) decay at a common
geometric rate; doubling the node count then multiplies the number of
correct digits by roughly two until round-off is reached.

Transforms must be analytic off the cut (-inf, 0] and map conjugate
points to conjugate values, so the trapezoid sum collapses to the upper
half of the contour and the result is exactly real.  Every inversion
goes through ``inverter``, one vectorised trapezoid sum over a chain of
windows (the contour follows Weideman & Trefethen, Math. Comp. 76 (2007)
1341).  A call serves its windows in ascending order, building a window's
table of transform values when it first reaches one of its times and
holding one table at a time, so ascending calls build each window once.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .special import FractionalOrder

__all__ = [
    "ContourSpec",
    "contour_nodes",
    "inverter",
    "reference_mode",
    "window_chain",
]

# Asymptotic half-opening of the hyperbola that maximizes the geometric
# convergence rate for a one-point time window; kept for all window
# ratios up to 50, where the rate degrades gracefully.
_ALPHA = 1.1721

# Largest t_max/t_min a single contour is tuned for.
_MAX_RATIO = 50.0 * (1.0 + 1e-12)

# Largest window ratio window_chain uses, well inside the tuning regime.
_CHAIN_RATIO = 25.0


def _stretch(t_min: float, t_max: float) -> float:
    # K h of the balanced contour for the window (see for_window); raises
    # ValueError for a bad window or a ratio above 50
    if not 0.0 < t_min <= t_max:
        raise ValueError(f"bad time window [{t_min}, {t_max}]")
    ratio = t_max / t_min
    if ratio > _MAX_RATIO:
        raise ValueError(f"window ratio {ratio:.3g} exceeds 50; split into sub-windows")
    a = _ALPHA
    return math.acosh((1.0 + ratio * (math.pi - 2.0 * a) / (4.0 * a - math.pi)) / math.sin(a))


@dataclass(frozen=True)
class ContourSpec:
    """Tuned hyperbolic contour for a time window [t_min, t_max].

    The record is the window and K = ``half``, the nodes on each side of
    x = 0: conjugate symmetry means only the K+1 of the 2K+1 trapezoid
    nodes with x >= 0 are evaluated.  step and scale follow from these.
    """

    t_min: float
    t_max: float
    half: int

    def __post_init__(self):
        _stretch(self.t_min, self.t_max)  # checks the window and its ratio
        try:
            half = operator.index(self.half)
        except TypeError:
            raise ValueError(f"half must be an integer, got {self.half!r}") from None
        if half < 4:
            raise ValueError(f"half must be >= 4, got {half}")

    @property
    def step(self) -> float:
        return _stretch(self.t_min, self.t_max) / self.half

    @property
    def scale(self) -> float:
        return math.pi * (4.0 * _ALPHA - math.pi) / (self.step * self.t_max)

    @classmethod
    def for_window(cls, t_min: float, t_max: float, tol: float = 1e-13) -> "ContourSpec":
        """Balance truncation and discretization errors for the window.

        With a = _ALPHA, the wing truncation error at t_min and the two
        strip contributions (branch point at distance pi/2 - a above, loss
        of integrand decay at distance a below) are equalized:

            cosh(K h) = (1 + L (pi-2a)/(4a-pi)) / sin a,   L = t_max/t_min,
            scale     = pi (4a-pi) / (h t_max),

        giving error ~ exp(-pi(pi-2a) K / acosh(...)).  K is then sized
        for ``tol`` with two spare nodes.
        """
        if not 0.0 < tol < 1e-2:
            raise ValueError(f"tol must lie in (0, 1e-2), got {tol}")
        rate = math.pi * (math.pi - 2.0 * _ALPHA)
        half = math.ceil(_stretch(t_min, t_max) * math.log(1.0 / tol) / rate) + 2
        return cls(t_min, t_max, half)


def contour_nodes(spec: ContourSpec):
    """Nodes z_k = z(x_k) and derivatives z'(x_k), x_k = k*step, k = 0..K.

    z(x) = scale (1 + sin(ix - _ALPHA)).  The k = 0 term carries trapezoid
    weight 1/2 in the symmetrized sum
    u(t) = (step/pi) * [Im T_0 / 2 + sum_{k>=1} Im T_k],
    T_k = exp(z_k t) F(z_k) z'(x_k).
    """
    x = spec.step * np.arange(spec.half + 1)
    z = spec.scale * (1.0 - math.sin(_ALPHA) * np.cosh(x) + 1j * math.cos(_ALPHA) * np.sinh(x))
    dz = spec.scale * (-math.sin(_ALPHA) * np.sinh(x) + 1j * math.cos(_ALPHA) * np.cosh(x))
    return z, dz


def inverter(F, specs):
    """Inverse transform of F over a chain of tuned contours; returns t -> f(t).

    F is called once per node with a complex argument and returns a scalar
    or an array of shape S.  The evaluator takes a time or an array of
    times and returns shape ``t.shape + S``.  Each time uses the first
    window that holds it, to a relative slack of 1e-12 at the edges, and
    the times one window holds cost one product: w = exp(outer(t, z))
    times the window's table T_k = F(z_k) z'(x_k).  The table carries the
    factor step/pi and the k = 0 half weight, and only Im(w @ T) is
    needed, so it is kept as the real stack [Re T; Im T] and w enters as
    [Im w, Re w]: half the work of the complex product.  A window holding
    one time still takes gemm, so a time's bits do not depend on the
    others in the call when gemm's rows do not (OpenBLAS's do for 8 or
    more values per time).  A time outside every window raises ValueError.

    Every window's nodes are computed here, but its table is built only
    when an evaluation first needs one of its times, one node at a time
    straight into the stack, and only the last table built is kept.  A
    call serves its windows in ascending order, so calls whose times
    ascend build each window once; a return to a window builds it again,
    to the same bits.
    """
    if not specs:
        raise ValueError("inverter needs at least one contour window")
    windows = [(spec, *contour_nodes(spec)) for spec in specs]
    held = None  # (window index, stacked table) of the one table kept
    value_shape = None

    def table_of(i):
        nonlocal held, value_shape
        if held is None or held[0] != i:
            held = None  # drop the old table before building the new one
            spec, z, dz = windows[i]
            scale = spec.step / math.pi
            for k in range(z.size):
                term = np.asarray(F(complex(z[k])) * dz[k])
                term *= scale
                if k == 0:
                    term *= 0.5
                    value_shape = term.shape
                    table = np.empty((2, z.size, term.size))
                table[0, k] = term.real.reshape(-1)
                table[1, k] = term.imag.reshape(-1)
            held = i, table.reshape(2 * z.size, -1)
        return held[1]

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        todo = np.ones(flat.shape, dtype=bool)
        parts = []  # (window index, nodes, times it holds)
        for i, (spec, z, _) in enumerate(windows):
            part = (todo & (spec.t_min * (1.0 - 1e-12) <= flat)
                    & (flat <= spec.t_max * (1.0 + 1e-12)))
            if part.any():
                parts.append((i, z, part))
                todo &= ~part
        if todo.any():
            raise ValueError(
                f"t={flat[todo][0]} outside the contour windows "
                f"[{windows[0][0].t_min}, {windows[-1][0].t_max}]"
            )
        if value_shape is None:  # known once a table is built
            table_of(parts[0][0] if parts else 0)
        out = np.empty((flat.size, math.prod(value_shape)))
        for i, z, part in parts:
            weights = np.exp(flat[part, None] * z)
            rows = np.concatenate([weights.imag, weights.real], axis=1)
            if len(rows) == 1:  # numpy would hand it to gemv
                rows = np.repeat(rows, 2, axis=0)
            out[part] = (rows @ table_of(i))[:np.count_nonzero(part)]
        return out.reshape(t.shape + value_shape)

    return evaluate


def reference_mode(order: FractionalOrder, lam: float, u0m: float, t: float,
                   spec: ContourSpec) -> float:
    """Mode amplitude u0m * E_nu(-lam t^nu) by contour inversion.

    The transform of the mode is u0m z^{nu-1}/(z^nu + lam), analytic off
    the cut.  lam = 0 short-circuits to the constant mode.  t must lie
    inside the window the contour was tuned for.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if lam == 0.0:
        return u0m
    nu = order.nu

    def transform(z):
        zn = z ** nu
        return u0m * zn / (z * (zn + lam))

    return float(inverter(transform, [spec])(t))


def window_chain(t_min: float, t_max: float, tol: float = 1e-13):
    """Split [t_min, t_max] into geometric windows with tuned contours.

    Each window's ratio is at most 25, so the per-window contours stay
    well inside the tuning regime.  Returns a list of ContourSpec whose
    windows tile [t_min, t_max] contiguously.
    """
    if not 0.0 < t_min <= t_max:
        raise ValueError(f"bad time window [{t_min}, {t_max}]")
    total = t_max / t_min
    count = max(1, math.ceil(math.log(total) / math.log(_CHAIN_RATIO) - 1e-12))
    edges = [t_min * total ** (i / count) for i in range(count)] + [t_max]
    return [
        ContourSpec.for_window(edges[i], edges[i + 1], tol=tol)
        for i in range(count)
    ]
