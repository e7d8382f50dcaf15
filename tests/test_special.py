import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg import special
from fracdg.special import (
    FractionalOrder,
    QuadratureError,
    mittag_leffler_neg_array,
    mittag_leffler_neg_with_error,
    symbol_asym_origin,
    symbol_cut,
    symbol_integral,
    symbol_series,
    zeta_neg,
)

# 17-digit reference values (independent multiprecision computation).
GAMMA_1P5 = 0.88622692545275801
ZETA_NEG = {0.5: -0.20788622497735457, 0.75: -0.13364277443658456, 1.0: -1.0 / 12.0}
ML_HALF_AT_1 = 0.427583576155807
ML_3Q_AT_1 = 0.39310830281575406
PSI_AT_1_HALF = 1.3712502295067932
PSI_OFF_3Q = 1.1652241163992195 - 0.30275964680240056j
CUT_VALUES = {
    # (nu, s) -> psi_+(s)
    (0.5, 1.0): 0.16299651133480553 - 0.6321205588285577j,
    (0.5, 1e-3): 0.00023448597502745053 - 31.606970482528364j,
    (0.5, 1e-5): 2.345736000898508e-06 - 316.2261848832783j,
    (0.1, 1.0): 0.9218564084647306 - 0.19533599517181305j,
    (0.9, 0.1): -7.179025366378876 - 2.3358695265018077j,
}


def test_zeta_reference_values():
    for nu, want in ZETA_NEG.items():
        assert zeta_neg(nu) == pytest.approx(want, rel=1e-13)


def test_order_validation():
    for bad in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            FractionalOrder(bad)
    order = FractionalOrder(0.5)
    assert order.gamma_1p == pytest.approx(GAMMA_1P5, rel=1e-15)
    assert order.sin_pi == pytest.approx(1.0, abs=1e-15)


def test_mittag_leffler_reference_values():
    assert mittag_leffler_neg_with_error(FractionalOrder(0.5), 1.0)[0] == pytest.approx(
        ML_HALF_AT_1, rel=1e-13)
    assert mittag_leffler_neg_with_error(FractionalOrder(0.75), 1.0)[0] == pytest.approx(
        ML_3Q_AT_1, rel=1e-13)
    assert mittag_leffler_neg_with_error(FractionalOrder(0.5), 0.0)[0] == 1.0


def test_mittag_leffler_classical_is_exp():
    order = FractionalOrder(1.0)
    for s in (0.01, 0.1, 1.0, 10.0, 100.0):
        assert abs(mittag_leffler_neg_with_error(order, s)[0] - math.exp(-s)) <= 1e-13


def test_mittag_leffler_error_report():
    order = FractionalOrder(0.6)
    for s in (0.5, 5.0, 500.0):
        value, err = mittag_leffler_neg_with_error(order, s)
        assert err < 1e-12
        assert value == mittag_leffler_neg_with_error(order, s)[0]


@given(nu=st.floats(0.05, 1.0), s=st.floats(0.0, 1e4))
@settings(max_examples=200, deadline=None)
def test_mittag_leffler_range_and_decay_bound(nu, s):
    value = mittag_leffler_neg_with_error(FractionalOrder(nu), s)[0]
    assert 0.0 <= value <= 1.0
    if s > 0.0:
        assert value <= min(1.0, 2.0 / s)


@given(nu=st.floats(0.1, 1.0), s1=st.floats(0.0, 50.0), ds=st.floats(0.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_mittag_leffler_monotone(nu, s1, ds):
    order = FractionalOrder(nu)
    assert (mittag_leffler_neg_with_error(order, s1 + ds)[0]
            <= mittag_leffler_neg_with_error(order, s1)[0] + 1e-14)


# s = 0, s = 1 and its two neighbours (the Taylor/asymptotic switch), and
# a log grid across all three branches.
ML_GRID = np.concatenate([
    [0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)],
    np.logspace(-6.0, 8.0, 281),
])


def spy(monkeypatch, name):
    # Replace special.<name> by a wrapper that records the s it was given.
    seen = set()
    real = getattr(special, name)

    def recording(nu, s):
        seen.update(np.atleast_1d(s).tolist())
        return real(nu, s)

    monkeypatch.setattr(special, name, recording)
    return seen


@pytest.mark.parametrize("nu", sorted({*np.round(np.linspace(0.05, 1.0, 20), 2), 0.5, 1.0}))
def test_mittag_leffler_array_matches_scalar(nu, monkeypatch):
    order = FractionalOrder(float(nu))
    quad = spy(monkeypatch, "_ml_spectral_quad")
    fixed = spy(monkeypatch, "_ml_spectral_fixed")
    want = [mittag_leffler_neg_with_error(order, float(s)) for s in ML_GRID]
    values, errors = mittag_leffler_neg_array(order, ML_GRID)
    for s, (v, e), got_v, got_e in zip(ML_GRID, want, values, errors):
        assert abs(got_v - v) <= 1e-13, s
        if s in quad:
            # quadpack per point against the fixed rule: both estimates
            # must cover the gap
            assert got_e <= 1e-13, s
            assert abs(got_v - v) <= got_e + e, s
        else:
            assert abs(got_e - e) <= 1e-12 * e, s
    assert fixed == quad
    if 0.5 < nu < 1.0:
        # the asymptotic series is too coarse just above s = 1 here
        assert quad and fixed


def test_mittag_leffler_array_keeps_shape():
    order = FractionalOrder(0.7)
    value, err = mittag_leffler_neg_array(order, 2.5)
    assert value.shape == err.shape == ()
    assert value == pytest.approx(mittag_leffler_neg_with_error(order, 2.5)[0], abs=1e-13)
    grid = np.array([[0.0, 0.3, 1.0], [4.0, 50.0, 1e6]])
    values, errors = mittag_leffler_neg_array(order, grid)
    assert values.shape == errors.shape == grid.shape
    flat, _ = mittag_leffler_neg_array(order, grid.ravel())
    assert np.array_equal(values.ravel(), flat)
    assert mittag_leffler_neg_array(order, np.empty((0, 3)))[0].shape == (0, 3)


def test_mittag_leffler_array_rejects_negative():
    with pytest.raises(ValueError):
        mittag_leffler_neg_array(FractionalOrder(0.5), [1.0, -1e-3])


def ml_talbot(mpmath, nu, s):
    # E_nu(-s) at 40 digits as the inverse Laplace transform of
    # z^{nu-1}/(z^nu + 1) at t = s^{1/nu}, on Talbot's contour: a route
    # independent of the spectral integral.  The Taylor series would need
    # about s^{1/nu}/ln 10 extra digits, several hundred at nu = 0.02.
    with mpmath.workdps(40):
        nu, s = mpmath.mpf(nu), mpmath.mpf(s)
        return float(mpmath.invertlaplace(lambda z: z ** (nu - 1) / (z ** nu + 1),
                                          s ** (1 / nu), method="talbot"))


@pytest.mark.parametrize("nu", [0.02, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])
def test_mittag_leffler_fixed_rule_matches_multiprecision(nu, monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    order = FractionalOrder(nu)
    fixed = spy(monkeypatch, "_ml_spectral_fixed")
    mittag_leffler_neg_array(order, np.geomspace(1.0 + 1e-6, 1e3, 400))
    points = np.array(sorted(fixed))
    sample = points[np.linspace(0, points.size - 1, 6).round().astype(int)]
    values, errors = mittag_leffler_neg_array(order, sample)
    for s, v, e in zip(sample, values, errors):
        assert abs(v - ml_talbot(mpmath, nu, s)) <= max(e, 4 * special._EPS), s
        if nu <= 0.99:
            # the Lorentzian peak at nu = 0.999 is too sharp for the
            # fixed splits; the estimate says so
            assert e <= 1e-13, s


@pytest.mark.parametrize("nu", [0.3, 0.75])
def test_mittag_leffler_array_point_does_not_depend_on_batch(nu, monkeypatch):
    order = FractionalOrder(nu)
    rng = np.random.default_rng(11)
    s = np.concatenate([rng.uniform(1.0, 8.0, 9000), 10.0 ** rng.uniform(-3.0, 4.0, 1000)])
    rng.shuffle(s)
    fixed = spy(monkeypatch, "_ml_spectral_fixed")
    values, errors = mittag_leffler_neg_array(order, s)
    assert len(fixed) > 2000   # many 64-point blocks of the fixed rule
    for i in rng.choice(s.size, 60, replace=False):
        value, error = mittag_leffler_neg_array(order, s[i:i + 1])
        assert value[0] == values[i] and error[0] == errors[i], s[i]


def test_symbol_series_reference_values():
    assert symbol_series(FractionalOrder(0.5), 1.0) == pytest.approx(
        PSI_AT_1_HALF, rel=1e-13)
    got = symbol_series(FractionalOrder(0.75), 1.0 + 1.0j)
    assert abs(got - PSI_OFF_3Q) <= 1e-13 * abs(PSI_OFF_3Q)


def test_symbol_series_needs_positive_real_part():
    with pytest.raises(ValueError):
        symbol_series(FractionalOrder(0.5), complex(-0.1, 0.3))


def test_symbol_series_vs_integral():
    # two representations with disjoint derivations
    worst = 0.0
    for nu in (0.25, 0.75):
        order = FractionalOrder(nu)
        for re in (0.3, 1.0, 3.0, 8.0, 20.0):
            for im in (-2.5, 1.5):
                z = complex(re, im)
                a = symbol_series(order, z)
                b = symbol_integral(order, z)
                worst = max(worst, abs(a - b) / abs(a))
    assert worst <= 1e-10


def test_symbol_periodicity_and_conjugacy():
    for nu in (0.25, 0.6, 0.9):
        order = FractionalOrder(nu)
        z = complex(1.2, 0.7)
        base = symbol_series(order, z)
        scale = max(1.0, abs(base))
        assert abs(symbol_series(order, z + 2j * math.pi) - base) <= 1e-13 * scale
        assert abs(symbol_series(order, z.conjugate()) - base.conjugate()) <= 1e-13 * scale


def test_symbol_origin_expansion_order():
    # residual must shrink by 2^{2-nu} per halving of |z|
    for nu in (0.5, 0.75):
        order = FractionalOrder(nu)
        z0 = 0.1 * cmath.exp(0.4j)
        res = [abs(symbol_series(order, z0 / 2 ** k) - symbol_asym_origin(order, z0 / 2 ** k))
               for k in range(3)]
        target = 2.0 ** (2.0 - nu)
        for r0, r1 in zip(res, res[1:]):
            assert r0 / r1 == pytest.approx(target, rel=0.15)


def symbol_asym_left(order, z):
    # leading behaviour for Re z -> -inf inside the strip 0 < Im z < pi:
    # psi(z) ~ (sin(pi nu)/(pi nu)) (i pi - z)^{-nu}
    z = complex(z)
    nu = order.nu
    return order.sin_pi / (math.pi * nu) * (1j * math.pi - z) ** -nu


def test_symbol_left_asymptote():
    # deep in the left strip the symbol approaches its limit form; the
    # relative remainder dies off quadratically in |Re z| (checked over
    # the range where the integral route is still trustworthy)
    for nu in (0.3, 0.8):
        order = FractionalOrder(nu)
        rel = []
        for re in (-15.0, -30.0, -60.0):
            z = complex(re, 0.5 * math.pi)
            a = symbol_integral(order, z)
            b = symbol_asym_left(order, z)
            rel.append(abs(a - b) / abs(b))
        assert rel[2] <= 1e-3
        for coarse, fine in zip(rel, rel[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.2)


def test_cut_reference_values():
    for (nu, s), want in CUT_VALUES.items():
        got = symbol_cut(FractionalOrder(nu), s, "+")
        assert abs(got - want) <= 1e-10 * abs(want)


def test_cut_sides_are_conjugate():
    order = FractionalOrder(0.35)
    for s in (1e-7, 1e-3, 0.5, 7.0):
        plus = symbol_cut(order, s, "+")
        minus = symbol_cut(order, s, "-")
        assert minus == plus.conjugate()


def test_cut_imaginary_part_closed_form():
    for nu in (0.2, 0.5, 0.8):
        order = FractionalOrder(nu)
        for s in (0.01, 0.3, 2.0, 20.0):
            want = -(-math.expm1(-s)) * s ** (-nu - 1.0) * order.sin_pi
            got = symbol_cut(order, s, "+").imag
            assert got == pytest.approx(want, rel=1e-10)


def test_cut_branch_crossover_is_seamless():
    # expansion below 1e-5, quadrature above; both live on [1e-6, 1e-4]
    for nu in (0.25, 0.5, 0.9):
        order = FractionalOrder(nu)
        lo = symbol_cut(order, 1e-5 * (1.0 - 1e-9), "+")
        hi = symbol_cut(order, 1e-5 * (1.0 + 1e-9), "+")
        assert abs(lo - hi) <= 1e-8 * abs(hi)


def test_cut_rejects_bad_arguments():
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError):
        symbol_cut(order, -1.0, "+")
    with pytest.raises(ValueError):
        symbol_cut(order, 1.0, "x")
    with pytest.raises(ValueError):
        symbol_cut(FractionalOrder(1.0), 1.0, "+")


@given(nu=st.floats(0.05, 0.95), s=st.floats(1e-6, 50.0))
@settings(max_examples=60, deadline=None)
def test_cut_total_on_positive_axis(nu, s):
    got = symbol_cut(FractionalOrder(nu), s, "+")
    assert math.isfinite(got.real) and math.isfinite(got.imag)
    assert got.imag < 0.0


def test_quadrature_error_type():
    err = QuadratureError("stalled", 1e-3)
    assert isinstance(err, RuntimeError)
    assert err.achieved == 1e-3

