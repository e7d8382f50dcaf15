import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg import certify, mlseries, special
from fracdg.special import (
    FractionalOrder,
    QuadratureError,
    mittag_leffler_neg_array,
    mittag_leffler_neg_with_error,
    symbol_asym_origin,
    symbol_cut,
    symbol_lattice,
    symbol_series,
    zeta_neg,
)
from oracles import mittag_leffler_neg, symbol_integral

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
# symbol_cut's exact bits, float.hex of (Re, Im) psi_+(s): every kernel
# value on the contour route depends on them, so a change to the lattice
# sum that moves any bit must show here.
CUT_BITS = {
    (0.02, 1e-300): ("0x1.e751574f48ceap+19", "-0x1.ea8d09ffbf04ap+15"),
    (0.02, 0.37): ("0x1.02cd1ab51d940p+0", "-0x1.b694c712f8b15p-5"),
    (0.02, 300.0): ("0x1.c8802bf6eb9fep-1", "-0x1.879daafd1b3f8p-13"),
    (0.5, 1e-09): ("0x1.01ead90896c97p-32", "-0x1.ee1b1b3953b20p+14"),
    (0.5, 1.0): ("0x1.4dd11d6c5c54cp-3", "-0x1.43a54e4e98864p-1"),
    (0.5, 45.0): ("0x1.843e03f29b867p-4", "-0x1.b2338ac535eacp-9"),
    (0.9, 0.0001): ("-0x1.d9411dabd0b9bp+11", "-0x1.338a114491145p+10"),
    (0.9, 3.7): ("-0x1.9b93773334640p-8", "-0x1.9b196e197dcd9p-6"),
    (0.9, 300.0): ("0x1.51d98a2afe9aep-11", "-0x1.97990ba4b8d7fp-18"),
    (0.999, 1e-300): ("-0x1.7f2ba9fb35076p+995", "-0x1.342a41afa4d4ep+987"),
    (0.999, 0.01): ("-0x1.8c2c35cb01c9ap+6", "-0x1.3e9fecf10ac63p-2"),
    (0.999, 19.4): ("0x1.aa5649c9d4800p-15", "-0x1.18eba415338a1p-17"),
}
# mittag_leffler_neg_array's exact bits, float.hex of (value, estimate):
# a Taylor, an asymptotic and one or two spectral points per order.  At
# (0.6, 5.0) the peak's right split s(2d - c) would lie beyond 42^nu in u;
# in v = u/s, where the rule runs, every split lies inside [0, 42^nu].  A
# change to any branch that moves a bit shows here.
ML_BITS = {
    (0.1, 0.5): ("0x1.4f039d9bd1d37p-1", "0x1.ab19ebf01a8aap-52"),
    (0.1, 1.05): ("0x1.e4b2a7cefec4ap-2", "0x1.2482eea7fb8a8p-50"),
    (0.1, 40.0): ("0x1.76b144ecf88e8p-6", "0x1.aa2ff8e7c9b65p-61"),
    (0.3, 0.7): ("0x1.18ff588feca71p-1", "0x1.91d759f17644bp-52"),
    (0.3, 1.1): ("0x1.ba858c9fc5eb6p-2", "0x1.12635d2a9fca0p-50"),
    (0.3, 60.0): ("0x1.a0a511cc458f2p-7", "0x1.bcbb2a82f2d12p-66"),
    (0.5, 0.25): ("0x1.8a6adcda2ea90p-1", "0x1.c8e8e583c6d6bp-52"),
    (0.5, 1.2): ("0x1.839f500817f68p-2", "0x1.a51f196edf3a0p-51"),
    (0.5, 3.0): ("0x1.6e9827d229d2dp-3", "0x1.ad7114dbb777bp-52"),
    (0.5, 80.0): ("0x1.ce25e3cc3c588p-8", "0x1.a3fb8577e0764p-61"),
    (0.6, 0.9): ("0x1.c633c6b585940p-2", "0x1.74970d7b1bfb0p-52"),
    (0.6, 1.3): ("0x1.5cae6e6717016p-2", "0x1.e171949ed7575p-51"),
    (0.6, 5.0): ("0x1.859a4a7b86c35p-4", "0x1.f786d9aed4536p-53"),
    (0.6, 200.0): ("0x1.28031dda621e4p-9", "0x1.05dfea5657242p-65"),
    (0.75, 0.6): ("0x1.1a1151b546939p-1", "0x1.8f772f83688f2p-52"),
    (0.75, 1.01): ("0x1.8f63d32bc1c50p-2", "0x1.2cb89ff2ba685p-50"),
    (0.75, 300.0): ("0x1.e3abcbece2578p-11", "0x1.57a9601ae98bdp-61"),
    (0.9, 0.4): ("0x1.54f3f565a4b79p-1", "0x1.ac6a27dfed9f1p-52"),
    (0.9, 1.5): ("0x1.f1da92ffb8e56p-3", "0x1.1e43e321b0ebbp-50"),
    (0.9, 2000.0): ("0x1.b93ea37d1c6c3p-15", "0x1.05dfea565723bp-62"),
    (0.999, 0.8): ("0x1.cc20945a1ab17p-2", "0x1.767361413e40cp-52"),
    (0.999, 1.000001): ("0x1.78c664d7a4ee1p-2", "0x1.73ad9c058c96dp-44"),
    (0.999, 7.5): ("0x1.86e4e821ec05cp-11", "0x1.83e853a6adc11p-53"),
    (0.999, 100000.0): ("0x1.57cd671938c7cp-27", "0x1.66f4776d8c0c6p-66"),
}


def test_zeta_reference_values():
    for nu, want in ZETA_NEG.items():
        assert zeta_neg(nu) == pytest.approx(want, rel=1e-13)


def test_order_validation():
    for bad in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            FractionalOrder(bad)
        with pytest.raises(ValueError):
            zeta_neg(bad)
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
    want = [mittag_leffler_neg(order, float(s)) for s in ML_GRID]
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


# Grids over the ranges the benchmark draws its per-branch probes from:
# (nu, s) of the Taylor, the asymptotic and the quadpack branch.
PROBE_GRIDS = {
    "taylor": (np.linspace(0.1, 0.9, 9), np.linspace(0.05, 1.0, 12), 0),
    "asym": (np.linspace(0.1, 0.9, 9), np.geomspace(1e3, 1e5, 9), 0),
    "quad": (np.linspace(0.55, 0.9, 8), np.linspace(1.5, 4.0, 11), 1),
}


@pytest.mark.parametrize("branch", sorted(PROBE_GRIDS))
def test_mittag_leffler_per_point_branches(branch, monkeypatch):
    # the per-point evaluator's quadpack calls, 0 / 0 / 1 by branch, and
    # its series values, which are the array evaluator's to the bit
    calls = []
    quad = special._quad

    def counting(*args, **kw):
        calls.append(args)
        return quad(*args, **kw)

    monkeypatch.setattr(special, "_quad", counting)
    nus, grid, quads = PROBE_GRIDS[branch]
    for nu in nus:
        order = FractionalOrder(float(nu))
        values, errors = mittag_leffler_neg_array(order, grid)
        for s, v, e in zip(grid.tolist(), values, errors):
            calls.clear()
            got = mittag_leffler_neg_with_error(order, s)
            assert len(calls) == quads, (nu, s)
            if not quads:
                assert got == (v, e), (nu, s)
    for bad in (-1e-300, math.nan):
        with pytest.raises(ValueError):
            mittag_leffler_neg_with_error(FractionalOrder(0.5), bad)


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
        assert abs(v - ml_talbot(mpmath, nu, s)) <= e, s
        assert e <= 1e-13, s


@pytest.mark.parametrize("nu", [0.001, 0.01, 0.02, 0.03])
def test_mittag_leffler_taylor_side_falls_back_to_the_fixed_rule(nu, monkeypatch):
    # Near s = 1 at small nu the Taylor series stops at its term cap with
    # estimates from 4e-11 to 1; those points take the fixed rule, as the
    # asymptotic side's do, and so do the per-point evaluator's.
    mpmath = pytest.importorskip("mpmath")
    order = FractionalOrder(nu)
    s = np.array([0.99, 1.0])
    assert np.all(mlseries.taylor_array(nu, s)[1] > 1e-13)
    fixed = spy(monkeypatch, "_ml_spectral_fixed")
    values, errors = mittag_leffler_neg_array(order, s)
    assert fixed == {0.99, 1.0}
    for x, v, e in zip(s, values, errors):
        assert e <= 1e-13, x
        assert abs(v - ml_talbot(mpmath, nu, x)) <= e, x
        assert mittag_leffler_neg_with_error(order, float(x)) == (v, e)


@pytest.mark.parametrize("nu", [0.51, 0.6, 0.75, 0.9, 0.95, 0.99, 0.999])
def test_mittag_leffler_phi_spectral_points_match_multiprecision(nu, monkeypatch):
    # the spectral points phi's scan actually makes, from narrow peaks
    # (nu = 0.999, 11 pieces) to s far from 1 just above nu = 1/2
    mpmath = pytest.importorskip("mpmath")
    fixed = spy(monkeypatch, "_ml_spectral_fixed")
    next(certify.delta_scan([FractionalOrder(nu)]))
    points = np.array(sorted(fixed))
    values, errors = mittag_leffler_neg_array(FractionalOrder(nu), points)
    assert points.size > 100 and errors.max() <= 1e-13
    pick = {*np.linspace(0, points.size - 1, 7).round().astype(int), int(errors.argmax())}
    for i in sorted(pick):
        gap = abs(values[i] - ml_talbot(mpmath, nu, points[i]))
        assert gap <= errors[i], points[i]


@pytest.mark.parametrize("nu", [0.99, 0.999])
def test_mittag_leffler_spectral_estimate_covers_round_off(nu):
    # near nu = 1 the rounding of pi nu in sin(pi nu) moves the value by up
    # to 110 eps relative at large s (nu = 0.999), which the gap between two
    # rules on the same nodes and constants cannot see; the estimate counts it
    mpmath = pytest.importorskip("mpmath")
    s = np.geomspace(1.0 + 1e-6, 40.0, 16)
    values, errors = special._ml_spectral_fixed(nu, s)
    for x, v, e in zip(s, values, errors):
        assert abs(v - ml_talbot(mpmath, nu, x)) <= e, x


@pytest.mark.parametrize("nu", [0.05, 0.1, 0.3, 0.5, 0.75, 0.9])
def test_mittag_leffler_array_point_does_not_depend_on_batch(nu, monkeypatch):
    order = FractionalOrder(nu)
    # the uniform draw spans the spectral branch's s-range, which ends
    # near s = 1.2 at nu = 0.05, 1.4 at nu = 0.1 and beyond s = 8 from
    # nu = 0.75 on
    hi = {0.05: 1.2, 0.1: 1.4}.get(nu, 8.0)
    rng = np.random.default_rng(11)
    s = np.concatenate([rng.uniform(1.0, hi, 9000), 10.0 ** rng.uniform(-3.0, 4.0, 1000)])
    rng.shuffle(s)
    fixed = spy(monkeypatch, "_ml_spectral_fixed")
    values, errors = mittag_leffler_neg_array(order, s)
    assert len(fixed) > 2000   # many blocks of the fixed rule
    for i in rng.choice(s.size, 60, replace=False):
        value, error = mittag_leffler_neg_array(order, s[i:i + 1])
        assert value[0] == values[i] and error[0] == errors[i], s[i]
    # a call that ends on a partly filled block
    head = s[:100]
    assert sum(x in fixed for x in head) % special._ML_BLOCK
    value, error = mittag_leffler_neg_array(order, head)
    assert np.array_equal(value, values[:100]) and np.array_equal(error, errors[:100])
    # batches just below and just above the size at which the series go
    # on in blocks of terms, of Taylor points (s <= 1, whose tails are
    # longest at small nu) and of points beyond s = 1
    tail = mlseries._TAIL_POINTS
    for batch in (rng.uniform(0.0, 1.0, tail + 1), 10.0 ** rng.uniform(0.0, 1.0, tail + 1)):
        for part in (batch[:tail - 1], batch):
            values, errors = mittag_leffler_neg_array(order, part)
            for i, x in enumerate(part):
                value, error = mittag_leffler_neg_array(order, part[i:i + 1])
                assert value[0] == values[i] and error[0] == errors[i], x


@pytest.mark.parametrize("nu", [0.3, 0.9, 0.99, 0.999])
def test_mittag_leffler_fixed_rule_working_memory_is_bounded(nu):
    # the 2-, 4-, 7- and 11-piece rules run block by block, with fewer
    # points per block the more pieces: each block's temporaries stay
    # under 105 KB, far below the 5,000 x (2 to 11) x 205 doubles
    # (16-90 MB) of one pass
    s = np.random.default_rng(3).uniform(1.0, 8.0, 5000)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        special._ml_spectral_fixed(nu, s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.5e6


def test_ml_array_bits_are_pinned():
    for (nu, s), (value, error) in ML_BITS.items():
        got = mittag_leffler_neg_array(FractionalOrder(nu), np.array([s]))
        assert (got[0][0].hex(), got[1][0].hex()) == (value, error), (nu, s)


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


@pytest.mark.parametrize("route", [symbol_integral, symbol_lattice],
                         ids=["integral", "lattice"])
def test_symbol_left_asymptote(route):
    # deep in the left strip the symbol approaches its limit form; the
    # relative remainder dies off quadratically in |Re z| (checked over
    # the range where the integral route is still trustworthy)
    for nu in (0.3, 0.8):
        order = FractionalOrder(nu)
        rel = []
        for re in (-15.0, -30.0, -60.0):
            z = complex(re, 0.5 * math.pi)
            a = route(order, z)
            b = symbol_asym_left(order, z)
            rel.append(abs(a - b) / abs(b))
        assert rel[2] <= 1e-3
        for coarse, fine in zip(rel, rel[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.2)


def psi_mp(mpmath, nu, z):
    # psi(z) at 40 digits from the polylogarithm itself:
    # psi(z) = (e^z - 1) Li_{-nu}(e^{-z}) / Gamma(1+nu); psi_+(s) is taken
    # just above the cut, at z = -s + 1e-35 i.
    with mpmath.workdps(40):
        nu = mpmath.mpf(nu)
        z = mpmath.mpc(z.real, z.imag)
        return complex((mpmath.exp(z) - 1) * mpmath.polylog(-nu, mpmath.exp(-z))
                       / mpmath.gamma(1 + nu))


# Worst relative error measured on this grid (Re z <= 3 / Re z = 8):
# 4.4e-15 / 4.7e-13 at nu = 0.25, 3.4e-14 / 4.9e-12 at nu = 0.02 and
# 1.8e-13 (Re z <= -15) / 1.8e-14 at nu = 0.999.  A 40-point Im grid at
# nu = 0.25 reaches 5.7e-13 at Re z = 8: for Re z > 0, e^z - 1 multiplies
# a lattice sum that cancels to about e^{-z}.
@pytest.mark.parametrize("nu, gate, gate8", [
    (0.02, 1e-13, 1e-11), (0.25, 5e-15, 1e-12), (0.75, 5e-15, 1e-12),
    (0.9, 5e-15, 1e-12), (0.999, 5e-13, 1e-12)])
def test_lattice_matches_multiprecision_polylog(nu, gate, gate8):
    mpmath = pytest.importorskip("mpmath")
    order = FractionalOrder(nu)
    points = [complex(re, im) for re in (-60.0, -15.0, -3.0, -1.0, 0.3, 1.0, 3.0, 8.0)
              for im in (0.5, math.pi - 0.04)]
    points += [r * cmath.exp(1j * a) for r in (1e-9, 1e-5, 1e-2) for a in (0.5, 3.0)]
    for z in points:
        want = psi_mp(mpmath, nu, z)
        bound = (gate8 if z.real == 8.0 else gate) * abs(want)
        # psi(conj z) = conj psi(z); the two halves of the sum swap roles
        assert abs(symbol_lattice(order, z) - want) <= bound, z
        assert abs(symbol_lattice(order, z.conjugate()) - want.conjugate()) <= bound, z


def test_lattice_approaches_the_cut_limits():
    # the gap to symbol_cut shrinks linearly with the distance eps * s to
    # the cut, down to round-off; measured gap / eps at most 8 (nu = 0.999)
    for nu in (0.02, 0.3, 0.75, 0.999):
        order = FractionalOrder(nu)
        for s in (1e-9, 1e-3, 0.5, 7.0, 45.0):
            above = symbol_cut(order, s)
            # the limit from below is the conjugate
            for sign, want in ((1.0, above), (-1.0, above.conjugate())):
                for eps in (1e-4, 1e-8, 1e-14):
                    got = symbol_lattice(order, complex(-s, sign * eps * s))
                    assert abs(got - want) <= 10.0 * eps * abs(want), (nu, s, sign, eps)


def test_lattice_rejects_bad_arguments():
    order = FractionalOrder(0.5)
    for bad in (0.0, -1e-300, -1.0, -50.0, complex(-2.0, -0.0),
                complex(1.0, math.pi + 1e-9), complex(1.0, -4.0),
                complex(math.nan, 0.5), complex(0.5, math.nan),
                complex(math.inf, 0.5), complex(-math.inf, 0.5), complex(0.5, math.inf)):
        with pytest.raises(ValueError):
            symbol_lattice(order, bad)
    with pytest.raises(ValueError):
        symbol_lattice(FractionalOrder(1.0), 1.0 + 0.5j)


def test_lattice_refuses_large_real_part():
    # right of Re z = 8 the lattice sum cancels (no digit right at 40 + i,
    # OverflowError at 710); the series is the route there
    order = FractionalOrder(0.5)
    for re in (8.5, 20.0, 40.0, 710.0):
        with pytest.raises(ValueError, match="symbol_series"):
            symbol_lattice(order, complex(re, 1.0))


def test_cut_bits_are_pinned():
    for (nu, s), (re, im) in CUT_BITS.items():
        got = symbol_cut(FractionalOrder(nu), s)
        assert (got.real.hex(), got.imag.hex()) == (re, im), (nu, s)


def test_cut_reference_values():
    for (nu, s), want in CUT_VALUES.items():
        got = symbol_cut(FractionalOrder(nu), s)
        assert abs(got - want) <= 1e-10 * abs(want)


def test_cut_imaginary_part_closed_form():
    for nu in (0.2, 0.5, 0.8):
        order = FractionalOrder(nu)
        for s in (0.01, 0.3, 2.0, 20.0):
            want = -(-math.expm1(-s)) * s ** (-nu - 1.0) * order.sin_pi
            got = symbol_cut(order, s).imag
            assert got == pytest.approx(want, rel=1e-10)


def test_cut_branch_crossover_is_seamless():
    # one route, the lattice sum, on both sides of s = 1e-5
    for nu in (0.25, 0.5, 0.9):
        order = FractionalOrder(nu)
        lo = symbol_cut(order, 1e-5 * (1.0 - 1e-9))
        hi = symbol_cut(order, 1e-5 * (1.0 + 1e-9))
        assert abs(lo - hi) <= 1e-8 * abs(hi)


def test_cut_rejects_bad_arguments():
    order = FractionalOrder(0.5)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            symbol_cut(order, bad)
    with pytest.raises(ValueError):
        symbol_cut(FractionalOrder(1.0), 1.0)


# An array call takes numpy's expm1 and complex power, which differ from
# math's in the last bit at a few per cent of points.  Worst relative gap
# to the scalar calls on this grid: 5.9e-16 up to nu = 0.75, 1.5e-15 at
# 0.9 and 9.6e-14 at 0.999, where the terms of Re psi cancel.
@pytest.mark.parametrize("nu, gate", [(0.02, 1e-15), (0.3, 1e-15), (0.5, 1e-15),
                                      (0.75, 1e-15), (0.9, 4e-15), (0.999, 5e-13)])
def test_cut_array_matches_scalar_calls(nu, gate):
    order = FractionalOrder(nu)
    s = np.concatenate([np.logspace(-300.0, 1.65, 600), [45.0]])
    got = symbol_cut(order, s)
    assert got.shape == s.shape and got.dtype == complex
    want = np.array([symbol_cut(order, float(x)) for x in s])
    assert np.max(np.abs(got - want) / np.abs(want)) <= gate


def test_cut_array_rejects_any_bad_element():
    order = FractionalOrder(0.5)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite and positive"):
            symbol_cut(order, np.array([0.5, bad, 2.0]))


# Worst relative error measured over the s grid: 3.5e-15 for nu <= 0.9,
# 2.1e-14 at 0.99, 1.7e-13 at 0.999, where the k = 0 term of the lattice
# sum cancels the rest.
@pytest.mark.parametrize("nu, gate", [(0.02, 2e-14), (0.3, 2e-14), (0.75, 2e-14),
                                      (0.9, 2e-14), (0.99, 1e-13), (0.999, 1e-12)])
def test_cut_matches_multiprecision_polylog(nu, gate):
    mpmath = pytest.importorskip("mpmath")
    order = FractionalOrder(nu)
    for s in (1e-4, 0.01, 0.3, 1.0, 3.7, 19.4, 45.0, 300.0):
        want = psi_mp(mpmath, nu, complex(-s, 1e-35))
        assert abs(symbol_cut(order, s) - want) <= gate * abs(want), s


def test_cut_finite_at_tiny_s():
    # (1-e^{-s}) s^{-1-nu} would overflow at s = 1e-300; the value there is
    # the leading terms of the expansion at the origin
    for nu in (0.02, 0.5, 0.999):
        order = FractionalOrder(nu)
        for s in (1e-300, 1e-20, 1e-9):
            got = symbol_cut(order, s)
            want = symbol_asym_origin(order, complex(-s, 0.0))
            assert cmath.isfinite(got)
            assert abs(got - want) <= 1e-12 * abs(want), (nu, s)


@given(nu=st.floats(0.05, 0.95), s=st.floats(1e-6, 50.0))
@settings(max_examples=60, deadline=None)
def test_cut_total_on_positive_axis(nu, s):
    got = symbol_cut(FractionalOrder(nu), s)
    assert math.isfinite(got.real) and math.isfinite(got.imag)
    assert got.imag < 0.0


def test_quadrature_error_type():
    err = QuadratureError("stalled", 1e-3)
    assert isinstance(err, RuntimeError)
    assert err.achieved == 1e-3

