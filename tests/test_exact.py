import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg import exact
from fracdg.exact import (
    KAPPA,
    constant_data_transform,
    exact_field,
    quarter_pi_coefficients,
)
from fracdg.special import (
    FractionalOrder,
    QuadratureError,
    mittag_leffler_neg_array,
    mittag_leffler_neg_with_error,
)

DATA_NORM = 1.1107207345395916  # pi sqrt(2) / 4


def test_eigensystem_basics():
    assert KAPPA == pytest.approx(4.0 / math.pi ** 2, rel=1e-16)


def test_initial_data_quarter_pi():
    coefficients = quarter_pi_coefficients(10)
    want = [1.0, 0.0, 1.0 / 3.0, 0.0, 0.2, 0.0, 1.0 / 7.0, 0.0, 1.0 / 9.0, 0.0]
    assert np.allclose(coefficients, want, rtol=0, atol=0)


def test_initial_data_norm_converges():
    # |u0| over (-1, 1) for the constant pi/4 state
    norm = np.linalg.norm(quarter_pi_coefficients(20001))
    assert norm == pytest.approx(DATA_NORM, rel=1e-4)


def test_exact_field_at_zero_is_partial_sine_sum():
    data = quarter_pi_coefficients(2001)
    x = np.linspace(-0.95, 0.95, 9)
    field = exact_field(FractionalOrder(0.5), data, x)
    slow = np.zeros_like(x)
    for m in range(1, 2002, 2):
        slow += np.sin(m * math.pi * (x + 1.0) / 2.0) / m
    assert np.max(np.abs(field(0.0) - slow)) <= 1e-13


def test_exact_field_requires_positive_time():
    # t = 0 is the data itself and is valid; only t < 0 and NaN are refused.
    field = exact_field(FractionalOrder(0.5), quarter_pi_coefficients(10),
                        np.array([0.0]))
    for t in (-0.2, -1e-300, -math.inf, math.nan):
        with pytest.raises(ValueError):
            field(t)


def test_exact_field_rejects_bad_coefficients():
    for coefficients in ([], [[1.0, 0.5]]):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            exact_field(FractionalOrder(0.5), coefficients, np.array([0.0]))


def test_exact_field_refuses_unconverged_mittag_leffler_values(monkeypatch):
    # a stubbed estimate above 1e-9 stands in for values the evaluator disowns
    def disowned(order, s):
        value, _ = mittag_leffler_neg_array(order, s)
        return value, np.full_like(value, 1e-3)

    monkeypatch.setattr(exact, "mittag_leffler_neg_array", disowned)
    field = exact_field(FractionalOrder(0.5), quarter_pi_coefficients(3),
                        np.array([0.0, 0.5]))
    with pytest.raises(QuadratureError):
        field(np.array([0.25, 0.5]))


def test_exact_field_rejects_times_before_t_min():
    # The earliest valid time is t = 0: one bad time anywhere in a batch
    # refuses the whole batch.
    field = exact_field(FractionalOrder(0.5), quarter_pi_coefficients(10),
                        np.array([0.0]))
    for times in ([0.1, -0.2, 0.3], [-1e-300], [math.nan], [0.2, math.nan],
                  [[0.0, 0.1], [0.2, -0.1]]):
        with pytest.raises(ValueError):
            field(np.array(times))


def test_exact_field_over_times_matches_single_times():
    order = FractionalOrder(0.6)
    data = quarter_pi_coefficients(3000)
    x = np.linspace(-0.99, 0.99, 23)
    times = np.array([1e-3, 0.01, 0.05, 0.2, 0.5, 2.0])
    field = exact_field(order, data, x)
    batch = field(times)
    assert batch.shape == (len(times), len(x))
    single = np.stack([exact_field(order, data, x)(t) for t in times])
    assert np.max(np.abs(batch - single)) <= 1e-14
    grid = field(times.reshape(2, 3))
    assert np.array_equal(grid.reshape(batch.shape), batch)


def test_exact_field_gives_each_time_the_same_bits_whatever_the_call_holds():
    # The evaluator works in blocks of 16 times.  One call over 80 times
    # equals calls over blocks of them, and over every 2nd, 4th, 8th and
    # 16th time, the levels the convergence study's runs read from the
    # finest run's call (with a BLAS whose gemm rows do not depend on each
    # other, as OpenBLAS's do at the quick study's 160 values per time).
    order = FractionalOrder(0.75)
    x = np.linspace(0.0, 0.99, 160)
    field = exact_field(order, quarter_pi_coefficients(4000), x)
    times = np.arange(1, 81) / 160.0
    batch = field(times)
    for size in (16, 40, 80):
        calls = [field(times[lo:lo + size]) for lo in range(0, 80, size)]
        assert np.array_equal(np.concatenate(calls), batch)
    for stride in (2, 4, 8, 16):
        assert np.array_equal(field(times[stride - 1::stride]),
                              batch[stride - 1::stride])


def test_exact_field_matches_brute_force():
    order = FractionalOrder(0.75)
    data = quarter_pi_coefficients(8000)
    x = np.linspace(-0.95, 0.95, 9)
    fast = exact_field(order, data, x)(0.02)
    lam = np.arange(1, 8001, dtype=float) ** 2
    slow = np.zeros_like(x)
    for m in range(1, 8001, 2):
        coeff = 1.0 / m * mittag_leffler_neg_with_error(
            order, lam[m - 1] * 0.02 ** order.nu)[0]
        slow += coeff * np.sin(m * math.pi * (x + 1.0) / 2.0)
    assert np.max(np.abs(fast - slow)) <= 1e-13


def test_exact_field_general_coefficients_match_brute_force():
    # Sine data with coefficients m^-2: every mode is live, even ones too.
    order = FractionalOrder(0.6)
    data = np.arange(1, 401, dtype=float) ** -2
    x = np.linspace(-0.95, 0.95, 9)
    t = 0.01
    fast = exact_field(order, data, x)(t)
    slow = np.zeros_like(x)
    for m in range(1, 401):
        coeff = data[m - 1] * mittag_leffler_neg_with_error(
            order, m * m * t ** order.nu)[0]
        slow += coeff * np.sin(m * math.pi * (x + 1.0) / 2.0)
    assert np.max(np.abs(fast - slow)) <= 1e-13


def test_exact_field_even_symmetry():
    order = FractionalOrder(0.6)
    data = quarter_pi_coefficients(2000)
    x = np.linspace(0.05, 0.9, 6)
    left = exact_field(order, data, -x)(0.1)
    right = exact_field(order, data, x)(0.1)
    assert np.allclose(left, right, rtol=0, atol=1e-12)


@given(t=st.floats(1e-4, 2.0), xi=st.floats(-0.999, 0.999))
@settings(max_examples=40, deadline=None)
def test_exact_field_bounded_by_data(t, xi):
    order = FractionalOrder(0.5)
    data = quarter_pi_coefficients(3000)
    value = exact_field(order, data, np.array([xi]))(t)[0]
    # the solution stays between 0 and the initial plateau (up to the
    # truncated tail's wiggle room near t = 0)
    assert -1e-3 <= value <= 0.25 * math.pi + 1e-3


def test_transform_matches_modal_sum():
    order = FractionalOrder(0.75)
    z = complex(3.0, 4.0)
    m_grid = np.arange(1, 60001, 2, dtype=float)
    for x in (0.0, 0.3, 0.9):
        modal = np.sum(
            (1.0 / m_grid)
            * np.sin(m_grid * math.pi * (x + 1.0) / 2.0)
            * (z ** 0.75 / (z * (z ** 0.75 + m_grid ** 2))))
        closed = constant_data_transform(order, x, z)
        assert abs(modal - closed) <= 1e-10 * abs(closed) + 1e-13


def test_transform_large_argument_stable():
    order = FractionalOrder(0.5)
    big = complex(1e6, 2e6)
    value = constant_data_transform(order, 0.5, big)
    assert np.isfinite(value.real) and np.isfinite(value.imag)
    # interior of the slab: data term pi/(4z) survives, boundary layers die
    assert value == pytest.approx(0.25 * math.pi / big, rel=1e-6)


def test_transform_rejects_bad_arguments():
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError):
        constant_data_transform(order, 1.5, complex(1.0, 0.0))
    with pytest.raises(ValueError):
        constant_data_transform(order, 0.0, complex(-4.0, 0.0))


def test_transform_vectorized_over_x():
    order = FractionalOrder(0.6)
    x = np.linspace(-1.0, 1.0, 11)
    z = complex(2.0, 5.0)
    batch = constant_data_transform(order, x, z)
    singles = np.array([constant_data_transform(order, xi, z) for xi in x])
    assert np.allclose(batch, singles, rtol=1e-15, atol=1e-16)
    # boundary values vanish: the transform keeps the Dirichlet condition
    assert abs(batch[0]) < 1e-14 and abs(batch[-1]) < 1e-14
