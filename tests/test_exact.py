import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg.exact import (
    KAPPA,
    EigenSystem1D,
    InitialData,
    constant_data_transform,
    exact_field,
)
from fracdg.special import FractionalOrder, mittag_leffler_neg_with_error

DATA_NORM = 1.1107207345395916  # pi sqrt(2) / 4


def test_eigensystem_basics():
    system = EigenSystem1D(5)
    assert np.array_equal(system.eigenvalues(), [1.0, 4.0, 9.0, 16.0, 25.0])
    assert KAPPA == pytest.approx(4.0 / math.pi ** 2, rel=1e-16)


def test_eigenfunctions_orthonormal():
    system = EigenSystem1D(8)
    # 2000-point trapezoid is plenty for sin products
    x = np.linspace(-1.0, 1.0, 2001)
    for m in (1, 2, 7):
        for k in (1, 2, 7):
            prod = np.trapezoid(
                system.eigenfunction(m, x) * system.eigenfunction(k, x), x)
            assert prod == pytest.approx(1.0 if m == k else 0.0, abs=1e-6)


def test_initial_data_quarter_pi():
    data = InitialData.quarter_pi(10)
    want = [1.0, 0.0, 1.0 / 3.0, 0.0, 0.2, 0.0, 1.0 / 7.0, 0.0, 1.0 / 9.0, 0.0]
    assert np.allclose(data.coefficients, want, rtol=0, atol=0)


def test_initial_data_norm_converges():
    # |u0| over (-1, 1) for the constant pi/4 state
    norm = InitialData.quarter_pi(20001).norm()
    assert norm == pytest.approx(DATA_NORM, rel=1e-4)


def test_exact_field_requires_positive_time():
    system = EigenSystem1D(10)
    data = InitialData.quarter_pi(10)
    with pytest.raises(ValueError):
        exact_field(FractionalOrder(0.5), system, data, 0.0, np.array([0.0]))


def test_exact_field_over_times_matches_single_times():
    order = FractionalOrder(0.6)
    system = EigenSystem1D(3000)
    data = InitialData.quarter_pi(3000)
    x = np.linspace(-0.99, 0.99, 23)
    times = np.array([1e-3, 0.01, 0.05, 0.2, 0.5, 2.0])
    batch = exact_field(order, system, data, times, x)
    assert batch.shape == (len(times), len(x))
    single = np.stack([exact_field(order, system, data, t, x) for t in times])
    assert np.max(np.abs(batch - single)) <= 1e-14
    grid = exact_field(order, system, data, times.reshape(2, 3), x)
    assert np.array_equal(grid.reshape(batch.shape), batch)


def test_exact_field_rejects_any_nonpositive_time():
    system = EigenSystem1D(10)
    data = InitialData.quarter_pi(10)
    for times in ([0.1, 0.0], [0.1, -0.2, 0.3]):
        with pytest.raises(ValueError):
            exact_field(FractionalOrder(0.5), system, data, np.array(times),
                        np.array([0.0]))


def test_exact_field_matches_brute_force():
    order = FractionalOrder(0.75)
    system = EigenSystem1D(8000)
    data = InitialData.quarter_pi(8000)
    x = np.linspace(-0.95, 0.95, 9)
    fast = exact_field(order, system, data, 0.02, x, tol=1e-9)
    lam = system.eigenvalues()
    slow = np.zeros_like(x)
    for m in range(1, 8001, 2):
        coeff = 1.0 / m * mittag_leffler_neg_with_error(
            order, lam[m - 1] * 0.02 ** order.nu)[0]
        slow += coeff * np.sin(m * math.pi * (x + 1.0) / 2.0)
    assert np.max(np.abs(fast - slow)) <= 5e-9


def test_exact_field_even_symmetry():
    order = FractionalOrder(0.6)
    system = EigenSystem1D(2000)
    data = InitialData.quarter_pi(2000)
    x = np.linspace(0.05, 0.9, 6)
    left = exact_field(order, system, data, 0.1, -x)
    right = exact_field(order, system, data, 0.1, x)
    assert np.allclose(left, right, rtol=0, atol=1e-12)


@given(t=st.floats(1e-4, 2.0), xi=st.floats(-0.999, 0.999))
@settings(max_examples=40, deadline=None)
def test_exact_field_bounded_by_data(t, xi):
    order = FractionalOrder(0.5)
    system = EigenSystem1D(3000)
    data = InitialData.quarter_pi(3000)
    value = exact_field(order, system, data, t, np.array([xi]))[0]
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
