import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg.laplace import (
    ContourSpec,
    contour_nodes,
    inverter,
    reference_mode,
    window_chain,
)
from fracdg.special import FractionalOrder, mittag_leffler_neg_with_error

ML_HALF_AT_1 = 0.427583576155807
EXP_M2 = 0.13533528323661269


@pytest.fixture(scope="module")
def unit_spec():
    return ContourSpec.for_window(0.5, 2.0)


def test_spec_validation():
    # a spec built directly is checked like a tuned one
    assert ContourSpec(0.5, 2.0, 4).half == 4
    for t_min, t_max in ((2.0, 0.5), (0.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="bad time window"):
            ContourSpec(t_min, t_max, 11)
    with pytest.raises(ValueError, match="exceeds 50"):
        ContourSpec(0.01, 0.51, 11)
    for half in (3, 0, -5):
        with pytest.raises(ValueError, match="half must be >= 4"):
            ContourSpec(0.5, 2.0, half)
    # a fractional count would size the step for nodes that are not built
    for half in (10.5, 10.0, "10"):
        with pytest.raises(ValueError, match="half must be an integer"):
            ContourSpec(0.5, 2.0, half)
    assert ContourSpec(0.5, 2.0, np.int64(10)).step == ContourSpec(0.5, 2.0, 10).step


def test_window_tuning_rejects_bad_windows_and_tolerances():
    for t_min, t_max in ((0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match="bad time window"):
            ContourSpec.for_window(t_min, t_max)
        with pytest.raises(ValueError, match="bad time window"):
            window_chain(t_min, t_max)
    for tol in (0.0, -1e-13, 1e-2):
        with pytest.raises(ValueError, match="tol must lie"):
            ContourSpec.for_window(0.5, 2.0, tol=tol)


def test_for_window_rejects_wide_ratio():
    with pytest.raises(ValueError):
        ContourSpec.for_window(0.01, 0.51)
    # ratio exactly 50 is allowed
    spec = ContourSpec.for_window(0.01, 0.5)
    assert spec.half >= 4


def test_derived_step_and_scale_reproduce_the_tuned_contour_bits():
    # z and z' at k = 0, 1 and K, recorded when step, scale and the angle
    # were stored fields of the spec
    spec = ContourSpec.for_window(0.02, 0.5)
    assert spec.half == 43
    z, dz = contour_nodes(spec)
    got = [(v.real.hex(), v.imag.hex()) for k in (0, 1, 43) for v in (z[k], dz[k])]
    assert got == [
        ("0x1.34114d82b446fp+3", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.7d365a4a678b5p+5"),
        ("0x1.28b6fa30af4b9p+3", "0x1.e374102e2b5bfp+1"),
        ("-0x1.1ee9334859274p+3", "0x1.7e686e3178dcap+5"),
        ("-0x1.8b796388eaa08p+10", "0x1.664143352f4eap+9"),
        ("-0x1.a9389247a3a3bp+10", "0x1.670bdbf305fc8p+9"),
    ]


def test_nodes_shape_and_symmetry(unit_spec):
    z, dz = contour_nodes(unit_spec)
    assert z.shape == dz.shape == (unit_spec.half + 1,)
    # node 0 sits on the real axis; the rest climb into the upper half plane
    assert abs(z[0].imag) < 1e-14
    assert np.all(np.diff(z.imag) > 0.0)


def test_invert_constant_transform(unit_spec):
    got = float(inverter(lambda z: 1.0 / z, [unit_spec])(1.0))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_invert_exponential(unit_spec):
    got = float(inverter(lambda z: 1.0 / (z + 1.0), [unit_spec])(2.0))
    assert got == pytest.approx(EXP_M2, rel=1e-12)


def test_invert_polynomial_damping(unit_spec):
    got = float(inverter(lambda z: 1.0 / (z + 1.0) ** 2, [unit_spec])(0.7))
    assert got == pytest.approx(0.7 * math.exp(-0.7), rel=1e-12)


def test_invert_rejects_time_outside_window(unit_spec):
    for t in (0.1, 5.0):
        with pytest.raises(ValueError):
            float(inverter(lambda z: 1.0 / z, [unit_spec])(t))


@given(c=st.floats(0.1, 20.0), t=st.floats(0.5, 2.0))
@settings(max_examples=60, deadline=None)
def test_invert_exponential_family(c, t, unit_spec):
    got = float(inverter(lambda z: 1.0 / (z + c), [unit_spec])(t))
    assert got == pytest.approx(math.exp(-c * t), rel=1e-10, abs=1e-13)


def test_reference_mode_matches_mittag_leffler(unit_spec):
    order = FractionalOrder(0.5)
    got = reference_mode(order, 1.0, 1.0, 1.0, unit_spec)
    assert got == pytest.approx(ML_HALF_AT_1, rel=1e-12)


def test_reference_mode_zero_eigenvalue(unit_spec):
    order = FractionalOrder(0.5)
    assert reference_mode(order, 0.0, 3.5, 1.0, unit_spec) == 3.5


def test_reference_mode_rejects_negative_eigenvalue(unit_spec):
    with pytest.raises(ValueError, match="lam must be >= 0"):
        reference_mode(FractionalOrder(0.5), -1.0, 1.0, 1.0, unit_spec)


def test_reference_mode_scales_in_initial_value(unit_spec):
    order = FractionalOrder(0.75)
    one = reference_mode(order, 2.0, 1.0, 1.3, unit_spec)
    scaled = reference_mode(order, 2.0, -0.25, 1.3, unit_spec)
    assert scaled == pytest.approx(-0.25 * one, rel=1e-13)


def test_window_chain_covers_interval():
    chain = window_chain(1.0 / 1280.0, 0.5)
    assert chain[0].t_min == pytest.approx(1.0 / 1280.0)
    assert chain[-1].t_max == pytest.approx(0.5)
    for a, b in zip(chain, chain[1:]):
        assert a.t_max == pytest.approx(b.t_min, rel=1e-12)
    for spec in chain:
        assert spec.t_max / spec.t_min <= 25.0 * (1.0 + 1e-9)


def test_window_chain_accuracy_uniform():
    order = FractionalOrder(0.75)
    worst = 0.0
    for spec in window_chain(1.0 / 1280.0, 0.5):
        for t in np.geomspace(spec.t_min, spec.t_max, 5):
            got = reference_mode(order, 4.0, 1.0, t, spec)
            want = mittag_leffler_neg_with_error(order, 4.0 * t ** 0.75)[0]
            worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def test_inverter_vector_transform_over_window_chain():
    # one table per window, shared by all three components
    rates = np.array([0.5, 3.0, 20.0])
    chain = window_chain(1.0 / 1280.0, 0.5)
    evaluate = inverter(lambda z: 1.0 / (z + rates), chain)
    times = [chain[0].t_min]
    for spec in chain:
        # interior points, then the edge shared with the next window
        times += list(np.geomspace(spec.t_min, spec.t_max, 5)[1:])
    for t in times:
        got = evaluate(t)
        assert got.shape == (3,)
        assert np.max(np.abs(got - np.exp(-rates * t))) <= 1e-12
    for t in (0.6, 1.0 / 2560.0):
        with pytest.raises(ValueError):
            evaluate(t)


RATES = np.array([0.5, 3.0, 20.0])


def _vector(z):
    return 1.0 / (z + RATES)


def _scalar(z):
    zn = z ** 0.75
    return zn / (z * (zn + 2.0))


def test_inverter_result_shape_is_time_shape_plus_value_shape():
    chain = window_chain(1.0 / 1280.0, 0.5)
    vector, scalar = inverter(_vector, chain), inverter(_scalar, chain)
    times = np.linspace(0.01, 0.5, 10).reshape(2, 5)
    assert vector(times).shape == (2, 5, 3)
    assert scalar(times).shape == (2, 5)
    assert vector(0.1).shape == (3,)
    assert scalar(0.1).shape == ()
    assert vector(np.empty(0)).shape == (0, 3)


def test_inverter_takes_the_first_window_that_holds_each_time():
    # A coarse tolerance makes neighbouring windows disagree visibly, so a
    # value shows which window its time went to.
    chain = window_chain(1.0 / 1280.0, 0.5, tol=1e-4)
    evaluate = inverter(_vector, chain)
    first, second = inverter(_vector, chain[:1]), inverter(_vector, chain[1:2])
    edge = chain[0].t_max
    assert chain[1].t_min == edge
    # the edge itself and a time within the 1e-12 slack stay in window one
    below = np.array([edge * (1.0 - 1e-9), edge, edge * (1.0 + 5e-13)])
    above = np.array([edge * (1.0 + 1e-9), 1.5 * edge])
    got = evaluate(np.concatenate([above[:1], below, above[1:]]))
    assert np.max(np.abs(got[1:4] - first(below))) <= 1e-14
    assert np.max(np.abs(got[[0, 4]] - second(above))) <= 1e-14
    assert np.min(np.abs(first(edge) - second(edge))) > 1e-9


def test_inverter_rejects_any_time_outside_the_chain():
    chain = window_chain(1.0 / 1280.0, 0.5)
    evaluate = inverter(_scalar, chain)
    for times in (0.6, [0.1, 0.6], [[0.1], [1.0 / 2560.0]], [0.1, math.nan]):
        with pytest.raises(ValueError):
            evaluate(times)
    with pytest.raises(ValueError):
        inverter(_scalar, [])


@pytest.mark.parametrize("transform", [_scalar, _vector])
def test_inverter_batch_matches_one_time_at_a_time(transform):
    # The batch is one matrix product per window and a single time a
    # vector product, so the two sum the nodes in different orders.  The
    # terms' magnitudes times step/pi sum to about 44 on this chain, and
    # 44 machine epsilons is 1e-14: gaps below that are round-off.
    chain = window_chain(1.0 / 1280.0, 0.5)
    evaluate = inverter(transform, chain)
    times = np.geomspace(chain[0].t_min, chain[-1].t_max, 200)
    batch = evaluate(times)
    single = np.stack([evaluate(t) for t in times])
    assert batch.shape == single.shape
    assert np.max(np.abs(batch - single)) <= 1e-14


def test_inverter_gives_each_time_the_same_bits_whatever_the_call_holds():
    # A window that holds one time of the call still takes a matrix
    # product, so a time's value does not depend on the other times (with
    # a BLAS whose gemm rows do not depend on each other, as OpenBLAS's do
    # for this many values per time).
    rates = np.geomspace(0.5, 50.0, 16)
    chain = window_chain(1.0 / 160.0, 0.5)
    evaluate = inverter(lambda z: 1.0 / (z + rates), chain)
    times = np.arange(1, 81) / 160.0
    batch = evaluate(times)
    assert np.array_equal(np.stack([evaluate(t) for t in times]), batch)
    assert np.array_equal(evaluate(times[1::2]), batch[1::2])
    for lo in range(0, 80, 16):
        assert np.array_equal(evaluate(times[lo:lo + 16]), batch[lo:lo + 16])
    # the call sizes of the convergence study's reference pass: 64 and 80
    # levels, and every run's own levels among them
    times = np.arange(1, 161) / 320.0
    evaluate = inverter(lambda z: 1.0 / (z + rates), window_chain(1.0 / 320.0, 0.5))
    batch = evaluate(times)
    for size in (1, 64, 80):
        calls = [evaluate(times[lo:lo + size]) for lo in range(0, 160, size)]
        assert np.array_equal(np.concatenate(calls), batch)
    for stride in (2, 4, 8):
        assert np.array_equal(evaluate(times[stride - 1::stride]),
                              batch[stride - 1::stride])


def _counted(transform):
    """transform, and a list that grows by one entry per call of it."""
    calls = []

    def counted(z):
        calls.append(z)
        return transform(z)

    return counted, calls


def test_inverter_builds_one_window_table_at_a_time():
    # Three windows and 5,000 values per time: each stacked table is
    # 2 x 33 x 5,000 doubles (2.6 MB), far above the temporaries of an
    # 8-time call, so holding two tables at once would show in the peak.
    rates = np.geomspace(0.5, 50.0, 5000)
    chain = window_chain(1.0 / 1280.0, 0.5)
    assert len(chain) == 3
    table_bytes = max(2 * (spec.half + 1) * rates.size * 8 for spec in chain)
    times = np.arange(1, 641) / 1280.0
    tracemalloc.start()
    try:
        evaluate = inverter(lambda z: 1.0 / (z + rates), chain)
        for lo in range(0, times.size, 8):
            evaluate(times[lo:lo + 8])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table_bytes < peak < 2 * table_bytes


def test_inverter_rebuilds_a_window_to_the_same_bits():
    chain = window_chain(1.0 / 1280.0, 0.5)
    transform, calls = _counted(_vector)
    evaluate = inverter(transform, chain)
    times = np.arange(1, 641) / 1280.0
    chunks = [times[lo:lo + 16] for lo in range(0, times.size, 16)]
    ascending = [evaluate(t) for t in chunks]
    nodes = [spec.half + 1 for spec in chain]
    assert len(calls) == sum(nodes)
    # back down from the last window: the windows are built again
    descending = [evaluate(t) for t in chunks[::-1]][::-1]
    for a, b in zip(ascending, descending):
        assert np.array_equal(a, b)


def test_inverter_calls_the_transform_once_per_node_in_ascending_order():
    chain = window_chain(1.0 / 1280.0, 0.5)
    transform, calls = _counted(_scalar)
    evaluate = inverter(transform, chain)
    assert calls == []  # no table is built before a time needs it
    evaluate(chain[0].t_min)
    assert len(calls) == chain[0].half + 1
    # the chain's levels in order, in calls that span two windows
    for lo in range(0, 640, 64):
        evaluate(np.arange(lo + 1, lo + 65) / 1280.0)
    nodes = [complex(z) for spec in chain for z in contour_nodes(spec)[0]]
    assert calls == nodes
