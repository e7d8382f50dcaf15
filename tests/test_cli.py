import json
import math
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

import fracdg.cli as cli
from fracdg.certify import Check
from fracdg.cli import RunConfig, main, run_convergence
from fracdg.exact import KAPPA, constant_data_transform
from fracdg.fem1d import (
    assemble,
    gauss_points,
    graded_mesh,
    l2_error_from_values,
    l2_project,
)
from fracdg.laplace import inverter, window_chain
from fracdg.special import FractionalOrder, QuadratureError
from fracdg.stepping import TimeGrid, step_galerkin
from oracles import FullDomain

META_RE = re.compile(r"^# fracdg v0\.1\.0 config=[0-9a-f]{12}$")


# -- RunConfig ---------------------------------------------------------------


def test_config_defaults_round_trip():
    config = RunConfig()
    assert config.nu == 0.75
    assert config.n_list == (80, 160, 320, 640, 1280)
    assert config.m_intervals == 1000
    assert dict(config.items())["gamma"] == 3.0


@pytest.mark.parametrize("kwargs", [
    {"nu": 0.0},
    {"nu": 1.5},
    {"n_list": ()},
    {"n_list": (80, 160, 240)},       # not doubling
    {"n_list": (81, 162)},            # odd
    {"n_list": (80.9, 160.2)},        # not integers
    {"n_list": (80.0, 160.0)},
    {"m_intervals": 80.0},
    {"m_intervals": 7},
    {"m_intervals": 2},
    {"gamma": 0.5},
    {"gamma": 11.0},
    {"alphas": ()},
    {"alphas": (0.6, 2.5)},
    {"alphas": (0.6, 0.6)},
    {"reference": "series"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_digest_is_stable_and_sensitive():
    a, b = RunConfig(), RunConfig()
    assert a.digest() == b.digest()
    assert re.fullmatch(r"[0-9a-f]{12}", a.digest())
    assert RunConfig(nu=0.5).digest() != a.digest()


def test_equal_configurations_get_equal_stamps():
    base = RunConfig(m_intervals=80)
    for same in (RunConfig(m_intervals=np.int64(80)),
                 RunConfig(m_intervals=80, gamma=3, nu=np.float64(0.75)),
                 RunConfig(m_intervals=80, n_list=[np.int64(n) for n in cli._DEFAULT_N])):
        assert same == base and same.digest() == base.digest()
        assert type(same.m_intervals) is int and type(same.gamma) is float


def test_digest_ignores_output_directory():
    assert RunConfig(out_dir="a").digest() == RunConfig(out_dir="b").digest()
    assert RunConfig(n_list=cli._QUICK_N).digest() != RunConfig().digest()


@pytest.mark.parametrize("quick, spelled", [
    (["converge", "--quick"], ["converge", "--N", "20,40,80,160", "--M", "80"]),
    (["phi", "--quick"], ["phi", "--nu", "0.75"]),
])
def test_stamp_does_not_depend_on_how_sizes_are_spelled(quick, spelled, tmp_path,
                                                        capsys):
    files = []
    for name, argv in (("quick", quick), ("spelled", spelled)):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        files.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    capsys.readouterr()
    assert files[0] and files[0] == files[1]


def test_quick_preset_swaps_sizes(capsys):
    assert main(["converge", "--quick", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "n_list = (20, 40, 80, 160)" in out
    assert "m_intervals = 80" in out
    # explicit sizes win over the preset
    assert main(["converge", "--quick", "--N", "20,40", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "n_list = (20, 40)" in out
    assert "m_intervals = 80" in out


# -- exit statuses -----------------------------------------------------------


def test_usage_errors_exit_1():
    for argv in ([], ["bogus"], ["delta"], ["delta", "--mu", "1.0"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_config_errors_exit_1(capsys):
    assert main(["converge", "--nu", "2.0", "--dry-run"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lemmas", "--nu", "0.5"],
    ["lemmas", "--quick"],
    ["delta", "--mu", "1", "--n", "5", "--out", "d"],
    ["delta", "--mu", "1", "--n", "5", "--quick"],
    ["converge", "--config", "f"],
    ["phi", "--config", "f"],
    ["delta", "--mu", "1", "--n", "5", "--config", "f"],
    ["lemmas", "--config", "f"],
    ["converge", "--N", "80,abc", "--dry-run"],
    ["converge", "--quick", "--mode-cap", "100"],
    ["converge", "--reference", "modal", "--mode-cap", "100"],
])
def test_settings_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    if "--N" in argv:
        assert "--N" in err and "80,abc" in err


@pytest.mark.parametrize("argv", [
    ["converge", "--quick"], ["phi", "--quick"], ["lemmas"]])
def test_unusable_output_directory_exits_1(argv, tmp_path, capsys):
    taken = tmp_path / "file"
    taken.write_text("")
    assert main(argv + ["--out", str(taken)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_unallocatable_size_exits_1(capsys):
    # 10^17 doubles, 8e17 bytes, lie beyond any 57-bit address space, so
    # the allocation is refused at once
    assert main(["delta", "--mu", "1", "--n", str(10 ** 17)]) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


def test_quadrature_failure_exits_2(tmp_path, monkeypatch, capsys):
    def stalled(order):
        raise QuadratureError("stalled", 1e-3)

    monkeypatch.setattr(cli, "phi_sweep", stalled)
    assert main(["phi", "--quick", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "error: stalled" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_small_order_delta_routes_agree(capsys):
    # At these orders the Taylor series stops at its term cap near s = 1;
    # such points take the spectral rule, so the direct route has a value.
    for argv in (["--nu", "0.03", "--mu", "1", "--n", "1"],
                 ["--nu", "0.001", "--mu", "0.999", "--n", "1"]):
        assert main(["delta", *argv]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2].startswith("check oracle agreement:")
        assert float(out[-2].split()[3]) <= 1e-15
        assert out[-1] == "delta: all checks passed"


def test_small_order_modal_reference_matches_the_transform(tmp_path, capsys):
    # the modal reference's Mittag-Leffler values near s = 1 at nu = 0.02
    # come from the spectral rule, where the Taylor series stops at its cap
    tables = []
    for reference in ("modal", "transform"):
        out = tmp_path / reference
        argv = ["converge", "--quick", "--nu", "0.02", "--reference", reference]
        assert main(argv + ["--out", str(out)]) == 0
        tables.append(np.array(read_csv(out / "error_table.csv")[1], dtype=float))
    assert capsys.readouterr().out.endswith("converge: all checks passed\n")
    modal, transform = (table[:, 1::2] for table in tables)  # the E columns
    assert np.max(np.abs(modal / transform - 1.0)) <= 1e-8


def test_delta_rejects_bad_arguments(capsys):
    assert main(["delta", "--mu", "-1.0", "--n", "5"]) == 1
    assert main(["delta", "--mu", "1.0", "--n", "0"]) == 1
    assert main(["delta", "--mu", "nan", "--n", "5"]) == 1
    assert main(["delta", "--mu", "inf", "--n", "5"]) == 1
    capsys.readouterr()


# -- delta subcommand --------------------------------------------------------


def test_delta_direct_output(capsys):
    rc = main(["delta", "--nu", "0.5", "--mu", "1.0", "--n", "1",
               "--oracle", "direct"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta[direct](nu=0.5, mu=1.0, n=1) = 4.2257519" in out


def test_delta_both_routes_agree(capsys):
    rc = main(["delta", "--nu", "0.5", "--mu", "1.0", "--n", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta[direct]" in out
    assert "delta[contour]" in out
    assert "check oracle agreement" in out
    assert "PASS" in out


def test_delta_disagreement_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "delta_contour", lambda order, mu, n: 1.0)
    assert main(["delta", "--nu", "0.5", "--mu", "1.0", "--n", "1"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("check oracle agreement:")
    assert out[-2].endswith("FAIL")
    assert out[-1] == "delta: 1 check(s) failed"


@pytest.mark.parametrize("oracle", ["both", "direct"])
def test_delta_with_an_overflowing_denominator_prints_zero(oracle, capsys):
    # beta_0 mu overflows; the suite runs with RuntimeWarning as an error
    argv = ["delta", "--nu", "0.3", "--mu", "1.7e308", "--n", "3", "--oracle", oracle]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "delta[direct](nu=0.3, mu=1.7e+308, n=3) = 0.000000000000e+00" in out
    if oracle == "both":
        assert out.splitlines()[-1] == "delta: all checks passed"


def test_delta_one_route_prints_no_check(capsys):
    assert main(["delta", "--mu", "1", "--n", "50", "--oracle", "direct"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("delta[direct]")


def test_delta_at_nu_one_runs_the_direct_route_alone(capsys):
    # the contour route has no branch cut to integrate along at nu = 1
    assert main(["delta", "--nu", "1", "--mu", "1", "--n", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["delta[direct](nu=1.0, mu=1.0, n=5) = 2.451205300091e-02",
                   "delta[contour] is undefined at nu = 1; no agreement check"]
    assert main(["delta", "--nu", "1", "--mu", "1", "--n", "5", "--oracle", "contour"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: contour route needs 0 < nu < 1\n"


# -- converge subcommand -----------------------------------------------------


def read_csv(path):
    lines = path.read_text().splitlines()
    assert META_RE.match(lines[0]), lines[0]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_quick_converge_writes_deterministic_files(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["converge", "--quick", "--out", str(out)]
    assert main(argv) == 0
    table_path = out / "error_table.csv"
    curves = sorted(out.glob("error_curve_N*.csv"))
    assert table_path.exists()
    assert [p.name for p in curves] == [
        "error_curve_N160.csv", "error_curve_N20.csv",
        "error_curve_N40.csv", "error_curve_N80.csv"]

    header, rows = read_csv(table_path)
    assert header[0] == "N"
    assert header[1] == "E_0.6000"
    assert header[2] == "rate_0.6000"
    assert [int(r[0]) for r in rows] == [20, 40, 80, 160]
    assert rows[0][2] == "nan"
    # rates settle near the weighted orders even at this size
    for row in rows[1:]:
        assert 0.4 < float(row[2]) < 1.2

    curve_header, curve_rows = read_csv(curves[1])  # N=20
    assert curve_header[:2] == ["t", "error"]
    assert len(curve_rows) == 10
    assert float(curve_rows[-1][0]) == 0.5

    before = table_path.read_bytes(), curves[0].read_bytes()
    capsys.readouterr()
    assert main(argv) == 0
    assert (table_path.read_bytes(), curves[0].read_bytes()) == before


def test_same_study_in_two_directories_is_byte_identical(tmp_path, capsys):
    files = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["converge", "--quick", "--out", str(out)]) == 0
        files.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    capsys.readouterr()
    assert len(files[0]) == 5
    assert files[0] == files[1]


def keep_references(monkeypatch):
    # Wraps cli._reference; returns the list of (order, flat_x, evaluator)
    # built.
    built, reference = [], cli._reference

    def kept_reference(config, order, flat_x, t_min):
        evaluate = reference(config, order, flat_x, t_min)
        built.append((order, flat_x, evaluate))
        return evaluate

    monkeypatch.setattr(cli, "_reference", kept_reference)
    return built


def test_converge_shares_one_transform_reference(monkeypatch):
    # One window chain per study, from the finest step to 1/2; at every
    # level of every N it agrees with a chain built for that N alone.
    chains, chain = [], cli.window_chain

    def counted_chain(*args, **kwargs):
        chains.append(args)
        return chain(*args, **kwargs)

    monkeypatch.setattr(cli, "window_chain", counted_chain)
    built = keep_references(monkeypatch)
    config = RunConfig(n_list=cli._QUICK_N, m_intervals=cli._QUICK_M)
    curves, _, _ = run_convergence(config)
    assert [len(curve) for curve in curves] == [n // 2 for n in config.n_list]
    assert len(chains) == len(built) == 1
    assert chains[0][0] == 1.0 / max(config.n_list)
    order, flat_x, shared = built[0]
    for n_steps, curve in zip(config.n_list, curves):
        own = inverter(lambda z: constant_data_transform(order, flat_x, z),
                       window_chain(1.0 / n_steps, 0.5, tol=cli._CONTOUR_TOL))
        gap = max(np.max(np.abs(shared(t) - own(t))) for t in curve[:, 0])
        assert gap <= cli._CONTOUR_TOL, (n_steps, gap)


def test_converge_shares_one_modal_reference(monkeypatch):
    # One exact_field build per study, over the capped pi/4 data.
    fields_built, field = [], cli.exact_field

    def counted_field(order, coefficients, flat_x):
        fields_built.append(len(coefficients))
        return field(order, coefficients, flat_x)

    monkeypatch.setattr(cli, "exact_field", counted_field)
    built = keep_references(monkeypatch)
    config = RunConfig(n_list=cli._QUICK_N, m_intervals=cli._QUICK_M,
                       reference="modal")
    curves, _, _ = run_convergence(config)
    assert [len(curve) for curve in curves] == [n // 2 for n in config.n_list]
    assert len(built) == 1
    assert fields_built == [cli._MODE_CAP]


def one_run_at_a_time(config):
    # The convergence loop with each run stepped and measured alone, on
    # the half system: its own reference calls at the Gauss points of
    # [0, 1], _REFERENCE_VALUES values' worth of its levels at a time.
    order = FractionalOrder(config.nu)
    mesh = graded_mesh(config.m_intervals, config.gamma)
    mass, stiff = assemble(KAPPA, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * np.pi), mesh)
    pts = gauss_points(mesh)[0]
    samples, reference = {}, None
    for n_steps in reversed(config.n_list):
        dt = 1.0 / n_steps
        half = n_steps // 2
        solution = step_galerkin(order, mass, stiff, [TimeGrid(dt, half)], u0)
        times = dt * np.arange(1, half + 1)
        if reference is None:
            reference = cli._reference(config, order, pts.ravel(), dt)
        errors = np.empty(half)
        chunk = max(1, cli._REFERENCE_VALUES // pts.size)
        for lo in range(0, half, chunk):
            hi = min(lo + chunk, half)
            ref = reference(times[lo:hi])
            errors[lo:hi] = l2_error_from_values(
                solution[lo + 1:hi + 1], mesh, ref.reshape((hi - lo,) + pts.shape))
        samples[n_steps] = (times, errors)
    return dict(sorted(samples.items()))


def full_domain_run(config):
    # The convergence loop on the whole of (-1, 1), with no use of the
    # field's symmetry: every interior DOF stepped, the reference at every
    # Gauss point, one call per run.
    order = FractionalOrder(config.nu)
    full = FullDomain(graded_mesh(config.m_intervals, config.gamma), KAPPA)
    u0 = full.project_constant(0.25 * np.pi)
    pts = full.points
    reference = cli._reference(config, order, pts.ravel(), 1.0 / config.n_list[-1])
    samples = {}
    for n_steps in config.n_list:
        half = n_steps // 2
        solution = step_galerkin(order, full.mass, full.stiff,
                                 [TimeGrid(1.0 / n_steps, half)], u0)
        times = (1.0 / n_steps) * np.arange(1, half + 1)
        ref = reference(times).reshape((half,) + pts.shape)
        samples[n_steps] = (times, full.error(solution[1:], ref))
    return samples


@pytest.mark.parametrize("reference", ["transform", "modal"])
def test_folded_study_matches_the_full_domain_run(reference):
    # The half interval moves the errors by round-off only: the
    # full-domain trajectory is even to about 1e-14 of max|U|, against
    # errors near 1e-4 of it.
    config = RunConfig(n_list=cli._QUICK_N, m_intervals=cli._QUICK_M,
                       reference=reference)
    curves, _, _ = run_convergence(config)
    expected = full_domain_run(config)
    assert list(expected) == list(config.n_list) and len(curves) == len(expected)
    for curve, (n_steps, (times, errors)) in zip(curves, expected.items()):
        assert np.array_equal(curve[:, 0], times)
        gap = np.max(np.abs(curve[:, 1] / errors - 1.0))
        assert gap <= 1e-10, (n_steps, gap)


@pytest.mark.parametrize("reference", ["transform", "modal"])
@pytest.mark.parametrize("n_list", [
    (160,), (80, 160), (20, 40, 80), (10, 20, 40, 80, 160),
])
def test_paired_runs_equal_one_run_at_a_time_bitwise(n_list, reference):
    # Each run's levels, taken from the finest run's reference calls,
    # against its own calls: (20, 40, 80) has 40 levels in the shared
    # call and 20 and 10 in the runs' own
    config = RunConfig(n_list=n_list, m_intervals=cli._QUICK_M, reference=reference)
    curves, errors, _ = run_convergence(config)
    expected = one_run_at_a_time(config)
    assert list(expected) == list(n_list) and len(curves) == len(n_list)
    for curve, (times, run_errors) in zip(curves, expected.values()):
        assert np.array_equal(curve[:, 0], times)
        assert np.array_equal(curve[:, 1], run_errors)
    want = [[np.max(times ** a * run_errors) for a in config.alphas]
            for times, run_errors in expected.values()]
    assert np.array_equal(errors, want)


@pytest.fixture(scope="module")
def quick_study():
    config = RunConfig(n_list=cli._QUICK_N, m_intervals=cli._QUICK_M)
    return config, run_convergence(config)


def test_curves_hold_time_error_and_each_weighted_error(quick_study):
    config, (curves, _, _) = quick_study
    assert len(curves) == len(config.n_list)
    for n_steps, curve in zip(config.n_list, curves):
        assert curve.shape == (n_steps // 2, 2 + len(config.alphas))
        times, errors = curve[:, 0], curve[:, 1]
        assert np.array_equal(times, (1.0 / n_steps) * np.arange(1, n_steps // 2 + 1))
        for a, weighted in zip(config.alphas, curve[:, 2:].T):
            assert np.array_equal(weighted, times ** a * errors)


def test_weighted_errors_are_the_maxima_of_their_curve_columns(quick_study):
    config, (curves, errors, _) = quick_study
    assert errors.shape == (len(config.n_list), len(config.alphas))
    for curve, row in zip(curves, errors):
        for column, e in zip(curve[:, 2:].T, row):
            assert e.tobytes() == column.max().tobytes()


def test_rates_are_log2_of_successive_weighted_errors(quick_study):
    config, (_, errors, rates) = quick_study
    assert rates.shape == (len(config.n_list) - 1, len(config.alphas))
    for coarse, fine, row in zip(errors, errors[1:], rates):
        for c, f, rate in zip(coarse, fine, row):
            assert rate == math.log2(c / f)
            # the quick study's weighted errors fall at about first order
            assert 0.4 < rate < 1.2


def test_one_run_chain_has_no_rates(tmp_path, capsys):
    config = RunConfig(n_list=(160,), m_intervals=cli._QUICK_M)
    curves, errors, rates = run_convergence(config)
    assert len(curves) == 1 and errors.shape == (1, 3) and rates.shape == (0, 3)
    assert main(["converge", "--quick", "--N", "160", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith("converge: all checks passed\n")
    header, rows = read_csv(tmp_path / "error_table.csv")
    assert len(rows) == 1 and rows[0][0] == "160"
    assert [v for h, v in zip(header, rows[0]) if h.startswith("rate_")] == ["nan"] * 3


def test_too_strong_grading_exits_1_with_the_reason(tmp_path, capsys):
    # 1 - (2/1000)^7 rounds to 1.0, onto the Dirichlet node
    assert main(["converge", "--gamma", "7", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: mesh grading gamma=7.0 is too strong for M=1000: the last interior "
        "node 1 - (2/M)^gamma rounds to x = 1 in double precision\n")


def test_reference_is_evaluated_at_the_finest_run_levels_only(monkeypatch):
    # One pass over the finest run's 80 levels of the quick chain serves
    # every run, not 80 + 40 + 20 + 10, and no call takes more than
    # _REFERENCE_VALUES values.
    levels, reference = [], cli._reference

    def counted_reference(*args):
        evaluate = reference(*args)

        def counted(t):
            levels.append(np.size(t))
            return evaluate(t)
        return counted

    monkeypatch.setattr(cli, "_reference", counted_reference)
    run_convergence(RunConfig(n_list=cli._QUICK_N, m_intervals=cli._QUICK_M,
                              reference="modal"))
    assert sum(levels) == max(cli._QUICK_N) // 2 == 80
    values = 4 * cli._QUICK_M // 2  # Gauss points of the even half
    assert all(n * values <= cli._REFERENCE_VALUES for n in levels)


def test_one_stepping_call_per_study_frees_its_trajectories(monkeypatch):
    calls, live, step = [], [], cli.step_galerkin

    def tracked(order, mass, stiff, grids, u0):
        calls.append([(g.dt, g.n_steps) for g in grids])
        trajectories = step(order, mass, stiff, grids, u0)
        live.append(weakref.ref(trajectories))
        # each run steps the even half: the centre node and the M/2 - 1
        # to its right
        assert trajectories.shape[1] == cli._QUICK_M // 2
        return trajectories

    monkeypatch.setattr(cli, "step_galerkin", tracked)
    n_list = (10, 20, 40, 80, 160)
    run_convergence(RunConfig(n_list=n_list, m_intervals=cli._QUICK_M))
    # the whole chain, finest first, each run to t = 1/2
    assert calls == [[(1.0 / n, n // 2) for n in reversed(n_list)]]
    assert all(ref() is None for ref in live)


def test_reference_routes_agree(tmp_path, capsys):
    # Every CSV cell of the quick study, transform route against modal.
    files = {}
    for route in ("transform", "modal"):
        out = tmp_path / route
        assert main(["converge", "--quick", "--reference", route,
                     "--out", str(out)]) == 0
        files[route] = {p.name: read_csv(p) for p in sorted(out.glob("*.csv"))}
    capsys.readouterr()
    assert len(files["transform"]) == 5
    assert files["transform"].keys() == files["modal"].keys()
    for name, (header, rows) in files["transform"].items():
        modal_header, modal_rows = files["modal"][name]
        assert modal_header == header and len(modal_rows) == len(rows)
        for row, modal_row in zip(rows, modal_rows):
            for column, a, b in zip(header, row, modal_row):
                if column in ("t", "N"):
                    assert a == b, (name, column)
                elif column.startswith("rate_"):
                    if a == "nan":
                        assert b == "nan", (name, column)
                    else:
                        assert abs(float(a) - float(b)) <= 5e-9, (name, column)
                else:
                    assert float(b) == pytest.approx(float(a), rel=5e-9, abs=0), \
                        (name, column)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


QUICK = ["converge", "--quick"]


def workflow_files(argv, out, first="", **env_extra):
    # argv in a fresh interpreter that runs `first` before importing
    # fracdg, with no thread count pinned unless env_extra sets one
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    run = ("import sys\n{first}from fracdg.cli import main\n"
           "sys.exit(main(sys.argv[2:] + ['--out', sys.argv[1]]))")
    subprocess.run([sys.executable, "-c", run.format(first=first), str(out), *argv],
                   env={**env, "PYTHONPATH": SRC, **env_extra}, check=True,
                   capture_output=True, timeout=300)
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.fixture(scope="module")
def plain_files(tmp_path_factory):
    return workflow_files(QUICK, tmp_path_factory.mktemp("plain"))


IMPORT_ORDER_CASES = [
    ("converge-quick", QUICK, 5, ()),
    ("converge-long", ["converge", "--nu", "0.3", "--M", "250", "--N", "640,1280,2560,5120"],
     5, ()),
    ("phi-quick", ["phi", "--quick"], 1, ()),
    ("lemmas", ["lemmas"], 2, ()),
    ("converge-quick-modal", QUICK + ["--reference", "modal"], 5,
     pytest.mark.xfail(strict=False, reason=(
         "ROADMAP item 19: the modal reference's sine-table product "
         "in exact.py is a BLAS gemm, whose reduction order follows "
         "the thread count"))),
]


# the two-thread cases keep their bare ids; eight threads on two cores is
# as far as the probe goes
@pytest.mark.parametrize("argv, count, threads", [
    pytest.param(argv, count, threads, marks=marks,
                 id=name if threads == "2" else f"{name}-{threads}-threads")
    for threads in ("2", "8") for name, argv, count, marks in IMPORT_ORDER_CASES
])
def test_files_do_not_depend_on_import_order(argv, count, threads, tmp_path):
    # fracdg pins OMP_NUM_THREADS only if it is imported before numpy.
    # Importing numpy first with several BLAS threads must not change a byte.
    plain = workflow_files(argv, tmp_path / "plain")
    assert len(plain) == count
    assert workflow_files(argv, tmp_path / "numpy_first", "import numpy\n",
                          OPENBLAS_NUM_THREADS=threads) == plain


def test_files_do_not_depend_on_scipy_linalg_loading_first(plain_files, tmp_path):
    # fem1d loads scipy's LAPACK extension itself; with scipy.linalg already
    # imported it gets the loaded one, and the files must not change a byte.
    assert len(plain_files) == 5
    assert workflow_files(QUICK, tmp_path / "scipy_first",
                          "import scipy.linalg\n") == plain_files


FOOTPRINT_STEPS = ("import", "converge", "modal", "phi", "lemmas", "direct", "contour")


@pytest.fixture(scope="module")
def footprint(tmp_path_factory):
    # One fresh interpreter, so that no other test's imports count, imports
    # fracdg.cli and runs each workflow in turn.
    # After each step it reports the exit status, the listed modules loaded,
    # and the numpy, scipy and fracdg modules new since the step before.
    # Returns {step: (rc, loaded, new)}.
    run = (
        "import json, sys\n"
        "import fracdg.cli as cli\n"
        "WATCHED = ('scipy.linalg', 'numpy.f2py', 'numpy.testing', 'scipy.integrate',"
        " 'locale')\n"
        "seen = set(sys.modules)\n"
        "def report(step, rc):\n"
        "    global seen\n"
        "    loaded = sorted(m for m in sys.modules"
        " if m in WATCHED or m.startswith('scipy.sparse'))\n"
        "    new = sorted(m for m in set(sys.modules) - seen"
        " if m.split('.')[0] in ('numpy', 'scipy', 'fracdg'))\n"
        "    seen = set(sys.modules)\n"
        "    print(json.dumps([step, rc, loaded, new]), file=sys.stderr)\n"
        "report('import', 0)\n"
        "out = sys.argv[1]\n"
        "report('converge', cli.main(['converge', '--quick', '--out', out]))\n"
        "report('modal', cli.main(['converge', '--quick', '--reference', 'modal',"
        " '--out', out]))\n"
        "report('phi', cli.main(['phi', '--quick', '--out', out]))\n"
        "report('lemmas', cli.main(['lemmas', '--out', out]))\n"
        "report('direct', cli.main(['delta', '--nu', '0.5', '--mu', '0.3',"
        " '--n', '200', '--oracle', 'direct']))\n"
        "report('contour', cli.main(['delta', '--mu', '1', '--n', '50',"
        " '--oracle', 'contour']))\n"
    )
    done = subprocess.run([sys.executable, "-c", run,
                           str(tmp_path_factory.mktemp("footprint"))],
                          env={**os.environ, "PYTHONPATH": SRC}, check=True,
                          capture_output=True, text=True, timeout=300)
    rows = [json.loads(line) for line in done.stderr.splitlines()]
    assert [row[0] for row in rows] == list(FOOTPRINT_STEPS)
    assert all(row[1] == 0 for row in rows)
    return {step: (rc, loaded, new) for step, rc, loaded, new in rows}


def test_csv_workflows_do_not_load_the_scipy_linalg_package(footprint):
    # fem1d loads only scipy's _flapack extension: neither the scipy.linalg
    # package nor the numpy modules its array-API layer pulls in may load.
    heavy = ("scipy.linalg", "numpy.f2py", "numpy.testing")
    assert {step: [m for m in footprint[step][1] if m in heavy]
            for step in FOOTPRINT_STEPS} == {step: [] for step in FOOTPRINT_STEPS}


def test_csv_workflows_import_nothing_of_their_own_after_set_up(footprint):
    # Every numpy, scipy and fracdg module a workflow needs is loaded by
    # `import fracdg.cli`, so no import lands inside a timed run.  The
    # parser is built at import too, and with it argparse's gettext lookup
    # loads the stdlib locale module there.
    assert {step: footprint[step][2] for step in FOOTPRINT_STEPS} == \
        {step: [] for step in FOOTPRINT_STEPS}


def test_parser_is_built_at_import(footprint):
    # argparse's gettext lookup first-imports the stdlib locale module when
    # the parser is built; `import fracdg.cli` builds it, once.
    assert "locale" in footprint["import"][1]


def test_csv_workflows_do_not_load_quadpack(footprint):
    # scipy.integrate loads on the first quadpack call, and no workflow
    # makes one: every CLI quadrature is special's fixed tanh-sinh rule.
    assert {step: "scipy.integrate" in footprint[step][1]
            for step in FOOTPRINT_STEPS} == {step: False for step in FOOTPRINT_STEPS}


def test_csv_workflows_do_not_load_sparse(footprint):
    # the Galerkin solves use scipy's LAPACK wrappers, so no scipy.sparse
    # module loads on import or in any workflow.
    assert {step: [m for m in footprint[step][1] if m.startswith("scipy.sparse")]
            for step in FOOTPRINT_STEPS} == {step: [] for step in FOOTPRINT_STEPS}


def test_converge_on_the_smallest_system(tmp_path, capsys):
    # M = 4 subintervals of (-1, 1), two DOF on [0, 1], is the smallest
    # mesh converge accepts
    assert main(["converge", "--M", "4", "--N", "2,4", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "error_table.csv")
    assert [int(r[0]) for r in rows] == [2, 4]
    assert all(np.isfinite(float(v)) and float(v) > 0.0 for r in rows for v in r[1::2])
    capsys.readouterr()
    assert main(["converge", "--M", "2", "--N", "2,4", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_csv_cells_format_one_at_a_time(tmp_path):
    # integers as %d, everything else as %.12e, nan as "nan"
    rows = [(2, 0.5, float("nan"), np.int64(7), np.float64(-1e-300)),
            (4, -3.25e7, 1.0, np.int64(-1), float("inf"))]
    path = tmp_path / "cells.csv"
    cli._write_csv(str(path), RunConfig(), list("abcde"), rows)
    body = path.read_text().splitlines()[2:]
    want = [",".join("%d" % v if isinstance(v, (int, np.integer)) else "%.12e" % v
                     for v in row) for row in rows]
    assert body == want
    assert body[0].split(",")[2] == "nan"


def test_converge_baseline_gate_fails_cleanly(tmp_path, monkeypatch, capsys):
    bogus = ((1.0, 1.0, 1.0, 1.0, 1.0), (0.2, 0.2, 0.2, 0.2))
    monkeypatch.setitem(cli._BASELINE, 0.6, bogus)
    rc = main(["converge", "--out", str(tmp_path / "out")])
    assert rc == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "check(s) failed" in out


def test_converge_classical_order_rates(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["converge", "--nu", "1.0", "--alpha", "1.0",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "error_table.csv")
    assert header == ["N", "E_1.0000", "rate_1.0000"]
    rates = [float(r[2]) for r in rows[1:]]
    assert all(0.9 <= rate <= 1.1 for rate in rates)


# -- phi and lemmas subcommands ----------------------------------------------


def test_phi_quick(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["phi", "--quick", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "nu=0.75" in text
    assert "phi: all checks passed" in text
    header, rows = read_csv(out / "phi_sweep.csv")
    assert header == ["nu", "phi1", "phi2", "min_delta", "skipped"]
    assert len(rows) == 1
    assert 0.0 < float(rows[0][1]) <= 1.1


@pytest.mark.parametrize("nu, label", [("0.001", "nu=0.001:"), ("0.125", "nu=0.125:")])
def test_phi_labels_the_order_with_every_digit_it_has(tmp_path, capsys, nu, label):
    # two decimals printed these as nu=0.00 and nu=0.12
    assert main(["phi", "--nu", nu, "--out", str(tmp_path)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("nu=")]
    assert len(rows) == 1 and rows[0].startswith(label + " phi1=")


def test_phi_classical_order_prints_a_positive_zero_floor(tmp_path, capsys):
    # at nu = 1 every kernel value is 0, and -0.0 printed as -0.000e+00
    assert main(["phi", "--nu", "1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "check kernel sign (negated floor): 0.000e+00 <= 1.000e-12 PASS" in out


@pytest.mark.parametrize("nu", ["1e-20", "1e-300"])
def test_phi_fails_an_order_with_no_phi1(nu, tmp_path, capsys):
    # n^nu rounds to 1 and the kernel to round-off, so every rho <= 1
    # point is guarded and phi1 is -inf
    assert main(["phi", "--nu", nu, "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"nu={nu}: phi1=-inf ") for line in out)
    assert "check phi suprema: nan <= 1.100e+00 FAIL" in out
    assert out[-1] == "phi: 1 check(s) failed"


def test_phi_accepts_jobs_and_writes_the_same_bytes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["phi", "--quick", "--out", str(out)]) == 0
    serial = (out / "phi_sweep.csv").read_bytes()
    assert main(["phi", "--quick", "--jobs", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "phi_sweep.csv").read_bytes() == serial


def test_phi_digest_covers_the_order_grid(tmp_path, capsys):
    # nu = 0.75 is the default, but choosing it shrinks the grid to one order
    grid, one = tmp_path / "grid", tmp_path / "one"
    assert main(["phi", "--out", str(grid)]) == 0
    assert main(["phi", "--nu", "0.75", "--out", str(one)]) == 0
    capsys.readouterr()
    grid_lines = (grid / "phi_sweep.csv").read_text().splitlines()
    one_lines = (one / "phi_sweep.csv").read_text().splitlines()
    assert (len(grid_lines), len(one_lines)) == (11, 3)
    assert META_RE.match(grid_lines[0]) and META_RE.match(one_lines[0])
    assert grid_lines[0] != one_lines[0]


def test_lemmas_failing_symbol_check_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "symbol_checks",
                        lambda: [Check("symbol stub", 1.0, 0.5)])
    assert main(["lemmas", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "check symbol stub: 1.000e+00 <= 5.000e-01 FAIL" in out
    assert out[-1] == "lemmas: 1 check(s) failed"


def test_lemmas_quick(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["lemmas", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "lemmas: all checks passed" in text
    assert text.count("PASS") >= 8
    assert re.search(r"^check symbol series vs lattice: \S+ <= 1\.000e-12 PASS$",
                     text, re.MULTILINE)
    assert not [line for line in text.splitlines()
                if "symbol" in line and "integral" in line]
    for name in ("lemma_scan_small.csv", "lemma_scan_large.csv"):
        header, rows = read_csv(out / name)
        assert header == ["nu", "max_value", "argmax_x"]
        assert all(float(r[1]) <= 3.0 for r in rows)
