import os
import re
import subprocess
import sys

import pytest

import fracdg.cli as cli
from fracdg.cli import RunConfig, load_config_file, main
from fracdg.special import QuadratureError

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
    {"m_intervals": 7},
    {"m_intervals": 2},
    {"gamma": 0.5},
    {"gamma": 11.0},
    {"alphas": ()},
    {"alphas": (0.6, 2.5)},
    {"reference": "series"},
    {"mode_cap": 10},
    {"contour_tol": 1e-3},
    {"field_tol": 0.5},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_digest_is_stable_and_sensitive():
    a, b = RunConfig(), RunConfig()
    assert a.digest() == b.digest()
    assert re.fullmatch(r"[0-9a-f]{12}", a.digest())
    assert RunConfig(nu=0.5).digest() != a.digest()


def test_digest_ignores_output_directory():
    assert RunConfig(out_dir="a").digest() == RunConfig(out_dir="b").digest()
    assert RunConfig(quick=True).digest() != RunConfig().digest()


# -- config file -------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# study setup\n"
        "nu = 0.5\n"
        "N = 20,40\n"
        "quick = true\n"
        "\n"
        "gamma = 2.0   # grading\n")
    updates = load_config_file(str(path))
    assert updates == {"nu": 0.5, "n_list": (20, 40), "quick": True,
                       "gamma": 2.0}


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nu = 0.5\nsteps = 40\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2.*steps"):
        load_config_file(str(path))


def test_config_file_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config_file(str(path))


def test_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("nu = 0.5\ngamma = 2.0\n")
    rc = main(["converge", "--config", str(path), "--nu", "0.25", "--dry-run"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nu = 0.25" in out
    assert "gamma = 2.0" in out


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


def test_config_errors_exit_1(capsys, tmp_path):
    assert main(["converge", "--nu", "2.0", "--dry-run"]) == 1
    assert "error:" in capsys.readouterr().err
    path = tmp_path / "bad.cfg"
    path.write_text("steps = 3\n")
    assert main(["phi", "--config", str(path)]) == 1


def test_quadrature_failure_exits_2(tmp_path, monkeypatch, capsys):
    def stalled(order):
        raise QuadratureError("stalled", 1e-3)

    monkeypatch.setattr(cli, "phi_sweep", stalled)
    assert main(["phi", "--quick", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "error: stalled" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_delta_rejects_bad_arguments(capsys):
    assert main(["delta", "--mu", "-1.0", "--n", "5"]) == 1
    assert main(["delta", "--mu", "1.0", "--n", "0"]) == 1
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


def test_files_do_not_depend_on_import_order(tmp_path):
    # fracdg pins OMP_NUM_THREADS only if it is imported before numpy.
    # Importing numpy first with two BLAS threads must not change a byte.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = src
    run = ("import sys\n{first}from fracdg.cli import main\n"
           "sys.exit(main(['converge', '--quick', '--out', sys.argv[1]]))")
    files = []
    for name, first, extra in (("plain", "", {}),
                               ("numpy_first", "import numpy\n",
                                {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / name
        subprocess.run([sys.executable, "-c", run.format(first=first), str(out)],
                       env={**env, **extra}, check=True, capture_output=True,
                       timeout=300)
        files.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert len(files[0]) == 5
    assert files[0] == files[1]


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


def test_phi_parallel_matches_serial(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["phi", "--quick", "--out", str(out)]) == 0
    serial = (out / "phi_sweep.csv").read_bytes()
    assert main(["phi", "--quick", "--jobs", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "phi_sweep.csv").read_bytes() == serial


def test_lemmas_quick(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["lemmas", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "lemmas: all checks passed" in text
    assert text.count("PASS") >= 8
    for name in ("lemma_scan_small.csv", "lemma_scan_large.csv"):
        header, rows = read_csv(out / name)
        assert header == ["nu", "max_value", "argmax_x"]
        assert all(float(r[1]) <= 3.0 for r in rows)
