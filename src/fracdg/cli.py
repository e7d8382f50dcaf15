"""Command-line front end for the convergence and certification workflows.

Subcommands: ``converge`` (graded-mesh Galerkin run against the contour
or modal reference, weighted error table plus per-step error curves),
``phi`` (weighted suprema of the error kernel over an order grid),
``delta`` (single kernel values by either route), and ``lemmas``
(quadrature and symbol identity checks).  All data files are CSV with a
header row and a metadata comment carrying the package version and a
hash of the resolved configuration; identical configurations produce
byte-identical files.

Exit status: 0 when every built-in check passes, 2 when a check fails or
a quadrature does not converge, 1 on usage or configuration errors.
"""

import argparse
import concurrent.futures
import hashlib
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .certify import (
    ErrorTable,
    delta_contour,
    delta_direct,
    resolvent_ratio_max,
    lemma_integral_zero,
    lemma_scan_bounds,
    phi_sweep,
    weighted_error_table,
)
from .exact import KAPPA, EigenSystem1D, InitialData, constant_data_transform, exact_field
from .fem1d import assemble, gauss_points, graded_mesh, l2_error_from_values, l2_project
from .laplace import contour_nodes, window_chain
from .special import (
    FractionalOrder,
    QuadratureError,
    symbol_asym_origin,
    symbol_integral,
    symbol_series,
)
from .stepping import TimeGrid, step_galerkin

__all__ = ["RunConfig", "run_convergence", "main"]

_WINDOW_TOP = 0.5
_DEFAULT_N = (80, 160, 320, 640, 1280)
_DEFAULT_ALPHAS = (0.6, 0.7, 0.8125)
# Small preset for the error-curve figures: 20 steps, 80 subintervals.
_QUICK_N = (20, 40, 80, 160)
_QUICK_M = 80
# Time levels per error-norm call.
_LEVEL_CHUNK = 16

# Regression baseline for the default configuration (per alpha: weighted
# errors over the default N chain, then observed rates).  Raw errors are
# trusted to 25% (mesh-grading sensitivity), rates to +-0.03.
_BASELINE = {
    0.6: ((2.14e-3, 1.24e-3, 7.20e-4, 4.17e-4, 2.42e-4),
          (0.788, 0.787, 0.787, 0.787)),
    0.7: ((1.48e-3, 7.94e-4, 4.29e-4, 2.32e-4, 1.25e-4),
          (0.894, 0.888, 0.887, 0.887)),
    0.8125: ((1.16e-3, 5.91e-4, 2.98e-4, 1.50e-4, 7.53e-5),
             (0.978, 0.988, 0.992, 0.993)),
}
_BASELINE_ERROR_SLACK = 0.25
_BASELINE_RATE_SLACK = 0.03


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters for one invocation.

    Defaults reproduce the headline study: nu = 0.75, subinterval count
    1000 with cubic grading, the doubling chain N = 80..1280, and the
    weights alpha in {0.6, 0.7, 13/16}.
    """

    nu: float = 0.75
    n_list: tuple = _DEFAULT_N
    m_intervals: int = 1000
    gamma: float = 3.0
    alphas: tuple = _DEFAULT_ALPHAS
    reference: str = "transform"
    mode_cap: int = 4000
    contour_tol: float = 1e-13
    field_tol: float = 1e-8
    out_dir: str = "out"
    quick: bool = False

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu={self.nu} outside (0, 1]")
        n_list = tuple(int(n) for n in self.n_list)
        if not n_list:
            raise ValueError("N list is empty")
        for n in n_list:
            if n < 2 or n % 2:
                raise ValueError(f"step counts must be even and >= 2, got {n}")
        for a, b in zip(n_list, n_list[1:]):
            if b != 2 * a:
                raise ValueError(f"N values must double: {a} -> {b}")
        object.__setattr__(self, "n_list", n_list)
        if self.m_intervals < 4 or self.m_intervals % 2:
            raise ValueError(
                f"subinterval count must be even and >= 4, got {self.m_intervals}")
        if not 1.0 <= self.gamma <= 10.0:
            raise ValueError(f"mesh grading gamma={self.gamma} outside [1, 10]")
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas:
            raise ValueError("alpha list is empty")
        for a in alphas:
            if not 0.0 < a <= 2.0:
                raise ValueError(f"weight alpha={a} outside (0, 2]")
        object.__setattr__(self, "alphas", alphas)
        if self.reference not in ("transform", "modal"):
            raise ValueError(
                f"reference must be 'transform' or 'modal', got {self.reference!r}")
        if self.mode_cap < 50:
            raise ValueError(f"mode_cap must be >= 50, got {self.mode_cap}")
        if not 0.0 < self.contour_tol <= 1e-6:
            raise ValueError(f"contour_tol={self.contour_tol} outside (0, 1e-6]")
        if not 0.0 < self.field_tol <= 1e-2:
            raise ValueError(f"field_tol={self.field_tol} outside (0, 1e-2]")

    def items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def digest(self) -> str:
        # Numerical configuration only: where the files go does not
        # change what is in them.
        text = ";".join(f"{k}={v!r}" for k, v in self.items() if k != "out_dir")
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# config-file / flag key -> (RunConfig field, parser)
_CONFIG_KEYS = {
    "nu": ("nu", float),
    "N": ("n_list", _parse_int_list),
    "M": ("m_intervals", int),
    "gamma": ("gamma", float),
    "alpha": ("alphas", _parse_float_list),
    "reference": ("reference", str),
    "mode_cap": ("mode_cap", int),
    "contour_tol": ("contour_tol", float),
    "field_tol": ("field_tol", float),
    "out": ("out_dir", str),
    "quick": ("quick", _parse_bool),
}


def load_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; keys as in the CLI."""
    updates = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            field, parse = _CONFIG_KEYS[key]
            updates[field] = parse(value.strip())
    return updates


def resolve_config(args) -> RunConfig:
    """Defaults, then the config file, then explicit flags."""
    updates = {}
    if getattr(args, "config", None):
        updates.update(load_config_file(args.config))
    for key, (field, parse) in _CONFIG_KEYS.items():
        flag = key.replace("-", "_")
        value = getattr(args, flag, None)
        if value is not None:
            updates[field] = parse(value) if isinstance(value, str) else value
    config = RunConfig(**updates)
    if config.quick and args.command == "converge":
        if "n_list" not in updates:
            config = replace(config, n_list=_QUICK_N)
        if "m_intervals" not in updates:
            config = replace(config, m_intervals=_QUICK_M)
    return config


# ---------------------------------------------------------------------------
# convergence engine


def _transform_reference(config: RunConfig, order: FractionalOrder, flat_x, dt):
    """Per-window contour tables; returns a times -> values evaluator.

    Each window stores V[k, q] = u_hat(x_q, z_k) dz_k, so one field
    sample is a single complex matrix-vector product.
    """
    tables = []
    for spec in window_chain(dt, _WINDOW_TOP, tol=config.contour_tol):
        z, dz = contour_nodes(spec)
        table = np.empty((z.size, flat_x.size), dtype=complex)
        for k in range(z.size):
            table[k] = constant_data_transform(order, flat_x, z[k]) * dz[k]
        tables.append((spec.t_max, spec.step, z, table))

    def evaluate(t: float) -> np.ndarray:
        for t_max, step, z, table in tables:
            if t <= t_max * (1.0 + 1e-12):
                weights = np.exp(z * t)
                weights[0] *= 0.5
                return (step / math.pi) * (weights @ table).imag
        raise ValueError(f"t={t} beyond the reference window")

    return evaluate


def _modal_reference(config: RunConfig, order: FractionalOrder, flat_x, times):
    """Reference values at every time level, shape (len(times), len(flat_x))."""
    system = EigenSystem1D(config.mode_cap)
    data = InitialData.quarter_pi(config.mode_cap)
    return exact_field(order, system, data, times, flat_x, tol=config.field_tol)


def run_convergence(config: RunConfig):
    """Run the N chain and weight the error curves.

    Returns (table, samples) where samples maps N to its (t, error)
    arrays over the window (0, 1/2].
    """
    order = FractionalOrder(config.nu)
    mesh = graded_mesh(config.m_intervals, config.gamma)
    mats = assemble(KAPPA, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    pts, _, _ = gauss_points(mesh)
    flat_x = pts.ravel()

    samples = {}
    for n_steps in config.n_list:
        dt = 1.0 / n_steps
        half = n_steps // 2
        solution = step_galerkin(order, mats.mass, mats.stiff,
                                 TimeGrid(dt, half), u0)
        times = dt * np.arange(1, half + 1)
        # The modal reference is evaluated for all levels in one call, the
        # transform reference level by level.  The error norm takes
        # _LEVEL_CHUNK stacked levels per call, so its temporaries stay small.
        if config.reference == "modal":
            refs = iter(_modal_reference(config, order, flat_x, times))
        else:
            refs = map(_transform_reference(config, order, flat_x, dt), times)
        errors = np.empty(half)
        for lo in range(0, half, _LEVEL_CHUNK):
            hi = min(lo + _LEVEL_CHUNK, half)
            ref = np.stack([next(refs) for _ in range(lo, hi)])
            errors[lo:hi] = l2_error_from_values(
                solution[lo + 1:hi + 1], mesh, ref.reshape((hi - lo,) + pts.shape))
        samples[n_steps] = (times, errors)
    table = weighted_error_table(samples, config.alphas, t_top=_WINDOW_TOP)
    return table, samples


# ---------------------------------------------------------------------------
# output


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.12e" % value


def _write_csv(path: str, config: RunConfig, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# fracdg v{__version__} config={config.digest()}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _write_table_csv(path: str, config: RunConfig, table: ErrorTable):
    header = ["N"]
    for a in table.alphas:
        header += [f"E_{a:.4f}", f"rate_{a:.4f}"]
    rows = []
    for i, n in enumerate(table.n_values):
        row = [n]
        for a in table.alphas:
            row.append(table.errors[a][i])
            row.append(table.rates[a][i - 1] if i else math.nan)
        rows.append(row)
    _write_csv(path, config, header, rows)


def _write_curve_csv(path: str, config: RunConfig, alphas, times, errors):
    header = ["t", "error"] + [f"weighted_{a:.4f}" for a in alphas]
    rows = [[t, e] + [t ** a * e for a in alphas]
            for t, e in zip(times, errors)]
    _write_csv(path, config, header, rows)


def _print_table(table: ErrorTable):
    head = "N".ljust(7)
    for a in table.alphas:
        head += f"E[{a:.4f}]".rjust(13) + "rate".rjust(8)
    print(head)
    for i, n in enumerate(table.n_values):
        line = str(n).ljust(7)
        for a in table.alphas:
            line += f"{table.errors[a][i]:13.3e}"
            line += f"{table.rates[a][i - 1]:8.3f}" if i else "       -"
        print(line)


# ---------------------------------------------------------------------------
# subcommands


def _check(label: str, value: float, bound: float, failures: list) -> None:
    ok = value <= bound
    if not ok:
        failures.append(label)
    print(f"check {label}: {value:.3e} <= {bound:.3e} "
          f"{'PASS' if ok else 'FAIL'}")


def _is_baseline_config(config: RunConfig) -> bool:
    return (config.nu == 0.75 and config.n_list == _DEFAULT_N
            and config.m_intervals == 1000 and config.gamma == 3.0
            and config.alphas == _DEFAULT_ALPHAS)


def cmd_converge(args, config: RunConfig) -> int:
    if args.dry_run:
        for key, value in config.items():
            print(f"{key} = {value}")
        return 0
    table, samples = run_convergence(config)
    os.makedirs(config.out_dir, exist_ok=True)
    table_path = os.path.join(config.out_dir, "error_table.csv")
    _write_table_csv(table_path, config, table)
    for n_steps, (times, errors) in sorted(samples.items()):
        curve_path = os.path.join(config.out_dir, f"error_curve_N{n_steps}.csv")
        _write_curve_csv(curve_path, config, table.alphas, times, errors)
    _print_table(table)
    print(f"wrote {table_path} and {len(samples)} curve files")

    failures = []
    for a in table.alphas:
        errs = table.errors[a]
        if not all(math.isfinite(e) and e > 0.0 for e in errs):
            failures.append(f"errors[{a:.4f}] not finite/positive")
    if _is_baseline_config(config):
        for a in table.alphas:
            base_e, base_r = _BASELINE[a]
            dev_e = max(abs(e / b - 1.0) for e, b in zip(table.errors[a], base_e))
            _check(f"baseline errors[alpha={a:.4f}] rel dev", dev_e,
                   _BASELINE_ERROR_SLACK, failures)
            dev_r = max(abs(r - b) for r, b in zip(table.rates[a], base_r))
            _check(f"baseline rates[alpha={a:.4f}] abs dev", dev_r,
                   _BASELINE_RATE_SLACK, failures)
    if failures:
        print(f"converge: {len(failures)} check(s) failed")
        return 2
    print("converge: all checks passed")
    return 0


def _phi_row(nu: float):
    sweep = phi_sweep(FractionalOrder(nu))
    return (nu, sweep.phi1, sweep.phi2, sweep.min_delta, sweep.skipped)


def cmd_phi(args, config: RunConfig) -> int:
    if args.nu is not None:
        grid = (config.nu,)
    elif config.quick:
        grid = (0.75,)
    else:
        grid = tuple(round(0.1 * k, 1) for k in range(1, 10))
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            rows = list(pool.map(_phi_row, grid))
    else:
        rows = [_phi_row(nu) for nu in grid]

    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "phi_sweep.csv")
    _write_csv(path, config, ["nu", "phi1", "phi2", "min_delta", "skipped"], rows)
    for nu, phi1, phi2, min_delta, skipped in rows:
        print(f"nu={nu:.2f}: phi1={phi1:.6f} phi2={phi2:.6f} "
              f"min_delta={min_delta:.2e} skipped={skipped}")
    print(f"wrote {path}")

    failures = []
    worst = max(max(r[1], r[2]) for r in rows)
    _check("phi suprema", worst, 1.1, failures)
    most_negative = min(r[3] for r in rows)
    _check("kernel sign (negated floor)", -most_negative, 1e-12, failures)
    if failures:
        print(f"phi: {len(failures)} check(s) failed")
        return 2
    print("phi: all checks passed")
    return 0


def cmd_delta(args, config: RunConfig) -> int:
    order = FractionalOrder(config.nu)
    mu, n = args.mu, args.n
    if mu <= 0.0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = {}
    if args.oracle in ("direct", "both"):
        values["direct"] = delta_direct(order, mu, n)
    if args.oracle in ("contour", "both"):
        values["contour"] = delta_contour(order, mu, n)
    for name, value in values.items():
        print(f"delta[{name}](nu={config.nu}, mu={mu}, n={n}) = {value:.12e}")
    if len(values) == 2:
        gap = abs(values["direct"] - values["contour"])
        bound = max(1e-6, 1e-4 * abs(values["direct"]))
        failures = []
        _check("oracle agreement", gap, bound, failures)
        if failures:
            return 2
    return 0


def cmd_lemmas(args, config: RunConfig) -> int:
    failures = []
    for nu in (0.6, 0.75, 0.9):
        value = abs(lemma_integral_zero(FractionalOrder(nu)))
        _check(f"vanishing integral [nu={nu}]", value, 1e-8, failures)

    small, large = lemma_scan_bounds()
    _check("power-mean scan, nu < 1/2", small.overall_max, 3.0, failures)
    _check("power-mean scan, nu > 1/2", large.overall_max, 3.0, failures)
    _check("resolvent ratio scan", resolvent_ratio_max(), 1.0, failures)

    worst = 0.0
    for nu in (0.25, 0.75):
        order = FractionalOrder(nu)
        for re in (0.3, 1.0, 3.0, 8.0, 20.0):
            for im in (-2.5, 1.5):
                z = complex(re, im)
                a = symbol_series(order, z)
                b = symbol_integral(order, z)
                worst = max(worst, abs(a - b) / abs(a))
    _check("symbol series vs integral", worst, 1e-10, failures)

    worst = 0.0
    for nu in (0.25, 0.6, 0.9):
        order = FractionalOrder(nu)
        z = complex(1.2, 0.7)
        base = symbol_series(order, z)
        scale = max(1.0, abs(base))
        worst = max(worst,
                    abs(symbol_series(order, z + 2j * math.pi) - base) / scale,
                    abs(symbol_series(order, z.conjugate()) - base.conjugate()) / scale)
    _check("symbol periodicity/conjugacy", worst, 1e-13, failures)

    worst = 0.0
    for nu in (0.5, 0.75):
        order = FractionalOrder(nu)
        z0 = 0.1 * complex(math.cos(0.4), math.sin(0.4))
        residuals = [abs(symbol_series(order, z0 / 2 ** k)
                         - symbol_asym_origin(order, z0 / 2 ** k))
                     for k in range(3)]
        target = 2.0 ** (2.0 - nu)
        for r0, r1 in zip(residuals, residuals[1:]):
            worst = max(worst, abs(r0 / r1 / target - 1.0))
    _check("origin expansion halving ratio dev", worst, 0.15, failures)

    os.makedirs(config.out_dir, exist_ok=True)
    for name, scan in (("lemma_scan_small.csv", small),
                       ("lemma_scan_large.csv", large)):
        path = os.path.join(config.out_dir, name)
        _write_csv(path, config, ["nu", "max_value", "argmax_x"],
                   [tuple(row) for row in scan.rows])
    if failures:
        print(f"lemmas: {len(failures)} check(s) failed")
        return 2
    print("lemmas: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(parser):
    parser.add_argument("--nu", type=float, default=None,
                        help="fractional order in (0, 1]")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (default: out)")
    parser.add_argument("--quick", action="store_const", const=True,
                        default=None, help="reduced-size preset")
    parser.add_argument("--config", type=str, default=None,
                        help="flat key = value configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracdg", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"fracdg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("converge", help="graded-mesh convergence study")
    _add_common(p)
    p.add_argument("--N", type=str, default=None,
                   help="comma-separated doubling chain of step counts")
    p.add_argument("--M", type=int, default=None,
                   help="number of spatial subintervals (even)")
    p.add_argument("--gamma", type=float, default=None,
                   help="mesh grading exponent")
    p.add_argument("--alpha", type=str, default=None,
                   help="comma-separated error weights")
    p.add_argument("--reference", choices=("transform", "modal"), default=None,
                   help="exact-solution route for the error")
    p.add_argument("--mode-cap", dest="mode_cap", type=int, default=None,
                   help="mode cutoff for the modal reference")
    p.add_argument("--dry-run", action="store_true",
                   help="print the resolved configuration and exit")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("phi", help="kernel suprema over an order grid")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the order sweep")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("delta", help="single error-kernel values")
    _add_common(p)
    p.add_argument("--mu", type=float, required=True,
                   help="scaled eigenvalue lambda * dt^nu")
    p.add_argument("--n", type=int, required=True, help="step index")
    p.add_argument("--oracle", choices=("direct", "contour", "both"),
                   default="both", help="evaluation route")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("lemmas", help="quadrature and symbol identity checks")
    _add_common(p)
    p.set_defaults(func=cmd_lemmas)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return args.func(args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
