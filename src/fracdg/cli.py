"""Command-line front end for the convergence and certification workflows.

Subcommands: ``converge`` (graded-mesh Galerkin run against the contour
or modal reference: each run's per-step error curve with its weighted
columns t^alpha error, then the table of their maxima and the observed
rates; checks that the weighted errors are finite and positive, and on the
default study their baseline; the data and mesh are even in x, so it
solves on the half interval [0, 1], with x = 0 free, and counts that
half twice in the error norm, while ``--M`` still counts the
subintervals of (-1, 1)), ``phi`` (weighted suprema of the error
kernel over an order grid; checks their bound and the kernel's sign),
``delta`` (single kernel values by the recurrence or by the tanh-sinh
rule on the branch-cut integral; checks agreement when both run), and
``lemmas`` (quadrature and symbol identity checks).  No workflow calls
quadpack.  All data files are CSV with a header row and a metadata
comment carrying the package version and a hash of the resolved
configuration; identical configurations produce byte-identical files.

Each subcommand takes only the flags it reads (one parser, built at
import, where argparse loads stdlib locale) and returns its checks as
``certify.Check`` records; ``main`` prints one line per record, then one
summary line if there was any record.

Exit status: 0 when every built-in check passes, 2 when a check fails or
a quadrature or series does not converge, 1 on usage or configuration
errors, including an output directory that cannot be created and a size
too large to allocate.
"""

import argparse
import hashlib
import math
import operator
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .certify import (
    Check,
    delta_contour,
    delta_direct,
    lemma_integral_zero,
    lemma_scan_bounds,
    phi_sweep,
    resolvent_ratio_max,
    symbol_checks,
)
from .exact import KAPPA, constant_data_transform, exact_field, quarter_pi_coefficients
from .fem1d import assemble, gauss_points, graded_mesh, l2_error_from_values, l2_project
from .laplace import inverter, window_chain
from .special import FractionalOrder, QuadratureError
from .stepping import TimeGrid, step_galerkin

__all__ = ["RunConfig", "run_convergence", "main"]

_WINDOW_TOP = 0.5
_DEFAULT_N = (80, 160, 320, 640, 1280)
_DEFAULT_ALPHAS = (0.6, 0.7, 0.8125)
# Small preset for the error-curve figures: 20 steps, 80 subintervals.
_QUICK_N = (20, 40, 80, 160)
_QUICK_M = 80
# Reference values per call of the reference and of the error norm, which
# bounds their temporaries: 16 levels of the default study's 500 elements
# times 4 Gauss points.
_REFERENCE_VALUES = 16 * 2000
# Accuracy of the contour windows of the transform reference.
_CONTOUR_TOL = 1e-13
# Modes of the pi/4 data in the modal reference.  By the tail bound the
# odd modes left out are worth 2.8e-8 in L2 at t = 1/160 and 1.3e-7 at
# t = 1/1280 (nu = 0.75), yet the quick study's printed errors stay within
# 1.3e-9 relative of the transform route.
_MODE_CAP = 4000

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
    out_dir: str = "out"

    def __post_init__(self):
        # counts through operator.index and reals through float, so that
        # equal configurations get equal digests
        nu, gamma = float(self.nu), float(self.gamma)
        try:
            n_list = tuple(map(operator.index, self.n_list))
            m_intervals = operator.index(self.m_intervals)
        except TypeError:
            raise ValueError("step counts and subinterval count must be integers") from None
        FractionalOrder(nu)  # raises on an order outside its domain
        if not n_list:
            raise ValueError("N list is empty")
        for n in n_list:
            if n < 2 or n % 2:
                raise ValueError(f"step counts must be even and >= 2, got {n}")
        for a, b in zip(n_list, n_list[1:]):
            if b != 2 * a:
                raise ValueError(f"N values must double: {a} -> {b}")
        if m_intervals < 4 or m_intervals % 2:
            raise ValueError(
                f"subinterval count must be even and >= 4, got {m_intervals}")
        if not 1.0 <= gamma <= 10.0:
            raise ValueError(f"mesh grading gamma={gamma} outside [1, 10]")
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas:
            raise ValueError("alpha list is empty")
        for a in alphas:
            if not 0.0 < a <= 2.0:
                raise ValueError(f"weight alpha={a} outside (0, 2]")
        labels = [f"{a:.4f}" for a in alphas]  # the CSV column names
        if len(set(labels)) != len(labels):
            raise ValueError(f"weights alpha repeat to 4 decimals: {', '.join(labels)}")
        for name, value in dict(nu=nu, n_list=n_list, m_intervals=m_intervals,
                                gamma=gamma, alphas=alphas).items():
            object.__setattr__(self, name, value)
        if self.reference not in ("transform", "modal"):
            raise ValueError(
                f"reference must be 'transform' or 'modal', got {self.reference!r}")

    def items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def digest(self, **derived) -> str:
        # Numerical configuration only: where the files go does not
        # change what is in them.  ``derived`` adds what a subcommand
        # resolves from more than the fields (phi's order grid depends on
        # whether nu was chosen), so different files get different stamps.
        items = [(k, v) for k, v in self.items() if k != "out_dir"]
        text = ";".join(f"{k}={v!r}" for k, v in items + sorted(derived.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _list_of(kind, what):
    """argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}")
    return parse


def resolve_config(args) -> RunConfig:
    """Defaults, overridden by the flags given (each flag's dest is its field).

    ``converge --quick`` takes the small sizes for those not given.
    """
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    if args.command == "converge" and args.quick:
        given = {"n_list": _QUICK_N, "m_intervals": _QUICK_M, **given}
    return RunConfig(**given)


# ---------------------------------------------------------------------------
# convergence engine


def _reference(config: RunConfig, order: FractionalOrder, flat_x, t_min):
    """The exact field on [t_min, 1/2] by the configured route; t -> values."""
    if config.reference == "modal":
        return exact_field(order, quarter_pi_coefficients(_MODE_CAP), flat_x)
    return inverter(lambda z: constant_data_transform(order, flat_x, z),
                    window_chain(t_min, _WINDOW_TOP, tol=_CONTOUR_TOL))


def run_convergence(config: RunConfig):
    """Run the N chain; returns (curves, errors, rates).

    curves holds one array per run, in ascending N, over the window
    (0, 1/2]: its columns are t, the error, and t^alpha times the error
    for each alpha, as error_curve_N*.csv holds them.  errors[i, j] is
    the weighted error E of run i and weight j, the maximum of its curve
    column; rates[i, j] = log2(errors[i, j] / errors[i + 1, j]), so that
    first-order convergence gives +1, and a one-run chain has none.  The
    formula t^alpha error is formed here only.

    The data pi/4 and the graded mesh are even in x, and so is every
    Galerkin solution: the runs step the system of the half interval
    [0, 1] (fem1d, M/2 DOFs with the node x = 0 free), the reference is
    evaluated at the Gauss points of [0, 1] only, and the error norm
    counts that half twice.  The reference is built once, for the times
    from 1/max(N) on, which hold every run's levels: the transform route's
    window chain is tuned to the same _CONTOUR_TOL throughout (a window's
    table is built when the pass below first reaches it), and the modal
    route's one sine table serves every time.  The whole chain steps in
    one step_galerkin call, finest first, and every run is held until the
    end.  Then one pass over the finest run's levels, in chunks of whole
    levels of the coarsest run of up to _REFERENCE_VALUES reference values
    where one such level allows, serves every run: with N_s = N / 2^s,
    level m of run s is level 2^s m of the finest, at the same time to the
    bit, as 1/N_s = 2^s (1/N) exactly.
    """
    order = FractionalOrder(config.nu)
    mesh = graded_mesh(config.m_intervals, config.gamma)
    mass, stiff = assemble(KAPPA, mesh)
    u0 = l2_project(lambda x: np.full_like(x, 0.25 * math.pi), mesh)
    pts = gauss_points(mesh)[0]
    reference = _reference(config, order, pts.ravel(), 1.0 / config.n_list[-1])

    grids = [TimeGrid(1.0 / n, n // 2) for n in config.n_list[::-1]]
    stacked = step_galerkin(order, mass, stiff, grids, u0)
    runs = np.split(stacked, np.cumsum([g.n_steps + 1 for g in grids[:-1]]))
    half = grids[0].n_steps
    times = grids[0].dt * np.arange(1, half + 1)
    # whole levels of the coarsest run: half = (N_min / 2) 2^(S-1) for S runs
    unit = 2 ** (len(grids) - 1)
    chunk = unit * max(1, _REFERENCE_VALUES // (pts.size * unit))
    pieces = [[] for _ in grids]
    for lo in range(0, half, chunk):
        hi = min(lo + chunk, half)
        ref = reference(times[lo:hi]).reshape((hi - lo,) + pts.shape)
        for s, (run, err) in enumerate(zip(runs, pieces)):
            # levels lo/2^s + 1 .. hi/2^s of run s are the finest run's
            # levels lo + 2^s .. hi in steps of 2^s
            stride = 2 ** s
            err.append(l2_error_from_values(run[lo // stride + 1:hi // stride + 1],
                                            mesh, ref[stride - 1::stride]))
    curves = []
    for s in reversed(range(len(grids))):
        t, err = times[2 ** s - 1::2 ** s], np.concatenate(pieces[s])
        curves.append(np.column_stack([t, err] + [t ** a * err for a in config.alphas]))
    errors = np.array([curve[:, 2:].max(axis=0) for curve in curves])
    ratios = (errors[:-1] / errors[1:]).ravel().tolist()
    rates = np.reshape([math.log2(r) for r in ratios], (-1, len(config.alphas)))
    return curves, errors, rates


# ---------------------------------------------------------------------------
# output


def _write_csv(path: str, config: RunConfig, header, rows, **derived):
    # Integers print as %d and everything else as %.12e (nan as "nan"); one
    # format string serves every row, built from the first row's types: every
    # caller passes at least one row and keeps the types down each column.
    with open(path, "w", newline="") as fh:
        fh.write(f"# fracdg v{__version__} config={config.digest(**derived)}\n")
        fh.write(",".join(header) + "\n")
        fmt = ",".join("%d" if isinstance(v, (int, np.integer)) else "%.12e"
                       for v in rows[0]) + "\n"
        fh.writelines(fmt % tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_converge(args, config: RunConfig) -> list:
    if args.dry_run:
        for key, value in config.items():
            print(f"{key} = {value}")
        return []
    os.makedirs(config.out_dir, exist_ok=True)
    curves, errors, rates = run_convergence(config)
    labels = [f"{a:.4f}" for a in config.alphas]
    for n, curve in zip(config.n_list, curves):
        _write_csv(os.path.join(config.out_dir, f"error_curve_N{n}.csv"), config,
                   ["t", "error"] + [f"weighted_{a}" for a in labels], curve.tolist())
    # N, then E and rate per alpha; the coarsest run's rates are nan
    cells = np.stack([errors, np.vstack([np.full_like(errors[:1], math.nan), rates])], 2)
    rows = [[n, *row] for n, row in zip(config.n_list,
                                        cells.reshape(len(curves), -1).tolist())]
    table_path = os.path.join(config.out_dir, "error_table.csv")
    _write_csv(table_path, config, ["N"] + [f"{k}_{a}" for a in labels for k in ("E", "rate")],
               rows)
    print("N".ljust(7) + "".join(f"E[{a}]".rjust(13) + "rate".rjust(8) for a in labels))
    for i, (n, *row) in enumerate(rows):
        print(str(n).ljust(7) + "".join(f"{e:13.3e}" + (f"{r:8.3f}" if i else "       -")
                                        for e, r in zip(row[::2], row[1::2])))
    print(f"wrote {table_path} and {len(curves)} curve files")

    bad = sum(not 0.0 < e < math.inf for e in errors.flat)
    checks = [Check("non-finite or non-positive weighted errors", bad, 0)]
    # The baseline holds for the default study by either reference route.
    if replace(config, reference="transform", out_dir="out") == RunConfig():
        for a, column, rate_column in zip(config.alphas, errors.T, rates.T):
            base_e, base_r = _BASELINE[a]
            dev_e = max(abs(e / b - 1.0) for e, b in zip(column, base_e))
            dev_r = max(abs(r - b) for r, b in zip(rate_column, base_r))
            checks += [
                Check(f"baseline errors[alpha={a:.4f}] rel dev", dev_e,
                      _BASELINE_ERROR_SLACK),
                Check(f"baseline rates[alpha={a:.4f}] abs dev", dev_r,
                      _BASELINE_RATE_SLACK)]
    return checks


def cmd_phi(args, config: RunConfig) -> list:
    os.makedirs(config.out_dir, exist_ok=True)
    if args.nu is not None or args.quick:  # --quick alone: the default order
        grid = (config.nu,)
    else:
        grid = tuple(round(0.1 * k, 1) for k in range(1, 10))
    rows = [(nu, *row) for nu, row in zip(grid, phi_sweep(map(FractionalOrder, grid)))]

    path = os.path.join(config.out_dir, "phi_sweep.csv")
    _write_csv(path, config, ["nu", "phi1", "phi2", "min_delta", "skipped"], rows,
               grid=grid)
    for nu, phi1, phi2, min_delta, skipped in rows:
        print(f"nu={repr(nu).removesuffix('.0')}: phi1={phi1:.6f} phi2={phi2:.6f} "
              f"min_delta={min_delta:.2e} skipped={skipped}")
    print(f"wrote {path}")
    phis = np.array([r[1:3] for r in rows])  # no Phi_1 or Phi_2: fails as NaN
    return [Check("phi suprema", phis.max() if np.isfinite(phis).all() else math.nan, 1.1),
            Check("kernel sign (negated floor)", 0.0 - min(r[3] for r in rows), 1e-12)]


def cmd_delta(args, config: RunConfig) -> list:
    order = FractionalOrder(config.nu)
    mu, n = args.mu, args.n
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    # The branch cut, and with it the contour route, vanishes at nu = 1:
    # there "both" runs the direct route alone.
    contour_undefined = args.oracle == "both" and config.nu == 1.0
    values = {}
    if args.oracle in ("direct", "both"):
        values["direct"] = delta_direct(order, mu, n)
    if args.oracle in ("contour", "both") and not contour_undefined:
        values["contour"] = delta_contour(order, mu, n)
    for name, value in values.items():
        print(f"delta[{name}](nu={config.nu}, mu={mu}, n={n}) = {value:.12e}")
    if contour_undefined:
        print("delta[contour] is undefined at nu = 1; no agreement check")
    if len(values) < 2:
        return []
    gap = abs(values["direct"] - values["contour"])
    return [Check("oracle agreement", gap, max(1e-6, 1e-4 * abs(values["direct"])))]


def cmd_lemmas(args, config: RunConfig) -> list:
    os.makedirs(config.out_dir, exist_ok=True)
    checks = [Check(f"vanishing integral [nu={nu}]",
                    abs(lemma_integral_zero(FractionalOrder(nu))), 1e-8)
              for nu in (0.6, 0.75, 0.9)]
    small, large = lemma_scan_bounds()
    checks += [Check("power-mean scan, nu < 1/2", small[:, 1].max(), 3.0),
               Check("power-mean scan, nu > 1/2", large[:, 1].max(), 3.0),
               Check("resolvent ratio scan", resolvent_ratio_max(), 1.0),
               *symbol_checks()]
    for name, rows in (("lemma_scan_small.csv", small),
                       ("lemma_scan_large.csv", large)):
        path = os.path.join(config.out_dir, name)
        _write_csv(path, config, ["nu", "max_value", "argmax_x"],
                   [tuple(row) for row in rows])
    return checks


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# Flags that more than one subcommand reads.
_SHARED_FLAGS = {
    "--nu": dict(type=float, help="fractional order in (0, 1]"),
    "--quick": dict(action="store_true", help="reduced-size preset"),
    "--out": dict(dest="out_dir", metavar="DIR",
                  help="output directory (default: out)"),
}


def _add_shared(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracdg", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"fracdg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("converge", help="graded-mesh convergence study")
    _add_shared(p, "--nu", "--out", "--quick")
    p.add_argument("--N", dest="n_list", type=_list_of(int, "integers"), metavar="LIST",
                   help="comma-separated doubling chain of step counts")
    p.add_argument("--M", dest="m_intervals", type=int, metavar="INT",
                   help="number of spatial subintervals of (-1, 1) (even)")
    p.add_argument("--gamma", type=float, help="mesh grading exponent")
    p.add_argument("--alpha", dest="alphas", type=_list_of(float, "numbers"),
                   metavar="LIST", help="comma-separated error weights")
    p.add_argument("--reference", choices=("transform", "modal"),
                   help="exact-solution route for the error")
    p.add_argument("--dry-run", action="store_true",
                   help="print the resolved configuration and exit")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("phi", help="kernel suprema over an order grid")
    _add_shared(p, "--nu", "--out", "--quick")
    # Accepted and ignored, so existing command lines that pass it (the
    # benchmark's phi-sweep argv) keep working; the sweep is serial.
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("delta", help="single error-kernel values")
    _add_shared(p, "--nu")
    p.add_argument("--mu", type=float, required=True,
                   help="scaled eigenvalue lambda * dt^nu")
    p.add_argument("--n", type=int, required=True, help="step index")
    p.add_argument("--oracle", choices=("direct", "contour", "both"),
                   default="both", help="evaluation route")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("lemmas", help="quadrature and symbol identity checks")
    _add_shared(p, "--out")
    p.set_defaults(func=cmd_lemmas)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = resolve_config(args)
        checks = args.func(args, config)
        for check in checks:
            print(f"check {check.label}: {check.value:.3e} <= {check.bound:.3e} "
                  f"{'PASS' if check.passed else 'FAIL'}")
        failed = sum(not check.passed for check in checks)
        if failed:
            print(f"{args.command}: {failed} check(s) failed")
            return 2
        if checks:
            print(f"{args.command}: all checks passed")
        return 0
    except (ValueError, OSError, MemoryError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, QuadratureError) else 1


if __name__ == "__main__":
    sys.exit(main())
