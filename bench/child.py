"""One measured process of the fracdg benchmark; started by bench/run.py.

    python3 bench/child.py '<request json>'

The process imports fracdg.cli first and records the monotonic clock when
the import is done, so the parent can time set-up from its own start
timestamp.  Modes:

  ready  report library versions (also warms the bytecode cache)
  run    one fracdg.cli.main(argv) call, with the calibration kernel timed
         just before and after it
  trace  the same call with bench/tracer.py wrapping every layer
  probe  single-call costs of individual layer functions

The last line of standard output is the JSON result.
"""

import json
import sys
import time

import fracdg.cli as cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402


def calibrate():
    """Seconds for a fixed mix of scalar Python math and small numpy ops.

    The kernel uses no fracdg code, so its time tracks only how fast the
    host runs this process at the moment.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1, 200_000):
        acc += math.exp(-k * 1e-5) * math.lgamma(1.0 + 0.5 * (k % 50)) / k
    x = np.linspace(0.0, 1.0, 2000)
    for _ in range(1500):
        x = np.sqrt(x * x + 1e-3) * 0.999
    return time.perf_counter() - t0


def run_cli(argv, calibrated=False):
    # CLI chatter goes to a buffer so stdout carries only the result; the
    # printing itself stays inside the timed call.
    before = calibrate() if calibrated else 0.0
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    result = {"exit": code, "wall_s": time.perf_counter() - t0}
    if calibrated:
        result["cal_s"] = 0.5 * (before + calibrate())
    return result


def run_traced(argv, spans_path):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    with tracer:
        result = run_cli(argv)
    result["layers"] = layer_metrics(tracer)
    tracer.write(spans_path)
    return result


def per_call(fn, batches=7, batch_s=0.02):
    """Median seconds per call over batches of about batch_s each."""
    fn()
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(batch_s / max(time.perf_counter() - t0, 1e-9)))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def quad_calls(fn):
    """Number of quadpack calls one call of fn makes."""
    from tracer import Tracer

    with Tracer() as tracer:
        fn()
    return tracer.summary().get("special._quad", (0,))[0]


def probes(points):
    from fracdg.certify import delta_contour
    from fracdg.laplace import ContourSpec, reference_mode
    from fracdg.special import FractionalOrder, mittag_leffler_neg_with_error, symbol_cut
    from fracdg.stepping import dg_weights

    metrics, problems = {}, []
    # Branch regimes of mittag_leffler_neg_with_error: Taylor for s <= 1,
    # the asymptotic series above 1 when its error is <= 1e-13 (no
    # quadpack call), one quadpack call otherwise.
    expect = {"taylor": (lambda s: s <= 1.0, 0),
              "asym": (lambda s: s > 1.0, 0),
              "quad": (lambda s: s > 1.0, 1)}
    for branch, (in_range, quads) in expect.items():
        p = points["ml_" + branch]
        order = FractionalOrder(p["nu"])

        def call(order=order, s=p["s"]):
            return mittag_leffler_neg_with_error(order, s)

        got = quad_calls(call)
        if not in_range(p["s"]) or got != quads:
            problems.append(f"ml_{branch} probe at nu={p['nu']}, s={p['s']} "
                            f"made {got} quadpack calls, expected {quads}")
        metrics[f"special.ml.{branch}_us"] = per_call(call) * 1e6

    p = points["symbol_cut"]
    order = FractionalOrder(p["nu"])
    metrics["special.symbol_cut_ms"] = per_call(
        lambda: symbol_cut(order, p["s"])) * 1e3

    p = points["dg_weights"]
    order = FractionalOrder(p["nu"])
    metrics["stepping.dg_weights_us"] = per_call(
        lambda: dg_weights(order, p["n"])) * 1e6

    p = points["invert"]
    order = FractionalOrder(p["nu"])
    spec = ContourSpec.for_window(*p["window"])
    metrics["laplace.invert_us"] = per_call(
        lambda: reference_mode(order, p["lam"], 1.0, p["t"], spec)) * 1e6

    p = points["delta_contour"]
    order = FractionalOrder(p["nu"])
    metrics["certify.delta_contour_ms"] = per_call(
        lambda: delta_contour(order, p["mu"], p["n"]), batches=3, batch_s=0.0) * 1e3
    return {"probes": metrics, "problems": problems}


def versions():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                     if k in blas}}


def main():
    request = json.loads(sys.argv[1])
    mode = request["mode"]
    if mode == "run":
        result = run_cli(request["argv"], calibrated=True)
    elif mode == "trace":
        result = run_traced(request["argv"], request["spans"])
    elif mode == "probe":
        result = probes(request["points"])
    elif mode == "ready":
        result = versions()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["ready"] = READY
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
