"""fracdg benchmark: four fixed CLI workloads, end to end and layer by layer.

Run from the root of a fracdg checkout:

    python3 bench/run.py --workload converge-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, both passes
    python3 bench/run.py --record                    # re-record the reference CSVs

One closed-loop client runs one workload at a time, serially.  Each sample
is one ``fracdg.cli.main([...])`` call in a fresh interpreter (bench/child.py)
whose OpenMP and OpenBLAS thread counts are set to 1 before numpy loads; the
next sample starts when the previous one has ended.  Samples repeat until
--seconds have passed (at least MIN_SAMPLES).

--trace 0 reports the end-to-end metrics (medians over the samples except
wall_rel):
  wall_rel     wall time of the cli.main calls (CSV writes and built-in checks
               included) over the time of a fixed calibration kernel that
               each sample process runs just before and after its call,
               both summed over the run
  setup_s      from starting a fresh interpreter until fracdg.cli is imported
  peak_rss_mb  peak resident memory of the sample process
  ok_share     samples that passed the correctness gate / samples attempted
The raw wall time (wall_s) is printed beside them but not gated.  On a
shared 2-vCPU virtual machine the speed a process gets drifts by up to 1.5x
over minutes, and raw medians of repeated runs spread by 13-42%
(interquartile range over median); the calibrated ratio cancels the drift.
The kernel (bench/child.py: calibrate) uses no fracdg code.

--trace 1 pairs untraced and traced samples (bench/tracer.py wraps every
layer's public functions) and reports per-layer counts and times, the tracing
overhead, and single-call probes at points drawn from --seed.

Correctness gate, on every sample: exit status 0; every CSV value within
RTOL relative (plus ATOL absolute) of the values recorded from the seed commit
in bench/reference; the guard columns do not regress (``skipped`` and
``min_delta`` of phi_sweep.csv, finite positive errors in error_table.csv).
With --trace 1 the traced CSV bodies must also be byte-identical to the
untraced ones and the per-layer counts must repeat exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record with the machine and
provenance block goes to .bench_out/.
"""

import argparse
import csv
import gzip
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"

# Why each workload was chosen is also recorded in BENCHMARK.json.
WORKLOADS = {
    # Headline study, transform reference: short history, 999 DOF, no
    # Mittag-Leffler calls; carries the CLI's baseline-table check.
    "converge-default": ["converge"],
    # Long history, 249 DOF: the only workload where stepping dominates.
    "converge-long": ["converge", "--nu", "0.3", "--M", "250",
                      "--N", "640,1280,2560,5120"],
    # Kernel sweep over nine orders: scalar Mittag-Leffler and quadpack.
    "phi-sweep": ["phi", "--jobs", "1"],
    # Modal reference: Mittag-Leffler on its asymptotic branch.
    "converge-modal": ["converge", "--quick", "--reference", "modal"],
}

END_TO_END = {"wall_rel": "cal", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}
# Per-layer metrics, by layer, with the end-to-end figure each should move.
PER_LAYER = {
    # special: wall_rel of phi-sweep and converge-modal; no change on the two
    # transform-reference converge workloads, which make no Mittag-Leffler calls.
    "special.ml.calls": "count", "special.ml.s": "s",
    "special.quad.calls": "count", "special.quad.s": "s",
    "special.ml.taylor_us": "us", "special.ml.asym_us": "us",
    "special.ml.quad_us": "us", "special.symbol_cut_ms": "ms",
    # stepping: wall_rel and peak_rss_mb of converge-long most, converge-default
    # second, ~no change on converge-modal; stepping.mode.s moves phi-sweep.
    "stepping.galerkin.calls": "count", "stepping.galerkin.s": "s",
    "stepping.galerkin.dof_steps": "count", "stepping.history.gb": "GB",
    "stepping.history.gbps": "GB/s", "stepping.history.flop_per_byte": "flop/B",
    "stepping.mode.calls": "count", "stepping.mode.s": "s",
    "stepping.dg_weights_us": "us",
    # fem1d: converge-default and converge-long; no change on phi-sweep.
    "fem1d.l2_error.calls": "count", "fem1d.l2_error.s": "s",
    "fem1d.gauss_points.calls": "count", "fem1d.gauss_points.s": "s",
    # exact: transform.* the transform-reference converge workloads,
    # field.* converge-modal.
    "exact.transform.calls": "count", "exact.transform.s": "s",
    "exact.field.calls": "count", "exact.field.self_s": "s",
    # laplace: the transform-reference converge workloads; the counts catch
    # changes in contour size.
    "laplace.windows": "count", "laplace.nodes": "count", "laplace.invert_us": "us",
    # certify: phi-sweep; delta_contour_ms stands in for the delta and lemmas
    # workflows, too short (0.02-0.1 s) to be steady workloads.
    "certify.delta_series.self_s": "s", "certify.phi_sweep.self_s": "s",
    "certify.delta_contour_ms": "ms",
    # cli: both transform-reference converge workloads; run_convergence's self
    # time is mostly reference evaluation.
    "cli.run_convergence.self_s": "s", "cli.main.self_s": "s", "cli.csv_bytes": "B",
    # Traced minus untraced wall time of the same workload.
    "trace.overhead_s": "s",
}
# Per-layer metrics that are counts, or computed from counts only: they must
# repeat exactly across traced runs.
EXACT = {name for name, unit in PER_LAYER.items() if unit in ("count", "GB", "flop/B", "B")}

RTOL = 1e-6
ATOL = 1e-12          # the kernel-sign noise floor the CLI itself uses
MIN_SAMPLES = 3
MIN_TRACED = 2
RUN_LIMIT_S = 170.0   # every child is killed by then


def plan(seed):
    """Workload order and probe points; a pure function of the seed."""
    rng = random.Random(seed)
    order = list(WORKLOADS)
    rng.shuffle(order)

    def nu(lo=0.1, hi=0.9):
        return rng.uniform(lo, hi)

    # Ranges sit well inside each Mittag-Leffler branch; the probe child
    # still asserts the branch by counting quadpack calls.
    probes = {
        "ml_taylor": {"nu": nu(), "s": rng.uniform(0.05, 1.0)},
        "ml_asym": {"nu": nu(), "s": 10.0 ** rng.uniform(3.0, 5.0)},
        "ml_quad": {"nu": nu(0.55, 0.9), "s": rng.uniform(1.5, 4.0)},
        "symbol_cut": {"nu": nu(), "s": 10.0 ** rng.uniform(-3.0, 1.0)},
        "dg_weights": {"nu": nu(), "n": rng.randint(640, 2560)},
        "invert": {"nu": nu(), "lam": 10.0 ** rng.uniform(0.0, 4.0),
                   "t": rng.uniform(0.02, 0.5), "window": [0.02, 0.5]},
        "delta_contour": {"nu": nu(), "mu": 2.0 ** rng.uniform(-4.0, 4.0),
                          "n": rng.randint(20, 200)},
    }
    return {"order": order, "probes": probes}


# ---------------------------------------------------------------------------
# correctness gate


def read_bodies(out_dir):
    """CSV file name -> body, the '#' metadata line dropped."""
    bodies = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.glob("*.csv")):
            lines = path.read_text().splitlines(keepends=True)
            bodies[path.name] = "".join(ln for ln in lines if not ln.startswith("#"))
    return bodies


def load_reference(name):
    path = REFERENCE / f"{name}.json.gz"
    if not path.is_file():
        return None
    return json.loads(gzip.decompress(path.read_bytes()))


def _rows(body):
    return list(csv.reader(io.StringIO(body)))


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def check_outputs(exit_code, bodies, reference):
    """Problems found in one sample's outputs; empty when it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit status {exit_code}")
    if reference is None:
        return problems + ["no reference recorded (run bench/run.py --record)"]
    if sorted(bodies) != sorted(reference):
        return problems + [f"CSV files {sorted(bodies)} != reference {sorted(reference)}"]
    for fname, ref_body in reference.items():
        got, ref = _rows(bodies[fname]), _rows(ref_body)
        if got[:1] != ref[:1] or len(got) != len(ref):
            problems.append(f"{fname}: header or row count differs from reference")
            continue
        bad = [(i, j) for i, (row, ref_row) in enumerate(zip(got[1:], ref[1:]), 1)
               for j, (a, b) in enumerate(zip(row, ref_row))
               if len(row) != len(ref_row) or not _close(float(a), float(b))]
        if bad:
            i, j = bad[0]
            problems.append(f"{fname}: {len(bad)} value(s) off reference, first at row {i} "
                            f"column {ref[0][j]}: {got[i][j]} vs {ref[i][j]}")
    return problems + _guard_problems(bodies, reference)


def _guard_problems(bodies, reference):
    problems = []
    if "phi_sweep.csv" in bodies:
        got = list(csv.DictReader(io.StringIO(bodies["phi_sweep.csv"])))
        ref = list(csv.DictReader(io.StringIO(reference["phi_sweep.csv"])))
        for row, ref_row in zip(got, ref):
            if int(row["skipped"]) > int(ref_row["skipped"]):
                problems.append(f"phi_sweep.csv nu={row['nu']}: skipped rose to {row['skipped']}")
            if float(row["min_delta"]) < -ATOL:
                problems.append(f"phi_sweep.csv nu={row['nu']}: min_delta {row['min_delta']} < 0")
    if "error_table.csv" in bodies:
        for row in csv.DictReader(io.StringIO(bodies["error_table.csv"])):
            for key, value in row.items():
                if key.startswith("E_") and not (math.isfinite(float(value))
                                                 and float(value) > 0.0):
                    problems.append(f"error_table.csv N={row['N']}: {key}={value}")
    return problems


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Starts child processes from one checkout, all before a shared deadline."""

    def __init__(self, root, deadline):
        self.root = root
        self.out = root / ".bench_out"
        self.deadline = deadline
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
                        PYTHONPATH=str(root / "src"))

    def spawn(self, request):
        """(result, error) of one child; setup_s is measured from its start."""
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(request)],
                                cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "timed out"
        if proc.returncode != 0:
            return None, f"child exited with status {proc.returncode}"
        result = json.loads(out.splitlines()[-1])
        result["setup_s"] = result.pop("ready") - start
        return result, None

    def sample(self, name, traced=False):
        """One checked cli.main call of the workload."""
        out_dir = self.out / name / "csv"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = WORKLOADS[name] + ["--out", str(out_dir.relative_to(self.root))]
        request = {"mode": "trace" if traced else "run", "argv": argv,
                   "spans": str(self.out / name / "spans.txt")}
        result, error = self.spawn(request)
        if result is None:
            return {"ok": False, "problems": [error]}
        bodies = read_bodies(out_dir)
        result["problems"] = check_outputs(result["exit"], bodies, load_reference(name))
        result["ok"] = not result["problems"]
        result["bodies"] = bodies
        result["csv_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
        return result

    def timed_out(self):
        return time.monotonic() >= self.deadline


def _loop(seconds, minimum, step, runner):
    """Call step() until seconds have passed, at least minimum times."""
    start = time.monotonic()
    results, last = [], 0.0
    while len(results) < minimum or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        results.append(step())
        last = time.monotonic() - t0
        if runner.timed_out():
            break
    return results


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure_end_to_end(runner, name, seconds):
    samples = _loop(seconds, MIN_SAMPLES, lambda: runner.sample(name), runner)
    done = [s for s in samples if "wall_s" in s]
    failed = sum(not s["ok"] for s in samples)
    metrics, spread = {}, {}
    for key in ("wall_s", "cal_s", "setup_s", "peak_rss_mb"):
        values = [s[key] for s in done] or [0.0]
        metrics[key] = statistics.median(values)
        spread[key] = _quartiles(values)
    # A ratio of totals over the whole run: the host's speed drifts over
    # minutes but also jumps within seconds, too fast for the calibration next
    # to one sample to follow.  Over 10 runs per workload this spread 4-9%
    # (interquartile range over median), against 6-16% for a ratio of medians.
    cal = sum(s["cal_s"] for s in done)
    metrics["wall_rel"] = sum(s["wall_s"] for s in done) / cal if cal else 0.0
    metrics["ok_share"] = (len(samples) - failed) / len(samples)
    problems = [p for s in samples for p in s["problems"]]
    rows = [{k: s[k] for k in ("wall_s", "cal_s", "setup_s", "peak_rss_mb", "ok")}
            for s in done]
    return metrics, spread, len(samples), failed, problems, rows


def measure_layers(runner, name, seconds, points):
    probe, error = runner.spawn({"mode": "probe", "points": points})
    problems = [error] if probe is None else list(probe["problems"])

    def pair():
        return runner.sample(name), runner.sample(name, traced=True)

    pairs = _loop(seconds, MIN_TRACED, pair, runner)
    samples = [s for p in pairs for s in p]
    failed = sum(not s["ok"] for s in samples) + (probe is None or bool(probe["problems"]))
    problems += [p for s in samples for p in s["problems"]]
    plain = [s for s, _ in pairs if "wall_s" in s]
    traced = [t for _, t in pairs if "layers" in t]
    for s, t in pairs:
        if "bodies" in s and "bodies" in t and s["bodies"] != t["bodies"]:
            problems.append("traced CSV bodies differ from the untraced run")
    metrics = {}
    if traced:
        first = traced[0]["layers"]
        for t in traced[1:]:
            moved = [k for k in EXACT if k in first and t["layers"][k] != first[k]]
            if moved:
                problems.append(f"per-layer counts changed between traced runs: {moved}")
        for key in first:
            values = [t["layers"][key] for t in traced]
            metrics[key] = first[key] if key in EXACT else statistics.median(values)
        metrics["cli.csv_bytes"] = traced[0]["csv_bytes"]
        if plain:
            metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                           - statistics.median(s["wall_s"] for s in plain))
    if probe is not None:
        metrics.update(probe["probes"])
    for key in PER_LAYER:
        metrics.setdefault(key, 0.0)
    rows = [{"wall_s": s.get("wall_s"), "traced_wall_s": t.get("wall_s")} for s, t in pairs]
    return metrics, len(samples) + 1, failed, problems, rows


# ---------------------------------------------------------------------------
# reporting


def machine(root, seed):
    """Machine and provenance block (cache sizes read from /sys, read-only)."""
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "caches": caches, "commit": _commit(root), "seed": seed}


def _commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _print_metrics(title, metrics, units, spread=None):
    print(title)
    for key, unit in units.items():
        value = metrics[key]
        extra = ""
        if spread and key in spread:
            extra = "   (q1 %.6g, q3 %.6g)" % spread[key]
        print(f"  {key:32s} {value:14.6g} {unit}{extra}")


def run_workload(runner, name, seed, seconds, trace):
    """(metrics, attempted, failed, problems, rows) of one workload, printed as a table."""
    if trace:
        metrics, attempted, failed, problems, rows = measure_layers(
            runner, name, seconds, plan(seed)["probes"])
        _print_metrics(f"{name}: per-layer metrics from traced runs", metrics, PER_LAYER)
        print("  (stepping.history.* bytes are computed from array sizes, not measured)")
        units = PER_LAYER
    else:
        metrics, spread, attempted, failed, problems, rows = measure_end_to_end(
            runner, name, seconds)
        _print_metrics(f"{name}: {attempted} samples, one fresh interpreter each",
                       metrics, {**END_TO_END, "wall_s": "s (raw, not gated)",
                                 "cal_s": "s (calibration kernel)"}, spread)
        units = END_TO_END
    for p in problems[:20]:
        print(f"  FAILED: {p}")
    result = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return result, attempted, failed, problems, rows


def record(runner):
    REFERENCE.mkdir(exist_ok=True)
    for name in WORKLOADS:
        sample = runner.sample(name)
        if sample.get("exit") != 0:
            raise SystemExit(f"{name}: cannot record a failing run: {sample['problems']}")
        data = json.dumps(sample["bodies"], sort_keys=True).encode()
        (REFERENCE / f"{name}.json.gz").write_bytes(gzip.compress(data, mtime=0))
        print(f"recorded {name}: {len(sample['bodies'])} CSV files")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record bench/reference from this checkout")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fracdg" / "cli.py").is_file():
        print("error: run from the root of a fracdg checkout (src/fracdg/cli.py missing)",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    limit = RUN_LIMIT_S * (len(WORKLOADS) * 2 if args.workload == "all" else 1)
    runner = Runner(root, time.monotonic() + limit)
    if args.record:
        record(runner)
        return 0

    versions, error = runner.spawn({"mode": "ready"})
    provenance = {**machine(root, args.seed), **(versions or {"versions": error})}
    provenance.pop("setup_s", None)
    provenance.pop("peak_rss_mb", None)
    print("provenance: " + json.dumps(provenance))

    if args.workload == "all":
        jobs = [(name, trace) for name in plan(args.seed)["order"] for trace in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    metrics, attempted, failed, problems, samples = {}, 0, 0, [], {}
    for name, trace in jobs:
        m, a, f, p, rows = run_workload(runner, name, args.seed, args.seconds, trace)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted, failed, problems = attempted + a, failed + f, problems + p
        samples[f"{name} trace={trace}"] = rows
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    runner.out.mkdir(exist_ok=True)
    record_path = runner.out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({**result, "provenance": provenance,
                                       "problems": problems, "samples": samples}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
