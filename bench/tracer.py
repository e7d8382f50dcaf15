"""In-memory span tracer that wraps fracdg's layer functions from outside the package.

Each wrapped call records one span: name, start, end and the span that was
open when it began.  Spans stay in memory until ``write`` is called after
the run.  Callers inside fracdg import names directly (``cli`` does
``from .stepping import step_galerkin``), so ``install`` replaces a function
object in every fracdg module that holds it, not only in the module that
defines it.
"""

import inspect
import sys
import time
from collections import Counter

LAYERS = ("special", "stepping", "fem1d", "exact", "laplace", "certify", "cli")

# Private functions that mark a layer boundary the public names do not:
# every quadpack call goes through special._quad.
EXTRA = {"special": ("_quad",)}


def _galerkin_work(counters, result):
    # result has shape (n_steps + 1, ndof).  Step n reads the n - 1 stored
    # K U^j rows of the history; bytes are computed from array sizes, not
    # measured, so cache misses do not show in them.
    n_steps, ndof = result.shape[0] - 1, result.shape[1]
    reads = ndof * n_steps * (n_steps - 1) // 2
    counters["galerkin.dof_steps"] += n_steps * ndof
    counters["history.bytes"] += 8 * reads
    counters["history.flops"] += 2 * reads


def _windows(counters, result):
    counters["laplace.windows"] += len(result)


def _nodes(counters, result):
    counters["laplace.nodes"] += len(result[0])


HOOKS = {
    "stepping.step_galerkin": _galerkin_work,
    "laplace.window_chain": _windows,
    "laplace.contour_nodes": _nodes,
}


class Tracer:
    """Records spans of wrapped calls; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []          # distinct span names; spans hold an index
        self.name_of = []        # per span
        self.parents = []        # per span, -1 for a root span
        self.starts = []
        self.ends = []
        self.counters = Counter()
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parents, starts, ends = self.name_of, self.parents, self.starts, self.ends
        stack, clock, counters = self._stack, self.clock, self.counters

        def wrapper(*args, **kwargs):
            idx = len(ends)
            name_of.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import fracdg.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items()
                   if n == "fracdg" or n.startswith("fracdg.")]
        for layer in LAYERS:
            mod = sys.modules["fracdg." + layer]
            for attr in tuple(mod.__all__) + EXTRA.get(layer, ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, HOOKS.get(name))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        own = self_times(self.starts, self.ends, self.parents)
        calls, total, self_s = Counter(), Counter(), Counter()
        for i, nid in enumerate(self.name_of):
            calls[nid] += 1
            total[nid] += self.ends[i] - self.starts[i]
            self_s[nid] += own[i]
        return {self.names[n]: (calls[n], total[n], self_s[n]) for n in calls}

    def write(self, path):
        """Spans as text: a name table, then one line per span (times in us)."""
        t0 = min(self.starts, default=0.0)
        with open(path, "w") as fh:
            for nid, name in enumerate(self.names):
                fh.write(f"# {nid} {name}\n")
            fh.write("name start_us end_us parent\n")
            for nid, s, e, p in zip(self.name_of, self.starts, self.ends, self.parents):
                fh.write(f"{nid} {(s - t0) * 1e6:.3f} {(e - t0) * 1e6:.3f} {p}\n")


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its child spans cover."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        covered = 0.0
        lo = hi = None
        for k in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[k], starts[p]), min(ends[k], ends[p])
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out[p] -= covered
    return out


def layer_metrics(tracer):
    """Per-layer counts and times of one traced run, by benchmark metric name."""
    agg = tracer.summary()
    c = tracer.counters

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    galerkin_s = total("stepping.step_galerkin")
    history_gb = c["history.bytes"] / 1e9
    return {
        "special.ml.calls": calls("special.mittag_leffler_neg_with_error"),
        "special.ml.s": total("special.mittag_leffler_neg_with_error"),
        "special.quad.calls": calls("special._quad"),
        "special.quad.s": total("special._quad"),
        "stepping.galerkin.calls": calls("stepping.step_galerkin"),
        "stepping.galerkin.s": galerkin_s,
        "stepping.galerkin.dof_steps": c["galerkin.dof_steps"],
        "stepping.history.gb": history_gb,
        "stepping.history.gbps": history_gb / galerkin_s if galerkin_s else 0.0,
        "stepping.history.flop_per_byte":
            c["history.flops"] / c["history.bytes"] if c["history.bytes"] else 0.0,
        "stepping.mode.calls": calls("stepping.step_mode"),
        "stepping.mode.s": total("stepping.step_mode"),
        "fem1d.l2_error.calls": calls("fem1d.l2_error_from_values"),
        "fem1d.l2_error.s": total("fem1d.l2_error_from_values"),
        "fem1d.gauss_points.calls": calls("fem1d.gauss_points"),
        "fem1d.gauss_points.s": total("fem1d.gauss_points"),
        "exact.transform.calls": calls("exact.constant_data_transform"),
        "exact.transform.s": total("exact.constant_data_transform"),
        "exact.field.calls": calls("exact.exact_field"),
        "exact.field.self_s": own("exact.exact_field"),
        "laplace.windows": c["laplace.windows"],
        "laplace.nodes": c["laplace.nodes"],
        "certify.delta_series.self_s": own("certify.delta_series"),
        "certify.phi_sweep.self_s": own("certify.phi_sweep"),
        "cli.run_convergence.self_s": own("cli.run_convergence"),
        "cli.main.self_s": own("cli.main"),
    }
