"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest bench
"""

import json

import pytest

import run
from tracer import Tracer, layer_metrics, self_times


def test_self_time_subtracts_the_union_of_child_spans():
    # Span 0 has children [1, 4] and [3, 6], which overlap (union 5), and
    # [9, 12], which outlives it (only [9, 10] counts); span 3 is a
    # grandchild inside [1, 4].
    starts = [0.0, 1.0, 3.0, 2.0, 9.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_nests_spans_of_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    # outer runs 0..5, its two inner calls 1..2 and 3..4.
    assert tracer.parents == [-1, 0, 0]
    assert tracer.summary() == {"outer": (1, 5.0, 3.0), "inner": (2, 2.0, 2.0)}


def test_seed_fixes_probe_points_and_workload_order():
    assert run.plan(7) == run.plan(7)
    assert run.plan(7) != run.plan(8)
    assert sorted(run.plan(7)["order"]) == sorted(run.WORKLOADS)
    orders = {tuple(run.plan(seed)["order"]) for seed in range(20)}
    assert len(orders) > 1


@pytest.mark.parametrize("argv", [["converge", "--quick"], ["phi", "--quick"]])
def test_layer_counts_repeat_and_tracing_leaves_csv_bodies_unchanged(argv, tmp_path, capsys):
    import fracdg.cli as cli

    def once(out, traced):
        tracer = Tracer()
        if traced:
            tracer.install()
        try:
            assert cli.main(argv + ["--out", str(out)]) == 0
        finally:
            tracer.uninstall()
        counts = {k: v for k, v in layer_metrics(tracer).items() if k in run.EXACT}
        return counts, run.read_bodies(out)

    _, plain = once(tmp_path / "plain", traced=False)
    counts_a, bodies_a = once(tmp_path / "a", traced=True)
    counts_b, bodies_b = once(tmp_path / "b", traced=True)
    assert plain and bodies_a == plain and bodies_b == plain
    assert counts_a == counts_b
    assert sum(counts_a.values()) > 0
    assert not hasattr(cli.step_galerkin, "__wrapped__")


def test_gate_flags_value_drift_guard_regressions_and_exit_status():
    ref = run.load_reference("phi-sweep")
    assert run.check_outputs(0, ref, ref) == []
    assert run.check_outputs(2, ref, ref) == ["exit status 2"]

    header, *rows = ref["phi_sweep.csv"].splitlines()
    cells = rows[0].split(",")
    drifted = dict(ref)
    cells[1] = "%.12e" % (float(cells[1]) * (1.0 + 1e-4))
    drifted["phi_sweep.csv"] = "\n".join([header, ",".join(cells)] + rows[1:]) + "\n"
    assert "value(s) off reference" in run.check_outputs(0, drifted, ref)[0]

    cells = rows[0].split(",")
    cells[4] = "3"
    skipped = {"phi_sweep.csv": "\n".join([header, ",".join(cells)] + rows[1:]) + "\n"}
    assert any("skipped rose" in p for p in run.check_outputs(0, skipped, ref))


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
