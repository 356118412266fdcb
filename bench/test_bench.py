"""Checks of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds a nested a [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert np.allclose(spans.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


def test_wrapped_calls_give_nested_spans_and_layer_totals():
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    leaf_w = tracer.wrap("t.leaf", lambda: 1)
    outer_w = tracer.wrap("t.outer", lambda depth: leaf_w() + (outer_w(depth - 1) if depth else 0))
    assert outer_w(1) == 2
    # clock reads: outer 0 | leaf 1-2 | outer 3 | leaf 4-5 | outer 6 | outer 7
    stats = tracer.per_name()
    assert stats["t.leaf"] == (2, 2.0, 2.0)
    # the inner outer call lies inside the outer one: total counts it once
    calls, total, own = stats["t.outer"]
    assert (calls, total) == (2, 7.0)
    assert own == pytest.approx(7.0 - 2.0)
    assert tracer.span_arrays()[1].tolist() == [-1, 0, 0, 2]


def test_layer_metrics_are_per_pass_medians():
    # each pass: a 2x2 grid paying one H_I quad per node, and a 3x3 grid paying none
    for n_passes in (1, 3):
        ticks = iter(float(t) for t in range(1000))
        tracer = spans.Tracer(clock=lambda: next(ticks))
        quad = tracer.wrap("hamiltonian.primitive_scalar", lambda: 0)
        grid = tracer.wrap(
            "flows.trajectory_grid",
            lambda fields, x0, z0, t_range, s_range, nt, ns, quads: [q() for q in quads],
            tracer._grid_hook,
        )
        verb = tracer.wrap("cli.integrate", lambda: (grid(0, 0, 0, 0, 0, 2, 2, [quad] * 4), grid(0, 0, 0, 0, 0, 3, 3, [])))
        for _ in range(n_passes):
            verb()
            tracer.end_pass()
        metrics = spans.layer_metrics(tracer, ["integrate"])
        assert metrics["cli.integrate.calls"] == (1, "count")
        assert metrics["flows.trajectory_grid.calls"] == (2, "count")
        assert metrics["hamiltonian.primitive_scalar.calls"] == (4, "count")
        # clock reads per pass: verb 2, grids 2 + 2, quads 4 x 2
        assert metrics["cli.integrate.total_s"] == (13.0, "s")
        assert metrics["hamiltonian.quad_per_node"] == (1.0, "ratio")


def _distinct_cases():
    seen = {}
    for wl in scenarios.FOCUS:
        for verb, cfg in scenarios.workload(wl, 0):
            seen.setdefault(golden.key(verb, cfg), (verb, cfg))
    return list(seen.values())


def test_traced_run_writes_the_same_bytes(tmp_path):
    cli = run.import_phhs(BENCH.parent / "src")
    plain, traced = [], []
    for k, (verb, cfg) in enumerate(_distinct_cases()):
        cfg_path = tmp_path / f"{k}.json"
        cfg_path.write_text(json.dumps(cfg))
        plain.append((verb, cfg_path, tmp_path / "plain" / str(k)))
        traced.append((verb, cfg_path, tmp_path / "traced" / str(k)))
    for verb, cfg_path, out in plain:
        assert cli.main([verb, "--config", str(cfg_path), "--out", str(out)]) == 0
    tracer = spans.Tracer()
    tracer.install(scenarios.VERBS)
    try:
        for verb, cfg_path, out in traced:
            assert cli.main([verb, "--config", str(cfg_path), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    stats = tracer.per_name()
    for v in scenarios.VERBS:
        assert stats[f"cli.{v}"][0] == sum(case[0] == v for case in traced)
    for (_, _, a), (_, _, b) in zip(plain, traced):
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), f"{a.name}/{name}"


def test_golden_comparison_tolerates_last_digits_only(tmp_path):
    ref, out = tmp_path / "ref", tmp_path / "out"
    ref.mkdir()
    out.mkdir()
    (ref / "summary.json").write_text('{"checks": [{"pass": true, "value": 0.5}], "x": 1.0}\n')
    (ref / "a.csv").write_text("i,v\n0,1.0000000000000002\n")
    (out / "summary.json").write_text('{"checks": [{"pass": true, "value": 0.5}], "x": 1.0}\n')
    (out / "a.csv").write_text("i,v\n0,1\n")
    msgs, identical, files = golden.compare(out, ref)
    assert msgs == [] and identical == ["summary.json"] and files == ["a.csv", "summary.json"]
    (out / "a.csv").write_text("i,v\n0,1.001\n")
    (out / "summary.json").write_text('{"checks": [{"pass": false, "value": 0.5}], "x": 1.0}\n')
    msgs, _, _ = golden.compare(out, ref)
    assert len(msgs) == 2


def test_every_variant_has_references():
    for wl in scenarios.FOCUS:
        for variant in range(scenarios.VARIANTS):
            for verb, cfg in scenarios.workload(wl, variant):
                assert (golden.GOLDEN_DIR / golden.key(verb, cfg) / "summary.json").is_file()


def test_clock_takes_kernel_time_out_and_scales_by_nearby_samples():
    clock = calibrate.Clock()
    clock.stop()
    ref = calibrate.REFERENCE_S
    # kernel samples at 0.0, 1.0 (inside the call) and 9.0 (far away)
    for start, dur in ((0.0, ref), (1.0, 3 * ref), (9.0, 100 * ref)):
        clock.tick_start.append(start)
        clock.tick_end.append(start + dur)
    clock.intervals.append((0.5, 2.0))
    raw, norm = clock.seconds(0)
    assert raw == pytest.approx(1.5 - 3 * ref)
    assert norm == pytest.approx(raw / 2.0)
