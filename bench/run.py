"""phhs benchmark: fixed CLI scenarios run in-process through ``phhs.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload bigrid --seed 0 --seconds 30 --trace 0

One run builds each model of the workload in set-up, then repeats passes of
the workload's scenario list until ``--seconds`` is (about) used up.
``wall_s`` is the time of a pass's focus scenarios; the probe scenarios
only give the other verbs' times (``scenarios.py``).  Every
scenario's outputs are checked against reference outputs (``golden.py``).
With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` every public function of the ``phhs`` layers is wrapped in a
span (``spans.py``) and the per-layer metrics are reported instead.  The line
before it is a report with sample counts, percentiles and the environment.
See ``bench/NOTES.md``.
"""

import os

# Pinned before numpy loads: one BLAS/OpenMP thread, and the package's own
# thread-pool knob left at its default.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PHHS_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import golden  # noqa: E402
import scenarios  # noqa: E402

# set-up repeats until both limits are reached; the median is reported
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
EXPECTED_EXIT = 0


def metric_name(verb):
    return verb.replace("-", "_") + "_s"


def import_phhs(src):
    """Import ``phhs`` from ``src`` afresh (dropping any loaded copy) and return its cli."""
    for name in [m for m in sys.modules if m == "phhs" or m.startswith("phhs.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import phhs  # noqa: F401
    import phhs.cli

    return phhs.cli


def setup(src, workload, clock):
    """(cli, timed-call indices) of importing phhs and building and assembling the workload's models."""
    # dependencies are loaded once, outside the timing
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401

    def once():
        cli = import_phhs(src)
        from phhs.hamiltonian import assemble_phhs

        for spec in scenarios.SETUP_MODELS[workload]:
            assemble_phhs(cli.model_from_config(dict(spec)))
        return cli

    gc.collect()
    cli = once()  # the first repetition also compiles bytecode: not counted
    calls = []
    start = time.perf_counter()
    while len(calls) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        gc.collect()
        cli, idx = clock.time(once)
        calls.append(idx)
    return cli, calls


def percentile_report(samples):
    """Median, the highest percentile with at least 10 samples beyond it, and n."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    n = len(samples)
    pct = 100 * (n - 10) // n
    if pct > 50:
        out[f"p{pct}"] = sorted(samples)[-(-pct * n // 100) - 1]
    return out


def timing_report(pairs):
    """Percentile reports of (raw, normalized) second pairs."""
    return {
        "raw": percentile_report([p[0] for p in pairs]),
        "normalized": percentile_report([p[1] for p in pairs]),
    }


def normalized_median(pairs):
    return statistics.median(p[1] for p in pairs)


def run_cli(cli, argv):
    try:
        return cli.main(argv)
    except Exception as exc:  # a crash is a failed scenario run, not a benchmark crash
        return f"{type(exc).__name__}: {exc}"


def run_pass(cli, cases, clock):
    """Run each case once: [(verb, timed-call index, failure messages, identical files, files)]."""
    results = []
    for verb, cfg_path, out_dir, ref_dir in cases:
        gc.collect()
        argv = [verb, "--config", str(cfg_path), "--out", str(out_dir)]
        rc, idx = clock.time(lambda: run_cli(cli, argv))
        if rc != EXPECTED_EXIT:
            results.append((verb, idx, [f"exit {rc!r}, expected {EXPECTED_EXIT}"], [], []))
            continue
        msgs, identical, files = golden.compare(out_dir, ref_dir)
        results.append((verb, idx, msgs, identical, files))
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(scenarios.FOCUS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "phhs" / "cli.py").is_file():
        print(f"bench: no phhs sources under {src}; run from the repository root", file=sys.stderr)
        return 2

    variant = scenarios.variant_of(args.seed)
    work = root / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    cases = []
    for k, (verb, cfg) in enumerate(scenarios.workload(args.workload, variant)):
        case_dir = work / f"{k:02d}-{verb}"
        (case_dir / "out").mkdir(parents=True)
        cfg_path = case_dir / "scenario.json"
        cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")
        cases.append((verb, cfg_path, case_dir / "out", golden.GOLDEN_DIR / golden.key(verb, cfg)))
    # wall_s covers the focus scenarios only, so the probes do not change a workload's profile
    is_focus = [verb in scenarios.FOCUS[args.workload] for verb, *_ in cases]
    missing = [c[3].name for c in cases if not c[3].is_dir()]
    if missing:
        print(f"bench: no reference outputs for {missing}", file=sys.stderr)
        return 2

    clock = calibrate.Clock()
    try:
        cli, setup_calls = setup(src, args.workload, clock)

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install(scenarios.VERBS)

        verb_calls = {v: [] for v in scenarios.VERBS}
        pass_calls = []
        pass_wall = []
        attempted = failed = 0
        failures = []
        identical_in_every_pass = None
        files_total = set()
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results = run_pass(cli, cases, clock)
            pass_wall.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_pass()
            pass_calls.append([r[1] for r, focus in zip(results, is_focus) if focus])
            identical = set()
            for k, (verb, idx, msgs, same, files) in enumerate(results):
                verb_calls[verb].append(idx)
                attempted += 1
                if msgs:
                    failed += 1
                    failures.append(f"{cases[k][1].parent.name}: {msgs[:3]}")
                identical |= {(k, f) for f in same}
                files_total |= {(k, f) for f in files}
            identical_in_every_pass = identical if identical_in_every_pass is None else identical_in_every_pass & identical
            elapsed = time.perf_counter() - start
            # stop when one more pass would end nearer the deadline past it than before it
            if elapsed >= args.seconds - statistics.median(pass_wall) / 2:
                break
    finally:
        clock.stop()

    def pairs(calls):
        return [clock.seconds(i) for i in calls]

    setup_times = pairs(setup_calls)
    verb_times = {v: pairs(c) for v, c in verb_calls.items()}
    pass_times = []
    for calls in pass_calls:
        p = pairs(calls)
        pass_times.append((sum(x[0] for x in p), sum(x[1] for x in p)))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "passes": len(pass_calls),
        "wall_s": timing_report(pass_times),
        "verbs_s": {v: timing_report(t) for v, t in verb_times.items()},
        "setup_s": timing_report(setup_times),
        "kernel_s": percentile_report(clock.kernel_samples()),
        "failed_frac": failed / attempted,
        "golden_identical": [len(identical_in_every_pass), len(files_total)],
        "env": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "nproc": os.cpu_count(),
            "PHHS_THREADS": os.environ.get("PHHS_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "failures": failures[:10],
    }
    if tracer is None:
        metrics = {
            "wall_s": (normalized_median(pass_times), "s"),
            **{metric_name(v): (normalized_median(t), "s") for v, t in verb_times.items()},
            "setup_s": (normalized_median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.uninstall()
        metrics = dict(spans.layer_metrics(tracer, scenarios.VERBS))
        metrics["golden_identical"] = (len(identical_in_every_pass), "count")
        report["spans"] = len(tracer.start)
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
