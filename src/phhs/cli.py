"""Scenario runner: ``phhs <verb> --config <path> [--out <dir>] [--tolerance-scale <k>]``.

A scenario is one JSON document.  Shared keys:

    model       : {"name": ..., ...parameters, expressions as strings}
    flow        : {"dt": 1e-3, "max_steps": 5000000}      (optional)
    tolerances  : {"swap": ..., "energy": ...} thresholds (optional)

Verbs and their keys (``KEYS``; any other top-level key is a configuration
error, so a misspelled key never falls back to its default):

    integrate          model, flow, tolerances, x0, z0 ([re, im] or number),
                       t_range, s_range, nt, ns
    foliate            model, flow, tolerances, x0, words ([[t, s], ...] lists)
    monodromy          model, flow, x0, path ([[re, im], ...]), expect
                       ("closed" | "negated" | null), tolerance
    action-check       model, flow, x0, z0, t_range, s_range, nt, ns, displace
                       (optional {"node": [i, j], "coord": k, "amount": a},
                       0 <= i < nt, 0 <= j < ns, 0 <= k < dim),
                       ratio_min, parts ("both" | "real")
    integrability-scan model, center, half_width, per_axis, threshold
    deform             epsilons, n, hamiltonian, bump {center, radius},
                       center, half_width, per_axis, threshold
    morse-period       v (expression in x1, y1), T, flow, radii, energies,
                       tolerance_period, tolerance_area
    connection-check   metric {"kind": "euclidean" | "diag", "entries": [...],
                       "n": ...}, points (optional, dimension 2k; "diag"
                       entries are numbers or expressions in x1..xk),
                       holo_metric {"entries": [[...]]} (optional,
                       expressions in z1..zn); the metric builders compile
                       the entries to functions of a whole point stack

Model names: central_problem, standard_hhs (n, H), proper_phhs (f, h, H_R),
rotation (phi), deformation (epsilon, n, hamiltonian, bump), torus
(generators, H optional).  Expressions H use z1..zm, Q1..Qn, P1..Pn (m = 2n);
f, h, H_R and phi use x1, x2, y1, y2 and the aliases z1, z2, Q1, P1.

Outputs: one or more CSV data files plus ``summary.json`` echoing the fully
resolved configuration, all residuals and their tolerances, and a per-check
pass flag.  Identical configurations produce byte-identical outputs: floats
are written with 17 significant digits and no timestamps enter the files.

Exit codes: 0 all checks pass, 2 numerical check failed, 3 configuration or
expression parse error, 4 runtime failure (singular locus, step budget, ...).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import models as model_lib
from .actions import ParallelogramAction, curve_from_grid, gradient_max_norm
from .errors import ParseError, PhhsError
from .flows import FlowConfig, commutation_defect, continue_along_path, flow_word, trajectory_grid
from .hamiltonian import assemble_phhs, integrability_report, omega_I_from
from .morse import PlanarSystem, area_law_check, period_function, verify_T_periodic
from .tensors import exterior_derivative_2form
from .util import grid_points, max_abs
from . import connections as conn

FMT = "%.17g"


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(FMT % float(x))
    if isinstance(x, complex):
        return {"re": _fmt(x.real), "im": _fmt(x.imag)}
    if isinstance(x, np.ndarray):
        return [_fmt(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in sorted(x.items())}
    return x


def _write_json(path, obj):
    path.write_text(json.dumps(_fmt(obj), indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(FMT % v if isinstance(v, (float, np.floating)) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


class ConfigError(Exception):
    pass


def _require(cfg, key, verb):
    if key not in cfg:
        raise ConfigError(f"scenario for {verb!r} is missing the key {key!r}")
    return cfg[key]


def _check(name, value, tolerance, passed=None):
    """One ``checks`` entry; it passes when value <= tolerance unless ``passed`` says otherwise."""
    return {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "pass": value <= tolerance if passed is None else passed,
    }


def _z0(cfg):
    """The anchor time ``z0``: a number or an [re, im] pair, 0 by default."""
    z0 = cfg.get("z0", 0.0)
    return complex(z0[0], z0[1]) if isinstance(z0, list) else complex(z0)


def _flow_config(cfg):
    f = dict(cfg.get("flow", {}))
    return FlowConfig(dt=float(f.get("dt", 1e-3)), max_step_count=int(f.get("max_steps", 5_000_000)))


def model_from_config(spec):
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("model must be an object with a 'name'")
    name = spec["name"]
    if name == "central_problem":
        return model_lib.build_central_problem()
    if name == "standard_hhs":
        return model_lib.build_standard_hhs(int(spec.get("n", 1)), spec.get("H", "P1"))
    if name == "proper_phhs":
        return model_lib.build_proper_phhs(
            f=spec.get("f", "1"), h=spec.get("h", "1"), H_R=spec.get("H_R", "-y1")
        )
    if name == "rotation":
        return model_lib.build_rotation_family(spec.get("phi", "0"))
    if name == "deformation":
        bump = spec.get("bump", {})
        return model_lib.build_deformation(
            float(spec.get("epsilon", 0.0)),
            n=int(spec.get("n", 1)),
            hamiltonian=spec.get("hamiltonian", "const"),
            bump_center=bump.get("center"),
            bump_radius=float(bump.get("radius", 0.8)),
        )
    if name == "torus":
        lattice = model_lib.Lattice(np.asarray(spec["generators"], dtype=float))
        return model_lib.build_torus_model(lattice, H=spec.get("H"))
    raise ConfigError(f"unknown model {name!r}")


def _resolved(cfg, verb, defaults):
    out = {"verb": verb}
    out.update(defaults)
    out.update(cfg)
    return out


def _finish(outdir, summary, checks):
    summary["checks"] = checks
    summary["pass"] = all(c["pass"] for c in checks)
    _write_json(outdir / "summary.json", summary)
    return 0 if summary["pass"] else 2


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def run_integrate(cfg, outdir, scale):
    model = model_from_config(_require(cfg, "model", "integrate"))
    fields = assemble_phhs(model)
    fcfg = _flow_config(cfg)
    x0 = np.asarray(_require(cfg, "x0", "integrate"), dtype=float)
    grid = trajectory_grid(
        fields,
        x0,
        _z0(cfg),
        tuple(_require(cfg, "t_range", "integrate")),
        tuple(_require(cfg, "s_range", "integrate")),
        int(_require(cfg, "nt", "integrate")),
        int(_require(cfg, "ns", "integrate")),
        fcfg,
    )
    rows = []
    cr = grid.diagnostics["cr_nodes"]
    for i in range(grid.nt):
        for j in range(grid.ns):
            rows.append(
                [i, j, grid.t_nodes[i], grid.s_nodes[j]]
                + list(grid.values[i, j])
                + [cr[i, j]]
            )
    dim = grid.values.shape[-1]
    _write_csv(
        outdir / "grid.csv",
        ["i", "j", "t", "s"] + [f"c{k}" for k in range(dim)] + ["cr_residual"],
        rows,
    )
    tol = cfg.get("tolerances", {})
    diag = grid.diagnostics
    checks = [
        _check("swap_defect", diag["swap_defect"], scale * float(tol.get("swap", 1e-6))),
        _check(
            "energy_drift",
            max(diag["energy_drift_R"], diag["energy_drift_I"]),
            scale * float(tol.get("energy", 1e-6)),
        ),
    ]
    summary = _resolved(cfg, "integrate", {"flow": {"dt": fcfg.dt, "max_steps": fcfg.max_step_count}})
    summary["results"] = {
        k: v for k, v in grid.diagnostics.items() if k != "cr_nodes"
    }
    return _finish(outdir, summary, checks)


def run_foliate(cfg, outdir, scale):
    model = model_from_config(_require(cfg, "model", "foliate"))
    fields = assemble_phhs(model)
    fcfg = _flow_config(cfg)
    x0 = np.asarray(_require(cfg, "x0", "foliate"), dtype=float)
    words = _require(cfg, "words", "foliate")
    h_r0 = float(fields.model.H_R(x0))
    h_i0 = float(fields.H_I(x0))
    rows = []
    drift = 0.0
    for w_idx, word in enumerate(words):
        end = flow_word(fields, x0, [(float(t), float(s)) for t, s in word], fcfg)
        dr = abs(float(fields.model.H_R(end)) - h_r0)
        di = abs(float(fields.H_I(end)) - h_i0)
        drift = max(drift, dr, di)
        rows.append([w_idx] + list(end) + [dr, di])
    _write_csv(
        outdir / "endpoints.csv",
        ["word"] + [f"c{k}" for k in range(x0.size)] + ["drift_H_R", "drift_H_I"],
        rows,
    )
    tol = scale * float(cfg.get("tolerances", {}).get("energy", 1e-6))
    checks = [_check("leaf_containment", drift, tol)]
    summary = _resolved(cfg, "foliate", {"flow": {"dt": fcfg.dt, "max_steps": fcfg.max_step_count}})
    summary["results"] = {"max_energy_drift": drift}
    return _finish(outdir, summary, checks)


def run_monodromy(cfg, outdir, scale):
    model = model_from_config(_require(cfg, "model", "monodromy"))
    fields = assemble_phhs(model)
    fcfg = _flow_config(cfg)
    x0 = np.asarray(_require(cfg, "x0", "monodromy"), dtype=float)
    path = [complex(z[0], z[1]) for z in _require(cfg, "path", "monodromy")]
    end = continue_along_path(fields, x0, path, fcfg)
    tol = scale * float(cfg.get("tolerance", 1e-5))
    expect = cfg.get("expect")
    checks = []
    closed = float(np.max(np.abs(end - x0)))
    negated = float(np.max(np.abs(end + x0)))
    if expect == "closed":
        checks.append(_check("endpoint_closed", closed, tol))
    elif expect == "negated":
        checks.append(_check("endpoint_negated", negated, tol))
    summary = _resolved(cfg, "monodromy", {"flow": {"dt": fcfg.dt, "max_steps": fcfg.max_step_count}})
    summary["results"] = {"endpoint": list(end), "closed_defect": closed, "negated_defect": negated}
    _write_csv(outdir / "endpoint.csv", [f"c{k}" for k in range(x0.size)], [list(end)])
    return _finish(outdir, summary, checks)


def run_action_check(cfg, outdir, scale):
    model = model_from_config(_require(cfg, "model", "action-check"))
    fcfg = _flow_config(cfg)
    x0 = np.asarray(_require(cfg, "x0", "action-check"), dtype=float)
    nt, ns = int(cfg.get("nt", 13)), int(cfg.get("ns", 13))
    disp = cfg.get("displace")
    if disp:
        i, j = (int(v) for v in disp.get("node", [nt // 2, ns // 2]))
        k = int(disp.get("coord", 0))
        if not (0 <= i < nt and 0 <= j < ns):
            raise ConfigError(f"displace node [{i}, {j}] lies outside the {nt} x {ns} grid")
        if not 0 <= k < model.dim:
            raise ConfigError(f"displace coord {k} is outside [0, {model.dim})")
    fields = assemble_phhs(model)
    grid = trajectory_grid(
        fields,
        x0,
        _z0(cfg),
        tuple(cfg.get("t_range", [0.0, 1.0])),
        tuple(cfg.get("s_range", [0.0, 1.0])),
        nt,
        ns,
        fcfg,
    )
    parts = cfg.get("parts", "both")
    action = ParallelogramAction(fields, parts=parts)
    curve = curve_from_grid(grid)
    value = complex(action.value(curve))
    base_norm = gradient_max_norm(action.gradient(curve), parts=parts)
    results = {"action": value, "gradient_norm": base_norm}
    checks = []
    if disp:
        curve.values[i, j, k] += float(disp.get("amount", 0.05))
        disp_norm = gradient_max_norm(action.gradient(curve), parts=parts)
        ratio = disp_norm / base_norm if base_norm > 0 else float("inf")
        results["displaced_gradient_norm"] = disp_norm
        results["ratio"] = ratio
        ratio_min = float(cfg.get("ratio_min", 10.0)) / scale
        checks.append(_check("critical_point_ratio", ratio, ratio_min, passed=ratio >= ratio_min))
    summary = _resolved(cfg, "action-check", {"parts": parts})
    summary["results"] = results
    return _finish(outdir, summary, checks)


def run_integrability_scan(cfg, outdir, scale):
    model = model_from_config(_require(cfg, "model", "integrability-scan"))
    center = np.asarray(cfg.get("center", [0.0] * (2 * model.m)), dtype=float)
    pts = grid_points(center, float(cfg.get("half_width", 0.5)), int(cfg.get("per_axis", 5)))
    threshold = scale * float(cfg.get("threshold", 1e-3))
    report = integrability_report(model, pts, threshold=threshold)
    rows = [
        list(p) + [rn, rd]
        for p, rn, rd in zip(report.points, report.nijenhuis_norms, report.d_omega_I_norms)
    ]
    _write_csv(
        outdir / "scan.csv",
        [f"c{k}" for k in range(pts.shape[1])] + ["nijenhuis", "d_omega_I"],
        rows,
    )
    dichotomy = (report.max_nijenhuis <= threshold) == (report.max_d_omega_I <= threshold)
    checks = [_check("dichotomy", float(dichotomy), threshold, passed=bool(dichotomy))]
    summary = _resolved(cfg, "integrability-scan", {"threshold": threshold})
    summary["results"] = {
        "max_nijenhuis": report.max_nijenhuis,
        "max_d_omega_I": report.max_d_omega_I,
        "classification": report.classification,
    }
    return _finish(outdir, summary, checks)


def run_deform(cfg, outdir, scale):
    eps_list = [float(e) for e in cfg.get("epsilons", [0.0, 0.5])]
    n = int(cfg.get("n", 1))
    bump = cfg.get("bump", {})
    center = np.asarray(cfg.get("center", [0.0] * (4 * n)), dtype=float)
    pts = grid_points(center, float(cfg.get("half_width", 1.2)), int(cfg.get("per_axis", 5)))
    threshold = scale * float(cfg.get("threshold", 1e-3))
    rows = []
    formula_worst = 0.0
    sub = pts[:: max(1, len(pts) // 16)]
    for eps in eps_list:
        model = model_lib.build_deformation(
            eps,
            n=n,
            hamiltonian=cfg.get("hamiltonian", "const"),
            bump_center=bump.get("center"),
            bump_radius=float(bump.get("radius", 0.8)),
        )
        report = integrability_report(model, pts, threshold=threshold)
        omega_I = omega_I_from(model.omega_R, model.J)
        formula = model.extras["d_omega_I_formula"]
        formula_worst = max(formula_worst, max_abs(exterior_derivative_2form(omega_I, sub) - formula(sub)))
        rows.append([eps, report.max_nijenhuis, report.max_d_omega_I, report.classification])
    _write_csv(outdir / "sweep.csv", ["epsilon", "max_nijenhuis", "max_d_omega_I", "class"], rows)
    checks = [_check("d_omega_formula", formula_worst, scale * 1e-3)]
    summary = _resolved(cfg, "deform", {"threshold": threshold})
    summary["results"] = {"sweep": rows, "formula_residual": formula_worst}
    return _finish(outdir, summary, checks)


def run_morse_period(cfg, outdir, scale):
    system = PlanarSystem(v=cfg.get("v", "1"), T=float(cfg.get("T", np.pi)))
    fcfg = _flow_config(cfg)
    tol_p = scale * float(cfg.get("tolerance_period", 1e-4))
    tol_a = scale * float(cfg.get("tolerance_area", 1e-4))
    rows = []
    worst_p = 0.0
    for r0 in cfg.get("radii", [0.2, 0.5, 0.8]):
        T = verify_T_periodic(system, float(r0), fcfg)
        err = abs(T - system.T)
        worst_p = max(worst_p, err)
        rows.append([float(r0), T, err, period_function(system, float(r0))])
    _write_csv(outdir / "periods.csv", ["r0", "measured_period", "error", "period_function"], rows)
    worst_a = 0.0
    area_rows = []
    for E in cfg.get("energies", [0.05, 0.1, 0.2]):
        area, target, res = area_law_check(system, float(E))
        worst_a = max(worst_a, res)
        area_rows.append([float(E), area, target, res])
    _write_csv(outdir / "area_law.csv", ["E", "area", "T_times_E", "residual"], area_rows)
    checks = [_check("period", worst_p, tol_p), _check("area_law", worst_a, tol_a)]
    summary = _resolved(cfg, "morse-period", {"T": system.T})
    summary["results"] = {"max_period_error": worst_p, "max_area_residual": worst_a}
    return _finish(outdir, summary, checks)


def _metric_from_config(spec):
    kind = spec.get("kind", "euclidean")
    if kind == "euclidean":
        return conn.euclidean_metric(int(spec.get("n", 2)))
    if kind == "diag":
        return conn.diagonal_metric(spec["entries"])
    raise ConfigError(f"unknown metric kind {kind!r}")


def run_connection_check(cfg, outdir, scale):
    spec = _require(cfg, "metric", "connection-check")
    pts = cfg.get("points")
    if pts is None:
        n = int(spec.get("n", 2))
        pts = grid_points(np.full(2 * n, 0.4), 0.2, 2)
    else:
        pts = np.asarray(pts, dtype=float)
    metric = _metric_from_config(spec)
    report = conn.flatness_vs_integrability(metric, pts)
    sig, sym = conn.pairing_signature(metric, pts[0])
    results = {
        "max_curvature": report["max_curvature"],
        "max_nijenhuis": report["max_nijenhuis"],
        "pairing_signature": list(sig),
        "pairing_symmetry_residual": sym,
    }
    checks = [_check("pairing_symmetric", sym, scale * 1e-8)]
    if "holo_metric" in cfg:
        entries = cfg["holo_metric"]["entries"]
        lc = conn.holo_metric_lc_check(entries, grid_points(np.full(2 * len(entries), 0.2), 0.3, 3))
        results["lc_diff"] = lc["max_christoffel_diff"]
        checks.append(_check("levi_civita_parts_agree", lc["max_christoffel_diff"], scale * 1e-5))
    rows = [
        list(p) + [rn, rd]
        for p, rn, rd in zip(pts, report["curvature_norms"], report["nijenhuis_norms"])
    ]
    _write_csv(
        outdir / "connection.csv",
        [f"c{k}" for k in range(pts.shape[1])] + ["curvature", "nijenhuis"],
        rows,
    )
    summary = _resolved(cfg, "connection-check", {})
    summary["results"] = results
    return _finish(outdir, summary, checks)


# the top-level scenario keys each verb reads
_GRID = {"model", "flow", "x0", "z0", "t_range", "s_range", "nt", "ns"}
KEYS = {
    "integrate": _GRID | {"tolerances"},
    "foliate": {"model", "flow", "tolerances", "x0", "words"},
    "monodromy": {"model", "flow", "x0", "path", "expect", "tolerance"},
    "action-check": _GRID | {"displace", "ratio_min", "parts"},
    "integrability-scan": {"model", "center", "half_width", "per_axis", "threshold"},
    "deform": {"epsilons", "n", "hamiltonian", "bump", "center", "half_width", "per_axis", "threshold"},
    "morse-period": {"v", "T", "flow", "radii", "energies", "tolerance_period", "tolerance_area"},
    "connection-check": {"metric", "points", "holo_metric"},
}

VERBS = {
    "integrate": run_integrate,
    "foliate": run_foliate,
    "monodromy": run_monodromy,
    "action-check": run_action_check,
    "integrability-scan": run_integrability_scan,
    "deform": run_deform,
    "morse-period": run_morse_period,
    "connection-check": run_connection_check,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="phhs", description="pseudo-holomorphic Hamiltonian scenarios")
    parser.add_argument("verb", choices=sorted(VERBS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--tolerance-scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ConfigError("the scenario document must be a JSON object")
        unknown = sorted(set(cfg) - KEYS[args.verb])
        if unknown:
            raise ConfigError(
                f"scenario for {args.verb!r} has unknown keys {unknown}; "
                f"it accepts {sorted(KEYS[args.verb])}"
            )
        return VERBS[args.verb](cfg, outdir, args.tolerance_scale)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but raised by a numerical singularity, not by the scenario
        print(f"phhs: runtime failure: LinAlgError: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ParseError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"phhs: configuration error: {exc}", file=sys.stderr)
        return 3
    except PhhsError as exc:
        print(f"phhs: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
