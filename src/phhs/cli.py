"""Scenario runner: ``phhs <verb> --config <path> [--out <dir>] [--tolerance-scale <k>]``.

A scenario is one JSON document.  ``SCHEMA`` is its one contract: each
verb's keys with their kinds and defaults (``REQUIRED`` where there is
none); a ``model`` follows the table of ``MODELS`` that its ``name`` picks.
An unknown key, a value of the wrong kind or shape, a choice outside its
values and a missing required key are configuration errors naming the
dotted key path (``flow.dt``, ``model.bump.radius``, ``words[0][1]``).
Expressions are text, or numbers for constants: H in z1..zm, Q1..Qn, P1..Pn
(m = 2n); f, h, H_R and phi in x1, x2, y1, y2 and the aliases z1, z2, Q1, P1;
v in x1, y1; metric entries in x1..xk, ``holo_metric`` entries in z1..zn.

Outputs: CSV data files plus ``summary.json``, which echoes the configuration
(see ``ECHO``), all residuals and their tolerances, and a per-check pass
flag.  Identical configurations give byte-identical outputs: floats are
written with 17 significant digits and no timestamps enter the files.

Exit codes: 0 all checks pass, 2 numerical check failed, 3 configuration or
expression parse error, 4 runtime failure (singular locus, step budget, ...).
"""

import argparse
import json
import math
import sys
from collections import ChainMap
from functools import partial
from pathlib import Path

import numpy as np

from . import models as model_lib
from .actions import ParallelogramAction, curve_from_grid, gradient_max_norm
from .errors import ParseError, PhhsError
from .flows import FlowConfig, continue_along_path, flow_word, grid_monitors, trajectory_grid
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


def _coords(n):
    return [f"c{k}" for k in range(n)]


class ConfigError(Exception):
    pass


# A kind resolves the value at one dotted key path; ``done`` maps the keys
# resolved before it, in its table and the enclosing ones.
REQUIRED = object()


def _fail(path, what, value):
    raise ConfigError(f"{path} must be {what}, got {json.dumps(value)}")


def _kind(what, test, convert=None):
    """A kind of value that ``test`` accepts and ``convert`` resolves."""

    def resolve(value, path, done):
        if not test(value):
            _fail(path, what, value)
        return value if convert is None else convert(value)

    return resolve


def _is_number(v, types=(int, float)):
    return isinstance(v, types) and not isinstance(v, bool)


NUMBER = _kind("a number", _is_number, float)
POSITIVE = _kind("a positive number", lambda v: _is_number(v) and v > 0, float)
INTEGER = _kind("an integer", lambda v: _is_number(v, int))
COUNT = _kind("a positive integer", lambda v: _is_number(v, int) and v > 0)
# a number is a constant, handed on as its text
EXPRESSION = _kind("expression text or a number", lambda v: isinstance(v, str) or _is_number(v), str)


def choice(*values):
    return _kind(f"one of {json.dumps(values)}", lambda v: v in values)


def list_of(item, what, convert=list, length=None, nonempty=False):
    """A list of ``item`` values at ``path[i]``; ``length``, a number or a function of ``done``, is ``{n}``."""

    def resolve(value, path, done):
        n = length(done) if callable(length) else length
        if not isinstance(value, list) or n not in (None, len(value)) or (nonempty and not value):
            _fail(path, what.format(n=n), value)
        return convert([item(v, f"{path}[{i}]", done) for i, v in enumerate(value)])

    return resolve


def square(item, what, block=1):
    """An n x n list of rows of ``item`` values, n a positive multiple of ``block``."""
    rows = list_of(list_of(item, what), what)

    def resolve(value, path, done):
        n = len(value) if isinstance(value, list) else 0
        if not (n and n % block == 0 and all(isinstance(row, list) and len(row) == n for row in value)):
            _fail(path, what, value)
        return rows(value, path, done)

    return resolve


NUMBERS = list_of(NUMBER, "a list of numbers")
PAIR = list_of(NUMBER, "a pair [a, b] of numbers", tuple, 2)
NODE = list_of(INTEGER, "a node [i, j] of integers", tuple, 2)
_RE_IM = list_of(NUMBER, "a number or a pair [re, im] of numbers", lambda v: complex(*v), 2)


def COMPLEX(value, path, done):
    return complex(value) if _is_number(value) else _RE_IM(value, path, done)


# a point of ``dim(done)`` numbers, as an array
point = partial(list_of, NUMBER, "a point of {n} numbers", np.array)


def table(keys, build=dict, what=None):
    """An object whose keys resolve against ``{key: (kind, default)}`` in table order, handed to ``build``.

    A key left out takes its default, resolved like a given value, or a
    function of the keys resolved before it; ``null`` stands only for an
    optional key (default None) left out.  ``what`` names the object in
    messages, its path by default.
    """

    def resolve(value, path, outer):
        name = what or path
        if not isinstance(value, dict):
            _fail(name, "an object", value)
        unknown = sorted(set(value) - set(keys))
        if unknown:
            raise ConfigError(f"{name} has unknown keys {unknown}; it accepts {sorted(keys)}")
        done = {}
        seen = ChainMap(done, outer)
        for key, (kind, default) in keys.items():
            sub = f"{path}.{key}" if path else key
            if callable(default):
                default = default(seen)
            if key not in value and default is REQUIRED:
                raise ConfigError(f"{name} is missing the required key {sub}")
            raw = value.get(key, default)
            done[key] = None if raw is None and default is None else kind(raw, sub, seen)
        return build(**done)

    return resolve


def _deformation(epsilon, n, hamiltonian, bump):
    return model_lib.build_deformation(
        epsilon, n=n, hamiltonian=hamiltonian, bump_center=bump["center"], bump_radius=bump["radius"]
    )


# the parameters the deformation model and the deform verb share; its points have 4n coordinates
DEFORMATION = {
    "n": (COUNT, 1),
    "hamiltonian": (choice("const", "linear_last"), "const"),
    "bump": (table({"center": (point(lambda c: 4 * c["n"]), None), "radius": (NUMBER, 0.8)}), {}),
}

# each model name: the table of its parameters and the builder they are handed to
MODELS = {
    "central_problem": ({}, model_lib.build_central_problem),
    "standard_hhs": ({"n": (COUNT, 1), "H": (EXPRESSION, "P1")}, model_lib.build_standard_hhs),
    "proper_phhs": (
        {"f": (EXPRESSION, "1"), "h": (EXPRESSION, "1"), "H_R": (EXPRESSION, "-y1")}, model_lib.build_proper_phhs
    ),
    "rotation": ({"phi": (EXPRESSION, "0")}, model_lib.build_rotation_family),
    "deformation": ({"epsilon": (NUMBER, 0.0), **DEFORMATION}, _deformation),
    "torus": (
        {"generators": (square(NUMBER, "2n generators of length 2n", block=2), REQUIRED), "H": (EXPRESSION, None)},
        lambda generators, H: model_lib.build_torus_model(model_lib.Lattice(generators), H=H),
    ),
}


def _model(value, path, done):
    """A built model: its ``name`` picks the table of ``MODELS`` its other keys follow."""
    if not isinstance(value, dict):
        _fail(path, "an object", value)
    name = choice(*MODELS)(value.get("name"), f"{path}.name", done)
    keys, build = MODELS[name]
    spec = table({"name": (choice(name), REQUIRED), **keys}, what=f"{path} {name!r}")(value, path, done)
    return build(**{key: v for key, v in spec.items() if key != "name"})


def model_from_config(spec):
    """The model a scenario's ``model`` object describes."""
    return _model(spec, "model", {})


def _metric_dim(c):
    m = c["metric"]
    return 2 * (len(m["entries"]) if m["kind"] == "diag" else m["n"])


_FLOW = table(
    {"dt": (POSITIVE, 1e-3), "max_steps": (COUNT, 5_000_000)}, lambda dt, max_steps: FlowConfig(dt, max_steps)
)
# the model, its flow and the initial point of its trajectories
ORBIT = {"model": (_model, REQUIRED), "flow": (_FLOW, {}), "x0": (point(lambda c: c["model"].dim), REQUIRED)}
# the verb checks that the node and the coord lie on the grid
DISPLACE = table(
    {"node": (NODE, lambda c: [c["nt"] // 2, c["ns"] // 2]), "coord": (INTEGER, 0), "amount": (NUMBER, 0.05)}
)
METRIC = table(
    {
        "kind": (choice("euclidean", "diag"), "euclidean"),
        "entries": (
            list_of(EXPRESSION, "a non-empty list of expressions", nonempty=True),
            lambda c: REQUIRED if c["kind"] == "diag" else None,
        ),
        "n": (COUNT, 2),
    }
)
# a box of points about a center and the threshold of the scan's verdict
SCAN = {"per_axis": (COUNT, 5), "threshold": (NUMBER, 1e-3)}

SCHEMA = {
    "integrate": {
        **ORBIT,
        "z0": (COMPLEX, 0.0),
        **dict.fromkeys(("t_range", "s_range"), (PAIR, REQUIRED)),
        **dict.fromkeys(("nt", "ns"), (COUNT, REQUIRED)),
        "tolerances": (table({"swap": (NUMBER, 1e-6), "energy": (NUMBER, 1e-6)}), {}),
    },
    "foliate": {
        **ORBIT,
        "words": (list_of(list_of(PAIR, "a word [[t, s], ...]"), "a list of words"), REQUIRED),
        "tolerances": (table({"energy": (NUMBER, 1e-6)}), {}),
    },
    "monodromy": {
        **ORBIT,
        "path": (list_of(COMPLEX, "a list of complex times"), REQUIRED),
        "expect": (choice("closed", "negated"), None),
        "tolerance": (NUMBER, 1e-5),
    },
    "action-check": {
        **ORBIT,
        "z0": (COMPLEX, 0.0),
        **dict.fromkeys(("t_range", "s_range"), (PAIR, [0.0, 1.0])),
        **dict.fromkeys(("nt", "ns"), (COUNT, 13)),
        "displace": (DISPLACE, None),
        "ratio_min": (NUMBER, 10.0),
        "parts": (choice("both", "real"), "both"),
    },
    "integrability-scan": {
        "model": (_model, REQUIRED),
        "center": (point(lambda c: c["model"].dim), lambda c: [0.0] * c["model"].dim),
        "half_width": (NUMBER, 0.5),
        **SCAN,
    },
    "deform": {
        "epsilons": (NUMBERS, [0.0, 0.5]),
        **DEFORMATION,
        "center": (point(lambda c: 4 * c["n"]), lambda c: [0.0] * (4 * c["n"])),
        "half_width": (NUMBER, 1.2),
        **SCAN,
    },
    "morse-period": {
        "v": (EXPRESSION, "1"),
        "T": (NUMBER, math.pi),
        "flow": (_FLOW, {}),
        "radii": (NUMBERS, [0.2, 0.5, 0.8]),
        "energies": (NUMBERS, [0.05, 0.1, 0.2]),
        **dict.fromkeys(("tolerance_period", "tolerance_area"), (NUMBER, 1e-4)),
    },
    "connection-check": {
        "metric": (METRIC, REQUIRED),
        "points": (
            list_of(point(_metric_dim), "a non-empty list of points", np.array, nonempty=True),
            lambda c: grid_points(np.full(_metric_dim(c), 0.4), 0.2, 2).tolist(),
        ),
        "holo_metric": (table({"entries": (square(EXPRESSION, "a square matrix of expressions"), REQUIRED)}), None),
    },
}


def resolve(verb, cfg):
    """The scenario ``cfg`` of ``verb``, walked against ``SCHEMA[verb]`` with the defaults filled in."""
    return table(SCHEMA[verb], what=f"scenario for {verb!r}")(cfg, "", {})


def _flow_echo(c, scale):
    return {"flow": {"dt": c["flow"].dt, "max_steps": c["flow"].max_step_count}}


# the resolved values each verb's summary echoes, with the scenario as given laid over them
ECHO = {
    **dict.fromkeys(("integrate", "foliate", "monodromy"), _flow_echo),
    "action-check": lambda c, scale: {"parts": c["parts"]},
    **dict.fromkeys(("integrability-scan", "deform"), lambda c, scale: {"threshold": scale * c["threshold"]}),
    "morse-period": lambda c, scale: {"T": c["T"]},
    "connection-check": lambda c, scale: {},
}


def echo(verb, cfg, c, scale):
    """The configuration the summary of ``verb`` echoes for the scenario ``cfg`` resolved to ``c``."""
    return {"verb": verb, **ECHO[verb](c, scale), **cfg}


def _check(name, value, tolerance, passed=None):
    """One ``checks`` entry; it passes when value <= tolerance unless ``passed`` says otherwise."""
    passed = value <= tolerance if passed is None else passed
    return {"name": name, "value": value, "tolerance": tolerance, "pass": passed}


def _run(verb, run, cfg, outdir, scale):
    """Resolve the scenario, ``run(c, outdir, scale) -> (results, checks)`` and write the summary; the exit code."""
    c = resolve(verb, cfg)
    results, checks = run(c, outdir, scale)
    summary = {**echo(verb, cfg, c, scale), "results": results, "checks": checks}
    summary["pass"] = all(ch["pass"] for ch in checks)
    _write_json(outdir / "summary.json", summary)
    return 0 if summary["pass"] else 2


def run_integrate(c, outdir, scale):
    fields = assemble_phhs(c["model"])
    grid = trajectory_grid(fields, c["x0"], c["z0"], c["t_range"], c["s_range"], c["nt"], c["ns"], c["flow"])
    diag = grid_monitors(fields, grid, c["flow"])
    t, s, cr = grid.t_nodes, grid.s_nodes, diag["cr_nodes"]
    rows = [[i, j, t[i], s[j], *grid.values[i, j], cr[i, j]] for i, j in np.ndindex(grid.nt, grid.ns)]
    _write_csv(outdir / "grid.csv", ["i", "j", "t", "s"] + _coords(grid.values.shape[-1]) + ["cr_residual"], rows)
    tol = c["tolerances"]
    checks = [
        _check("swap_defect", diag["swap_defect"], scale * tol["swap"]),
        _check("energy_drift", max(diag["energy_drift_R"], diag["energy_drift_I"]), scale * tol["energy"]),
    ]
    return {k: v for k, v in diag.items() if k != "cr_nodes"}, checks


def run_foliate(c, outdir, scale):
    fields = assemble_phhs(c["model"])
    x0 = c["x0"]
    h_r0 = float(fields.model.H_R(x0))
    h_i0 = float(fields.H_I(x0))
    rows = []
    drift = 0.0
    for w_idx, word in enumerate(c["words"]):
        end = flow_word(fields, x0, word, c["flow"])
        dr = abs(float(fields.model.H_R(end)) - h_r0)
        di = abs(float(fields.H_I(end)) - h_i0)
        drift = max(drift, dr, di)
        rows.append([w_idx] + list(end) + [dr, di])
    _write_csv(outdir / "endpoints.csv", ["word"] + _coords(x0.size) + ["drift_H_R", "drift_H_I"], rows)
    return {"max_energy_drift": drift}, [_check("leaf_containment", drift, scale * c["tolerances"]["energy"])]


def run_monodromy(c, outdir, scale):
    x0 = c["x0"]
    end = continue_along_path(assemble_phhs(c["model"]), x0, c["path"], c["flow"])
    defects = {"closed": float(np.max(np.abs(end - x0))), "negated": float(np.max(np.abs(end + x0)))}
    expect = c["expect"]
    checks = [] if expect is None else [_check(f"endpoint_{expect}", defects[expect], scale * c["tolerance"])]
    _write_csv(outdir / "endpoint.csv", _coords(x0.size), [list(end)])
    return {"endpoint": list(end), "closed_defect": defects["closed"], "negated_defect": defects["negated"]}, checks


def run_action_check(c, outdir, scale):
    model, nt, ns, disp = c["model"], c["nt"], c["ns"], c["displace"]
    if disp is not None:
        (i, j), k = disp["node"], disp["coord"]
        if not (0 <= i < nt and 0 <= j < ns):
            raise ConfigError(f"displace node [{i}, {j}] lies outside the {nt} x {ns} grid")
        if not 0 <= k < model.dim:
            raise ConfigError(f"displace coord {k} is outside [0, {model.dim})")
    fields = assemble_phhs(model)
    grid = trajectory_grid(fields, c["x0"], c["z0"], c["t_range"], c["s_range"], nt, ns, c["flow"])
    parts = c["parts"]
    action = ParallelogramAction(fields, parts=parts)
    curve = curve_from_grid(grid)
    base_norm = gradient_max_norm(action.gradient(curve), parts=parts)
    results = {"action": complex(action.value(curve)), "gradient_norm": base_norm}
    checks = []
    if disp is not None:
        curve.values[i, j, k] += disp["amount"]
        disp_norm = gradient_max_norm(action.gradient(curve), parts=parts)
        ratio = disp_norm / base_norm if base_norm > 0 else float("inf")
        results.update(displaced_gradient_norm=disp_norm, ratio=ratio)
        ratio_min = c["ratio_min"] / scale
        checks.append(_check("critical_point_ratio", ratio, ratio_min, passed=ratio >= ratio_min))
    return results, checks


def run_integrability_scan(c, outdir, scale):
    pts = grid_points(c["center"], c["half_width"], c["per_axis"])
    threshold = scale * c["threshold"]
    report = integrability_report(c["model"], pts, threshold=threshold)
    rows = [list(p) + [rn, rd] for p, rn, rd in zip(report.points, report.nijenhuis_norms, report.d_omega_I_norms)]
    _write_csv(outdir / "scan.csv", _coords(pts.shape[1]) + ["nijenhuis", "d_omega_I"], rows)
    dichotomy = (report.max_nijenhuis <= threshold) == (report.max_d_omega_I <= threshold)
    checks = [_check("dichotomy", float(dichotomy), threshold, passed=bool(dichotomy))]
    results = {"max_nijenhuis": report.max_nijenhuis, "max_d_omega_I": report.max_d_omega_I}
    return {**results, "classification": report.classification}, checks


def run_deform(c, outdir, scale):
    pts = grid_points(c["center"], c["half_width"], c["per_axis"])
    threshold = scale * c["threshold"]
    rows = []
    formula_worst = 0.0
    sub = pts[:: max(1, len(pts) // 16)]
    for eps in c["epsilons"]:
        model = _deformation(eps, c["n"], c["hamiltonian"], c["bump"])
        report = integrability_report(model, pts, threshold=threshold)
        omega_I = omega_I_from(model.omega_R, model.J)
        formula = model.extras["d_omega_I_formula"]
        formula_worst = max(formula_worst, max_abs(exterior_derivative_2form(omega_I, sub) - formula(sub)))
        rows.append([eps, report.max_nijenhuis, report.max_d_omega_I, report.classification])
    _write_csv(outdir / "sweep.csv", ["epsilon", "max_nijenhuis", "max_d_omega_I", "class"], rows)
    checks = [_check("d_omega_formula", formula_worst, scale * 1e-3)]
    return {"sweep": rows, "formula_residual": formula_worst}, checks


def run_morse_period(c, outdir, scale):
    system = PlanarSystem(v=c["v"], T=c["T"])
    rows = []
    for r0 in c["radii"]:
        T = verify_T_periodic(system, r0, c["flow"])
        rows.append([r0, T, abs(T - system.T), period_function(system, r0)])
    _write_csv(outdir / "periods.csv", ["r0", "measured_period", "error", "period_function"], rows)
    area_rows = [[E, *area_law_check(system, E)] for E in c["energies"]]
    _write_csv(outdir / "area_law.csv", ["E", "area", "T_times_E", "residual"], area_rows)
    worst_p = max([0.0] + [row[2] for row in rows])
    worst_a = max([0.0] + [row[3] for row in area_rows])
    checks = [
        _check("period", worst_p, scale * c["tolerance_period"]),
        _check("area_law", worst_a, scale * c["tolerance_area"]),
    ]
    return {"max_period_error": worst_p, "max_area_residual": worst_a}, checks


def run_connection_check(c, outdir, scale):
    m = c["metric"]
    metric = conn.diagonal_metric(m["entries"]) if m["kind"] == "diag" else conn.euclidean_metric(m["n"])
    pts = c["points"]
    report = conn.flatness_vs_integrability(metric, pts)
    sig, sym = conn.pairing_signature(metric, pts[0])
    results = {"max_curvature": report["max_curvature"], "max_nijenhuis": report["max_nijenhuis"]}
    results.update(pairing_signature=list(sig), pairing_symmetry_residual=sym)
    checks = [_check("pairing_symmetric", sym, scale * 1e-8)]
    if c["holo_metric"] is not None:
        entries = c["holo_metric"]["entries"]
        lc = conn.holo_metric_lc_check(entries, grid_points(np.full(2 * len(entries), 0.2), 0.3, 3))
        results["lc_diff"] = lc["max_christoffel_diff"]
        checks.append(_check("levi_civita_parts_agree", lc["max_christoffel_diff"], scale * 1e-5))
    rows = [list(p) + [rn, rd] for p, rn, rd in zip(pts, report["curvature_norms"], report["nijenhuis_norms"])]
    _write_csv(outdir / "connection.csv", _coords(pts.shape[1]) + ["curvature", "nijenhuis"], rows)
    return results, checks


# each verb of SCHEMA as ``main`` calls it, (scenario, output directory, tolerance scale) -> exit code
VERBS = {verb: partial(_run, verb, globals()["run_" + verb.replace("-", "_")]) for verb in SCHEMA}


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
