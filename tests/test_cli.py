import json
from pathlib import Path

import numpy as np
import pytest

from phhs import fields, flows, models
from phhs.cli import VERBS, main
from phhs.expressions import Expression
from phhs.hamiltonian import assemble_phhs


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def load_summary(outdir):
    return json.loads((outdir / "summary.json").read_text())


def test_integrate_central_problem(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": {"name": "central_problem"},
            "x0": [1.0, 0.5, 0.0, 0.0],
            "z0": 0.0,
            "t_range": [0.0, 0.5],
            "s_range": [0.0, 0.5],
            "nt": 9,
            "ns": 9,
            "flow": {"dt": 1e-3},
        },
    )
    out = tmp_path / "out"
    assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["pass"] is True
    assert summary["results"]["swap_defect"] <= 1e-6
    lines = (out / "grid.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 81
    assert lines[0].startswith("i,j,t,s,c0")


def test_outputs_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": {"name": "proper_phhs", "f": "1", "h": "exp(x1)", "H_R": "-y1"},
            "center": [0, 0, 0, 0],
            "half_width": 0.5,
            "per_axis": 3,
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["integrability-scan", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["integrability-scan", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    summary = load_summary(out1)
    assert summary["results"]["classification"] == "proper"
    # the summary echoes the resolved configuration
    assert summary["model"]["h"] == "exp(x1)"
    assert summary["threshold"] == pytest.approx(1e-3)


def test_monodromy_scenario(tmp_path):
    theta = np.linspace(0.0, 2.0 * np.pi, 49)
    path = [[-1.0 + float(np.cos(t)), float(np.sin(t))] for t in theta]
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": {"name": "central_problem"},
            "x0": [1.0, 0.5, 0.0, 0.0],
            "path": path,
            "expect": "negated",
            "tolerance": 1e-5,
        },
    )
    out = tmp_path / "out"
    assert main(["monodromy", "--config", cfg, "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["results"]["negated_defect"] <= 1e-5


def test_foliate_scenario(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": {"name": "central_problem"},
            "x0": [1.0, 0.5, 0.0, 0.0],
            "words": [[[0.3, -0.2]], [[0.1, 0.2], [0.2, -0.1]]],
        },
    )
    out = tmp_path / "out"
    assert main(["foliate", "--config", cfg, "--out", str(out)]) == 0
    assert load_summary(out)["results"]["max_energy_drift"] <= 1e-6


def test_action_check_scenario(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": {"name": "standard_hhs", "n": 1, "H": "(P1^2 + Q1^2)/2"},
            "x0": [0.4, 0.3, 0.1, -0.2],
            "nt": 9,
            "ns": 9,
            "displace": {"node": [4, 4], "coord": 0, "amount": 0.05},
            "ratio_min": 10.0,
        },
    )
    out = tmp_path / "out"
    assert main(["action-check", "--config", cfg, "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["results"]["ratio"] >= 10.0


def test_deform_scenario(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"epsilons": [0.0, 0.5], "n": 1, "half_width": 0.6, "per_axis": 3},
    )
    out = tmp_path / "out"
    assert main(["deform", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    classes = [r.split(",")[-1] for r in rows]
    assert classes == ["integrable", "proper"]


def test_connection_check_scenario(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "metric": {"kind": "euclidean", "n": 2},
            "holo_metric": {"entries": [["1", "0"], ["0", "exp(z1)"]]},
        },
    )
    out = tmp_path / "out"
    assert main(["connection-check", "--config", cfg, "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["results"]["pairing_signature"] == [4, 0]
    assert summary["results"]["lc_diff"] <= 1e-5


def test_bad_model_name_exits_3(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"model": {"name": "nope"}})
    assert main(["monodromy", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_missing_grid_key_exits_3(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"model": {"name": "central_problem"}})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_bad_expression_exits_3(tmp_path):
    cfg = write_config(
        tmp_path, "cfg.json", {"model": {"name": "proper_phhs", "f": "1 +", "h": "1"}}
    )
    assert main(
        ["integrability-scan", "--config", cfg, "--out", str(tmp_path / "o")]
    ) == 3


def test_runtime_failure_exits_4(tmp_path):
    # the path walks straight through the singular point of the closed form
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": {"name": "central_problem"},
            "x0": [1.0, 0.5, 0.0, 0.0],
            "path": [[0.0, 0.0], [-0.9995, 0.0]],
            "expect": "closed",
            "flow": {"dt": 1e-3, "max_steps": 100},
        },
    )
    assert main(["monodromy", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_failed_numerical_check_exits_2(tmp_path):
    theta = np.linspace(0.0, 2.0 * np.pi, 49)
    path = [[-1.0 + float(np.cos(t)), float(np.sin(t))] for t in theta]
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": {"name": "central_problem"},
            "x0": [1.0, 0.5, 0.0, 0.0],
            "path": path,
            "expect": "closed",
        },
    )
    assert main(["monodromy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_runtime_evaluation_goes_through_compiled_expressions(tmp_path, monkeypatch):
    def no_tree_walk(self, env):
        raise AssertionError("Expression.evaluate called at run time")

    monkeypatch.setattr(Expression, "evaluate", no_tree_walk)
    fields = assemble_phhs(models.build_proper_phhs(f="1", h="exp(x1)", H_R="-y1"))
    p = np.array([0.2, 0.1, -0.3, 0.4])
    J = fields.model.J(p)
    assert np.allclose(J @ J, -np.eye(4), atol=1e-12)
    assert np.allclose(fields.X(p), [0.0, 0.0, 0.0, -1.0], atol=1e-12)
    assert np.allclose(fields.JX(p), J @ fields.X(p), atol=1e-12)
    assert np.array_equal(fields.model.H_R.gradient(p), [0.0, 0.0, -1.0, 0.0])
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"v": "1 + x1^2", "T": np.pi, "radii": [0.5], "energies": [], "flow": {"dt": 0.002}},
    )
    assert main(["morse-period", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "verb, scenario, name",
    [
        ("morse-period", {"v": "1 + x^2", "radii": [0.5], "energies": []}, "x"),
        ("integrability-scan", {"model": {"name": "proper_phhs", "h": "exp(q1)"}}, "q1"),
    ],
)
def test_unknown_identifier_exits_3_and_names_it(tmp_path, capsys, verb, scenario, name):
    cfg = write_config(tmp_path, "cfg.json", scenario)
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert f"unknown identifier {name!r}" in capsys.readouterr().err


def test_misspelled_key_exits_3_and_names_it(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": {"name": "standard_hhs", "n": 1, "H": "(P1^2 + Q1^2)/2"},
            "x0": [0.4, 0.3, 0.1, -0.2],
            "t_rnage": [0.0, 0.5],
            "nt": 5,
            "ns": 5,
        },
    )
    out = tmp_path / "o"
    assert main(["action-check", "--config", cfg, "--out", str(out)]) == 3
    assert "unknown keys ['t_rnage']" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_every_verb_rejects_a_key_it_does_not_read(tmp_path, capsys, verb):
    cfg = write_config(tmp_path, "cfg.json", {"no_such_key": 1})
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "unknown keys ['no_such_key']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "displace, what",
    [
        ({"node": [9, 2]}, "node [9, 2]"),
        ({"node": [-1, 2]}, "node [-1, 2]"),
        ({"node": [2, 5]}, "node [2, 5]"),
        ({"node": [2, 2], "coord": 4}, "coord 4"),
        ({"node": [2, 2], "coord": -1}, "coord -1"),
    ],
)
def test_action_check_rejects_a_displacement_off_the_grid(tmp_path, capsys, displace, what):
    # a 5 x 5 grid of a point in R^4: nodes [0, 5) x [0, 5), coords [0, 4)
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": {"name": "standard_hhs", "n": 1, "H": "(P1^2 + Q1^2)/2"},
            "x0": [0.4, 0.3, 0.1, -0.2],
            "t_range": [0.0, 0.5],
            "s_range": [0.0, 0.5],
            "nt": 5,
            "ns": 5,
            "displace": displace,
        },
    )
    out = tmp_path / "o"
    assert main(["action-check", "--config", cfg, "--out", str(out)]) == 3
    assert f"displace {what}" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_linalg_error_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, but a singular solve is not a configuration error
    def singular(cfg, outdir, scale):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(VERBS, "integrate", singular)
    cfg = write_config(tmp_path, "cfg.json", {})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "runtime failure" in err and "LinAlgError: Singular matrix" in err


def test_non_positive_conformal_factor_exits_4_and_names_the_point(tmp_path, capsys):
    # at the default step budget this orbit used to run for minutes before giving up
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"v": "x1 - 0.3", "T": np.pi, "radii": [0.5], "energies": [0.1], "flow": {"max_steps": 20000}},
    )
    assert main(["morse-period", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "ZeroDenominatorError" in err and "at point [" in err


def test_conformal_factor_vanishing_on_a_line_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"v": "x1^2", "T": np.pi, "radii": [0.5], "energies": []})
    assert main(["morse-period", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "ZeroDenominatorError" in capsys.readouterr().err


_CENTRAL = {"name": "central_problem"}
_OSCILLATOR = {"name": "standard_hhs", "n": 1, "H": "(P1^2 + Q1^2)/2"}
_GRID = {"x0": [0.4, 0.3, 0.1, -0.2], "t_range": [0.0, 0.5], "s_range": [0.0, 0.5], "nt": 5, "ns": 5}


@pytest.mark.parametrize(
    "verb, scenario, what, key",
    [
        (
            "monodromy",
            {"model": _CENTRAL, "x0": [1.0, 0.5, 0.0, 0.0], "path": [[0, 0], [0.1, 0]], "flow": {"dtt": 0.5}},
            "flow",
            "dtt",
        ),
        (
            "foliate",
            {"model": {"name": "central_problem", "H": "P1^2"}, "x0": [1.0, 0.5, 0.0, 0.0], "words": [[[0.1, 0.0]]]},
            "model 'central_problem'",
            "H",
        ),
        ("integrability-scan", {"model": {"name": "proper_phhs", "hh": "1"}}, "model 'proper_phhs'", "hh"),
        ("integrate", {"model": {"name": "standard_hhs", "n": 1, "h": "P1"}, **_GRID}, "model 'standard_hhs'", "h"),
        (
            "integrability-scan",
            {"model": {"name": "deformation", "epsilon": 0.5, "bump": {"radiu": 0.5}}},
            "model.bump",
            "radiu",
        ),
        ("integrate", {"model": _OSCILLATOR, **_GRID, "tolerances": {"swapp": 1e-6}}, "tolerances", "swapp"),
        (
            "foliate",
            {"model": _CENTRAL, "x0": [1.0, 0.5, 0.0, 0.0], "words": [[[0.1, 0.0]]], "tolerances": {"swap": 1.0}},
            "tolerances",
            "swap",
        ),
        ("action-check", {"model": _OSCILLATOR, **_GRID, "displace": {"nodes": [2, 2]}}, "displace", "nodes"),
        ("deform", {"bump": {"radius": 0.8, "centre": [0, 0, 0, 0]}}, "bump", "centre"),
        ("connection-check", {"metric": {"kind": "euclidean", "dim": 2}}, "metric", "dim"),
        (
            "connection-check",
            {"metric": {"kind": "euclidean"}, "holo_metric": {"entry": [["1"]]}},
            "holo_metric",
            "entry",
        ),
    ],
)
def test_unknown_nested_key_exits_3_and_names_it(tmp_path, capsys, verb, scenario, what, key):
    cfg = write_config(tmp_path, "cfg.json", scenario)
    out = tmp_path / "o"
    assert main([verb, "--config", cfg, "--out", str(out)]) == 3
    assert f"{what} has unknown keys [{key!r}]" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("key", ["flow", "tolerances", "displace"])
def test_a_nested_key_that_is_not_an_object_exits_3(tmp_path, capsys, key):
    cfg = write_config(tmp_path, "cfg.json", {"model": _OSCILLATOR, **_GRID, key: 0.5})
    verb = "integrate" if key == "tolerances" else "action-check"
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert f"{key} must be an object" in capsys.readouterr().err


_TORUS = {"name": "torus", "generators": [[1, 0], [0, 1]]}
_MONODROMY = {"model": _CENTRAL, "x0": [1.0, 0.5, 0.0, 0.0], "path": [[0, 0], [0.1, 0]]}
_FOLIATE = {"model": _CENTRAL, "x0": [1.0, 0.5, 0.0, 0.0], "words": [[[0.1, 0.0]]]}


@pytest.mark.parametrize(
    "verb, scenario, message",
    [
        ("action-check", {"model": _OSCILLATOR, **_GRID, "nt": "5"}, 'nt must be a positive integer, got "5"'),
        ("integrate", {"model": _OSCILLATOR, **_GRID, "nt": True}, "nt must be a positive integer, got true"),
        ("integrability-scan", {"model": _TORUS, "per_axis": 2.5}, "per_axis must be a positive integer, got 2.5"),
        ("monodromy", {**_MONODROMY, "flow": {"max_steps": 2.7}}, "flow.max_steps must be a positive integer"),
        ("morse-period", {"radii": 0.5, "energies": []}, "radii must be a list of numbers, got 0.5"),
        ("deform", {"epsilons": 0.5}, "epsilons must be a list of numbers, got 0.5"),
        ("integrate", {"model": _OSCILLATOR, **_GRID, "t_range": [0.0]}, "t_range must be a pair [a, b] of numbers"),
        ("foliate", {**_FOLIATE, "words": [[0.1, 0.2]]}, "words[0][0] must be a pair [a, b] of numbers, got 0.1"),
        ("foliate", {**_FOLIATE, "words": [[[0.1, "s"]]]}, 'words[0][0][1] must be a number, got "s"'),
        ("monodromy", {**_MONODROMY, "path": [[0, 0], [0.1]]}, "path[1] must be a number or a pair [re, im]"),
        ("integrate", {"model": _OSCILLATOR, **_GRID, "tolerances": {"energy": None}}, "tolerances.energy must be"),
        ("monodromy", {**_MONODROMY, "flow": {"dt": "abc"}}, 'flow.dt must be a positive number, got "abc"'),
        ("monodromy", {**_MONODROMY, "x0": 0.5}, "x0 must be a point of 4 numbers, got 0.5"),
        ("monodromy", {**_MONODROMY, "x0": [1.0, 0.5, 0.0]}, "x0 must be a point of 4 numbers, got [1.0, 0.5, 0.0]"),
        ("integrability-scan", {"model": _OSCILLATOR, "center": [0, 0]}, "center must be a point of 4 numbers"),
        ("monodromy", {**_MONODROMY, "expect": "negatd"}, 'expect must be one of ["closed", "negated"], got "negatd"'),
        ("action-check", {"model": _OSCILLATOR, **_GRID, "parts": "imag"}, 'parts must be one of ["both", "real"]'),
        ("connection-check", {"metric": {"kind": "diagonal"}}, 'metric.kind must be one of ["euclidean", "diag"]'),
        ("connection-check", {"metric": {"kind": "diag"}}, "metric is missing the required key metric.entries"),
        ("deform", {"hamiltonian": "linear"}, 'hamiltonian must be one of ["const", "linear_last"], got "linear"'),
        (
            "integrability-scan",
            {"model": {"name": "deformation", "hamiltonian": "lin"}},
            "model.hamiltonian must be one of",
        ),
        (
            "integrability-scan",
            {"model": {"name": "deformation", "bump": {"radius": "0.5"}}},
            'model.bump.radius must be a number, got "0.5"',
        ),
        ("integrability-scan", {"model": {"name": "torus"}}, "'torus' is missing the required key model.generators"),
        ("integrability-scan", {"model": {"name": "proper_phhs", "h": ["x1"]}}, "model.h must be expression text"),
        ("integrate", {**_GRID}, "scenario for 'integrate' is missing the required key model"),
        ("connection-check", {"metric": {"kind": "euclidean"}, "points": []}, "points must be a non-empty list"),
        (
            "connection-check",
            {"metric": {"kind": "euclidean"}, "holo_metric": {"entries": [["1"], ["0", "1"]]}},
            'holo_metric.entries must be a square matrix of expressions, got [["1"], ["0", "1"]]',
        ),
        (
            "connection-check",
            {"metric": {"kind": "euclidean"}, "holo_metric": {"entries": [["1", "0"]]}},
            'holo_metric.entries must be a square matrix of expressions, got [["1", "0"]]',
        ),
        ("connection-check", {"metric": {"kind": "diag", "entries": []}}, "metric.entries must be a non-empty list"),
        (
            "integrability-scan",
            {"model": {"name": "torus", "generators": [[1, 0], [0]]}},
            "model.generators must be 2n generators of length 2n, got [[1, 0], [0]]",
        ),
        (
            "integrability-scan",
            {"model": {"name": "torus", "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
            "model.generators must be 2n generators of length 2n",
        ),
        (
            "integrability-scan",
            {"model": {"name": "torus", "generators": [[1, 0, 0, 0], [0, 1, 0, 0]]}},
            "model.generators must be 2n generators of length 2n",
        ),
    ],
)
def test_a_value_of_the_wrong_kind_exits_3_and_names_its_key(tmp_path, capsys, verb, scenario, message):
    cfg = write_config(tmp_path, "cfg.json", scenario)
    out = tmp_path / "o"
    assert main([verb, "--config", cfg, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_a_number_is_a_constant_expression(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"model": {"name": "standard_hhs", "H": 2}, "per_axis": 2})
    assert main(["integrability-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def _bigrid_focus_config(tmp_path, monkeypatch, verb):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import scenarios

    return write_config(tmp_path, "cfg.json", dict(scenarios.workload("bigrid", 0))[verb])


@pytest.mark.parametrize("verb, steps", [("action-check", 2016), ("integrate", 4016)])
def test_bigrid_focus_scenario_rk4_steps(tmp_path, monkeypatch, verb, steps):
    # both grids take 2,016 steps: the t sweep 1,008 and the stacked s sweep 1,008;
    # only integrate reports the swap check, whose two flows take 1,000 steps each
    cfg = _bigrid_focus_config(tmp_path, monkeypatch, verb)
    taken = []
    rk4_step = flows.rk4_step

    def counted(V, y, h):
        taken.append(h)
        return rk4_step(V, y, h)

    monkeypatch.setattr(flows, "rk4_step", counted)
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(taken) == steps


def test_bigrid_integrate_focus_scenario_checks_rows_at_the_boundary(tmp_path, monkeypatch):
    # the same flows and the same J_g rows as ever; the row check of Field.__call__ runs on
    # user calls, assemble_phhs's sample stack and each flow's first step, not on every stage
    cfg = _bigrid_focus_config(tmp_path, monkeypatch, "integrate")
    count = {"steps": 0, "J_g rows": 0, "I_g rows": 0, "Field calls": 0}
    rk4_step, field_call = flows.rk4_step, fields.Field.__call__
    twist_matrix, i_g_matrix = models.twist_matrix, models.i_g_matrix

    def step(V, y, h):
        count["steps"] += 1
        return rk4_step(V, y, h)

    def twist(f_val, h_val):
        count["J_g rows"] += np.size(f_val)
        return twist_matrix(f_val, h_val)

    def i_g(f_val, h_val):
        count["I_g rows"] += np.size(f_val)
        return i_g_matrix(f_val, h_val)

    def call(self, p):
        count["Field calls"] += 1
        return field_call(self, p)

    monkeypatch.setattr(flows, "rk4_step", step)
    monkeypatch.setattr(models, "twist_matrix", twist)
    monkeypatch.setattr(models, "i_g_matrix", i_g)
    monkeypatch.setattr(fields.Field, "__call__", call)
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert count["steps"] == 4016 and count["J_g rows"] == 80260
    # J_g is built in closed form; no I_g matrix is formed on the way
    assert count["I_g rows"] == 0
    # one check per stage made 32,299 calls
    assert count["Field calls"] <= 300
