import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from phhs import cli, expressions, fields, flows, models, morse
from phhs.cli import VERBS, main
from phhs.expressions import Expression
from phhs.hamiltonian import assemble_phhs

from conftest import clear_compile_caches


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


@pytest.mark.parametrize("nt, ns, code", [(1, 5, 3), (5, 1, 3), (1, 1, 3), (2, 2, 0)])
def test_action_check_needs_two_nodes_on_each_axis(tmp_path, capsys, nt, ns, code):
    # the action sums the grid's cells: a one-node axis has none, and was an IndexError
    scenario = {"model": _OSCILLATOR, **_GRID, "nt": nt, "ns": ns, "displace": {"node": [0, 0]}}
    out = tmp_path / "o"
    assert main(["action-check", "--config", write_config(tmp_path, "cfg.json", scenario), "--out", str(out)]) == code
    if code:
        assert f"action-check needs nt and ns of at least 2, got nt = {nt} and ns = {ns}" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "change, key",
    [
        ({"flow": {"dt": math.inf}}, "flow.dt"),
        ({"x0": [math.nan, 0.5, 0.0, 0.0]}, "x0[0]"),
        ({"words": [[[0.1, -math.inf]]]}, "words[0][0][1]"),
        ({"tolerances": {"energy": math.nan}}, "tolerances.energy"),
    ],
)
def test_a_non_finite_scenario_number_exits_3_and_names_its_key(tmp_path, capsys, change, key):
    # json reads NaN and Infinity; a scenario number must be finite
    scenario = {"model": {"name": "central_problem"}, "x0": [1.0, 0.5, 0.0, 0.0], "words": [[[0.1, 0.0]]], **change}
    cfg = write_config(tmp_path, "cfg.json", scenario)
    out = tmp_path / "o"
    assert main(["foliate", "--config", cfg, "--out", str(out)]) == 3
    assert f"{key} must be" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("scale, shown", [("nan", "NaN"), ("inf", "Infinity"), ("0", "0.0"), ("-1", "-1.0")])
def test_a_tolerance_scale_that_is_not_positive_and_finite_exits_3(tmp_path, capsys, scale, shown):
    # NaN or a scale below zero fails every check, and inf passes every one
    scenario = {"model": {"name": "central_problem"}, "x0": [1.0, 0.5, 0.0, 0.0], "words": [[[0.1, 0.0]]]}
    cfg = write_config(tmp_path, "cfg.json", scenario)
    out = tmp_path / "o"
    assert main(["foliate", "--config", cfg, "--out", str(out), "--tolerance-scale", scale]) == 3
    assert f"--tolerance-scale must be a positive finite number, got {shown}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["foliate", "--config", cfg, "--out", str(out), "--tolerance-scale", "0.5"]) == 0


def test_a_number_is_a_constant_expression(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"model": {"name": "standard_hhs", "H": 2}, "per_axis": 2})
    assert main(["integrability-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def _focus_scenario(monkeypatch, verb, workload):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import scenarios

    return dict(scenarios.workload(workload, 0))[verb]


def _focus_config(tmp_path, monkeypatch, verb, workload="bigrid"):
    return write_config(tmp_path, "cfg.json", _focus_scenario(monkeypatch, verb, workload))


@pytest.mark.parametrize("verb, steps", [("action-check", 18144), ("integrate", 20144)])
def test_bigrid_focus_scenario_rk4_steps(tmp_path, monkeypatch, rk4_steps, verb, steps):
    # both grids take 18,144 step-rows: the t sweep 1,008 and the s sweep of the 17 column
    # anchors 17 x 1,008, row by row; only integrate reports the swap check, whose two flows
    # take 1,000 steps each
    cfg = _focus_config(tmp_path, monkeypatch, verb)
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert rk4_steps == {"lane": steps}


@pytest.mark.parametrize("verb, steps", [("monodromy", 6336), ("foliate", 10000), ("morse-period", 9426)])
def test_orbits_focus_scenario_rk4_steps_on_the_scalar_lane(tmp_path, monkeypatch, rk4_steps, verb, steps):
    # every step of the three verbs flows one point, and takes the scalar lane's generated stepper
    cfg = _focus_config(tmp_path, monkeypatch, verb, "orbits")
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert rk4_steps == {"lane": steps}


@pytest.mark.parametrize("verb, shorter, compiled", [("monodromy", "path", 2), ("foliate", "words", 2)])
def test_orbits_focus_scenario_compile_calls(tmp_path, monkeypatch, verb, shorter, compiled):
    # the package compiles the central X, one source for its array and lane forms, once per
    # process, and at the first flow of each field the lane stepper with that field written
    # inline: X's for foliate, which J X steps at the rate 1j (the step i h), and the
    # combination's for monodromy, whose segments share it (a and i b are the stepper's
    # arguments).  No further flow, path segment or flow word compiles, so the count is the
    # same with a quarter of the segments or one word, and nothing compiles on a second run in
    # the same process
    scenario = dict(_focus_scenario(monkeypatch, verb, "orbits"))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compile(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "phhs" or name.startswith("phhs."):
            monkeypatch.setattr(module, "compile", counted, raising=False)
    counts = []
    for cut in (None, shorter):
        if cut == "path":
            scenario["path"] = scenario["path"][::4]
        elif cut == "words":
            scenario["words"] = scenario["words"][:1]
        cfg = write_config(tmp_path, f"cfg{len(counts)}.json", scenario)
        calls.clear()
        clear_compile_caches()
        assert main([verb, "--config", cfg, "--out", str(tmp_path / f"o{len(counts)}")]) == 0
        counts.append(len(calls))
    assert counts == [compiled, compiled]
    assert calls[0] == "<expression '(P1, -1/(4*Q1^3))'>" and set(calls[1:]) == {"<RK4 lane of 2 components>"}
    calls.clear()
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "again")]) == 0
    assert calls == []


def test_bigrid_integrate_focus_scenario_compile_calls(tmp_path, monkeypatch):
    # the twisted model compiles h = exp(x1) and H_R = -y1 when it is built, and J X, one source,
    # when it is assembled (X and the gradient of H_R are folded numbers); then the lane steppers
    # of X (the t sweep) and of J X (the swap check), each with its field written inline, at
    # their first single-point flows.  No grid node, stage or flow compiles more
    cfg = _focus_config(tmp_path, monkeypatch, "integrate")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compile(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "phhs" or name.startswith("phhs."):
            monkeypatch.setattr(module, "compile", counted, raising=False)
    clear_compile_caches()
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls[:2] == ["<expression 'exp(x1)'>", "<expression '-y1'>"]
    assert len(calls) == 5 and calls[3:] == ["<RK4 lane of 4 components>"] * 2


# sha256 of the bigrid focus runs' other lane steppers, which the frozen-component rule does not
# touch: the twisted X (every result constant) and the oscillator's X (complex layout), which its
# J X steps at the rate 1j
_UNCHANGED_STEPPERS = {
    "integrate": ["5a6259ef58053ad243f0936f88a3138d67fa0b6058f10a23321b2b114e51ac39"],
    "action-check": ["07cfd2d05339814ffffdccda96d25918144358b5e2f1d398c06a8e432f835d54"],
}


@pytest.mark.parametrize("verb", sorted(_UNCHANGED_STEPPERS))
def test_bigrid_focus_scenario_evaluates_the_twisted_j_x_before_its_loop(tmp_path, monkeypatch, verb):
    # J_g X = (0, e^-x1, 0, 0) reads only x1, which it keeps fixed: its stepper runs exp(x1) twice
    # per call, before the loop, and none in it; every other lane stepper keeps its text
    cfg = _focus_config(tmp_path, monkeypatch, verb)
    sources = []

    def recorded(source, *args, **names):
        sources.append(source)
        return generated(source, *args, **names)

    generated = flows.generated
    monkeypatch.setattr(flows, "generated", recorded)
    clear_compile_caches()
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    frozen = [s for s in sources if "_exp(" in s]
    others = [hashlib.sha256(s.encode()).hexdigest() for s in sources if "_exp(" not in s]
    assert others == _UNCHANGED_STEPPERS[verb] and len(frozen) == (verb == "integrate")
    for source in frozen:
        before, loop = source.split("    for step in range(first_step, first_step + n):")
        assert before.count("_exp(") == 2 and "_exp(" not in loop


def test_a_word_whose_step_count_overflows_exits_4(tmp_path, capsys):
    # |t| / dt past the float range is an infinite step count, over any budget, as 1e4 is over it
    for t, steps in ((1e306, "inf"), (1e4, "10000000")):
        scenario = {"model": _CENTRAL, "x0": [1.0, 0.5, 0.0, 0.0], "words": [[[t, 0.0]]]}
        cfg = write_config(tmp_path, "cfg.json", scenario)
        assert main(["foliate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert f"StepBudgetExceededError: flow of duration {t!r} needs {steps} steps, budget is 5000000" in err


def test_morse_period_focus_scenario_t_hat_evaluations(tmp_path, monkeypatch, rk4_steps):
    # one orbit field evaluation, which runs v's own lines and T_hat's code once, per RK4 stage
    # of the 9,426 orbit step-rows, from T_hat's code generated once for the three orbits of the
    # one system; v is text, written into the orbit's lane with no call of v; the area law reads
    # the interpolant itself
    cfg = _focus_config(tmp_path, monkeypatch, "morse-period", "orbits")
    generated, lanes = [], []
    clenshaw, orbit_field = morse._clenshaw, morse.hamiltonian_flow_field

    def counted(interp, r):
        generated.append(interp)
        return clenshaw(interp, r)

    def recorded(sys, rescale=True):
        field = orbit_field(sys, rescale)
        lanes.append((sys.v, field.lane[0]))
        return field

    monkeypatch.setattr(morse, "_clenshaw", counted)
    monkeypatch.setattr(morse, "hamiltonian_flow_field", recorded)
    assert main(["morse-period", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert rk4_steps == {"lane": 9426}
    assert len(generated) == 1 and len(lanes) == 3
    for v, lane in lanes:
        v_lines = expressions._renamed(v.lane[0], "_v").lines
        assert v_lines and "_v" not in lane.args and not any("_v(" in line for line in lane.lines)
        assert all(lane.lines.count(line) == 1 for line in v_lines)


def test_csv_rows_are_written_as_their_cells(tmp_path):
    # the per-cell form: FMT for float and numpy floating cells, str for every other cell
    rows = [
        [1, True, "word", 0.1, np.float64(0.1), -0.0],
        [np.float64(-0.0), float("nan"), np.inf, -np.inf, 1e-300, np.float32(0.1)],
        [2, False, "a%sb", np.float64(np.nan), 1.0, np.int64(7)],
        [1, True, "word", 2.5, np.float64(-np.inf), 1e300],
        [0.5, np.float64(1e-300), "x", 3, np.bool_(True), None],
    ]
    cli._write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e", "f"], rows)
    cells = [",".join(cli.FMT % v if isinstance(v, (float, np.floating)) else str(v) for v in row) for row in rows]
    assert (tmp_path / "t.csv").read_text() == "\n".join(["a,b,c,d,e,f", *cells]) + "\n"


def test_bigrid_integrate_focus_scenario_checks_rows_at_the_boundary(tmp_path, monkeypatch, rk4_steps):
    # the same flows as ever; the row check of Field.__call__ runs on user calls, assemble_phhs's
    # sample stack and each flow's first step, not on every stage
    cfg = _focus_config(tmp_path, monkeypatch, "integrate")
    count = {"J_g rows": 0, "I_g rows": 0, "Field calls": 0}
    field_call = fields.Field.__call__
    twist_matrix, i_g_matrix = models.twist_matrix, models.i_g_matrix

    def twist(f_val, h_val):
        count["J_g rows"] += np.size(f_val)
        return twist_matrix(f_val, h_val)

    def i_g(f_val, h_val):
        count["I_g rows"] += np.size(f_val)
        return i_g_matrix(f_val, h_val)

    def call(self, p):
        count["Field calls"] += 1
        return field_call(self, p)

    monkeypatch.setattr(models, "twist_matrix", twist)
    monkeypatch.setattr(models, "i_g_matrix", i_g)
    monkeypatch.setattr(fields.Field, "__call__", call)
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert rk4_steps == {"lane": 20144}
    # J X is compiled from J_g's entries and X's components, so no flow forms J_g (80,260 rows
    # did, 4,000 of them on the scalar lane); the 285 left are the assembly's checks and
    # diagnostics and the grid's Cauchy-Riemann residual
    assert count["J_g rows"] == 285
    # J_g is built in closed form; no I_g matrix is formed on the way
    assert count["I_g rows"] == 0
    # one check per stage made 32,299 calls
    assert count["Field calls"] <= 300
