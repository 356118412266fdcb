import json

import numpy as np
import pytest

from phhs import models
from phhs.cli import KEYS, VERBS, main
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


@pytest.mark.parametrize("verb", sorted(KEYS))
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
