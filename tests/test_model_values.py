"""Pinned bits of the J = i models the CLI goldens do not reach.

``tests/test_golden.py`` covers the oscillator (n = 1) and the central
problem through the CLI.  This file holds the central problem's fields off
its golden paths, the torus (its default H and a text H in two momenta)
and the standard system with n = 2 (text H and a callable H) to values
recorded as ``float.hex`` strings in ``model_values.json``: X, J X,
H_R, the gradient of H_R and H_I on a seeded stack and at one point, one
single-point flow endpoint (on the scalar lane where X has a scalar form),
one stack flow endpoint, and a single-point and a stack endpoint of the
combination cos(alpha) X + sin(alpha) J X (``tilted_flow``).

To record values that are not recorded yet, run
``PYTHONPATH=src python tests/test_model_values.py``.  It adds the missing
keys only: where a recorded value would change it writes nothing, lists the
keys and exits with status 1.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from phhs import models
from phhs.flows import FlowConfig, flow, tilted_flow
from phhs.hamiltonian import assemble_phhs
from phhs.util import seeded_points

VALUES = Path(__file__).with_name("model_values.json")
CFG = FlowConfig(dt=1e-2)

MODELS = {
    "central": models.build_central_problem,
    "torus_default": lambda: models.build_torus_model(models.Lattice(np.eye(2))),
    "torus_text_n2": lambda: models.build_torus_model(models.Lattice(np.eye(4)), H="P1^2/2 + P2"),
    "standard_n2": lambda: models.build_standard_hhs(2, "P1^2/2 + P2^2/3 - Q1^3/7 + Q1*Q2"),
    "standard_n2_callable": lambda: models.build_standard_hhs(
        2, lambda z: z[2] ** 2 / 2 + z[0] * z[3] - z[1] ** 3 / 5
    ),
}


def _hex(a):
    return np.vectorize(float.hex, otypes=[object])(np.asarray(a, dtype=float)).tolist()


def compute(name):
    """The pinned values of one model, as nested lists of ``float.hex`` strings."""
    fields = assemble_phhs(MODELS[name]())
    model = fields.model
    dim = model.dim
    P = seeded_points(21, 6, dim, scale=0.6, center=model.base_point)
    p = P[0]
    out = {}
    for label, pts in (("stack", P), ("point", p)):
        out[f"X_{label}"] = fields.X(pts)
        out[f"JX_{label}"] = fields.JX(pts)
        out[f"H_R_{label}"] = model.H_R(pts)
        out[f"grad_H_R_{label}"] = model.H_R.gradient(pts)
        out[f"H_I_{label}"] = fields.H_I(pts)
    out["flow_X_point"] = flow(fields.X, p, 0.37, CFG)
    out["flow_JX_stack"] = flow(fields.JX, P[:3], -0.29, CFG)
    out["tilted_point"] = tilted_flow(fields, p, 0.7, 0.31, CFG)
    out["tilted_stack"] = tilted_flow(fields, P[:3], -2.2, 0.23, CFG)
    return {key: _hex(value) for key, value in out.items()}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_values_match_their_recorded_bits(name):
    expected = json.loads(VALUES.read_text())[name]
    got = compute(name)
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


def test_single_point_flows_take_the_lane_where_x_has_a_scalar_form():
    # the central problem and the text H's pin the scalar lane, the torus default and the
    # callable the complex path
    lanes = {name: assemble_phhs(build()).X.scalar_form is not None for name, build in MODELS.items()}
    assert lanes == {
        "central": True,
        "torus_default": False,
        "torus_text_n2": True,
        "standard_n2": True,
        "standard_n2_callable": False,
    }


def record():
    """Add the values not recorded yet; refuse, with status 1, if a recorded one would change."""
    recorded = json.loads(VALUES.read_text()) if VALUES.exists() else {}
    moved = []
    for name in sorted(MODELS):
        entry = recorded.setdefault(name, {})
        for key, value in compute(name).items():
            if entry.setdefault(key, value) != value:
                moved.append(f"{name}.{key}")
    if moved:
        print("recorded values would change, nothing written:", *moved, sep="\n  ")
        return 1
    VALUES.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(record())
