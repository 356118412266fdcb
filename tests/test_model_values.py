"""Pinned bits of the models off the CLI goldens' paths.

``tests/test_golden.py`` covers the oscillator (n = 1), the central problem
and the twisted model of the benchmark through the CLI.  This file holds
the central problem's fields off its golden paths, the torus (its default H
and a text H in two momenta), the standard system with n = 2 (text H and a
callable H) and two twisted models (the benchmark's f = 1, h = exp(x1),
H_R = -y1, and one whose f, h and H_R all vary) to values recorded as
``float.hex`` strings in ``model_values.json``: J, X, J X, H_R, the
gradient of H_R and H_I on a seeded stack and at one point, a single-point
and a stack flow endpoint of X and of J X (on the lane where the field has
one, a stack row by row), and a single-point and a stack endpoint of the
combination cos(alpha) X + sin(alpha) J X (``tilted_flow``).  The twisted
models are also pinned on a stack of points with signed zeros and, there,
point by point, X's and J X's scalar forms.

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
from phhs.expressions import Lane, lane_function
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
    "proper_phhs": lambda: models.build_proper_phhs(f="1", h="exp(x1)", H_R="-y1"),
    "twisted_varying": lambda: models.build_proper_phhs(
        f="1 + x2^2/3", h="exp(x2)", H_R="x1*x2 - y1^3/3 + y2/7"
    ),
}
# twisted_varying is no pseudo-holomorphic system (Omega_R(J X, .) is not closed); its fields
# are pinned all the same
NOT_CLOSED = {"twisted_varying"}
# every coordinate 0.0, -0.0, 0.8 or -1.3
SIGNED_ZEROS = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [-0.0, -0.0, -0.0, -0.0],
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, 0.0, -0.0, 0.0],
    [0.8, -0.0, -1.3, 0.0],
    [-0.0, 0.8, 0.0, -1.3],
    [-1.3, 0.0, -0.0, 0.8],
    [0.0, -1.3, 0.8, -0.0],
])


def _hex(a):
    return np.vectorize(float.hex, otypes=[object])(np.asarray(a, dtype=float)).tolist()


def compute(name):
    """The pinned values of one model, as nested lists of ``float.hex`` strings."""
    fields = assemble_phhs(MODELS[name](), check_closedness=name not in NOT_CLOSED)
    model = fields.model
    dim = model.dim
    P = seeded_points(21, 6, dim, scale=0.6, center=model.base_point)
    p = P[0]
    out = {}
    stacks = (("stack", P), ("point", p))
    if name in ("proper_phhs", "twisted_varying"):
        stacks += (("signed", SIGNED_ZEROS),)
        for V in (fields.X, fields.JX):
            point = lane_function(*V.lane)
            out[f"{V.name}_lane_signed"] = [point(tuple(q)) for q in SIGNED_ZEROS.tolist()]
    for label, pts in stacks:
        out[f"J_{label}"] = model.J(pts)
        out[f"X_{label}"] = fields.X(pts)
        out[f"JX_{label}"] = fields.JX(pts)
        out[f"H_R_{label}"] = model.H_R(pts)
        out[f"grad_H_R_{label}"] = model.H_R.gradient(pts)
        out[f"H_I_{label}"] = fields.H_I(pts)
    out["flow_X_point"] = flow(fields.X, p, 0.37, CFG)
    out["flow_X_stack"] = flow(fields.X, P[:3], 0.41, CFG)
    out["flow_JX_point"] = flow(fields.JX, p, -0.33, CFG)
    out["flow_JX_stack"] = flow(fields.JX, P[:3], -0.29, CFG)
    out["tilted_point"] = tilted_flow(fields, p, 0.7, 0.31, CFG)
    out["tilted_stack"] = tilted_flow(fields, P[:3], -2.2, 0.23, CFG)
    return {key: _hex(value) for key, value in out.items()}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_assembled_lanes_are_none_or_a_lane_and_its_values(name):
    # a field's lane is a value: the pair of a Lane and the tuple of its args' values, not a call
    fields = assemble_phhs(MODELS[name](), check_closedness=name not in NOT_CLOSED)
    for V in (fields.X, fields.JX):
        lane = V.lane
        assert lane is None or (
            type(lane) is tuple and len(lane) == 2 and isinstance(lane[0], Lane) and type(lane[1]) is tuple
        ), V.name


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_values_match_their_recorded_bits(name):
    expected = json.loads(VALUES.read_text())[name]
    got = compute(name)
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


def test_single_point_flows_take_the_lane_where_x_has_a_scalar_form():
    # the central problem, the text H's and the torus default (the text sum_j P_j^2/2) pin the
    # lane, the callable the array path
    lanes = {
        name: assemble_phhs(build(), check_closedness=name not in NOT_CLOSED).X.lane is not None
        for name, build in MODELS.items()
    }
    assert lanes == {
        "central": True,
        "torus_default": True,
        "torus_text_n2": True,
        "standard_n2": True,
        "standard_n2_callable": False,
        "proper_phhs": True,
        "twisted_varying": True,
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
