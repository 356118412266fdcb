"""Fields and flows on an ``(N, dim)`` stack of points agree with one point at a time.

A stack row must be bit for bit the single-point value: the bi-time grid
flows all its column anchors as one stack, and its nodes must be the values
that a flow of each column alone gives.  The one exception is the value of
the central problem's complex Hamiltonian (H_R and H_I), which may move by
one unit in the last place on a stack.
"""

import numpy as np
import pytest

from phhs import models
from phhs.errors import NonFiniteStateError
from phhs.fields import VectorField
from phhs.flows import FlowConfig, flow, trajectory_grid
from phhs.hamiltonian import HamiltonianFields, assemble_phhs
from phhs.util import seeded_points

CFG = FlowConfig(dt=1e-2)


def _zoo():
    lattice = models.Lattice(np.array([[1.0, 0.3, 0.0, 0.1], [0.0, 1.0, 0.2, 0.0],
                                       [0.1, 0.0, 1.0, 0.0], [0.0, 0.2, 0.3, 1.0]]))
    return {
        "oscillator": models.build_standard_hhs(1, "(P1^2 + Q1^2)/2"),
        "standard_default": models.build_standard_hhs(1, "P1"),
        "standard_callable": models.build_standard_hhs(1, lambda z: 0.5 * z[1] ** 2 + 0.5 * z[0] ** 2),
        "central": models.build_central_problem(),
        "torus": models.build_torus_model(models.Lattice(np.eye(2))),
        "torus_text": models.build_torus_model(lattice, H="P1^2/2 + P2"),
        "twisted": models.build_proper_phhs(f="1", h="exp(x1)", H_R="-y1"),
        "twisted_callable": models.build_proper_phhs(
            f=lambda p: 1.0, h=lambda p: np.exp(p[0]), H_R=lambda p: -p[2]
        ),
        "deformation": models.build_deformation(0.5),
        "deformation_linear": models.build_deformation(0.5, n=2, hamiltonian="linear_last"),
    }


ZOO = _zoo()


@pytest.fixture(scope="module", params=sorted(ZOO))
def assembled(request):
    model = ZOO[request.param]
    return request.param, assemble_phhs(model)


def test_zoo_fields_on_a_stack_equal_row_by_row_calls(assembled):
    name, fields = assembled
    model = fields.model
    P = seeded_points(23, 9, model.dim, scale=0.3, center=model.base_point)
    for field in (fields.X, fields.JX, model.J):
        stacked = field(P)
        rows = np.array([field(p) for p in P])
        assert stacked.shape == rows.shape, (name, field.name)
        assert np.array_equal(stacked, rows), (name, field.name)


def test_zoo_scalars_and_primitive_on_a_stack_equal_row_by_row_calls(assembled):
    # the parallelogram action and the grid's energy monitor evaluate these on stacks
    name, fields = assembled
    model = fields.model
    P = seeded_points(23, 9, model.dim, scale=0.3, center=model.base_point)
    for field in (model.H_R, fields.H_I, model.lambda_R):
        stacked = np.asarray(field(P))
        rows = np.array([field(p) for p in P])
        assert stacked.shape == rows.shape, (name, field.name)
        if name == "central" and field is not model.lambda_R:
            # P^2/2 - 1/(8 Q^2) on complex128: numpy's scalar and array complex
            # arithmetic round differently, so a row may move by one unit in the
            # last place of its O(1) terms
            assert np.allclose(stacked, rows, rtol=0.0, atol=2.0 * np.finfo(float).eps), field.name
        else:
            assert np.array_equal(stacked, rows), (name, field.name)


def _column_by_column(fields, x0, nt, ns, cfg):
    """The grid of ``trajectory_grid`` anchored at z0 = 0, one single-point flow per segment."""
    t_nodes = np.linspace(0.0, 1.0, nt)
    s_nodes = np.linspace(0.0, 1.0, ns)
    values = np.empty((nt, ns, x0.size))
    y = np.array(x0)
    for i in range(nt):
        if i:
            y = flow(fields.X, y, t_nodes[i] - t_nodes[i - 1], cfg)
        values[i, 0] = c = y
        for j in range(1, ns):
            c = flow(fields.JX, c, s_nodes[j] - s_nodes[j - 1], cfg)
            values[i, j] = c
    return values


@pytest.mark.parametrize(
    "name, x0",
    [
        ("twisted", [0.2, 0.1, -0.3, 0.4]),
        ("oscillator", [0.4, 0.3, 0.1, -0.2]),
        ("central", [1.0, 0.5, 0.0, 0.0]),
        ("torus", [0.1, 0.6, 0.2, -0.3]),
        ("twisted_callable", [0.2, 0.1, -0.3, 0.4]),
        ("standard_callable", [0.4, 0.3, 0.1, -0.2]),
    ],
)
def test_grid_equals_single_point_column_flows(name, x0):
    fields = assemble_phhs(ZOO[name])
    x0 = np.array(x0)
    grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), 5, 4, CFG)
    assert np.array_equal(grid.values, _column_by_column(fields, x0, 5, 4, CFG))


def _blow_up_fields():
    # X translates along x; J X = (0, x^4 y^2) sends y to infinity at s = 1 / (x^4 y0)
    X = VectorField(lambda p: np.broadcast_to([1.0, 0.0], p.shape), name="X")
    JX = VectorField(lambda p: np.stack([0.0 * p[..., 0], p[..., 0] ** 4 * p[..., 1] ** 2], axis=-1), name="JX")
    return HamiltonianFields(model=None, X=X, JX=JX, H_I=None, omega_I=None, alpha=None, diagnostics={})


def test_grid_overflow_names_the_column_step_and_time():
    # columns x = 0, 0.3, 0.6, 0.9, 1.2: only the last blows up before s = 1 (at s = 0.48)
    fields = _blow_up_fields()
    with pytest.raises(NonFiniteStateError) as info:
        trajectory_grid(fields, np.array([0.0, 1.0]), 0.0, (0.0, 1.2), (0.0, 1.0), 5, 5, FlowConfig(dt=1e-3))
    err = info.value
    assert err.row == 4
    assert err.state[0] == pytest.approx(1.2)
    assert not abs(err.state[1]) <= 1e8
    # the second s segment [0.25, 0.5] (250 steps of 1e-3) overflows just before s = 0.48
    assert 200 < err.step <= 250 and err.time == pytest.approx(err.step * 1e-3)
    message = str(err)
    assert f"at step {err.step} (flow time" in message and "in row 4" in message


def test_single_point_overflow_names_step_and_time():
    V = VectorField(lambda p: np.array(p))
    with pytest.raises(NonFiniteStateError) as info:
        flow(V, np.ones(2), 50.0, FlowConfig(dt=0.05))
    err = info.value
    # y = e^t leaves the box |y| <= 1e8 near t = ln(1e8) = 18.42
    assert err.row is None and err.time == pytest.approx(err.step * 0.05)
    assert 18.0 < err.time < 18.6
    assert f"at step {err.step} (flow time" in str(err) and "row" not in str(err)
