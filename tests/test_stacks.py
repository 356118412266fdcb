"""Fields, jets, tensors and flows on an ``(N, dim)`` stack of points agree with one point at a time.

A stack row must be bit for bit the single-point value: the bi-time grid
flows all its column anchors as one stack, and its nodes must be the values
that a flow of each column alone gives; the integrability scan, the
deformation sweep and the connection check take every jet and tensor of
their point set in one call.  The one exception is the value of the central
problem's complex Hamiltonian (H_R and H_I), which may move by one unit in
the last place on a stack.
"""

import dataclasses

import numpy as np
import pytest

from phhs import connections as conn
from phhs import models
from phhs.errors import NonFiniteStateError
from phhs.fields import FdConfig, MatrixField, ScalarField, VectorField, complex_gradient, jet, partial_jet, rowwise
from phhs.flows import FlowConfig, flow, grid_monitors, trajectory_grid
from phhs.hamiltonian import HamiltonianFields, assemble_phhs, hamiltonian_vector_field, omega_I_from
from phhs.tensors import exterior_derivative_2form, lie_bracket, lie_derivative_matrix, nijenhuis
from phhs.util import seeded_points, standard_j_matrix, to_complex

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


# ---------------------------------------------------------------------------
# stack calls are checked
# ---------------------------------------------------------------------------


def _pointwise_oscillator_fields():
    # H_R of (P1^2 + Q1^2)/2 written for one point: on a stack p[0] is the first
    # row, not the x1 column.  Unchecked, the grid's energy monitor read such
    # values silently (energy_drift_R 0.2997 on this grid, 1.4e-13 with the
    # model's own H_R).
    model = models.build_standard_hhs(1, "(P1^2 + Q1^2)/2")
    pointwise = lambda p: 0.5 * (p[0] ** 2 + p[1] ** 2 - p[2] ** 2 - p[3] ** 2)  # noqa: E731
    return assemble_phhs(model), pointwise


def _drift_with_h_r(fields, H_R):
    fields = dataclasses.replace(fields, model=dataclasses.replace(fields.model, H_R=H_R))
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), 5, 5, CFG)
    return grid_monitors(fields, grid, CFG)["energy_drift_R"]


def test_pointwise_field_on_a_stack_is_an_error():
    fields, pointwise = _pointwise_oscillator_fields()
    message = r"ScalarField 'H_R' returned shape \(4,\) for a stack of shape \(25, 4\).*fields\.rowwise"
    with pytest.raises(ValueError, match=message):
        _drift_with_h_r(fields, ScalarField(pointwise, name="H_R"))


def test_pointwise_field_lifted_by_rowwise_gives_the_true_drift():
    fields, pointwise = _pointwise_oscillator_fields()
    assert _drift_with_h_r(fields, ScalarField(rowwise(pointwise), name="H_R")) < 1e-12


def test_pointwise_field_in_a_stack_flow_steps_each_row_as_a_point():
    # a flow of a field without a lane calls it on one point at a time, so a function of one
    # point (on a stack p[0] and p[1] would be rows) gives each row its own flow
    calls = []

    def pointwise(p):
        calls.append(p.shape)
        return np.array([p[1], -p[0]])

    V = VectorField(pointwise, name="V")
    stack = np.array([[1.0, 0.0], [0.3, -0.2], [-0.5, 0.4]])
    rows = flow(V, stack, 1.0, CFG)
    assert set(calls) == {(2,)} and len(calls) == 3 * 4 * 100
    assert np.array_equal(rows, np.array([flow(V, p, 1.0, CFG) for p in stack]))


@pytest.mark.parametrize(
    "value", [lambda p: np.zeros(3), lambda p: 1.0, lambda p: np.zeros((2, 2))], ids=["length", "scalar", "matrix"]
)
def test_a_field_value_that_is_not_one_number_per_coordinate_is_a_value_error_in_a_flow(value):
    # the call line reads the value as one float row and unpacks its numbers, one per coordinate
    V = VectorField(value, name="V")
    for x0 in (np.ones(2), np.ones((3, 2))):
        with pytest.raises(ValueError, match="values to unpack"):
            flow(V, x0, 1.0, CFG)


def _pointwise_j(p):
    # the standard J written for one point with entries reading p[0]: on a stack p[0] is the
    # first row, so the value is one (4, 4) matrix in place of one per row
    return standard_j_matrix(2) + 0.0 * p[0]


def _pointwise_x(p):
    # a vector field written for one point
    return np.array([p[1], -p[0], p[3], -p[2]])


@pytest.mark.parametrize(
    "replace, message",
    [
        ({"J": MatrixField(_pointwise_j, name="J")}, r"MatrixField 'J' returned shape \(4, 4\) for a stack of shape \(10, 4\)"),
        ({"X_hook": VectorField(_pointwise_x, name="X")}, r"VectorField 'X' returned shape \(4, 4\) for a stack of shape \(10, 4\)"),
    ],
    ids=["J", "X_hook"],
)
def test_assembly_rejects_a_pointwise_structure_field(replace, message):
    model = dataclasses.replace(models.build_standard_hhs(1, "(P1^2 + Q1^2)/2"), **replace)
    with pytest.raises(ValueError, match=message + r".*fields\.rowwise"):
        assemble_phhs(model)


def test_field_returning_a_single_value_for_a_stack_is_an_error():
    V = VectorField(lambda p: np.array([1.0, 0.0]), name="V")
    assert np.array_equal(V(np.zeros(2)), [1.0, 0.0])
    with pytest.raises(ValueError, match=r"'V' returned shape \(2,\) for a stack of shape \(3, 2\)"):
        V(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# jets and tensors: a stack row is the single-point value, bit for bit
# ---------------------------------------------------------------------------


ROTATION = models.build_rotation_family("x1*y2 + 0.3*x2")
CURVED = conn.diagonal_metric([1.0, lambda x: 1.0 + x[0] ** 2])


def _rows_equal(fn, P):
    stacked = fn(P)
    rows = np.array([fn(p) for p in P])
    assert stacked.shape == rows.shape
    assert np.array_equal(stacked, rows)


def _points(dim, seed=31, count=7, scale=0.6):
    return seeded_points(seed, count, dim, scale=scale)


@pytest.mark.parametrize("name", ["twisted", "deformation", "rotation"])
def test_structure_jets_and_tensors_on_a_stack_equal_single_points(name):
    model = ROTATION if name == "rotation" else ZOO[name]
    omega_I = omega_I_from(model.omega_R, model.J)
    P = _points(4)
    _rows_equal(lambda p: jet(model.J, p), P)
    _rows_equal(lambda p: jet(omega_I, p), P)
    for axis in range(4):
        _rows_equal(lambda p: partial_jet(model.J, p, axis), P)
    _rows_equal(lambda p: nijenhuis(model.J, p), P)
    _rows_equal(lambda p: exterior_derivative_2form(omega_I, p), P)


@pytest.mark.parametrize("name", ["twisted", "deformation"])
def test_brackets_and_lie_derivatives_on_a_stack_equal_single_points(name):
    fields = assemble_phhs(ZOO[name])
    P = _points(4)
    _rows_equal(lambda p: jet(fields.H_I, p), P)
    _rows_equal(lambda p: lie_bracket(fields.X, fields.JX, p), P)
    _rows_equal(lambda p: lie_bracket(fields.JX, fields.X, p), P)
    for V in (fields.X, fields.JX):
        _rows_equal(lambda p: lie_derivative_matrix(V, fields.model.J, p), P)


def test_deformation_bump_and_formula_on_a_stack_equal_single_points():
    model = ZOO["deformation"]
    P = np.vstack([_points(4, scale=1.2), np.zeros(4)])  # rows inside and outside the bump's support
    _rows_equal(model.extras["f"], P)
    _rows_equal(model.extras["d_omega_I_formula"], P)


def test_christoffel_and_curvature_on_a_stack_equal_single_points():
    X = _points(2, scale=0.8) + 0.5
    _rows_equal(lambda x: jet(CURVED, x), X)
    _rows_equal(lambda x: conn.christoffel(CURVED, x), X)
    _rows_equal(lambda x: conn.riemann_curvature(CURVED, x), X)
    # cotangent points (q, p) and the structures built on them
    QP = np.hstack([X, _points(2, seed=37)])
    _rows_equal(lambda qp: conn.j_tangent(CURVED, qp[..., :2], qp[..., 2:]), QP)
    _rows_equal(lambda qp: conn.j_cotangent(CURVED, qp[..., :2], qp[..., 2:]), QP)
    _rows_equal(conn.j_cotangent_field(CURVED), QP)
    _rows_equal(lambda qp: conn.canonical_pairing(CURVED, qp), QP)
    # a holomorphic metric from text and from a callable of one point
    h_r, h_i, _ = conn.holo_metric_parts([["1", lambda z: 0.3 * z[1]], [lambda z: 0.3 * z[1], "exp(z1)"]])
    _rows_equal(h_r, QP)
    _rows_equal(h_i, QP)
    # the generic X: one batched solve of a point-dependent 2-form
    fields = assemble_phhs(ZOO["twisted"])
    _rows_equal(hamiltonian_vector_field(fields.omega_I, fields.H_I), _points(4))


@pytest.mark.parametrize(
    "H", [models.central_hamiltonian, rowwise(lambda z: z[1] ** 3 / 3.0 - z[0] * z[1] + np.exp(z[0]))]
)
def test_complex_gradient_on_a_stack_equals_single_points(H):
    Z = to_complex(_points(4, scale=0.4)) + 0.7
    _rows_equal(lambda z: complex_gradient(H, z), Z)


def test_spacing_per_row_rounds_as_the_norm_of_each_point():
    fd = FdConfig(step=1e-5)
    rng = np.random.default_rng(5)
    P = 3.0 * rng.standard_normal((2000, 4)) * rng.random((2000, 1))
    Z = P[:, :2] + 1j * P[:, 2:]
    for Q in (P, Z):
        per_point = np.array([1e-5 * max(1.0, float(np.linalg.norm(q))) for q in Q])
        assert np.array_equal(fd.spacing(Q), per_point)
        _rows_equal(fd.spacing, Q)
