import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from phhs import cli, fields as fields_lib, flows, models, util
from phhs.errors import NonFiniteStateError, StepBudgetExceededError
from phhs.fields import MatrixField, VectorField, constant, constant_matrix_field, matvec
from phhs.flows import (
    FlowConfig,
    circle_path,
    commutation_defect,
    continue_along_path,
    flow,
    flow_error_estimate,
    flow_word,
    grid_monitors,
    tilted_flow,
    trajectory_grid,
)
from phhs.hamiltonian import assemble_phhs
from phhs.util import from_complex, standard_j_matrix, to_complex

CFG = FlowConfig(dt=1e-3)
X0 = np.array([1.0, 0.5, 0.0, 0.0])


def test_zero_field_is_identity():
    V = VectorField(lambda p: np.zeros(2))
    assert np.array_equal(flow(V, np.array([0.3, -0.1]), 5.0, CFG), [0.3, -0.1])


def test_harmonic_oscillator_period():
    # X = (-2y, 2x): circular orbits of period pi
    V = VectorField(lambda p: np.array([-2.0 * p[1], 2.0 * p[0]]))
    x0 = np.array([0.5, 0.0])
    out = flow(V, x0, np.pi, CFG)
    assert np.max(np.abs(out - x0)) < 1e-8


def test_flow_time_reversible():
    V = VectorField(lambda p: np.array([-2.0 * p[1], 2.0 * p[0]]))
    x0 = np.array([0.4, 0.3])
    back = flow(V, flow(V, x0, 1.3, CFG), -1.3, CFG)
    assert np.max(np.abs(back - x0)) < 1e-8


def test_richardson_estimate_bounds_error():
    V = VectorField(lambda p: np.array([-2.0 * p[1], 2.0 * p[0]]))
    x0 = np.array([0.5, 0.0])
    out, err = flow_error_estimate(V, x0, np.pi, FlowConfig(dt=0.05))
    exact = x0
    assert np.max(np.abs(out - exact)) < 50 * max(err, 1e-15)
    # the extrapolated endpoint beats the plain one
    plain = flow(V, x0, np.pi, FlowConfig(dt=0.05))
    extrap = flow(V, x0, np.pi, FlowConfig(dt=0.05, richardson=True))
    assert np.max(np.abs(extrap - exact)) < np.max(np.abs(plain - exact))


def test_step_budget_guard():
    V = VectorField(lambda p: np.zeros(2) + 1.0)
    with pytest.raises(StepBudgetExceededError):
        flow(V, np.zeros(2), 1.0, FlowConfig(dt=1e-3, max_step_count=10))


def test_overflow_guard():
    V = VectorField(lambda p: np.array(p))
    with pytest.raises(NonFiniteStateError):
        flow(V, np.ones(2), 50.0, FlowConfig(dt=0.05))


def test_singular_crossing_is_detectable(central):
    # flowing backwards from (1, 1/2) crosses the Q = 0 locus at t = -1; the
    # fixed-step scheme can hop over the pole, but both monitors flag it
    model, fields = central
    _, err = flow_error_estimate(fields.X, X0, -1.0, CFG)
    assert err > 1e-2
    end = flow(fields.X, X0, -1.0, CFG)
    assert abs(model.H_R(end) - model.H_R(X0)) > 0.1
    # evaluating the field itself too close to the locus raises
    with pytest.raises(NonFiniteStateError):
        fields.X(np.array([1e-4, 0.5, 0.0, 0.0]))


def test_central_real_axis_closed_form(central):
    # Q(z) = sqrt(z + 1) on the real axis: Q(3) = 2, P(3) = 1/4
    _, fields = central
    out = to_complex(flow(fields.X, X0, 3.0, CFG))
    assert abs(out[0] - 2.0) < 1e-8
    assert abs(out[1] - 0.25) < 1e-8


def test_tilted_flow_equals_axis_flows(central):
    _, fields = central
    a = tilted_flow(fields, X0, 0.0, 0.7, CFG)
    b = flow(fields.X, X0, 0.7, CFG)
    assert np.max(np.abs(a - b)) < 1e-10
    c = tilted_flow(fields, X0, np.pi / 2.0, 0.7, CFG)
    d = flow(fields.JX, X0, 0.7, CFG)
    assert np.max(np.abs(c - d)) < 1e-10


def test_tilted_flow_closed_form_oracle(central):
    # alpha = pi/4, r = sqrt(2) lands at z = 1 + i; oracle sqrt(z + 1)
    model, fields = central
    out = to_complex(tilted_flow(fields, X0, np.pi / 4.0, np.sqrt(2.0), CFG))
    oracle = model.closed_form(X0)(1.0 + 1.0j)
    assert np.max(np.abs(out - oracle)) < 1e-6


def test_trajectory_grid_constant_hamiltonian():
    model = models.build_deformation(0.0, n=1, hamiltonian="const")
    from phhs.hamiltonian import assemble_phhs

    fields = assemble_phhs(model)
    x0 = np.array([0.3, 0.2, -0.1, 0.4])
    grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), 5, 5, CFG)
    assert np.max(np.abs(grid.values - x0)) == 0.0


def test_trajectory_grid_torus_straight_lines(torus_square):
    model, fields = torus_square
    x0 = from_complex(np.array([0.1 + 0.2j, 0.6 - 0.3j]))
    grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), 9, 9, CFG)
    gamma = model.closed_form(x0)
    worst = 0.0
    for i in range(grid.nt):
        for j in range(grid.ns):
            z = grid.node_z(i, j)
            worst = max(worst, np.max(np.abs(to_complex(grid.values[i, j]) - gamma(z))))
    assert worst < 1e-8
    monitors = grid_monitors(fields, grid, CFG)
    assert monitors["swap_defect"] < 1e-8
    assert monitors["energy_drift_R"] < 1e-9
    assert monitors["energy_drift_I"] < 1e-9


def test_trajectory_grid_central_closed_form(central):
    model, fields = central
    grid = trajectory_grid(fields, X0, 0.0, (0.0, 1.0), (0.0, 1.0), 17, 17, CFG)
    gamma = model.closed_form(X0)
    worst = 0.0
    for i in range(grid.nt):
        for j in range(grid.ns):
            z = grid.node_z(i, j)
            worst = max(worst, np.max(np.abs(to_complex(grid.values[i, j]) - gamma(z))))
    assert worst < 1e-6
    assert grid_monitors(fields, grid, CFG)["swap_defect"] < 1e-6


def test_grid_cr_residual_second_order(central):
    _, fields = central
    g1 = trajectory_grid(fields, X0, 0.0, (0.0, 1.0), (0.0, 1.0), 17, 17, CFG)
    g2 = trajectory_grid(fields, X0, 0.0, (0.0, 1.0), (0.0, 1.0), 33, 33, CFG)
    ratio = grid_monitors(fields, g1, CFG)["cr_residual"] / grid_monitors(fields, g2, CFG)["cr_residual"]
    assert ratio > 3.5


def test_anchor_must_be_a_node(central):
    _, fields = central
    with pytest.raises(ValueError):
        trajectory_grid(fields, X0, 0.05 + 0.0j, (0.0, 1.0), (0.0, 1.0), 5, 5, CFG)


def test_flow_word_identity(central):
    _, fields = central
    assert np.max(np.abs(flow_word(fields, X0, [(0.0, 0.0)], CFG) - X0)) == 0.0


def test_flow_word_matches_branch_tracked_closed_form(central):
    """The two word orders land on opposite square-root sheets.

    The branch-tracked closed form gives the endpoint
    (2**0.25 e^{i 5 pi/8}, 2**-1.25 e^{-i 5 pi/8}) for the word
    [(0, -2), (-2, 1)] read right to left, and exactly its negative for
    [(0, 1), (-2, -2)].
    """
    model, fields = central
    end1 = to_complex(flow_word(fields, X0, [(0.0, -2.0), (-2.0, 1.0)], CFG))
    end2 = to_complex(flow_word(fields, X0, [(0.0, 1.0), (-2.0, -2.0)], CFG))
    gamma = model.closed_form(X0)
    oracle = gamma(-2.0 - 1.0j, path=[0.0, 1.0j, -2.0 + 1.0j, -2.0 - 1.0j])
    assert np.max(np.abs(end1 - oracle)) < 1e-7
    assert np.max(np.abs(end2 + oracle)) < 1e-7
    target = 2.0 ** 0.25 * np.exp(1j * 5.0 * np.pi / 8.0)
    assert abs(end1[0] - target) < 1e-7
    assert abs(end1[1] - 0.5 / target) < 1e-7


def test_leaf_containment_along_words(central):
    model, fields = central
    h0 = complex(model.H_R(X0), fields.H_I(X0))
    for word in ([(0.5, -0.25)], [(0.0, -2.0), (-2.0, 1.0)], [(0.3, 0.2), (0.1, -0.4)]):
        end = flow_word(fields, X0, word, CFG)
        h1 = complex(model.H_R(end), fields.H_I(end))
        assert abs(h1 - h0) < 1e-7


def test_monodromy_sign_flip_and_double_cover(central):
    _, fields = central
    once = continue_along_path(fields, X0, circle_path(-1.0, 1.0, 0.0, turns=1), CFG)
    assert np.max(np.abs(once + X0)) < 1e-5
    twice = continue_along_path(fields, X0, circle_path(-1.0, 1.0, 0.0, turns=2), CFG)
    assert np.max(np.abs(twice - X0)) < 1e-5


def test_trivial_closed_path(central):
    _, fields = central
    path = [0.0, 0.2 + 0.1j, 0.3 - 0.1j, 0.0]
    out = continue_along_path(fields, X0, path, CFG)
    assert np.max(np.abs(out - X0)) < 1e-8


def test_commutation_defect_local_and_global(central, harmonic):
    _, fields_c = central
    assert commutation_defect(fields_c, X0, 0.1, 0.1, CFG) < 1e-6
    _, fields_h = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    assert commutation_defect(fields_h, x0, 0.8, 0.6, CFG) < 1e-8
    # a word crossing the branch locus produces a sign swap
    a = flow_word(fields_c, X0, [(0.0, -2.0), (-2.0, 1.0)], CFG)
    b = flow_word(fields_c, X0, [(0.0, 1.0), (-2.0, -2.0)], CFG)
    defect = float(np.linalg.norm(a - b))
    assert defect == pytest.approx(2.0 * float(np.linalg.norm(a)), rel=1e-6)


def test_energy_conservation_invariant(central, harmonic):
    for _, fields in (central, harmonic):
        x0 = X0 if fields is central[1] else np.array([0.4, 0.3, 0.1, -0.2])
        h_r0 = fields.model.H_R(x0)
        h_i0 = fields.H_I(x0)
        for V in (fields.X, fields.JX):
            end = flow(V, x0, 2.0, CFG)
            assert abs(fields.model.H_R(end) - h_r0) < 1e-7
            assert abs(fields.H_I(end) - h_i0) < 1e-7


# ---------------------------------------------------------------------------
# fields with a complex form (J = i) flow on the complex state z = x + i y
# ---------------------------------------------------------------------------


HOLOMORPHIC = {
    "central": (models.build_central_problem(), [1.0, 0.5, 0.0, 0.0]),
    "oscillator": (models.build_standard_hhs(1, "(P1^2 + Q1^2)/2"), [0.4, 0.3, 0.1, -0.2]),
    "standard_n2": (models.build_standard_hhs(2, "P1^2/2 + P2"), [0.1, 0.2, -0.3, 0.4, -0.1, 0.2, 0.0, 0.3]),
    "torus": (models.build_torus_model(models.Lattice(np.eye(2))), [0.1, 0.6, 0.2, -0.3]),
}
COARSE = FlowConfig(dt=1e-2)


def _real_path(fields):
    """The same fields with their complex forms stripped, so that every flow steps the real state."""
    return dataclasses.replace(
        fields,
        X=VectorField(fields.X.fn, fd=fields.X.fd, name="X"),
        JX=VectorField(fields.JX.fn, fd=fields.JX.fd, name="JX"),
    )


@pytest.fixture(scope="module", params=sorted(HOLOMORPHIC))
def holomorphic(request):
    model, x0 = HOLOMORPHIC[request.param]
    fields = assemble_phhs(model)
    assert fields.X.complex_form is not None and fields.JX.complex_form is not None
    return fields, _real_path(fields), np.array(x0)


def test_complex_state_flows_equal_the_real_path_bit_for_bit(holomorphic):
    fields, real, x0 = holomorphic
    stack = np.array([x0, x0 + 0.05])
    for a, b in ((fields.X, real.X), (fields.JX, real.JX)):
        for start, t in ((x0, 0.7), (x0, -0.45), (stack, 0.3)):
            assert np.array_equal(flow(a, start, t, COARSE), flow(b, start, t, COARSE))
        end, err = flow_error_estimate(a, x0, 0.5, COARSE)
        end_r, err_r = flow_error_estimate(b, x0, 0.5, COARSE)
        assert np.array_equal(end, end_r) and err == err_r
    word = [(0.3, -0.4), (-0.2, 0.5)]
    assert np.array_equal(flow_word(fields, x0, word, COARSE), flow_word(real, x0, word, COARSE))
    assert np.array_equal(tilted_flow(fields, x0, 0.9, 0.4, COARSE), tilted_flow(real, x0, 0.9, 0.4, COARSE))


def test_complex_state_path_continuation_equals_the_real_path_bit_for_bit(holomorphic):
    fields, real, x0 = holomorphic
    # an oblique circle, every segment a complex time step with both parts nonzero
    center = 0.2 + 0.1j
    path = circle_path(center, 0.5, center + 0.5 * np.exp(0.7j), n_segments=12)
    assert np.array_equal(continue_along_path(fields, x0, path, COARSE), continue_along_path(real, x0, path, COARSE))


def test_complex_state_grid_equals_the_real_path_bit_for_bit(holomorphic):
    fields, real, x0 = holomorphic
    a = trajectory_grid(fields, x0, 0.0, (0.0, 0.6), (-0.3, 0.3), 4, 3, COARSE)
    b = trajectory_grid(real, x0, 0.0, (0.0, 0.6), (-0.3, 0.3), 4, 3, COARSE)
    assert np.array_equal(a.values, b.values)
    ma, mb = grid_monitors(fields, a, COARSE), grid_monitors(real, b, COARSE)
    for key in ("swap_defect", "energy_drift_R", "energy_drift_I", "cr_residual"):
        assert ma[key] == mb[key], key


def test_complex_state_overflow_names_step_time_row_and_real_state():
    # dQ/dt = Q^2: the row with Q0 = 2 blows up near t = 1/2, the one with Q0 = 0.1 does not
    fields = assemble_phhs(models.build_standard_hhs(1, "P1*Q1^2"))
    x0 = np.array([[0.1, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.1]])
    errors = []
    for V in (fields.X, _real_path(fields).X):
        with pytest.raises(NonFiniteStateError) as info:
            flow(V, x0, 1.0, CFG)
        errors.append(info.value)
    err, err_r = errors
    assert err.row == 1 and 490 < err.step < 520 and err.time == pytest.approx(err.step * 1e-3)
    assert (err.step, err.time, err.row) == (err_r.step, err_r.time, err_r.row)
    # the state is the real (x1, x2, y1, y2) layout of the stack row, as on the real path
    assert err.state.dtype == float and err.state.shape == (4,)
    assert np.array_equal(err.state, err_r.state, equal_nan=True)
    assert f"at step {err.step} (flow time" in str(err) and "in row 1" in str(err)


def test_complex_state_box_bounds_each_real_component():
    # |z| = 1.13e8 lies past the bound, but both real components lie inside it
    flows._check_state(np.array([0.8e8 + 0.8e8j, 1.0]), 1, 0.1)
    with pytest.raises(NonFiniteStateError) as info:
        flows._check_state(np.array([[1.0, 2.0j], [3.0, 1.5e8j]]), 7, 0.1)
    err = info.value
    assert (err.step, err.row) == (7, 1) and np.array_equal(err.state, [3.0, 0.0, 0.0, 1.5e8])


@pytest.mark.parametrize(
    "J",
    [
        constant_matrix_field(-standard_j_matrix(2), name="J"),  # the conjugate structure -i
        MatrixField(constant(standard_j_matrix(2)), name="J"),  # i, but not known to be constant
    ],
    ids=["conjugate", "unmarked"],
)
def test_a_complex_form_with_a_j_not_known_to_be_i_takes_the_real_path(J):
    model = dataclasses.replace(models.build_central_problem(), J=J, H_I_hook=None)
    fields = assemble_phhs(model)
    assert fields.X.complex_form is not None and fields.JX.complex_form is None
    P = np.array([X0, [1.1, 0.4, 0.1, -0.2], [0.9, 0.6, -0.1, 0.1]])
    assert np.array_equal(fields.JX(P), matvec(J(P), fields.X(P)))
    assert np.array_equal(flow(fields.JX, X0, 0.4, COARSE), flow(_real_path(fields).JX, X0, 0.4, COARSE))


def test_central_q_guard_names_the_row_and_its_real_point():
    fields = assemble_phhs(models.build_central_problem())
    bad = np.array([1e-3, 0.0, 2e-4, 0.0])
    with pytest.raises(NonFiniteStateError) as info:
        flow(fields.X, [[1.0, 0.5, 0.0, 0.0], bad], 0.1)
    message = str(info.value)
    assert "Q = 0 locus" in message and f"row 1 (point {bad})" in message


def test_central_q_guard_names_the_step_and_flow_time():
    fields = assemble_phhs(models.build_central_problem())
    bad = np.array([1e-3, 0.0, 2e-4, 0.0])
    with pytest.raises(NonFiniteStateError) as info:
        flow(fields.X, [[1.0, 0.5, 0.0, 0.0], bad], 0.1)
    err = info.value
    assert (err.step, err.time, err.row) == (1, 0.0, 1)
    assert np.array_equal(err.state, bad)
    assert "in step 1 of the flow (from flow time 0) in row 1" in str(err)
    # a single point that falls onto the locus some steps into the flow
    x0 = np.array([0.14, -0.5, 0.0, 0.0])
    with pytest.raises(NonFiniteStateError) as info:
        flow(fields.X, x0, 0.3)
    err = info.value
    assert err.step > 1 and err.row is None
    assert err.time == pytest.approx((err.step - 1) * 1e-3, rel=1e-12)
    assert np.allclose(err.state, flow(fields.X, x0, err.time), rtol=1e-12, atol=0.0)


def test_monodromy_probe_converts_once_per_flow_and_never_calls_j(tmp_path, monkeypatch):
    # the variant-0 monodromy probe of the benchmark: 16 segments of the circle about -1
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import scenarios

    cfg = scenarios._monodromy(scenarios.anchors(0), probe=True)
    counts = {"flow": 0, "to_complex": 0, "J": 0}
    inside = []

    def counted_flow(*args, **kwargs):
        counts["flow"] += 1
        inside.append(True)
        try:
            return real_flow(*args, **kwargs)
        finally:
            inside.pop()

    def counted_to_complex(p):
        counts["to_complex"] += bool(inside)
        return util.to_complex(p)

    def counted_call(self, p):
        counts["J"] += bool(inside) and self.name == "J"
        return real_call(self, p)

    real_flow, real_call = flows.flow, fields_lib.Field.__call__
    monkeypatch.setattr(flows, "flow", counted_flow)
    monkeypatch.setattr(fields_lib.Field, "__call__", counted_call)
    for module in [m for name, m in sys.modules.items() if name.startswith("phhs")]:
        if getattr(module, "to_complex", None) is util.to_complex:
            monkeypatch.setattr(module, "to_complex", counted_to_complex)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["monodromy", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert counts["flow"] == 16
    assert counts["to_complex"] <= counts["flow"]
    assert counts["J"] == 0
