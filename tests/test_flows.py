import dataclasses
import itertools
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from phhs import cli, fields as fields_lib, flows, models, morse as morse_lib, util
from phhs.errors import NonFiniteStateError, PhhsError, StepBudgetExceededError
from phhs.expressions import Expression, Lane, compile_vector, lane_function, parse_expression
from phhs.fields import MatrixField, VectorField, constant, constant_matrix_field, matvec, on_complex_state
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

from conftest import array_states, complex_x, field_point, rk4_step

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


@pytest.mark.parametrize("t", [1e306, -np.inf, 1e4])
def test_a_step_count_past_the_budget_is_a_step_budget_error(t):
    # the count is compared as a float first: |t| / dt past the float range is inf steps
    V = VectorField(lambda p: np.zeros(2) + 1.0)
    with pytest.raises(StepBudgetExceededError, match=re.escape(f"flow of duration {t!r} needs ")):
        flow(V, np.zeros(2), t, CFG)


def test_a_nan_flow_duration_is_a_value_error():
    V = VectorField(lambda p: np.zeros(2) + 1.0)
    with pytest.raises(ValueError, match="the flow duration must be a number, got nan"):
        flow(V, np.zeros(2), np.nan, CFG)


@pytest.mark.parametrize("dt", [-1e-3, 0.0, float("nan"), float("inf")])
def test_flow_config_rejects_a_step_that_is_not_positive_and_finite(dt):
    with pytest.raises(ValueError, match="dt must be"):
        FlowConfig(dt=dt)


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
# fields whose lane steps the complex state z = x + i y (J = i)
# ---------------------------------------------------------------------------


HOLOMORPHIC = {
    "central": (models.build_central_problem(), [1.0, 0.5, 0.0, 0.0]),
    "oscillator": (models.build_standard_hhs(1, "(P1^2 + Q1^2)/2"), [0.4, 0.3, 0.1, -0.2]),
    "standard_n2": (models.build_standard_hhs(2, "P1^2/2 + P2"), [0.1, 0.2, -0.3, 0.4, -0.1, 0.2, 0.0, 0.3]),
    "torus": (models.build_torus_model(models.Lattice(np.eye(2))), [0.1, 0.6, 0.2, -0.3]),
}
COARSE = FlowConfig(dt=1e-2)


def _real_path(fields):
    """The same fields with their lanes stripped, so that every flow steps the real array state."""
    return dataclasses.replace(
        fields,
        X=VectorField(fields.X.fn, fd=fields.X.fd, name="X"),
        JX=VectorField(fields.JX.fn, fd=fields.JX.fd, name="JX"),
    )


@pytest.fixture(scope="module", params=sorted(HOLOMORPHIC))
def holomorphic(request):
    model, x0 = HOLOMORPHIC[request.param]
    fields = assemble_phhs(model)
    assert on_complex_state(fields.X.lane[0], fields.model.dim) and fields.JX.lane is not None
    return fields, _real_path(fields), np.array(x0)


def _stack_is_its_rows(V, stack, t):
    """Whether the flow of a stack is its rows' single-point flows, tobytes() for tobytes()."""
    return flow(V, stack, t, COARSE).tobytes() == np.array([flow(V, row, t, COARSE) for row in stack]).tobytes()


def test_complex_state_flows_equal_the_real_path_bit_for_bit(holomorphic):
    fields, real, x0 = holomorphic
    stack = np.array([x0, x0 + 0.05, x0 - 0.03])
    for a, b in ((fields.X, real.X), (fields.JX, real.JX)):
        for t in (0.7, -0.45):
            assert np.array_equal(flow(a, x0, t, COARSE), flow(b, x0, t, COARSE))
        assert _stack_is_its_rows(a, stack, 0.3)
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


def test_complex_state_overflow_names_step_time_row_and_real_state(on_arrays):
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
    # |z| = 1.13e8 lies past the bound, but both real components lie inside it; a stack row
    # with a part past it is named with its real state
    flows._check_state(np.array([0.8e8 + 0.8e8j, 1.0]), 1, 0.1)
    with pytest.raises(NonFiniteStateError) as info:
        flows._check_state((3.0 + 0j, 1.5e8j), 7, 0.1, 1)
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
    assert on_complex_state(fields.X.lane[0], fields.model.dim) and fields.JX.lane is None
    P = np.array([X0, [1.1, 0.4, 0.1, -0.2], [0.9, 0.6, -0.1, 0.1]])
    assert np.array_equal(fields.JX(P), matvec(J(P), fields.X(P)))
    assert np.array_equal(flow(fields.JX, X0, 0.4, COARSE), flow(_real_path(fields).JX, X0, 0.4, COARSE))


def test_central_q_guard_names_the_row_and_its_real_point():
    fields = assemble_phhs(models.build_central_problem())
    bad = np.array([1e-3, 0.0, 2e-4, 0.0])
    with pytest.raises(NonFiniteStateError) as info:
        flow(fields.X, [[1.0, 0.5, 0.0, 0.0], bad], 0.1)
    err = info.value
    message = str(err)
    assert "Q = 0 locus" in message and f"in row 1, state {bad.tolist()}" in message
    assert message.count("row 1") == 1
    assert (err.step, err.time, err.row) == (1, 0.0, 1) and np.array_equal(err.state, bad)


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


def _far_field():
    """The field (1, 1) that raises where x1 > 2, with a lane and, stripped of it, on arrays."""

    def too_far(p):
        bad = np.asarray(p)[..., 0] > 2.0
        if bad.any():
            raise NonFiniteStateError("x1 past 2", row=int(np.argmax(bad)) if bad.ndim else None)

    def fn(p):
        too_far(p)
        return np.ones(p.shape)

    lane = Lane((), ("if _p0 > 2.0:\n    _too_far((_p0, _p1))",), ("1.0", "1.0"), ("_too_far",))
    return VectorField(fn, name="far", lane=(lane, (too_far,))), VectorField(fn, name="far")


@pytest.mark.parametrize(
    "stack, step, row",
    [
        # row 1 meets the field's error in step 3, before row 0 leaves the box at step 10
        ([[0.0, 1e8 - 0.95], [1.75, 0.0]], 3, 1),
        # row 0 leaves the box at the end of step 1, after row 1's field error in that step
        ([[0.0, 1e8 - 0.05], [2.5, 0.0]], 1, 1),
        # both rows leave the box at step 1: the lower row is named
        ([[0.0, 1e8 - 0.05], [0.0, 1e8 - 0.01]], 1, 0),
    ],
    ids=["earlier-step", "field-before-box", "lower-row"],
)
def test_a_stack_on_the_lane_raises_the_error_the_array_path_meets_first(on_arrays, stack, step, row):
    lane, array = _far_field()
    errors = []
    for V in (lane, array):
        with pytest.raises(NonFiniteStateError) as info:
            flow(V, stack, 2.0, FlowConfig(dt=0.1))
        errors.append(info.value)
    a, b = errors
    assert (a.step, a.row) == (step, row)
    assert (a.step, a.time, a.row) == (b.step, b.time, b.row) and _same_bits(a.state, b.state)
    assert str(a) == str(b) and str(a).count("row") == 1


def test_rk4_states_takes_one_point_with_and_without_a_lane():
    # a stack is util.as_point's ValueError with the compiled lane and with a call of fn, before any step
    X = assemble_phhs(models.build_central_problem()).X
    stack = np.array([X0, X0 + 0.05])
    for V in (X, VectorField(X.fn, name="X")):
        with pytest.raises(ValueError, match="a point must be a 1-d coordinate vector"):
            flows.rk4_states(V, stack, 1e-2)
    assert [len(y) for y in itertools.islice(flows.rk4_states(X, X0, 1e-2), 2)] == [2, 2]


def test_an_empty_stack_flows_to_itself(proper, harmonic):
    # a (0, dim) stack has no row to step: on a real-layout lane (the twisted X), on a
    # complex-layout one (the oscillator's J X, at the rate 1j) and without a lane, every flow
    # returns it as the empty float stack, and the error estimate of no row is 0.0
    empty = np.zeros((0, 4))
    for V in (proper[1].X, harmonic[1].JX, VectorField(lambda p: -p, name="minus")):
        for cfg in (COARSE, dataclasses.replace(COARSE, richardson=True)):
            out = flow(V, empty, 1.0, cfg)
            assert out.dtype == float and out.shape == (0, 4), V.name
        end, err = flow_error_estimate(V, empty, -0.5, COARSE)
        assert end.dtype == float and end.shape == (0, 4) and err == 0.0, V.name


@pytest.mark.parametrize("name", ["central", "oscillator"])
def test_j_x_of_a_j_i_model_steps_x_s_lane_at_the_rate_i(name):
    # J X = i w is X's own lane at the rate 1j: its flow runs X's stepper, the one _lane_stepper
    # entry of both flows, with half, full and sixth times 1j and two and h as X's
    model = models.build_central_problem() if name == "central" else models.build_standard_hhs(1, LANE_MODELS[name][0])
    fields = assemble_phhs(model)
    assert fields.JX.lane is fields.X.lane and (fields.X.rate, fields.JX.rate) == (1, 1j)
    x0 = X0 if name == "central" else np.array(LANE_MODELS[name][1])
    flows._lane_stepper.cache_clear()
    for V, t in ((fields.X, 0.3), (fields.JX, -0.2), (fields.JX, 0.25)):
        flow(V, x0, t, COARSE)
    info = flows._lane_stepper.cache_info()
    assert info.misses == info.currsize == 1
    x_stepper, x_values, _ = flows._lane_start(fields.X, x0, 0.05)
    stepper, values, _ = flows._lane_start(fields.JX, x0, 0.05)
    assert stepper is x_stepper and values[3:] == x_values[3:]
    assert _same_bits(values[:3], [c * 1j for c in x_values[:3]])


def test_a_real_layout_combination_refuses_a_field_at_another_rate(proper):
    # on the real layout a X + b J X sums the two lanes, which holds at the rate 1 only
    fields = proper[1]
    JX = VectorField(fields.JX.fn, fd=fields.JX.fd, name="JX", lane=fields.JX.lane)
    JX.rate = 2.0
    with pytest.raises(ValueError, match="at the rate 1, not 1 and 2.0"):
        flows._combo_field(dataclasses.replace(fields, JX=JX), 0.6, -0.8)


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


# ---------------------------------------------------------------------------
# one point of a field with a lane steps Python numbers (the scalar lane)
# ---------------------------------------------------------------------------


def _array_path(fields, w=None):
    """The same fields with every lane stripped (X's and J X's): the reference of the lane.

    Given X's complex form w (``complex_x``), X carries it as ``w`` and J X
    carries i w, computed here: under ``on_arrays`` their flows step
    numpy's complex array z = x + i y, the state the lane's complex z_j
    stands for.  Otherwise they step the real array state.
    """
    X = VectorField(fields.X.fn, fd=fields.X.fd, name="X")
    JX = VectorField(fields.JX.fn, fd=fields.JX.fd, name="JX")
    X.w, JX.w = w, None if w is None else _i_times(w)
    return dataclasses.replace(fields, X=X, JX=JX)


def _i_times(w):
    """i w of X's complex form w on numpy's complex arrays: the reference of J X's lane on z."""
    return lambda z: 1j * w(z)


def _combination_form(w, a, b):
    """a w + (i b) w of X's complex form w on numpy's complex arrays: the reference of the combination's lane on z."""
    a, ib = complex(float(a)), 1j * float(b)

    def form(z):
        v = w(z)
        return a * v + ib * v

    return form


def _array_endpoint(F, y, h, n):
    """The state after n steps of size h of F's flow from the array y on numpy's arrays (``array_states``)."""
    for y in itertools.islice(array_states(F, y, h), n):
        pass
    return y


@pytest.fixture
def on_arrays(monkeypatch):
    """Flows of a field without a lane step numpy's arrays (``array_states``), the reference of the lanes.

    A field that carries a complex form ``w`` steps the complex array
    z = x + i y with w, the state the lane's complex z_j stands for,
    converted once per flow, and a combination of such fields is
    a w + (i b) w; any other steps the real array state, a stack at once.
    """
    rk4, combo = flows._rk4, flows._combo_field

    def on_numpy_arrays(V, x0, t, n_steps):
        if V.lane is not None:
            return rk4(V, x0, t, n_steps)
        w = getattr(V, "w", None)
        if w is None:
            return _array_endpoint(V, np.array(x0), t / n_steps, n_steps)
        return from_complex(_array_endpoint(w, to_complex(x0), t / n_steps, n_steps))

    def combination(fields, a, b):
        V = combo(fields, a, b)
        w = getattr(fields.X, "w", None)
        if w is not None and V.lane is None:
            V.w = _combination_form(w, a, b)
        return V

    monkeypatch.setattr(flows, "_rk4", on_numpy_arrays)
    monkeypatch.setattr(flows, "_combo_field", combination)


def test_central_x_checks_the_q_floor_once_on_arrays_and_on_the_lane():
    # X is the compiled text (P1, -1/(4 Q1^3)) behind one check: the lane returns Python complex
    # numbers, raises the array's error, and passes a |Q| past the float range, where Python's
    # abs raises and numpy's reads inf
    X = models.build_central_problem().X_hook
    w, s = complex_x(), lane_function(*X.lane)
    assert [type(c) for c in s((1.0 + 0.5j, 0.5 - 0.25j))] == [complex, complex]
    messages = []
    for f in (s, lambda z: w(np.array(z))):
        with pytest.raises(NonFiniteStateError, match="Q = 0 locus") as info:
            f((2e-4 - 1e-4j, 0.5 + 0j))
        messages.append((str(info.value), info.value.row))
    assert messages[0] == messages[1]
    huge = (complex(1e308, -1e308), 0.5 + 0j)
    with np.errstate(all="ignore"):
        assert _same_bits(np.array(s(huge)), w(np.array(huge)))


@pytest.fixture(scope="module")
def central_lane():
    fields = assemble_phhs(models.build_central_problem())
    assert fields.X.lane is not None and fields.JX.lane is not None
    return fields, _array_path(fields, complex_x())


# seeded points about the anchor, the variant-0 anchor itself (+0.0 imaginary parts; a flow in
# real time keeps them zero, with signs its arithmetic sets) and the anchor with -0.0 ones
LANE_STARTS = [*util.seeded_points(5, 3, 4, scale=0.2, center=X0), X0, np.array([1.0, 0.5, -0.0, -0.0])]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scalar_forms_equal_the_complex_forms_bit_for_bit(central_lane):
    # X, J X (X's lane times its rate 1j) and a combination at seeded points and at points with
    # signed zero parts, against w, i w and a w + (i b) w of X's complex form w at each point and
    # on the whole stack
    lane, array = central_lane
    w = array.X.w
    Z = to_complex(util.seeded_points(9, 400, 4, scale=2.0))
    signed = [complex(re, im) for re in (0.0, -0.0, 0.8, -1.3) for im in (0.0, -0.0, 0.6)]
    Z = np.concatenate([Z, [[q, p] for q in signed for p in signed]])
    Z = Z[np.abs(Z[:, 0]) >= models.Q_FLOOR]
    for V, form in (
        (lane.X, w), (lane.JX, _i_times(w)), (flows._combo_field(lane, 0.6, -0.8), _combination_form(w, 0.6, -0.8))
    ):
        point = field_point(V)
        values = np.array([point(tuple(z)) for z in Z.tolist()])
        assert _same_bits(values, form(Z))
        assert _same_bits(values, np.array([form(z) for z in Z]))


@pytest.mark.parametrize("k", range(len(LANE_STARTS)))
def test_scalar_lane_flows_equal_the_array_path_bit_for_bit(central_lane, on_arrays, k):
    lane, array = central_lane
    x0 = LANE_STARTS[k]
    for a, b in ((lane.X, array.X), (lane.JX, array.JX)):
        for t in (0.7, -0.45):
            assert _same_bits(flow(a, x0, t, COARSE), flow(b, x0, t, COARSE))
        end, err = flow_error_estimate(a, x0, 0.5, COARSE)
        end_b, err_b = flow_error_estimate(b, x0, 0.5, COARSE)
        assert _same_bits(end, end_b) and _same_bits(err, err_b)
    word = [(0.3, -0.4), (-0.2, 0.5)]
    assert _same_bits(flow_word(lane, x0, word, COARSE), flow_word(array, x0, word, COARSE))
    assert _same_bits(tilted_flow(lane, x0, 0.9, 0.4, COARSE), tilted_flow(array, x0, 0.9, 0.4, COARSE))
    center = 0.2 + 0.1j
    path = circle_path(center, 0.5, center + 0.5 * np.exp(0.7j), n_segments=12)
    assert _same_bits(continue_along_path(lane, x0, path, COARSE), continue_along_path(array, x0, path, COARSE))


def test_scalar_lane_takes_no_numpy_step(central_lane, rk4_steps, tmp_path):
    # every step of a flow of a field with a lane is a lane step, a stack's row by row
    lane, _ = central_lane
    end = flow(lane.X, X0, 0.1, COARSE)
    assert rk4_steps == {"lane": 10} and end.dtype == float and end.shape == (4,)
    rk4_steps.clear()
    end = flow(lane.JX, np.array([X0, X0]), 0.1, COARSE)
    assert rk4_steps == {"lane": 20} and end.dtype == float and end.shape == (2, 4)
    # the bigrid focus scenarios: twisted integrate steps one point in its t sweep (1,008 steps)
    # and in the swap check's J X and X flows (1,000 each), and the s sweep's 17 rows 1,008
    # times each; the oscillator's action-check has no swap check
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import scenarios

    for verb, lane_steps in (("integrate", 20144), ("action-check", 18144)):
        rk4_steps.clear()
        config = tmp_path / f"{verb}.json"
        config.write_text(json.dumps(dict(scenarios.workload("bigrid", 0))[verb]))
        assert cli.main([verb, "--config", str(config), "--out", str(tmp_path / verb)]) == 0
        assert rk4_steps == {"lane": lane_steps}


@pytest.mark.parametrize(
    "which, x0, t",
    [
        ("X", [0.14, -0.5, 0.0, 0.0], 0.3),  # the Q floor, some steps into the flow
        ("X", [1.0, 0.99e8, 0.0, 0.0], 2.0),  # Q grows past the box near t = 1.01
        ("JX", [1.0, 0.0, 0.0, 0.7e8], 2.0),  # past the box along the real part of Q
        ("X", [1.0, 0.7e8, 0.0, 0.7e8], 2.0),  # |Q| passes 1e8 near t = 1.01, each part near t = 1.43
        ("X", [1.0, np.nan, 0.0, 0.0], 0.3),  # NaN leaves the box at the first step
        # |Q| and |P| past the float range: Python's abs raises where numpy's reads inf
        ("X", [1.5e308, 0.5, 1.5e308, 0.0], 0.3),
        ("JX", [1.0, 1.5e308, 0.0, 1.5e308], 0.3),
    ],
    ids=["floor", "box", "box-JX", "box-parts", "nan", "range-Q", "range-P"],
)
def test_scalar_lane_errors_equal_the_array_path(central_lane, on_arrays, which, x0, t):
    errors = []
    for fields in central_lane:
        # numpy warns of the NaN and the overflows it meets on the array path
        with pytest.raises(NonFiniteStateError) as info, np.errstate(all="ignore"):
            flow(getattr(fields, which), x0, t, CFG)
        errors.append(info.value)
    a, b = errors
    assert (a.step, a.time, a.row) == (b.step, b.time, b.row) and a.row is None
    assert _same_bits(a.state, b.state) and a.state.dtype == float and a.state.shape == (4,)
    assert str(a) == str(b)
    if which == "X" and x0[1] == 0.7e8:
        assert 1420 < a.step < 1440


def test_scalar_lane_box_bounds_each_real_component():
    # the lane's state is a tuple; |z| past the bound with both parts inside it is in the box
    flows._check_state((0.8e8 + 0.8e8j, 1.0 + 0j), 1, 0.1)
    flows._check_state((0.8e8, -1e8), 1, 0.1)
    with pytest.raises(NonFiniteStateError) as info:
        flows._check_state((3.0 + 1.5e8j, 1.0 + 0j), 7, 0.1)
    err = info.value
    assert (err.step, err.row) == (7, None) and _same_bits(err.state, np.array([3.0, 1.0, 1.5e8, 0.0]))
    with pytest.raises(NonFiniteStateError):
        flows._check_state((0.5, np.nan), 1, 0.1)


# ---------------------------------------------------------------------------
# the twisted model and the standard system on the scalar lane
# ---------------------------------------------------------------------------


# the bigrid models (a constant X on the twisted model, a complex quotient in the oscillator's
# partials) and models whose f, h, H_R or H vary more, with quotients and powers of coordinates;
# a standard system is its text H (see _built)
LANE_MODELS = {
    "twisted": (lambda: models.build_proper_phhs(f="1", h="exp(x1)", H_R="-y1"), [0.2, 0.1, -0.3, 0.4]),
    "twisted_sin": (lambda: models.build_proper_phhs(f="1", h="2 + sin(x1)", H_R="-y1"), [0.3, -0.2, 0.1, 0.5]),
    "twisted_varying": (
        lambda: models.build_proper_phhs(f="1 + x2^2/3", h="exp(x2)", H_R="x1*x2 - y1^3/3 + y2/7"),
        [0.2, 0.1, -0.3, 0.4],
    ),
    "oscillator": ("(P1^2 + Q1^2)/2", [0.4, 0.3, 0.1, -0.2]),
    "oscillator_shifted": ("(P1^2 + Q1^2)/2 + 3/10", [0.4, 0.3, 0.1, -0.2]),
    "standard_cubic": ("P1^2/3 - Q1^3/7", [0.3, 0.2, -0.1, 0.1]),
    "standard_n2": ("P1^2/2 + P2", [0.1, 0.2, -0.3, 0.4, -0.1, 0.2, 0.0, 0.3]),
}


def _built(build, x0):
    """The model ``build`` gives and X's complex form w: a builder's with no w, or the standard system of the text H at x0's dimension."""
    if callable(build):
        return build(), None
    n = len(x0) // 4
    return models.build_standard_hhs(n, build), complex_x(build, n)


@pytest.fixture(scope="module", params=sorted(LANE_MODELS))
def model_lane(request):
    build, x0 = LANE_MODELS[request.param]
    model, w = _built(build, x0)
    # twisted_varying is no pseudo-holomorphic system: its J X is a field all the same
    fields = assemble_phhs(model, check_closedness=request.param != "twisted_varying")
    assert fields.X.lane is not None and fields.JX.lane is not None
    return fields, _array_path(fields, w), np.array(x0)


def _signed_points(dim):
    """Points whose every coordinate is one of 0.0, -0.0, 0.8, -1.3 (at most 4**4 of them)."""
    values = np.array([0.0, -0.0, 0.8, -1.3])
    index = np.indices((4,) * min(dim, 4)).reshape(min(dim, 4), -1).T
    P = np.zeros((len(index), dim))
    P[:, : index.shape[1]] = values[index]
    return P


def test_lane_scalar_forms_equal_the_array_forms_bit_for_bit(model_lane):
    # X, J X (compiled from J_g's entries and X's components on the real state, X's lane times
    # its rate 1j on the complex one) and the combinations, at seeded points and at points with
    # signed zeros, against the array form at each point: fn on the real state, and on the
    # complex one w, i w and a w + (i b) w of X's complex form w
    lane, array, x0 = model_lane
    dim = x0.size
    P = np.concatenate([util.seeded_points(9, 400, dim, scale=1.5, center=x0), _signed_points(dim)])
    w = array.X.w
    coefficients = [(0.6, -0.8), (np.cos(0.3), np.sin(0.3))]
    fields = [lane.X, lane.JX, *(flows._combo_field(lane, a, b) for a, b in coefficients)]
    forms = None if w is None else [w, _i_times(w), *(_combination_form(w, a, b) for a, b in coefficients)]
    for k, V in enumerate(fields):
        point = field_point(V)
        for p in P:
            if w is not None:
                z = to_complex(p)
                assert _same_bits(np.array(point(tuple(z.tolist())), dtype=complex), forms[k](z))
            else:
                assert _same_bits(np.array(point(tuple(p.tolist()))), np.asarray(V.fn(p), dtype=float))


def test_a_tilted_combination_steps_python_numbers_on_the_lane(model_lane):
    # tilted_flow hands numpy's cos(alpha) and sin(alpha) to the combination, which reads them
    # as Python floats: every lane component is a Python float (real state) or complex
    lane, _, x0 = model_lane
    V = flows._combo_field(lane, np.cos(0.3), np.sin(0.3))
    kind = complex if on_complex_state(lane.X.lane[0], x0.size) else float
    point = lane_function(*V.lane)
    for p in (x0, *_signed_points(x0.size)[::7]):
        q = tuple((p if kind is float else to_complex(p)).tolist())
        assert {type(c) for c in point(q)} == {kind}, p


def test_lane_flows_of_the_twisted_model_and_the_standard_system_equal_the_array_path_bit_for_bit(
    model_lane, on_arrays
):
    lane, array, x0 = model_lane
    for a, b in ((lane.X, array.X), (lane.JX, array.JX)):
        for t in (0.7, -0.45):
            assert _same_bits(flow(a, x0, t, COARSE), flow(b, x0, t, COARSE))
        end, err = flow_error_estimate(a, x0, 0.5, COARSE)
        end_b, err_b = flow_error_estimate(b, x0, 0.5, COARSE)
        assert _same_bits(end, end_b) and _same_bits(err, err_b)
    word = [(0.3, -0.4), (-0.2, 0.5)]
    assert _same_bits(flow_word(lane, x0, word, COARSE), flow_word(array, x0, word, COARSE))
    assert _same_bits(tilted_flow(lane, x0, 0.9, 0.4, COARSE), tilted_flow(array, x0, 0.9, 0.4, COARSE))
    # the grid's t sweep and the swap check's two flows step one point each; its s sweep steps
    # the column anchors row by row on the lane and as one stack on the array path
    grids = [trajectory_grid(f, x0, 0.1, (0.0, 0.4), (-0.2, 0.2), 5, 3, COARSE) for f in (lane, array)]
    assert _same_bits(grids[0].values, grids[1].values)
    swaps = [grid_monitors(f, g, COARSE)["swap_defect"] for f, g in zip((lane, array), grids)]
    assert _same_bits(*swaps)
    stack = np.array([x0, x0 + 0.05, x0 - 0.03])
    assert all(_stack_is_its_rows(V, stack, 0.3) for V in (lane.X, lane.JX, flows._combo_field(lane, 0.6, -0.8)))


def test_lane_without_a_symbolic_gradient_steps_on_a_call_of_its_function():
    # a callable H_R has no symbolic partials, so X and J X of the twisted model have no lane
    fields = assemble_phhs(models.build_proper_phhs(f="1", h="exp(x1)", H_R=lambda p: -p[2]))
    assert fields.X.lane is None and fields.JX.lane is None
    # a callable f leaves J X as J_g's matrix times X, on arrays: only X has a lane, and J X's
    # flow calls its function at each stage point, with the bits of RK4 on numpy's arrays
    model = models.build_proper_phhs(f=lambda p: 1.0 + 0.1 * p[1] ** 2, h="exp(x1)")
    twisted = assemble_phhs(model, check_closedness=False)
    assert twisted.X.lane is not None and twisted.JX.lane is None
    assert _same_bits(flow(twisted.JX, X0, 0.3, COARSE), _array_endpoint(twisted.JX, X0, 0.3 / 30, 30))


@pytest.mark.parametrize(
    "build, which, x0, t",
    [
        # x1' = x1^2 on the twisted model's X: past the box near t = 1/2
        (lambda: models.build_proper_phhs(H_R="x2*x1^2"), "X", [2.0, 0.1, 0.0, 0.0], 1.0),
        # Q' = Q^2 on a standard system's X
        ("P1*Q1^2", "X", [2.0, 0.0, 0.0, 0.1], 1.0),
        # J_g X from a start whose y2 lies past the box
        (lambda: models.build_proper_phhs(f="1", h="exp(x1)"), "JX", [0.1, 0.2, 0.3, 2e8], 0.3),
    ],
    ids=["twisted-X", "standard-X", "twisted-JX"],
)
def test_lane_errors_of_the_twisted_model_and_the_standard_system_equal_the_array_path(on_arrays, build, which, x0, t):
    model, w = _built(build, x0)
    fields = assemble_phhs(model, check_closedness=False)
    errors = []
    for f in (fields, _array_path(fields, w)):
        with pytest.raises(NonFiniteStateError) as info, np.errstate(all="ignore"):
            flow(getattr(f, which), x0, t, CFG)
        errors.append(info.value)
    a, b = errors
    assert (a.step, a.time, a.row) == (b.step, b.time, b.row) and a.row is None
    assert _same_bits(a.state, b.state) and str(a) == str(b)


def test_lane_of_a_nan_start_raises_at_the_array_paths_step(on_arrays):
    # both paths reject the first state; a NaN's payload may differ between numpy's matrix
    # product and the lane's sum, its place does not
    fields = assemble_phhs(models.build_proper_phhs(f="1", h="exp(x1)"))
    errors = []
    for f in (fields, _array_path(fields)):
        with pytest.raises(NonFiniteStateError) as info, np.errstate(all="ignore"):
            flow(f.JX, [0.1, np.nan, 0.0, 0.2], 0.3, CFG)
        errors.append(info.value)
    a, b = errors
    assert (a.step, a.time, a.row) == (b.step, b.time, b.row) == (1, 1e-3, None)
    assert np.array_equal(a.state, b.state, equal_nan=True)


def test_lane_keeps_the_not_real_valued_error(on_arrays):
    # h is real to 1e-14 on the model's samples (|x1| < 1) and complex far out, where J_g's scalar
    # form raises the ValueError the array path raises
    model = models.build_proper_phhs(f="1", h="2 + 1e-16 * x1^4 * z1")
    fields = assemble_phhs(model, check_closedness=False)
    messages = []
    for f in (fields, _array_path(fields)):
        with pytest.raises(ValueError, match="not real-valued") as info:
            flow(f.JX, [10.0, 0.0, 1.0, 0.0], 0.3, CFG)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# the lane's generated stepper against RK4 on numpy's one-point arrays (conftest.rk4_step)
# ---------------------------------------------------------------------------


# each component of a stepped state: signed zeros, an ordinary number, 1e200, inf, NaN, and
# 1.5e308, whose Python |z| overflows where both parts do (numpy reads inf)
STEP_VALUES = [0.0, -0.0, 0.3, -1.3, 1e200, 1.5e308, np.inf, -np.inf, np.nan]


def _first_step(states):
    """What the first of ``states`` gives: (state, None), or the error's (state or None, (type, step, time, row, message))."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(next(states)), None
    except NonFiniteStateError as exc:
        return exc.state, (NonFiniteStateError, exc.step, exc.time, exc.row, str(exc))
    except PhhsError as exc:  # the field's own error
        return None, (type(exc), str(exc))


# each kind of lane field, its lane written inline in the stepper: the Morse orbit field (T_hat's
# code and v's raising line), the central X (the Q-floor line and a complex quotient), J X and
# a X + b J X, at (0.6, -0.8) and at the first segment of the monodromy focus path; the twisted
# model's X, J_g X and combination, with a folded constant X (bigrid) and with varying ones; the
# oscillator's X, J X and combination; and a standard system whose X divides by Q1^2, which
# meets zero and NaN divisors
LANE_FIELDS = [
    "orbit", "central X", "central JX", "central combination", "central monodromy segment",
    "twisted X", "twisted JX", "twisted combination",
    "twisted_varying X", "twisted_varying JX", "twisted_varying combination",
    "oscillator X", "oscillator JX", "oscillator combination", "standard_inverse X",
]

# the states of the one-point step test after whose step J X of a J = i model, X's lane stepped at
# i h, differs from rk4_step of i w only in the sign of a zero: the lane multiplies w by i h where
# rk4_step multiplies i w by h, and a zero part of the two products may take either sign
ZERO_SIGN_STATES = {"central JX": 15, "oscillator JX": 23}


def _lane_field(name):
    """(field, its array form) of the ``LANE_FIELDS`` entry ``name``.

    The array form is the field itself on the real state, and on the
    complex one w, i w or a w + (i b) w of X's complex form w.
    """
    if name == "orbit":
        V = morse_lib.hamiltonian_flow_field(morse_lib.PlanarSystem(v="2 + sin(x1)", T=np.pi))
        return V, V
    model, _, which = name.partition(" ")
    if model == "central":
        model, w = models.build_central_problem(), complex_x()
    elif model == "standard_inverse":
        model, w = _built("P1^2/2 - 1/Q1", X0)
    else:
        model, w = _built(*LANE_MODELS[model])
    fields = assemble_phhs(model, check_closedness=False)
    th = 2.0 * np.pi / 64
    dz = complex(-1.0 + np.cos(th), np.sin(th))
    if which in ("X", "JX"):
        V = getattr(fields, which)
        return V, V if w is None else w if which == "X" else _i_times(w)
    a, b = {
        "combination": (0.6, -0.8) if model.name == "central_problem" else (np.cos(0.3), np.sin(0.3)),
        "monodromy segment": (dz.real, dz.imag),
    }[which]
    V = flows._combo_field(fields, a, b)
    return V, V if w is None else _combination_form(w, a, b)


def _lane_states(V, y, h):
    """The states of V's lane flow from the lane state ``y`` with step h, as ``rk4_states`` steps one point.

    The stepper and its values, V's rate folded in, are ``flows._lane_start``'s
    for a point of y's layout; y itself is the state, signed zeros and NaNs as
    they are.
    """
    dim = 2 * len(y) if type(y[0]) is complex else len(y)
    stepper, values, _ = flows._lane_start(V, np.zeros(dim), h)
    return flows._lane_states(stepper, values, [y], h)


def _same_up_to_nans(a, b, zero_signs=False):
    """The same dtype, shape and NaN places, and the same bits in every other real component (the same numbers, with ``zero_signs``)."""
    if not (a.dtype == b.dtype and a.shape == b.shape):
        return False
    a, b = a.view(float), b.view(float)
    nan = np.isnan(a)
    same = np.array_equal if zero_signs else lambda c, d: c.tobytes() == d.tobytes()
    return np.array_equal(nan, np.isnan(b)) and same(a[~nan], b[~nan])


@pytest.mark.parametrize("k", range(len(LANE_FIELDS)), ids=LANE_FIELDS)
def test_lane_stepper_step_is_rk4_step_on_a_one_point_array(k):
    # every state with components from STEP_VALUES (6,561 of them on four real or two complex
    # components), and seeded ordinary ones: the generated step, the field written inline, is
    # rk4_step on the one-point array, with the array path's box check and error location,
    # tobytes() for tobytes(), on the field's scalar form lifted to the array and on its array
    # form.  Only a NaN's sign may differ: which operand's NaN an IEEE operation returns is not
    # fixed across numpy's loops, nor across CPython's own float operations (its specialized
    # float add returns the other operand's NaN than the generic one), so a state with a NaN
    # keeps its NaN places and the bits of its other components.  J X of a J = i model, at the
    # rate 1j, also differs in the sign of a zero after the step from the states ZERO_SIGN_STATES
    # counts, and in nothing else: its errors are the array path's
    name = LANE_FIELDS[k]
    V, form = _lane_field(name)
    assert V.lane is not None
    s = field_point(V)
    array_forms = [lambda p: np.array(s(tuple(p.tolist()))), form]
    h = 0.05
    if form is not V:
        parts = [complex(a, b) for a in STEP_VALUES for b in STEP_VALUES]
        states = [np.array(z) for z in itertools.product(parts, repeat=2)]
        states += list(to_complex(util.seeded_points(3, 50, 4, scale=0.5, center=X0)))
    else:
        m = 2 if name == "orbit" else 4
        states = [np.array(p) for p in itertools.product(STEP_VALUES, repeat=m)]
        states += list(util.seeded_points(3, 50, m, scale=0.5))
    outcomes = Counter()
    for y in states:
        state, error = _first_step(_lane_states(V, tuple(y.tolist()), h))
        differs = []
        for form in array_forms:
            array_state, array_error = _first_step(array_states(form, y, h))
            assert error == array_error, (name, y)
            same = state is None is array_state or _same_up_to_nans(state, array_state)
            assert same or name in ZERO_SIGN_STATES and _same_up_to_nans(state, array_state, zero_signs=True), (name, y)
            differs.append(not same)
        # the scalar form lifted to the array has the array form's bits: both differ, or neither
        assert len(set(differs)) == 1, (name, y)
        outcomes["state" if error is None else error[0].__name__] += 1
        outcomes["zero signs"] += differs[0]
    # ordinary steps and the box's error occur, and v's own error on the orbit (at inf and NaN)
    assert outcomes["state"] >= 50 and outcomes["NonFiniteStateError"] > 0
    assert (outcomes["ZeroDenominatorError"] > 0) is (name == "orbit")
    assert outcomes["zero signs"] == ZERO_SIGN_STATES.get(name, 0)


# the constant results of the lanes below: signed zeros, an ordinary number, infinities and NaN
HOISTED = [0.0, -0.0, 0.3, np.inf, -np.inf, np.nan]


def _hoisting_lanes(layout):
    """Fields of two components on ``layout`` with constant results, all constant or beside a varying one, and their array forms."""
    complex_state = layout == "complex"
    names = util.coordinate_names(2 if complex_state else 1, layout)
    varying = parse_expression("z1 * z2 - 0.5" if complex_state else "x1 * y1 - 0.5")
    numbers = [complex(c, -0.0) for c in HOISTED] if complex_state else HOISTED
    lanes = []
    for c, d in zip(numbers, numbers[1:] + numbers[:1]):
        for exprs in ([c, d], [varying, c], [c, varying]):
            exprs = [e if isinstance(e, Expression) else Expression(("num", e)) for e in exprs]
            fn = compile_vector(exprs, names, complex if complex_state else float)
            lanes.append((VectorField(fn, name="hoisted", lane=fn.lane), fn))
    return lanes


def _called(run):
    """An iterator of the one value run(), called when it is read, as ``_first_step`` reads a flow's first state."""
    yield run()


@pytest.mark.parametrize("layout", ["real", "complex"])
def test_lane_stepper_hoists_constant_results_with_rk4_steps_bits(layout):
    # a result that reads only the lane's constants and args, with its stage and update increments,
    # is computed once per stepper call, before the loop: the first step is still rk4_step on the
    # one-point array, tobytes() for tobytes() up to NaN signs (as above), on lanes of constant
    # results and of constant results beside a varying one, and a call of three steps is three
    # rk4_steps
    values = [0.0, -0.0, 0.3, 1.5e308, np.inf, np.nan]
    if layout == "complex":
        parts = [complex(a, b) for a in values for b in (-0.0, 0.3, np.nan)]
        states = [np.array(z) for z in itertools.product(parts, repeat=2)]
        ordinary = np.array([0.4 - 0.2j, -0.3 + 0.6j])
    else:
        states = [np.array(p) for p in itertools.product(STEP_VALUES, repeat=2)]
        ordinary = np.array([0.4, -0.3])
    outcomes = Counter()
    for V, form in _hoisting_lanes(layout):
        body, _ = V.lane
        stepper = flows._lane_stepper(2, body, layout == "complex")
        fixed = [f"k_{j}" in stepper.__code__.co_varnames for j in range(2)]
        assert fixed == [r.startswith("_c") for r in body.results] and any(fixed)
        for y in states:
            state, error = _first_step(_lane_states(V, tuple(y.tolist()), 0.05))
            array_state, array_error = _first_step(array_states(form, y, 0.05))
            assert error == array_error and (state is None is array_state or _same_up_to_nans(state, array_state)), y
            outcomes["state" if error is None else "error"] += 1
        coefficients = flows._coefficients(layout == "complex", 0.05)
        three, error = _first_step(_called(lambda: stepper(tuple(ordinary.tolist()), 3, 1, 0.05, *coefficients)))
        array, array_error = _first_step(itertools.islice(array_states(form, ordinary, 0.05), 2, None))
        assert error == array_error and _same_up_to_nans(three, array)
    assert outcomes["state"] > 100 and outcomes["error"] > 100


# x1 at the start of a lane whose field reads only x1, which it keeps fixed: signed zeros, a tiny
# number, where exp overflows (709.79) and where it underflows so that 1/0 goes to _divide
# (-745.2), infinities and NaN; -17, where J_g X's e^17 leaves the box after some 80 steps, and 2,
# where a hand-made field divides by zero
FROZEN_STARTS = [0.0, -0.0, 1e-300, 709.79, -745.2, np.inf, -np.inf, np.nan, -17.0, 2.0]

FROZEN_LANES = ["twisted JX", "raising at 1e-300", "raising at +0.0", "x1 row 0.3"]


def _frozen_lane(name):
    """(field, the rest of a state after x1) of the ``FROZEN_LANES`` entry ``name``, a lane whose field reads only x1.

    The twisted J_g X = (0, e^-x1, 0, 0), and the fields of hand-made
    Lanes: an x1 row of -0.0, or of 0.3 (so that x1 moves and no
    component is frozen), an arg, calls of functions their constants bind,
    a quotient by x1^2 - 4 and x1's sign on 3 (the sign of zero that a
    negative step's later stages flip from x1 = -0.0 to +0.0), and a line
    that raises the field's error at x1 = 1e-300, or at x1 = +0.0.  Their array
    function is their scalar form on the one-point array.
    """
    if name == "twisted JX":
        build, x0 = LANE_MODELS["twisted"]
        return assemble_phhs(build()).JX, x0[1:]
    test, row = {"raising at +0.0": ("str(_p0) == '0.0'", "-0.0"), "x1 row 0.3": ("_p0 == 1e-300", "0.3")}.get(name, ("_p0 == 1e-300", "-0.0"))
    lane = Lane(
        ("from math import copysign as _copysign", "from phhs.errors import NonFiniteStateError as _E", f"_c0 = {row}", "_c1 = 3.0", "_c2 = 4.0"),
        (
            f"if {test}:\n    raise _E('the field is singular here')",
            "_t0 = float(_sin(a * _p0))",
            "_t1 = _p0 * _p0 - _c2",
            "try:\n    _t2 = _c1 / _t1\nexcept ZeroDivisionError:\n    _t2 = _divide(_c1, _t1)",
            "_t3 = _copysign(_c1, _p0)",
        ),
        ("_c0", "_t0", "_t2", "_t3"),
        ("a",),
    ), (0.7,)
    point = lane_function(*lane)
    return VectorField(lambda p: np.array(point(tuple(p.tolist()))), name="frozen", lane=lane), [0.5, -0.2, 0.1]


@pytest.mark.parametrize("name", FROZEN_LANES)
def test_lane_stepper_evaluates_a_frozen_field_twice_per_call_with_rk4_steps_bits(name):
    # every stage state of a frozen component is y + z for one signed zero z, so the field that
    # reads only it runs on y and on y + half k, before the loop: the first step is rk4_step on the
    # one-point array, n steps in one call are n single-step calls and n rk4_steps, a stack
    # through _lane_rows is its rows, and every error names the step, time, row and state the
    # array path names, tobytes() for tobytes() up to NaN signs.  An x1 row of 0.3 steps as before
    V, rest = _frozen_lane(name)
    body, args = V.lane
    m = len(body.results)
    stepper = flows._lane_stepper(m, body, False)
    assert any(k.startswith(("k3_", "k4_")) for k in stepper.__code__.co_varnames) is (name == "x1 row 0.3")
    outcomes, n = Counter(), 100

    def steps(y, h, count=n):
        """The state after ``count`` steps of the array path from y, or its error (``_first_step``)."""
        return _first_step(itertools.islice(array_states(V, np.array(y), h), count - 1, None))

    for h in (0.05, -0.05):
        values = (*flows._coefficients(False, h), *args)
        rows = [(x1, *rest) for x1 in FROZEN_STARTS]
        for y in rows:
            first, whole = _first_step(_lane_states(V, y, h)), _first_step(_called(lambda: stepper(y, n, 1, h, *values)))
            single = _first_step(itertools.islice(_lane_states(V, y, h), n - 1, None))
            for (state, error), (other, other_error) in ((first, steps(y, h, 1)), (whole, single), (whole, steps(y, h))):
                assert error == other_error and (state is None is other or _same_up_to_nans(state, other)), (y, h)
            error = whole[1]
            outcomes["state" if error is None else "error" if error[1] == 1 else "later error"] += 1
        with np.errstate(all="ignore"):
            good = [y for y in rows if _first_step(_called(lambda: stepper(y, n, 1, h, *values)))[1] is None]
            stack = np.array(flows._lane_rows(stepper, values, good, n, 1, h, True))
            assert _same_bits(stack, np.array([stepper(y, n, 1, h, *values) for y in good]))
        if V.name == "JX":
            # J_g X takes stacks: the array path's stack, and its first error on all the rows
            assert _same_up_to_nans(stack, steps(good, h)[0])
            state, error = _first_step(_called(lambda: np.array(flows._lane_rows(stepper, values, rows, n, 1, h, True))))
            array_state, array_error = steps(rows, h)
            assert error == array_error and _same_up_to_nans(state, array_state)
    # J_g X's e^17 leaves the box after some 80 steps
    assert outcomes["state"] and outcomes["error"] and (outcomes["later error"] > 0) is (name == "twisted JX")


def test_tilted_flow_of_the_twisted_model_hoists_three_results_with_the_array_bits(on_arrays):
    # the twisted X is constant and J_g X has one varying row, so three results of their
    # combination read only its constants and its coefficients a and b
    build, x0 = LANE_MODELS["twisted"]
    fields = assemble_phhs(build())
    body, args = flows._combo_field(fields, np.cos(0.7), np.sin(0.7)).lane
    fixed = flows._lane_stepper(4, body, False).__code__.co_varnames
    assert [f"k_{j}" in fixed for j in range(4)] == [True, False, True, True] and args == (np.cos(0.7), np.sin(0.7))
    starts = [np.array(x0), np.array([x0, [0.1, -0.2, 0.3, 0.0], [-0.0, 0.0, 1e-300, -0.4]])]
    for start, r in itertools.product(starts, (0.05, -0.3)):
        lane = flows.tilted_flow(fields, start, 0.7, r, CFG)
        assert _same_bits(lane, flows.tilted_flow(_array_path(fields), start, 0.7, r, CFG))


def test_lane_stepper_runs_n_steps_as_n_single_steps():
    # one call for a whole flow and one call per step give the same state, as does rk4_step
    fields = assemble_phhs(models.build_central_problem())
    w, (lane, args) = complex_x(), fields.X.lane
    z0 = to_complex(X0)
    h = 1e-3
    coefficients = (*flows._coefficients(True, h), *args)
    stepper = flows._lane_stepper(2, lane, True)
    whole = stepper(tuple(z0.tolist()), 250, 1, h, *coefficients)
    single = tuple(z0.tolist())
    for step in range(1, 251):
        single = stepper(single, 1, step, h, *coefficients)
    array = z0
    for _ in range(250):
        array = rk4_step(w, array, h)
    assert _same_bits(np.array(whole), np.array(single)) and _same_bits(np.array(whole), array)
    assert flows._lane_stepper(2, lane, True) is stepper


def test_lane_stepper_box_test_defers_to_check_state():
    # |z| past the bound with both parts inside passes, as _check_state passes it; a |z| past
    # the float range (Python's abs raises) and a part past the bound raise its error
    lane = flows._lane_stepper(2, Lane((), (), ("0j", "0j")), True)
    coefficients = flows._coefficients(True, 0.1)
    inside = (0.8e8 + 0.8e8j, 1.0 + 0j)
    assert lane(inside, 3, 1, 0.1, *coefficients) == inside
    for y, layout in (((1.5e308 + 1.5e308j, 0j), [1.5e308, 0.0, 1.5e308, 0.0]), ((3.0 + 1.5e8j, 0j), [3.0, 0.0, 1.5e8, 0.0])):
        with pytest.raises(NonFiniteStateError) as info:
            lane(y, 5, 4, 0.1, *coefficients)
        err = info.value
        assert (err.step, err.time, err.row) == (4, 4 * 0.1, None)
        assert str(err) == "flow state overflowed at step 4 (flow time 0.40000000000000002); a singular locus was hit"
        assert _same_bits(err.state, np.array(layout))


def test_real_lane_box_test_is_check_states_box(on_arrays):
    # the real layout's box test is -1e8 <= y_j <= 1e8: the edges pass, and one ulp past them, an
    # infinity or a NaN raise _check_state's error (step, time, row and state), alone and on a
    # flow, where the array path raises it in the same step
    stepper = flows._lane_stepper(2, Lane((), (), ("0.0", "-0.0")), False)
    coefficients = flows._coefficients(False, 0.1)
    for inside in ((1e8, -1e8), (-1e8, 0.5)):
        assert stepper(inside, 3, 1, 0.1, *coefficients) == inside
    past = np.nextafter(1e8, np.inf)
    for y in ((past, 0.0), (0.5, -past), (np.inf, 0.0), (0.0, -np.inf), (np.nan, 1.0)):
        with pytest.raises(NonFiniteStateError) as info:
            stepper(y, 5, 4, 0.1, *coefficients, row=2)
        with pytest.raises(NonFiniteStateError) as expected:
            flows._check_state(np.array(y), 4, 0.1, 2)
        err, ref = info.value, expected.value
        assert (err.step, err.time, err.row, str(err)) == (ref.step, ref.time, ref.row, str(ref)) == (4, 0.4, 2, str(err))
        assert _same_up_to_nans(err.state, ref.state)
    # a constant field (1, -1) from the edges leaves the box in step 1, and from one unit inside
    # them reaches the edge in step 2 of 0.5 and leaves in step 3: a point and a stack, each row
    # its own flow
    fn = compile_vector(["1.0", "-1.0"], util.coordinate_names(1), float)
    V, array = VectorField(fn, name="edge", lane=fn.lane), VectorField(fn, name="edge")
    for x0 in ([1e8, 0.0], [0.0, -1e8], [1e8 - 1.0, 0.0], [[0.0, 0.0], [0.0, 1.0 - 1e8]]):
        errors = []
        for W in (V, array):
            with pytest.raises(NonFiniteStateError) as info:
                flow(W, x0, 2.0, FlowConfig(dt=0.5))
            errors.append(info.value)
        (a, b), start = errors, np.array(x0)
        assert (a.step, a.time, a.row, str(a)) == (b.step, b.time, b.row, str(b)) and _same_bits(a.state, b.state)
        assert a.step == (1 if np.abs(start).max() == 1e8 else 3) and a.row == (1 if start.ndim == 2 else None)


def test_lane_errors_keep_their_recorded_step_time_and_message():
    # recorded before the lane stepper was generated: the central X from near the Q floor raises
    # its field error in step 35, and from a large P leaves the box at step 1011
    fields = assemble_phhs(models.build_central_problem())
    floor, box = [], []
    for x0, t, out in (([0.14, -0.5, 0.0, 0.0], 0.3, floor), ([1.0, 0.99e8, 0.0, 0.0], 2.0, box)):
        with pytest.raises(NonFiniteStateError) as info:
            flow(fields.X, x0, t, CFG)
        err = info.value
        out.extend([type(err.__cause__), err.step, err.time, err.row, [c.hex() for c in err.state.tolist()], str(err)])
    assert floor == [
        NonFiniteStateError, 35, 0.034, None, ["0x1.44cafc96b25e7p-6", "-0x1.a00d7e21d1f9cp+4", "0x0.0p+0", "0x0.0p+0"],
        "central problem evaluated too close to the Q = 0 locus at [-1.20055389e-03 -4.19687736e+02"
        "  0.00000000e+00  0.00000000e+00], in step 35 of the flow (from flow time 0.034000000000000002)",
    ]
    assert box == [
        type(None), 1011, 1.0110000000000001, None, ["0x1.7dcf2a3fff478p+26", "0x1.79a7afffff514p+26", "0x0.0p+0", "0x0.0p+0"],
        "flow state overflowed at step 1011 (flow time 1.0110000000000001); a singular locus was hit",
    ]


def _floor_start(lam):
    """The start (lam Q0, P0 / lam) of the recorded floor flow above, Q0 = 0.14 and P0 = -0.5, in the real layout.

    A flow of w lam^2 from it is lam times the X flow from (Q0, P0), so it meets the Q floor
    at the same step: J X = i w with lam = e^{i pi/4}, a X + b J X = (a + i b) w with lam^2 = a + i b.
    """
    Q0, P0 = 0.14 * lam, -0.5 / lam
    return [Q0.real, P0.real, Q0.imag, P0.imag]


def test_inline_floor_errors_of_j_x_and_the_combination_keep_their_recorded_step_time_and_message():
    # recorded before the field was written inline into the stepper: J X and the combination of
    # the first monodromy segment meet the Q floor in step 35, where the stage's floor line raises
    # the check's error
    fields = assemble_phhs(models.build_central_problem())
    th = 2.0 * np.pi / 64
    dz = complex(-1.0 + np.cos(th), np.sin(th))
    recorded = []
    for V, x0 in (
        (fields.JX, [0.099, -0.3536, 0.099, 0.3536]),  # _floor_start(e^{i pi/4}), rounded
        (flows._combo_field(fields, dz.real, dz.imag), _floor_start(np.sqrt(dz))),
    ):
        with pytest.raises(NonFiniteStateError) as info:
            flow(V, x0, 0.3, CFG)
        err = info.value
        recorded.append([type(err.__cause__), err.step, err.time, err.row, [c.hex() for c in err.state.tolist()], str(err)])
    assert recorded == [
        [
            NonFiniteStateError, 35, 0.034, None,
            ["0x1.ccdb2538510c0p-7", "-0x1.250299cad3ddep+4", "0x1.ccdb2538510c0p-7", "0x1.250299cad3ddep+4"],
            "central problem evaluated too close to the Q = 0 locus at [-7.08963752e-04 -2.82694738e+02 -7.08963752e-04"
            "  2.82694738e+02], in step 35 of the flow (from flow time 0.034000000000000002)",
        ],
        [
            NonFiniteStateError, 35, 0.034, None,
            ["0x1.18a21adcf22bap-8", "-0x1.c9e4fe03ce2b8p+5", "0x1.26c21f5fc4951p-8", "0x1.e0f10ef4e5d94p+5"],
            "central problem evaluated too close to the Q = 0 locus at [-2.59330862e-04 -9.23790202e+02 -2.72383722e-04"
            "  9.70287192e+02], in step 35 of the flow (from flow time 0.034000000000000002)",
        ],
    ]


def test_the_inline_floor_line_calls_the_check_only_where_both_parts_of_q_are_below_the_floor():
    lane, (floor,) = assemble_phhs(models.build_central_problem()).X.lane
    assert lane.args == ("_q_floor",) and floor is models._q_floor
    floor_line = "if -0.0014 < _p0.real < 0.0014 and -0.0014 < _p0.imag < 0.0014:\n    _q_floor((_p0, _p1))"
    assert models.Q_FLOOR == 0.0014 and lane.lines[0] == floor_line
    stepper, h = flows._lane_stepper(2, lane, True), 1e-3
    coefficients = flows._coefficients(True, h)
    calls = []

    def check(z):
        calls.append(z)
        return floor(z)

    stepper((1 + 0j, 0.5 + 0j), 100, 1, h, *coefficients, check)
    assert calls == []
    # both parts below the floor and |Q| above it: the check runs and passes
    stepper((1.2e-3 + 1.2e-3j, 0.5 + 0j), 1, 1, h, *coefficients, check)
    assert calls[0] == (1.2e-3 + 1.2e-3j, 0.5 + 0j)
    # inside the floor the check raises the floor error, which the stepper locates
    calls.clear()
    with pytest.raises(NonFiniteStateError, match="Q = 0 locus") as info:
        stepper((1e-3 + 0j, 0.5 + 0j), 1, 7, h, *coefficients, check)
    assert calls == [(1e-3 + 0j, 0.5 + 0j)] and (info.value.step, info.value.time) == (7, 6 * h)
    # Python's |Q| past the float range raises OverflowError, numpy's reads inf, past the floor:
    # the line reads the parts, so the stage takes the field's value, and the box rejects the
    # state it leads to
    calls.clear()
    with pytest.raises(NonFiniteStateError, match="overflowed at step 1 "), np.errstate(all="ignore"):
        stepper((complex(1.5e308, 1.5e308), 0.5 + 0j), 1, 1, h, *coefficients, check)
    assert calls == []
