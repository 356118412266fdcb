import numpy as np
import pytest

from phhs import models
from phhs.fields import MatrixField, TwoFormField, VectorField, constant_two_form_field, rowwise
from phhs.hamiltonian import omega_I_from
from phhs.tensors import (
    exterior_derivative_2form,
    lie_bracket,
    lie_derivative_matrix,
    nijenhuis,
    nijenhuis_rank,
    two_form_components,
)
from phhs.util import standard_omega_matrix


def test_exterior_derivative_constant_form_is_zero():
    W = constant_two_form_field(standard_omega_matrix(1))
    T = exterior_derivative_2form(W, np.array([0.3, -0.2, 0.5, 0.1]))
    assert np.max(np.abs(T)) == 0.0


def test_exterior_derivative_hand_expanded():
    # omega = y1 dx1 ^ dx2 on C^2 coordinates (x1, x2, y1, y2)
    def w(p):
        W = np.zeros((4, 4))
        W[0, 1] = p[2]
        W[1, 0] = -p[2]
        return W

    T = exterior_derivative_2form(TwoFormField(rowwise(w)), np.array([0.4, 0.1, -0.3, 0.2]))
    comps = two_form_components(T)
    assert comps[(0, 1, 2)] == pytest.approx(1.0, abs=1e-9)
    for key, val in comps.items():
        if key != (0, 1, 2):
            assert abs(val) < 1e-9


def test_exterior_derivative_twisted_form(proper):
    # d Omega_I = e^{x1} dx1 ^ dx2 ^ dy1 for the exp-twisted structure
    model, _ = proper
    omega_I = omega_I_from(model.omega_R, model.J)
    for x1 in (0.0, 0.3, -0.5):
        T = exterior_derivative_2form(omega_I, np.array([x1, 0.2, -0.1, 0.4]))
        comps = two_form_components(T)
        assert comps[(0, 1, 2)] == pytest.approx(np.exp(x1), abs=1e-7)
        others = [abs(v) for k, v in comps.items() if k != (0, 1, 2)]
        assert max(others) < 1e-7


def test_lie_bracket_constant_fields():
    V = VectorField(rowwise(lambda p: np.array([1.0, 2.0, 3.0, 4.0])))
    W = VectorField(rowwise(lambda p: np.array([-1.0, 0.5, 0.0, 2.0])))
    assert np.max(np.abs(lie_bracket(V, W, np.zeros(4)))) == 0.0


def test_lie_bracket_hand_computed():
    # [x1 d_x2, d_x1] = -d_x2
    V = VectorField(rowwise(lambda p: np.array([0.0, p[0], 0.0, 0.0])))
    W = VectorField(rowwise(lambda p: np.array([1.0, 0.0, 0.0, 0.0])))
    b = lie_bracket(V, W, np.array([0.7, -0.2, 0.1, 0.3]))
    assert np.allclose(b, [0.0, -1.0, 0.0, 0.0], atol=1e-9)


def test_lie_bracket_antisymmetric_exactly():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    V = VectorField(rowwise(lambda p: A @ p + np.sin(p)))
    W = VectorField(rowwise(lambda p: B @ p + p ** 2))
    for _ in range(10):
        p = rng.standard_normal(4)
        fwd = lie_bracket(V, W, p)
        bwd = lie_bracket(W, V, p)
        assert np.array_equal(fwd, -bwd)


def test_commuting_pair_of_standard_hamiltonian_fields():
    # X and J X of a holomorphic Hamiltonian commute
    model = models.build_standard_hhs(1, "P1")
    from phhs.hamiltonian import assemble_phhs

    fields = assemble_phhs(model)
    p = np.array([0.3, -0.1, 0.2, 0.5])
    assert np.max(np.abs(lie_bracket(fields.X, fields.JX, p))) < 1e-9


def test_lie_derivative_constant_data_is_zero(harmonic):
    model, fields = harmonic
    p = np.array([0.1, 0.2, -0.3, 0.4])
    L = lie_derivative_matrix(fields.X, model.J, p)
    assert np.max(np.abs(L)) < 1e-10


def test_lie_derivative_twisted_structure(proper):
    # X = -d_y2 preserves J_g while J_g X = exp(-x1) d_x2 does not
    model, fields = proper
    p = np.zeros(4)
    LX = lie_derivative_matrix(fields.X, model.J, p)
    LJX = lie_derivative_matrix(fields.JX, model.J, p)
    assert np.max(np.abs(LX)) < 1e-9
    assert np.max(np.abs(LJX)) == pytest.approx(1.0, abs=1e-6)
    # hand-computed entries: (L_{JX} J)^{x2}_{y1} = -1, (L_{JX} J)^{y2}_{x1} = -1
    assert LJX[1, 2] == pytest.approx(-1.0, abs=1e-6)
    assert LJX[3, 0] == pytest.approx(-1.0, abs=1e-6)


def test_nijenhuis_constant_structure_vanishes(harmonic):
    model, _ = harmonic
    N = nijenhuis(model.J, np.array([0.5, 0.1, -0.2, 0.3]))
    assert np.max(np.abs(N)) == 0.0


def test_nijenhuis_antisymmetry_and_j_twist(proper):
    model, _ = proper
    rng = np.random.default_rng(7)
    p = np.array([0.2, -0.3, 0.1, 0.4])
    N = nijenhuis(model.J, p)
    Jm = np.asarray(model.J(p))
    for _ in range(6):
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)
        n_vw = np.einsum("cab,a,b->c", N, v, w)
        n_wv = np.einsum("cab,a,b->c", N, w, v)
        assert np.allclose(n_vw, -n_wv, atol=1e-8)
        n_jv_w = np.einsum("cab,a,b->c", N, Jm @ v, w)
        assert np.allclose(n_jv_w, -Jm @ n_vw, atol=1e-5)


def test_nijenhuis_vs_d_omega_dichotomy(proper):
    # N != 0 exactly where d Omega_I != 0 (cross-route check at one point)
    model, _ = proper
    p = np.zeros(4)
    N = nijenhuis(model.J, p)
    T = exterior_derivative_2form(omega_I_from(model.omega_R, model.J), p)
    assert np.max(np.abs(N)) > 0.1
    assert np.max(np.abs(T)) > 0.1


def test_nijenhuis_rank_deformation_family():
    model = models.build_deformation(0.5, n=1)
    assert nijenhuis_rank(model.J, np.zeros(4)) == 0  # bump max: df = 0
    assert nijenhuis_rank(model.J, np.array([0.6, 0.0, 0.0, 0.0])) == 2
    assert nijenhuis_rank(model.J, np.array([1.1, 0.0, 0.0, 0.0])) == 0  # outside support


def test_nijenhuis_rank_constant_structure(harmonic):
    model, _ = harmonic
    assert nijenhuis_rank(model.J, np.zeros(4)) == 0


def test_lie_derivative_matches_flow_conjugation(proper):
    # L_V J = 0 iff the finite-time flow of V conjugates J to itself; the
    # flow differential is taken by finite differences of the flow map
    from phhs.flows import FlowConfig, flow

    model, fields = proper
    cfg = FlowConfig(dt=1e-3)
    p = np.array([0.2, -0.1, 0.3, 0.1])
    t = 0.4
    h = 1e-5

    def conjugation_defect(V):
        D = np.empty((4, 4))
        for a in range(4):
            e = np.zeros(4)
            e[a] = h
            D[:, a] = (flow(V, p + e, t, cfg) - flow(V, p - e, t, cfg)) / (2.0 * h)
        end = flow(V, p, t, cfg)
        J_end = np.asarray(model.J(end))
        J_start = np.asarray(model.J(p))
        return np.max(np.abs(D @ J_start - J_end @ D))

    assert conjugation_defect(fields.X) < 1e-8  # X is J-preserving
    assert conjugation_defect(fields.JX) > 0.01  # J X is not
