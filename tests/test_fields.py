import numpy as np
import pytest

from phhs.fields import FdConfig, MatrixField, ScalarField, VectorField, partial_jet, rowwise
from phhs.tensors import acs_residual, anticompat_residual, project_10
from phhs.util import standard_j_matrix, standard_omega_matrix
from phhs.fields import constant_matrix_field, constant_two_form_field


def test_partial_jet_exact_on_polynomials():
    f = ScalarField(rowwise(lambda p: p[0] ** 2))
    p = np.array([3.0, 0.0, 0.0, 0.0])
    assert partial_jet(f, p, 0) == pytest.approx(6.0, abs=1e-9)


def test_point_only_field_on_a_stack_with_a_row_per_coordinate_is_an_error():
    # one order-4 direction at a point of C^2 is a 4-row stencil stack of 4-dim points, so p[0]
    # is the first stencil point, with one entry per row; it read 200004.00002 in place of 6
    with pytest.raises(ValueError, match=r"returned shape \(4,\) for a stack of shape \(5, 4\)"):
        partial_jet(ScalarField(lambda p: p[0] ** 2), [3.0, 0.0, 0.0, 0.0], 0)
    V = VectorField(lambda p: np.array([p[1], -p[0]]), name="V")
    with pytest.raises(ValueError, match=r"'V' returned shape \(2, 2\) for a stack of shape \(3, 2\)"):
        V(np.ones((2, 2)))


def test_scalar_field_returns_exactly_one_value_per_row():
    f = ScalarField(lambda p: p[..., :1] ** 2, name="f")
    with pytest.raises(ValueError, match=r"'f' returned shape \(3, 1\) for a stack of shape \(3, 4\)"):
        f(np.ones((3, 4)))
    g = ScalarField(lambda p: p[..., 0] ** 2)
    P = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(g(P), P[:, 0] ** 2)
    assert partial_jet(g, [3.0, 0.0, 0.0, 0.0], 0) == pytest.approx(6.0, abs=1e-9)


def test_partial_jet_constant_is_exact_zero():
    f = ScalarField(rowwise(lambda p: 7.25))
    assert partial_jet(f, np.array([0.3, -0.4]), 1) == 0.0


def test_partial_jet_exponential_orders():
    f = ScalarField(rowwise(lambda q: np.exp(q[0])), fd=FdConfig(step=1e-4))
    assert partial_jet(f, np.zeros(2), 0) == pytest.approx(1.0, abs=1e-12)


def test_fd_config_validation():
    # NaN fails every comparison, so a plain ``step <= 0`` test would let it through
    for step in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            FdConfig(step=step)


def test_partial_jet_axis_range():
    f = ScalarField(rowwise(lambda p: p[0]))
    with pytest.raises(ValueError):
        partial_jet(f, np.zeros(2), 5)


def test_acs_and_anticompat_residuals_standard_pair():
    J = constant_matrix_field(standard_j_matrix(2))
    W = constant_two_form_field(standard_omega_matrix(1))
    p = np.zeros(4)
    assert acs_residual(J, p) == 0.0
    assert anticompat_residual(W, J, p) == 0.0


def test_noisy_j_is_flagged():
    J0 = standard_j_matrix(2)
    noise = np.zeros((4, 4))
    noise[0, 1] = 1e-3
    J = constant_matrix_field(J0 + noise)
    res = acs_residual(J, np.zeros(4))
    assert 1e-4 < res < 5e-3


def test_project_10_eigenvector_property():
    rng = np.random.default_rng(0)
    J = constant_matrix_field(standard_j_matrix(3))
    p = np.zeros(6)
    for _ in range(5):
        v = rng.standard_normal(6)
        u = project_10(J, v, p)
        assert np.allclose(standard_j_matrix(3) @ u, 1j * u, atol=1e-14)
        # J(w) projects to i times the projection of w
        w = rng.standard_normal(6)
        lhs = project_10(J, standard_j_matrix(3) @ w, p)
        assert np.allclose(lhs, 1j * project_10(J, w, p), atol=1e-14)


def test_project_10_on_twisted_structure(proper):
    model, fields = proper
    p = np.array([0.2, -0.1, 0.3, 0.4])
    Jm = np.asarray(model.J(p))
    v = np.array([0.0, 0.0, 0.0, -1.0])
    u = project_10(model.J, v, p)
    assert np.allclose(Jm @ u, 1j * u, atol=1e-12)
