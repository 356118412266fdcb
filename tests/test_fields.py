import numpy as np
import pytest

from phhs.fields import FdConfig, MatrixField, ScalarField, partial_jet, rowwise
from phhs.tensors import acs_residual, anticompat_residual, project_10
from phhs.util import standard_j_matrix, standard_omega_matrix
from phhs.fields import constant_matrix_field, constant_two_form_field


def test_partial_jet_exact_on_polynomials():
    f = ScalarField(rowwise(lambda p: p[0] ** 2))
    p = np.array([3.0, 0.0, 0.0, 0.0])
    assert partial_jet(f, p, 0) == pytest.approx(6.0, abs=1e-9)


def test_partial_jet_constant_is_exact_zero():
    f = ScalarField(rowwise(lambda p: 7.25))
    assert partial_jet(f, np.array([0.3, -0.4]), 1) == 0.0


def test_partial_jet_exponential_orders():
    p = np.zeros(2)
    f2 = ScalarField(rowwise(lambda q: np.exp(q[0])), fd=FdConfig(step=1e-4, order=2))
    f4 = ScalarField(rowwise(lambda q: np.exp(q[0])), fd=FdConfig(step=1e-4, order=4))
    assert partial_jet(f2, p, 0) == pytest.approx(1.0, abs=1e-7)
    assert partial_jet(f4, p, 0) == pytest.approx(1.0, abs=1e-12)


def test_fd_config_validation():
    with pytest.raises(ValueError):
        FdConfig(step=-1.0)
    with pytest.raises(ValueError):
        FdConfig(order=3)


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
