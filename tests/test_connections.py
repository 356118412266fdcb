import numpy as np
import pytest

from phhs import connections as conn
from phhs.errors import SingularMetricError
from phhs.fields import ScalarField
from phhs.tensors import nijenhuis
from phhs.util import grid_points


@pytest.fixture(scope="module")
def polar_like():
    # flat metric in disguise: diag(1, x1^2)
    return conn.diagonal_metric([lambda x: 1.0, lambda x: x[0] ** 2])


@pytest.fixture(scope="module")
def curved():
    return conn.diagonal_metric([lambda x: 1.0, lambda x: 1.0 + x[0] ** 2])


def test_christoffel_euclidean_zero():
    g = conn.euclidean_metric(3)
    assert np.max(np.abs(conn.christoffel(g, np.array([0.2, -0.1, 0.4])))) == 0.0


def test_christoffel_hand_oracle(polar_like):
    x = np.array([1.3, 0.4])
    G = conn.christoffel(polar_like, x)
    assert G[1, 0, 1] == pytest.approx(1.0 / 1.3, abs=1e-8)
    assert G[1, 1, 0] == pytest.approx(1.0 / 1.3, abs=1e-8)
    assert G[0, 1, 1] == pytest.approx(-1.3, abs=1e-8)
    # symmetry in the lower indices
    assert np.max(np.abs(G - np.transpose(G, (0, 2, 1)))) < 1e-10


def test_j_tangent_euclidean_block_form():
    g = conn.euclidean_metric(2)
    J = conn.j_tangent(g, np.zeros(2), np.array([0.7, -0.3]))
    # J(d_v_k) = d_x_k and J(d_x_k) = -d_v_k
    assert np.allclose(J[:, 2], [1, 0, 0, 0], atol=1e-14)
    assert np.allclose(J[:, 0], [0, 0, -1, 0], atol=1e-14)


def test_j_tangent_squares_to_minus_identity(curved):
    for w in ([0.5, 0.2], [1.0, -0.4]):
        J = conn.j_tangent(curved, np.array(w), np.array([0.3, 0.9]))
        assert np.max(np.abs(J @ J + np.eye(4))) < 1e-8


def test_j_cotangent_signature_table():
    g_e = conn.euclidean_metric(2)
    Js = conn.j_cotangent(g_e, np.zeros(2), np.array([0.5, 0.2]))
    assert np.allclose(Js[:, 0], [0, 0, -1, 0], atol=1e-12)  # J*(d_q) = -d_p
    assert np.allclose(Js[:, 2], [1, 0, 0, 0], atol=1e-12)  # J*(d_p) = d_q
    g_m = conn.diagonal_metric([1.0, -1.0])
    Jm = conn.j_cotangent(g_m, np.zeros(2), np.array([0.3, 0.4]))
    assert np.allclose(Jm[:, 0], [0, 0, -1, 0], atol=1e-12)  # timelike: J*(d_q1) = -d_p1
    assert np.allclose(Jm[:, 1], [0, 0, 0, 1], atol=1e-12)  # spacelike: J*(d_q2) = +d_p2
    assert conn.pairing_signature(g_e, np.array([0.1, 0.2, 0.5, 0.2]))[0] == (4, 0)
    assert conn.pairing_signature(g_m, np.array([0.1, 0.2, 0.5, 0.2]))[0] == (2, 2)


def test_j_cotangent_squares_everywhere(curved):
    for qp in grid_points(np.array([0.8, 0.1, 0.4, -0.2]), 0.3, 2)[:8]:
        Js = conn.j_cotangent(curved, qp[:2], qp[2:])
        assert np.max(np.abs(Js @ Js + np.eye(4))) < 1e-8


def test_pairing_symmetric(curved):
    (_, _), sym = conn.pairing_signature(curved, np.array([0.6, 0.2, 0.3, -0.4]))
    assert sym < 1e-8


def test_riemann_hand_oracle(curved, polar_like):
    R = conn.riemann_curvature(curved, np.array([1.0, 0.3]))
    assert R[0, 1, 0, 1] == pytest.approx(-0.5, abs=1e-6)
    Rp = conn.riemann_curvature(polar_like, np.array([1.3, 0.4]))
    assert np.max(np.abs(Rp)) < 1e-6


def test_flat_iff_integrable(polar_like, curved):
    pts = grid_points(np.array([1.0, 0.2, 0.4, -0.3]), 0.2, 2)
    flat = conn.flatness_vs_integrability(polar_like, pts)
    assert flat["max_curvature"] < 1e-6 and flat["max_nijenhuis"] < 1e-6
    curv = conn.flatness_vs_integrability(curved, pts)
    assert curv["max_curvature"] > 1e-2 and curv["max_nijenhuis"] > 1e-2
    eucl = conn.flatness_vs_integrability(conn.euclidean_metric(2), pts)
    assert eucl["max_curvature"] == 0.0 and eucl["max_nijenhuis"] == 0.0


def test_nijenhuis_of_jstar_needs_fiber(curved):
    # at zero momentum the structure obstruction sits in the fiber directions;
    # the field is still well defined there
    Jstar = conn.j_cotangent_field(curved)
    N = nijenhuis(Jstar, np.array([0.7, 0.2, 0.5, -0.1]))
    assert np.max(np.abs(N)) > 1e-3


def test_holo_metric_levi_civita_parts_agree():
    h = [[lambda z: 1.0, lambda z: 0.0], [lambda z: 0.0, lambda z: np.exp(z[0])]]
    grid = grid_points(np.array([0.1, -0.2, 0.3, 0.2]), 0.3, 3)
    out = conn.holo_metric_lc_check(h, grid)
    assert out["max_christoffel_diff"] < 1e-5
    assert out["points_used"] > 0


def test_holo_metric_constant_is_trivially_flat():
    h = [[lambda z: 1.0, lambda z: 0.0], [lambda z: 0.0, lambda z: 1.0]]
    grid = grid_points(np.zeros(4), 0.4, 2)
    out = conn.holo_metric_lc_check(h, grid)
    assert out["max_christoffel_diff"] < 1e-12


def test_holo_metric_skips_exactly_the_singular_nodes():
    # h = diag(1, z1) is degenerate on z1 = 0: the 9 of the 81 nodes with x1 = y1 = 0
    h = [[1, 0], [0, lambda z: z[0]]]
    out = conn.holo_metric_lc_check(h, grid_points(np.zeros(4), 0.4, 3))
    assert out["points_used"] == 72
    assert out["max_christoffel_diff"] < 1e-5


def test_holo_metric_rejects_antiholomorphic_entries():
    h = [[lambda z: 1.0, lambda z: 0.0], [lambda z: 0.0, lambda z: np.exp(np.conj(z[0]))]]
    grid = grid_points(np.zeros(4), 0.4, 2)
    with pytest.raises(SingularMetricError):
        conn.holo_metric_lc_check(h, grid)


def test_singular_metric_raises():
    g = conn.diagonal_metric([lambda x: x[0], 1.0])  # degenerate at x1 = 0
    with pytest.raises(SingularMetricError):
        conn.christoffel(g, np.array([0.0, 0.3]))


def test_holo_metric_rejects_a_field_entry():
    # a Field casts its points to float, which would drop Im z of every complex point
    h = [[1, 0], [0, ScalarField(lambda z: np.exp(z[..., 0]))]]
    with pytest.raises(TypeError, match="text in z1..zn or a callable of complex points"):
        conn.holo_metric_lc_check(h, grid_points(np.full(4, 0.2), 0.3, 3))
    # the same entry as text passes the check
    out = conn.holo_metric_lc_check([[1, 0], [0, "exp(z1)"]], grid_points(np.full(4, 0.2), 0.3, 3))
    assert out["max_christoffel_diff"] < 1e-5
