import numpy as np
import pytest

from phhs import actions as act
from phhs import models
from phhs.errors import MissingPrimitiveError
from phhs.flows import FlowConfig, trajectory_grid
from phhs.hamiltonian import PhhsModel, assemble_phhs
from phhs.util import from_complex, to_complex

CFG = FlowConfig(dt=1e-3)


# ---------------------------------------------------------------------------
# segment action
# ---------------------------------------------------------------------------


def test_segment_action_constant_curve_zero_hamiltonian(harmonic):
    _, fields = harmonic
    zero = models.build_standard_hhs(1, "0*Q1")
    zf = assemble_phhs(zero)
    curve = act.sample_segment(lambda u: np.array([0.2, 0.1, -0.3, 0.4]), np.linspace(0, 1, 33))
    val = act.segment_action(zf, curve, alpha=0.0)
    assert abs(val) < 1e-12


def test_segment_action_circle_orbit_balance():
    # planar system omega = dp ^ dq, H = pi (q^2 + p^2) / T: over one period
    # the area term matches T E so the real action vanishes.  A two-real-
    # dimensional patch admits no anticompatible structure, so the field
    # bundle is assembled by hand for the real-valued functional.
    from phhs.fields import CovectorField, ScalarField, constant_two_form_field
    from phhs.hamiltonian import HamiltonianFields

    T = 2.0
    W = np.array([[0.0, -1.0], [1.0, 0.0]])
    model = PhhsModel(
        m=1,
        J=None,
        omega_R=constant_two_form_field(W),
        H_R=ScalarField(lambda p: np.pi * (p[0] ** 2 + p[1] ** 2) / T),
        lambda_R=CovectorField(lambda p: np.array([p[1], 0.0])),  # p dq
        name="planar_rhs",
    )
    fields = HamiltonianFields(
        model=model, X=None, JX=None, H_I=None, omega_I=None, alpha=None, diagnostics={}
    )
    a = 0.6

    def orbit(u):
        # clockwise circle of radius a traversed once in time T
        th = -2.0 * np.pi * u / T
        return np.array([a * np.cos(th), a * np.sin(th)])

    curve = act.sample_segment(orbit, np.linspace(0.0, T, 4001))
    val = act.segment_action(fields, curve, alpha=0.0, lambda_mode="real", parts="real")
    assert abs(complex(val).real) < 1e-5


def test_segment_action_alpha_flips_h_term(harmonic):
    _, fields = harmonic
    curve = act.sample_segment(lambda u: np.array([0.2, 0.1, -0.3, 0.4]), np.linspace(0, 1, 9))
    v0 = act.segment_action(fields, curve, alpha=0.0)
    vpi = act.segment_action(fields, curve, alpha=np.pi)
    h = complex(fields.model.H_R(curve.values[0]), fields.H_I(curve.values[0]))
    assert v0 + h == pytest.approx(0.0, abs=1e-12)
    assert vpi - h == pytest.approx(0.0, abs=1e-12)


def test_missing_primitive_raises(harmonic):
    model, fields = harmonic
    stripped = PhhsModel(
        m=model.m, J=model.J, omega_R=model.omega_R, H_R=model.H_R, lambda_R=None
    )
    bare = assemble_phhs(stripped, check_closedness=False)
    curve = act.sample_segment(lambda u: np.zeros(4), np.linspace(0, 1, 5))
    with pytest.raises(MissingPrimitiveError):
        act.segment_action(bare, curve)
    with pytest.raises(MissingPrimitiveError):
        act.ParallelogramAction(bare)


# ---------------------------------------------------------------------------
# parallelogram action
# ---------------------------------------------------------------------------


def test_parallelogram_constant_curve(harmonic):
    _, fields = harmonic
    x0 = np.array([0.2, 0.1, -0.3, 0.4])
    curve = act.sample_parallelogram(lambda z: x0, np.pi / 2, np.linspace(0, 1, 9), np.linspace(0, 1, 9))
    val = act.parallelogram_action(fields, curve)
    h = complex(fields.model.H_R(x0), fields.H_I(x0))
    assert val == pytest.approx(-h, abs=1e-12)


def test_parallelogram_action_matches_dense_oracle(harmonic):
    model, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), 33, 33, CFG)
    coarse = act.curve_from_grid(grid)
    action = act.ParallelogramAction(fields)
    z0 = to_complex(x0)

    def gamma(z):
        Q = z0[0] * np.cos(z) + z0[1] * np.sin(z)
        P = -z0[0] * np.sin(z) + z0[1] * np.cos(z)
        return from_complex(np.array([Q, P]))

    fine = act.sample_parallelogram(gamma, np.pi / 2, np.linspace(0, 1, 321), np.linspace(0, 1, 321))
    assert abs(action.value(coarse) - action.value(fine)) < 1e-4


def test_parallelogram_second_order_convergence(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    z0 = to_complex(x0)

    def gamma(z):
        Q = z0[0] * np.cos(z) + z0[1] * np.sin(z)
        P = -z0[0] * np.sin(z) + z0[1] * np.cos(z)
        return from_complex(np.array([Q, P]))

    action = act.ParallelogramAction(fields)
    vals = {}
    for n in (11, 21, 41):
        c = act.sample_parallelogram(gamma, np.pi / 2, np.linspace(0, 1, n), np.linspace(0, 1, n))
        vals[n] = action.value(c)
    ratio = abs(vals[11] - vals[21]) / abs(vals[21] - vals[41])
    assert 3.5 < ratio < 4.5


def test_tilted_parallelogram_runs(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    z0 = to_complex(x0)

    def gamma(z):
        Q = z0[0] * np.cos(z) + z0[1] * np.sin(z)
        P = -z0[0] * np.sin(z) + z0[1] * np.cos(z)
        return from_complex(np.array([Q, P]))

    action = act.ParallelogramAction(fields)
    coarse = act.sample_parallelogram(gamma, np.pi / 3, np.linspace(0, 1, 33), np.linspace(0, 1, 33))
    fine = act.sample_parallelogram(gamma, np.pi / 3, np.linspace(0, 1, 129), np.linspace(0, 1, 129))
    assert abs(action.value(coarse) - action.value(fine)) < 5e-4
    with pytest.raises(ValueError):
        bad = act.sample_parallelogram(gamma, 0.0, np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        action.value(bad)


def test_variational_gradient_trajectory_vs_displaced(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), 13, 13, CFG)
    curve = act.curve_from_grid(grid)
    action = act.ParallelogramAction(fields)
    base = act.gradient_max_norm(action.gradient(curve))
    curve.values[6, 6, 0] += 0.1
    displaced = act.gradient_max_norm(action.gradient(curve))
    assert displaced > 10.0 * base


def test_variational_gradient_constant_curve_nonzero(harmonic):
    # constants are not trajectories of a regular Hamiltonian
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    curve = act.sample_parallelogram(lambda z: x0, np.pi / 2, np.linspace(0, 1, 9), np.linspace(0, 1, 9))
    action = act.ParallelogramAction(fields)
    assert act.gradient_max_norm(action.gradient(curve)) > 1e-3


def test_fast_gradient_matches_naive(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    rng = np.random.default_rng(5)

    def gamma(z):
        return x0 + 0.1 * np.array([z.real, z.imag, z.real * z.imag, z.real ** 2])

    curve = act.sample_parallelogram(gamma, np.pi / 2, np.linspace(0, 1, 6), np.linspace(0, 1, 6))
    curve.values += 0.01 * rng.standard_normal(curve.values.shape)
    action = act.ParallelogramAction(fields)
    gre, gim = action.gradient(curve)
    i, j, k = 2, 3, 1
    d = 1e-5
    curve.values[i, j, k] += d
    plus = action.value(curve)
    curve.values[i, j, k] -= 2 * d
    minus = action.value(curve)
    curve.values[i, j, k] += d
    g = (plus - minus) / (2 * d)
    assert gre[i, j, k] == pytest.approx(g.real, rel=1e-6, abs=1e-10)
    assert gim[i, j, k] == pytest.approx(g.imag, rel=1e-6, abs=1e-10)


def _reference_cell(fields, parts, vals, a, b, ht, hr, sina, cosa):
    """Integrand of cell (a, b) from its four corners, one point per field call."""
    v00, v10, v01, v11 = vals[a, b], vals[a + 1, b], vals[a, b + 1], vals[a + 1, b + 1]
    p = 0.25 * (v00 + v10 + v01 + v11)
    dt = (v10 + v11 - v00 - v01) / (2.0 * ht)
    dr = (v01 + v11 - v00 - v10) / (2.0 * hr)
    ds = (dr - cosa * dt) / sina
    lam = np.asarray(fields.model.lambda_R(p), dtype=float)
    re = float(lam @ dt) - float(fields.model.H_R(p))
    if parts == "real":
        return complex(re, 0.0)
    return complex(re, -float(lam @ ds) - float(fields.H_I(p)))


def _reference_action(fields, parts, curve, fixed, delta=1e-5):
    """Value and gradient of the cell sum, one cell and one node at a time."""
    ht = curve.t_nodes[1] - curve.t_nodes[0]
    hr = curve.r_nodes[1] - curve.r_nodes[0]
    sina, cosa = np.sin(curve.alpha), np.cos(curve.alpha)
    w = ht * hr * sina
    vals = np.array(curve.values)
    nt, nr, dim = vals.shape

    def cell(a, b):
        return _reference_cell(fields, parts, vals, a, b, ht, hr, sina, cosa)

    F0 = np.array([[cell(a, b) for b in range(nr - 1)] for a in range(nt - 1)])
    value = complex(w * np.sum(F0))
    grad = np.zeros((nt, nr, dim), dtype=complex)
    for i in range(nt):
        for j in range(nr):
            if fixed == "boundary" and (i in (0, nt - 1) or j in (0, nr - 1)):
                continue
            around = [(a, b) for a in (i - 1, i) for b in (j - 1, j) if 0 <= a < nt - 1 and 0 <= b < nr - 1]
            for k in range(dim):
                old = vals[i, j, k]
                deltas = []
                for sign in (1.0, -1.0):
                    vals[i, j, k] = old + sign * delta
                    s = 0.0 + 0.0j
                    for a, b in around:
                        s += cell(a, b) - F0[a, b]
                    deltas.append(w * s)
                vals[i, j, k] = old
                grad[i, j, k] = (deltas[0] - deltas[1]) / (2.0 * delta)
    return (value.real if parts == "real" else value), grad.real, grad.imag


@pytest.mark.parametrize(
    "model, parts, nt, nr, alpha, fixed, displaced",
    [
        ("harmonic", "both", 9, 9, np.pi / 2, "boundary", False),
        ("harmonic", "both", 9, 9, np.pi / 2, None, True),
        ("harmonic", "both", 7, 10, np.pi / 3, "boundary", True),
        ("proper", "real", 9, 9, np.pi / 2, "boundary", True),
        ("proper", "real", 10, 7, np.pi / 3, None, False),
        ("proper", "both", 4, 5, np.pi / 2, None, False),
    ],
)
def test_stacked_action_equals_per_cell_reference_bit_for_bit(request, model, parts, nt, nr, alpha, fixed, displaced):
    _, fields = request.getfixturevalue(model)
    x0 = np.array([0.4, 0.3, 0.1, -0.2] if model == "harmonic" else [0.2, 0.1, -0.3, 0.4])
    grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), nt, nr, FlowConfig(dt=1e-2))
    curve = act.curve_from_grid(grid)
    curve.alpha = alpha
    if displaced:
        curve.values[nt // 2, nr // 2, 0] += 0.05
    action = act.ParallelogramAction(fields, parts=parts)
    value, ref_re, ref_im = _reference_action(fields, parts, curve, fixed)
    assert action.value(curve) == value
    gre, gim = action.gradient(curve, fixed=fixed)
    assert np.array_equal(gre, ref_re)
    assert np.array_equal(gim, ref_im)


# ---------------------------------------------------------------------------
# disk and star actions
# ---------------------------------------------------------------------------


def test_disk1_vanishes_on_holomorphic_curves(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    gamma = act.holomorphic_affine_curve(x0, np.array([0.3 + 0.2j, -0.1 + 0.4j]))
    fine = act.sample_polar(gamma, 0.0, 1.0, 64, 256)
    coarse = act.sample_polar(gamma, 0.0, 1.0, 32, 128)
    v_f = act.disk_action_1(fields, fine)
    v_c = act.disk_action_1(fields, coarse)
    est = abs(v_f - v_c) / 3.0 + 1e-13
    assert abs(v_f) <= 2.0 * est


def test_disk1_constant_curve_angular_average(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    curve = act.sample_polar(lambda z: x0, 0.0, 1.0, 16, 64)
    assert abs(act.disk_action_1(fields, curve)) < 1e-14


def test_disk2_constant_curve_equals_hamiltonian(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    curve = act.sample_polar_signed(lambda z: x0, 0.0, 1.0, 65, 128)
    val = act.disk_action_2(fields, curve)
    h = complex(fields.model.H_R(x0), fields.H_I(x0))
    assert abs(val - h) < 1e-12
    assert abs(h) > 1e-3  # the counterexample to variant-1 style vanishing


def test_disk2_zero_hamiltonian_constant_curve():
    zero = models.build_standard_hhs(1, "0*Q1")
    zf = assemble_phhs(zero)
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    curve = act.sample_polar_signed(lambda z: x0, 0.0, 1.0, 33, 64)
    assert abs(act.disk_action_2(zf, curve)) < 1e-13


def test_disk2_critical_point_counterexample():
    # at a critical point of H the constant curve IS a trajectory; variant 2
    # still reports the (nonzero) Hamilton value where variant 1 vanishes
    model = models.build_standard_hhs(1, "(P1^2 + Q1^2)/2 + 3/10")
    fields = assemble_phhs(model)
    x0 = np.zeros(4)
    signed = act.sample_polar_signed(lambda z: x0, 0.0, 1.0, 33, 64)
    full = act.sample_polar(lambda z: x0, 0.0, 1.0, 16, 64)
    assert abs(act.disk_action_2(fields, signed) - 0.3) < 1e-12
    assert abs(act.disk_action_1(fields, full)) < 1e-13


def test_star_constant_radius_equals_disk(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    gamma = act.holomorphic_affine_curve(x0, np.array([0.3 + 0.2j, -0.1 + 0.4j]))
    pc = act.sample_polar(gamma, 0.0, 1.0, 24, 96)
    assert abs(act.star_action(fields, pc, 1) - act.disk_action_1(fields, pc)) < 1e-10
    pcs = act.sample_polar_signed(gamma, 0.0, 1.0, 25, 96)
    assert abs(act.star_action(fields, pcs, 2) - act.disk_action_2(fields, pcs)) < 1e-10


def test_star2_constant_curve_equals_hamiltonian(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    ell = lambda a: 1.0 / np.sqrt(np.cos(a) ** 2 + (np.sin(a) / 2.0) ** 2)  # noqa: E731
    curve = act.sample_polar_signed(lambda z: x0, 0.0, ell, 65, 160)
    h = complex(fields.model.H_R(x0), fields.H_I(x0))
    assert abs(act.star_action(fields, curve, 2) - h) < 1e-10


def test_star1_ellipse_analytic_oracle(harmonic):
    """Variant 1 over an ellipse does NOT vanish on holomorphic curves.

    The radial integral telescopes to F(boundary) - F(center) for a primitive
    F of the holomorphic integrand, and the polar-angle mean of F over an
    ellipse boundary keeps a quadratic term: for semi-axes (1, 2) the mean of
    b(alpha)^2 is -2/3, so the action equals -g1/3 with g1 the linear
    integrand coefficient.  (The disk is the special case where the mean of
    every positive power vanishes.)
    """
    model, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    c = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    gamma = act.holomorphic_affine_curve(x0, c)
    ell = lambda a: 1.0 / np.sqrt(np.cos(a) ** 2 + (np.sin(a) / 2.0) ** 2)  # noqa: E731
    curve = act.sample_polar(gamma, 0.0, ell, 64, 256)
    val = act.star_action(fields, curve, 1)
    z0 = to_complex(x0)
    Q0, P0 = z0
    c1, c2 = c
    g1 = c1 * c2 - (P0 * c2 + Q0 * c1)
    assert abs(val - (-g1 / 3.0)) < 1e-4


def test_disk_quadrature_second_order(harmonic):
    # a smooth non-holomorphic curve exposes the quadrature order
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])

    def gamma(z):
        return x0 + 0.2 * np.array([z.real ** 2, z.imag, z.real * z.imag, abs(z) ** 2])

    vals = {}
    for nr, na in ((16, 64), (32, 128), (64, 256)):
        curve = act.sample_polar(gamma, 0.0, 1.0, nr, na)
        vals[nr] = act.disk_action_1(fields, curve)
    ratio = abs(vals[16] - vals[32]) / abs(vals[32] - vals[64])
    assert 3.5 < ratio < 4.5


def test_polar_variational_gradient_constant_curve(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    curve = act.sample_polar_signed(lambda z: x0, 0.0, 1.0, 9, 8)

    def action(c):
        return act.disk_action_2(fields, c)

    grads = act.variational_gradient(action, curve)
    assert act.gradient_max_norm(grads) > 1e-4


def test_real_part_functionals_for_twisted_model(proper):
    # no imaginary primitive exists for the twisted model; the real-valued
    # functionals still separate trajectories from perturbed curves
    model, fields = proper
    x0 = np.array([0.2, 0.1, -0.3, 0.4])
    grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), 13, 13, CFG)
    curve = act.curve_from_grid(grid)
    action = act.ParallelogramAction(fields, parts="real")
    base = act.gradient_max_norm(action.gradient(curve), parts="real")
    curve.values[6, 6, 0] += 0.05
    displaced = act.gradient_max_norm(action.gradient(curve), parts="real")
    assert displaced > 10.0 * base
