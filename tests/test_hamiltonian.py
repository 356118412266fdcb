import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from phhs import actions, cli, hamiltonian, models
from phhs.errors import NonClosedFormError, SingularFormError
from phhs.fields import (
    CovectorField,
    ScalarField,
    TwoFormField,
    constant_matrix_field,
    constant_two_form_field,
    rowwise,
)
from phhs.hamiltonian import (
    PhhsModel,
    assemble_phhs,
    closedness_residual,
    hamiltonian_vector_field,
    integrability_report,
    j_preserving_check,
    omega_I_from,
    poisson_bracket,
    primitive_scalar,
    primitive_stack,
)
from phhs.util import grid_points, seeded_points, standard_j_matrix, standard_omega_matrix


def test_omega_I_standard_structure():
    # Re(dz2 ^ dz1) and J = i induce Im(dz2 ^ dz1) = dx2 ^ dy1 + dy2 ^ dx1
    J = constant_matrix_field(standard_j_matrix(2))
    W = constant_two_form_field(standard_omega_matrix(1))
    WI = omega_I_from(W, J)(np.zeros(4))
    expected = np.zeros((4, 4))
    expected[1, 2] = 1.0
    expected[2, 1] = -1.0
    expected[3, 0] = 1.0
    expected[0, 3] = -1.0
    assert np.allclose(WI, expected, atol=1e-14)


def test_omega_I_twisted_structure(proper):
    # Omega_I = r^{-1} dx2 ^ dy1 + r dy2 ^ dx1 with r = exp(-x1)
    model, _ = proper
    p = np.array([0.4, 0.0, 0.2, -0.1])
    r = np.exp(-0.4)
    WI = omega_I_from(model.omega_R, model.J)(p)
    assert WI[1, 2] == pytest.approx(1.0 / r, abs=1e-12)
    assert WI[0, 3] == pytest.approx(-r, abs=1e-12)
    assert np.max(np.abs(WI + WI.T)) < 1e-12


def test_hamiltonian_vector_field_darboux():
    # omega = dp ^ dq, H = p^2/2 -> X = p d_q
    W = np.array([[0.0, -1.0], [1.0, 0.0]])
    omega = constant_two_form_field(W)
    H = ScalarField(rowwise(lambda p: p[1] ** 2 / 2.0))
    X = hamiltonian_vector_field(omega, H)
    out = X(np.array([0.3, 1.7]))
    assert np.allclose(out, [1.7, 0.0], atol=1e-9)


def test_hamiltonian_vector_field_twisted(proper):
    model, _ = proper
    X = hamiltonian_vector_field(model.omega_R, model.H_R)
    assert np.allclose(X(np.array([0.5, -0.1, 0.2, 0.9])), [0, 0, 0, -1], atol=1e-9)


def test_hamiltonian_vector_field_central(central):
    # X_H(Q, P) = P d_Q - 1/(4 Q^3) d_P realified at (1, 0, 1/2, 0)
    model, fields = central
    p = np.array([1.0, 0.5, 0.0, 0.0])
    out = fields.X(p)
    assert np.allclose(out, [0.5, -0.25, 0.0, 0.0], atol=1e-9)


def test_singular_form_raises():
    omega = constant_two_form_field(np.zeros((2, 2)))
    H = ScalarField(rowwise(lambda p: p[0]))
    X = hamiltonian_vector_field(omega, H)
    with pytest.raises(SingularFormError):
        X(np.zeros(2))


def test_primitive_of_exact_form_recovers_function():
    H = lambda p: p[0] ** 2  # noqa: E731
    alpha = CovectorField(rowwise(lambda p: np.array([2.0 * p[0], 0.0, 0.0, 0.0])))
    base = np.zeros(4)
    p = np.array([0.7, 0.1, -0.2, 0.3])
    val = primitive_scalar(alpha, base, p)
    assert val == pytest.approx(H(p) - H(base), abs=1e-9)


def test_primitive_matches_closed_form(proper):
    # H_I = 1 - exp(-x1) anchored at the origin
    model, fields = proper
    for x1 in (0.5, -0.4, 0.2):
        p = np.array([x1, 0.3, -0.2, 0.1])
        assert fields.H_I(p) == pytest.approx(1.0 - np.exp(-x1), abs=1e-8)


def test_non_closed_form_detected():
    alpha = CovectorField(rowwise(lambda p: np.array([0.0, p[0], 0.0, 0.0])))  # x1 dx2, not closed
    assert closedness_residual(alpha, np.array([0.3, 0.1, 0.2, 0.0])) > 0.1
    with pytest.raises(NonClosedFormError):
        primitive_scalar(alpha, np.zeros(4), np.ones(4))


def test_exactness_failure_of_twisted_model():
    # r depending on x2 breaks exactness of Omega_R(J X, .)
    model = models.build_proper_phhs(f="1", h="exp(x2)", H_R="-y1")
    with pytest.raises(NonClosedFormError):
        assemble_phhs(model)


def test_poisson_bracket_sign_convention():
    # with iota_X omega = -dH and omega = dp ^ dq: {q, p} = -1
    W = constant_two_form_field(np.array([[0.0, -1.0], [1.0, 0.0]]))
    q = ScalarField(rowwise(lambda p: p[0]))
    pp = ScalarField(rowwise(lambda p: p[1]))
    val = poisson_bracket(q, pp, W, np.array([0.2, 0.4]))
    assert val == pytest.approx(-1.0, abs=1e-9)
    assert poisson_bracket(q, q, W, np.array([0.2, 0.4])) == pytest.approx(0.0, abs=1e-12)


def test_assemble_diagnostics_standard(harmonic):
    _, fields = harmonic
    d = fields.diagnostics
    for key in (
        "acs",
        "anticompat",
        "commutator",
        "pseudo_holomorphy",
        "cr_X_omega_I_H_I",
        "cr_X_omega_I_H_R",
        "poisson_H_R_H_I",
        "omega_R_closed",
        "lambda_primitive",
    ):
        assert d[key] <= 1e-6, (key, d[key])


def test_assemble_diagnostics_twisted(proper):
    _, fields = proper
    d = fields.diagnostics
    assert d["commutator"] <= 1e-6
    assert d["pseudo_holomorphy"] <= 1e-6
    assert d["cr_X_omega_I_H_I"] <= 1e-6
    assert d["poisson_H_R_H_I"] <= 1e-6


def test_assemble_aborts_on_broken_structure():
    # a J that is not anticompatible with Omega_R must abort assembly
    bad_J = np.asarray(standard_j_matrix(2))
    bad_J = bad_J + 0.05
    model = models.build_standard_hhs(1, "P1")
    broken = models.PhhsModel(
        m=2,
        J=constant_matrix_field(bad_J),
        omega_R=model.omega_R,
        H_R=model.H_R,
        lambda_R=model.lambda_R,
    )
    with pytest.raises(ValueError):
        assemble_phhs(broken)


def test_hook_agrees_with_generic_solve(central):
    _, fields = central
    assert fields.diagnostics["hook_vs_solve"] < 1e-8


def test_h_i_hook_agrees_with_primitive(central):
    model, fields = central
    p = np.array([0.9, 0.4, 0.2, -0.3])
    quad = primitive_scalar(fields.alpha, model.base_point, p, check_closed=False)
    hook = fields.H_I(p) - fields.H_I(model.base_point)
    assert quad == pytest.approx(hook, abs=1e-8)


def test_integrability_dichotomy_over_zoo():
    grid = grid_points(np.zeros(4), 0.5, 3)
    zoo = [
        (models.build_standard_hhs(1, "P1"), True),
        (models.build_proper_phhs(f="1", h="1"), True),
        (models.build_proper_phhs(f="1", h="exp(x1)"), False),
        (models.build_rotation_family("0"), True),
        (models.build_rotation_family("x1"), False),
    ]
    for model, integrable in zoo:
        rep = integrability_report(model, grid)
        assert (rep.classification == "integrable") == integrable, model.name
        assert (rep.max_nijenhuis <= 1e-3) == (rep.max_d_omega_I <= 1e-3)


def test_j_preserving_dichotomy(proper):
    model, fields = proper
    grid = grid_points(np.zeros(4), 0.4, 3)
    rep_x = j_preserving_check(fields.X, model, grid)
    rep_jx = j_preserving_check(fields.JX, model, grid)
    assert rep_x.max_lie < 1e-6 and rep_x.max_contraction < 1e-6
    assert rep_jx.max_lie > 0.05 and rep_jx.max_contraction > 0.05


def test_energy_orthogonality(central):
    # dH_R and dH_I both vanish on X and J X directions
    model, fields = central
    for p in (np.array([1.0, 0.5, 0.0, 0.0]), np.array([0.8, 0.2, 0.3, -0.1])):
        g_r = model.H_R.gradient(p)
        g_i = fields.H_I.gradient(p)
        for V in (fields.X(p), fields.JX(p)):
            assert abs(np.dot(g_r, V)) < 1e-9
            assert abs(np.dot(g_i, V)) < 1e-9


# ---------------------------------------------------------------------------
# H_I on stacks: quad's first Gauss-Kronrod pass on every row at once
# ---------------------------------------------------------------------------


def _hand_built_model():
    # Re(Q1^2 + exp(P1)) over the standard structure of C^2, with no hook: H_I comes from the primitive
    return PhhsModel(
        m=2,
        J=constant_matrix_field(standard_j_matrix(2)),
        omega_R=constant_two_form_field(standard_omega_matrix(1)),
        H_R=ScalarField(rowwise(lambda p: p[0] ** 2 - p[2] ** 2 + np.exp(p[1]) * np.cos(p[3])), name="H_R"),
        name="hand_built",
    )


PRIMITIVE_MODELS = {
    "twisted": lambda: models.build_proper_phhs(f="1", h="exp(x1)", H_R="-y1"),
    "twisted_sin": lambda: models.build_proper_phhs(f="1", h="2 + sin(x1)", H_R="-y1"),
    "hand_built": _hand_built_model,
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_MODELS))
def test_stack_primitive_is_quad_bit_for_bit(name):
    model = PRIMITIVE_MODELS[name]()
    fields = assemble_phhs(model)
    P = seeded_points(21, 40, 4, scale=0.6, center=model.base_point)
    quad = np.array([primitive_scalar(fields.alpha, model.base_point, p, check_closed=False) for p in P])
    assert np.array_equal(primitive_stack(fields.alpha, model.base_point, P), quad)
    assert np.array_equal(fields.H_I(P), quad)
    # a point gives a float, the matching row of the stack
    point = fields.H_I(P[7])
    assert isinstance(point, float) and point == quad[7]


def _sharp_alpha(p):
    # d(arctan(100 (x1 - 0.3)) + sin(x2)): segments across x1 = 0.3 need quad's subdivision
    out = np.zeros(p.shape)
    out[..., 0] = 100.0 / (1.0 + (100.0 * (p[..., 0] - 0.3)) ** 2)
    out[..., 1] = np.cos(p[..., 1])
    return out


def _first_pass_only(alpha, base, p):
    """Whether quad stops after its first 21-point pass on the segment base -> p."""
    seg = p - base
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        _, _, info = integrate.quad(
            lambda t: float(np.dot(alpha(base + t * seg), seg)), 0.0, 1.0,
            epsabs=hamiltonian.QUAD_TOL, epsrel=hamiltonian.QUAD_TOL, limit=200, full_output=1,
        )
    return info["neval"] == 21


def test_stack_primitive_hands_every_row_quad_does_not_accept_to_quad(monkeypatch):
    alpha = CovectorField(_sharp_alpha, name="sharp")
    base = np.zeros(4)
    P = seeded_points(5, 60, 4, scale=1.0)
    P[3, 1] = np.nan
    fell_back = []
    real = hamiltonian.primitive_scalar

    def spy(alpha, base, p, **kwargs):
        fell_back.append(p)
        return real(alpha, base, p, **kwargs)

    monkeypatch.setattr(hamiltonian, "primitive_scalar", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = primitive_stack(alpha, base, P)
        quad = np.array([real(alpha, base, p, check_closed=False) for p in P])
    assert np.array_equal(out, quad, equal_nan=True)
    kept = [i for i, p in enumerate(P) if not any(np.array_equal(p, q, equal_nan=True) for q in fell_back)]
    assert 0 < len(kept) < len(P) and 3 not in kept
    assert kept == [i for i, p in enumerate(P) if i != 3 and _first_pass_only(alpha, base, p)]


def _count_quads(monkeypatch):
    calls = []
    real = integrate.quad

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", counted)
    return calls


def test_integrate_focus_scenario_takes_no_quad(tmp_path, monkeypatch):
    # the variant-0 integrate focus scenario of the benchmark: 289 grid nodes and the anchor
    # took one quad each
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import scenarios

    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenarios._integrate(scenarios.anchors(0), probe=False)))
    calls = _count_quads(monkeypatch)
    assert cli.main(["integrate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 0


def _twisted_curve(n):
    x0 = np.array([0.2, 0.1, -0.3, 0.4])

    def gamma(z):
        return x0 + 0.1 * np.array([z.real, z.imag, z.real * z.imag, z.real ** 2])

    nodes = np.linspace(0.0, 1.0, n)
    return actions.sample_parallelogram(gamma, np.pi / 2, nodes, nodes)


def test_twisted_action_gradient_takes_no_quad(proper, monkeypatch):
    # the base cells and 32 class perturbations, 256 cells each, took 8,448 quads on a 17 x 17 grid
    _, fields = proper
    calls = _count_quads(monkeypatch)
    actions.ParallelogramAction(fields, parts="both").gradient(_twisted_curve(17))
    assert len(calls) == 0


def test_twisted_action_gradient_is_the_quad_gradient_bit_for_bit(proper):
    model, fields = proper
    by_quad = ScalarField(
        rowwise(lambda p: primitive_scalar(fields.alpha, model.base_point, p, check_closed=False)), name="H_I"
    )
    curve = _twisted_curve(5)
    grads = actions.ParallelogramAction(fields, parts="both").gradient(curve)
    ref = actions.ParallelogramAction(dataclasses.replace(fields, H_I=by_quad), parts="both").gradient(curve)
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref))
