import numpy as np
import pytest

from phhs import models
from phhs.errors import (
    NonFiniteStateError,
    NotHolomorphicError,
    QDependenceError,
    ZeroDenominatorError,
)
from phhs.fields import matvec
from phhs.hamiltonian import assemble_phhs, integrability_report
from phhs.tensors import acs_residual, anticompat_residual
from phhs.util import from_complex, grid_points, seeded_points, standard_j_matrix, to_complex


# ---------------------------------------------------------------------------
# standard systems
# ---------------------------------------------------------------------------


def test_standard_hhs_linear_hamiltonian_constant_field():
    model = models.build_standard_hhs(1, "Q1")
    fields = assemble_phhs(model)
    for p in (np.zeros(4), np.array([0.3, -0.2, 0.5, 0.1])):
        assert np.allclose(fields.X(p), [0.0, -1.0, 0.0, 0.0], atol=1e-12)


def test_standard_hhs_expression_and_callable_agree():
    m1 = models.build_standard_hhs(1, "P1^2/2 - Q1")
    m2 = models.build_standard_hhs(1, lambda z: z[1] ** 2 / 2.0 - z[0])
    f1 = assemble_phhs(m1)
    f2 = assemble_phhs(m2)
    p = np.array([0.3, -0.2, 0.5, 0.1])
    assert np.allclose(f1.X(p), f2.X(p), atol=1e-8)
    assert f1.model.H_R(p) == pytest.approx(f2.model.H_R(p), abs=1e-12)


def test_antiholomorphic_hamiltonian_rejected():
    with pytest.raises(NotHolomorphicError):
        models.build_standard_hhs(1, lambda z: np.conj(z[0]))
    with pytest.raises(NotHolomorphicError):
        models.build_standard_hhs(1, "conj(Q1)")


def test_central_problem_energy_and_leaves(central):
    model, _ = central
    x0 = np.array([1.0, 0.5, 0.0, 0.0])
    assert model.H_R(x0) == pytest.approx(0.0, abs=1e-14)
    # the zero-energy hypersurface splits into Q P = 1/2 and Q P = -1/2
    for qp, sign in ((0.5, 1.0), (-0.5, -1.0)):
        z = np.array([1.0 + 0.0j, qp + 0.0j])
        p = from_complex(z)
        prod = to_complex(p)[0] * to_complex(p)[1]
        assert model.H_R(p) == pytest.approx(0.0, abs=1e-14)
        assert prod.real == pytest.approx(sign * 0.5)


def test_central_closed_form_values(central):
    model, _ = central
    gamma = model.closed_form(np.array([1.0, 0.5, 0.0, 0.0]))
    out = gamma(3.0)
    assert abs(out[0] - 2.0) < 1e-14
    assert abs(out[1] - 0.25) < 1e-14
    with pytest.raises(NonFiniteStateError):
        gamma(-1.0)


# ---------------------------------------------------------------------------
# torus models
# ---------------------------------------------------------------------------


def test_torus_default_trajectory(torus_square):
    model, _ = torus_square
    x0 = from_complex(np.array([0.1 + 0.2j, 0.6 - 0.3j]))
    gamma = model.closed_form(x0)
    z = 0.7 - 0.4j
    expected_q = 0.1 + 0.2j + z * (0.6 - 0.3j)
    out = gamma(z)
    assert abs(out[0] - expected_q) < 1e-14
    assert abs(out[1] - (0.6 - 0.3j)) < 1e-14


def test_torus_momentum_only_hamiltonian_accepted():
    lattice = models.Lattice(np.eye(2))
    model = models.build_torus_model(lattice, H="P1")
    fields = assemble_phhs(model)
    # straight drift in Q1 only
    assert np.allclose(fields.X(np.array([0.1, 0.2, 0.3, 0.4])), [1, 0, 0, 0], atol=1e-9)


def test_torus_q_dependence_rejected():
    lattice = models.Lattice(np.eye(2))
    with pytest.raises(QDependenceError):
        models.build_torus_model(lattice, H="Q1")


def test_lattice_reduce_and_distance():
    lattice = models.Lattice(np.eye(2))
    r = lattice.reduce(np.array([1.3, -0.6]))
    assert np.allclose(r, [0.3, 0.4], atol=1e-12)
    p1 = np.array([0.1, 0.5, 0.2, -0.3])
    p2 = np.array([2.1, 0.5, -0.8, -0.3])  # differs by the lattice in Q
    assert models.torus_distance(lattice, p1, p2) < 1e-12


def test_classify_torus_orbits():
    lattice = models.Lattice(np.eye(2))
    torus = models.classify_torus_orbit(np.array([1.0 + 0.0j]), lattice, 3)
    assert torus.kind == "torus" and not torus.caveat
    # the winding with momentum 1 has periods 1 and i
    periods = {complex(round(z.real, 9), round(z.imag, 9)) for z in torus.periods}
    assert (1 + 0j) in periods and 1j in periods

    const = models.classify_torus_orbit(np.array([0.0 + 0.0j]), lattice, 3)
    assert const.kind == "constant" and not const.caveat

    lattice4 = models.Lattice(np.eye(4))
    aper = models.classify_torus_orbit(np.array([1.0, np.sqrt(2.0)]), lattice4, 3)
    assert aper.kind == "aperiodic*" and aper.caveat

    # (Z + iZ) x (sqrt(2) Z + iZ) with momentum (1, 1): only imaginary periods
    gens = np.zeros((4, 4))
    gens[0] = [1.0, 0.0, 0.0, 0.0]
    gens[1] = [0.0, 0.0, 1.0, 0.0]
    gens[2] = [0.0, np.sqrt(2.0), 0.0, 0.0]
    gens[3] = [0.0, 0.0, 0.0, 1.0]
    cyl = models.classify_torus_orbit(np.array([1.0 + 0j, 1.0 + 0j]), models.Lattice(gens), 3)
    assert cyl.kind == "cylinder" and cyl.caveat
    assert all(abs(z.real) < 1e-9 for z in cyl.periods)


def test_classification_stable_under_unimodular_change():
    U = np.array([[1, 1], [0, 1]])  # unimodular basis change of Z + iZ
    base = np.eye(2)
    for P0, kind in ((np.array([1.0 + 0.0j]), "torus"), (np.array([0.0j]), "constant")):
        for gens in (base, (U @ base)):
            out = models.classify_torus_orbit(P0, models.Lattice(gens), 3)
            assert out.kind == kind


# ---------------------------------------------------------------------------
# twisted and rotated structures
# ---------------------------------------------------------------------------


def test_proper_phhs_structure_tensors(proper):
    model, _ = proper
    for p in grid_points(np.zeros(4), 0.5, 3)[:10]:
        assert acs_residual(model.J, p) < 1e-12
        assert anticompat_residual(model.omega_R, model.J, p) < 1e-12
        I = model.extras["I_g"]
        assert acs_residual(I, p) < 1e-12
        W = np.asarray(model.omega_R(p))
        Im = np.asarray(I(p))
        assert np.max(np.abs(Im.T @ W @ Im - W)) < 1e-12  # compatibility


def test_proper_phhs_trivial_twist_is_standard():
    model = models.build_proper_phhs(f="1", h="1")
    from phhs.util import standard_j_matrix

    assert np.max(np.abs(model.J(np.array([0.3, 0.1, -0.2, 0.4])) - standard_j_matrix(2))) < 1e-14


@pytest.mark.parametrize("h", ["exp(x1)", "-exp(x1)"])
@pytest.mark.parametrize("f", ["1 + x2^2", "-2 - y1^2"])
def test_twist_matrix_is_the_matmul_bit_for_bit(f, h):
    # every sum behind an entry of I_g J I_g has one nonzero term, so the closed form
    # has the matmul's bits, the signs of its zeros included, on stacks and on points
    f_fn, _ = models._as_real_scalar(f, 2, "f")
    h_fn, _ = models._as_real_scalar(h, 2, "h")
    J = standard_j_matrix(2)
    X = seeded_points(99, 17, 4, scale=3.0)
    for seed in range(25):
        P = seeded_points(seed, 17, 4, scale=2.0)
        for p, x in ((P, X), (P[0], X[0])):
            f_val, h_val = f_fn(p), h_fn(p)
            I = models.i_g_matrix(f_val, h_val)
            closed, product = models.twist_matrix(f_val, h_val), I @ J @ I
            assert closed.tobytes() == product.tobytes()
            assert matvec(closed, x).tobytes() == matvec(product, x).tobytes()
    assert type(f_fn(P[0])) is float and type(h_fn(P[0])) is float


def test_twist_matrix_where_one_over_f_overflows():
    # the matmul spreads 0 * inf = NaN along a row and a column; the closed form keeps
    # those zeros, and that stack row is non-finite either way
    f_val, h_val = np.array([1e-310, 2.0]), np.array([1.0, 3.0])
    with np.errstate(over="ignore", invalid="ignore"):
        I = models.i_g_matrix(f_val, h_val)
        closed, product = models.twist_matrix(f_val, h_val), I @ standard_j_matrix(2) @ I
    assert closed[1].tobytes() == product[1].tobytes()
    assert np.isnan(product[0]).sum() > 0 and not np.isnan(closed[0]).any()
    for M in (closed[0], product[0]):
        assert not np.isfinite(M[0]).all() and not np.isfinite(M[3]).all()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        models.build_proper_phhs(f="x1", h="1")


def test_rotation_family_anticompatible():
    phsm = models.build_rotation_family("x1")
    for p in grid_points(np.zeros(4), 0.5, 3)[:8]:
        assert acs_residual(phsm.J, p) < 1e-12
        assert anticompat_residual(phsm.omega_R, phsm.J, p) < 1e-12
    assert integrability_report(phsm, grid_points(np.zeros(4), 0.5, 3)).classification == "proper"
    const = models.build_rotation_family("1/2")
    assert (
        integrability_report(const, grid_points(np.zeros(4), 0.5, 3)).classification
        == "integrable"
    )


def test_hyperkahler_degeneracy():
    out = models.hyperkahler_check(1.0, 1.0)
    assert out["anticommutator"] < 1e-14
    assert out["i_g_square"] < 1e-14
    assert out["twist_vs_standard"] < 1e-14
    # equal non-unit factors still anticommute (r = f/h = 1); unequal do not
    out2 = models.hyperkahler_check(2.0, 2.0)
    assert out2["anticommutator"] < 1e-14 and out2["i_g_square"] < 1e-14
    out3 = models.hyperkahler_check(2.0, 1.0)
    assert out3["i_g_square"] < 1e-14
    assert out3["anticommutator"] == pytest.approx(1.0, abs=1e-12)  # |f - h|
    assert out3["twist_vs_standard"] > 0.1


# ---------------------------------------------------------------------------
# deformation family
# ---------------------------------------------------------------------------


def test_deformation_zero_is_standard():
    model = models.build_deformation(0.0, n=1)
    from phhs.util import standard_j_matrix

    p = np.array([0.2, 0.3, -0.1, 0.4])
    assert np.max(np.abs(model.J(p) - standard_j_matrix(2))) == 0.0


def test_deformation_proper_inside_support_only():
    model = models.build_deformation(0.5, n=1)
    inside = grid_points(np.zeros(4), 0.3, 3)
    outside = inside + np.array([2.0, 0.0, 0.0, 0.0])
    rep_in = integrability_report(model, inside)
    rep_out = integrability_report(model, outside)
    assert rep_in.classification == "proper"
    assert rep_out.classification == "integrable"
    assert rep_out.max_nijenhuis < 1e-12


def test_deformation_formula_cross_check():
    from phhs.hamiltonian import omega_I_from
    from phhs.tensors import exterior_derivative_2form

    model = models.build_deformation(0.5, n=1)
    omega_I = omega_I_from(model.omega_R, model.J)
    for p in (np.array([0.5, 0.1, -0.2, 0.1]), np.array([0.2, -0.3, 0.3, 0.2])):
        T = exterior_derivative_2form(omega_I, p)
        F = model.extras["d_omega_I_formula"](p)
        assert np.max(np.abs(T - F)) < 1e-6
        assert np.max(np.abs(F)) > 0.05


def test_deformation_two_pairs_with_linear_hamiltonian():
    from phhs.hamiltonian import primitive_scalar

    model = models.build_deformation(0.4, n=2, hamiltonian="linear_last")
    fields = assemble_phhs(model)
    assert fields.diagnostics["pseudo_holomorphy"] < 1e-8
    assert fields.diagnostics["commutator"] < 1e-8
    # the closed-form imaginary part agrees with the line-integral primitive
    p = np.array([0.2, -0.1, 0.3, 0.1, 0.4, -0.2, 0.1, 0.3])
    quad = primitive_scalar(fields.alpha, model.base_point, p, check_closed=False)
    assert quad == pytest.approx(fields.H_I(p), abs=1e-8)


def test_deformation_dimension_guard():
    with pytest.raises(ValueError):
        models.build_deformation(0.3, n=1, hamiltonian="linear_last")


def test_real_scalar_gradient_spans_the_whole_patch():
    # m = 3: partials in x1, x2, x3, y1, y2, y3, in the point's order
    fn, grad = models._as_real_scalar("x1*y3 + x2^2 - exp(y1) + 3*x3", 3)
    p = np.array([0.3, -0.4, 0.7, 0.2, 0.9, -1.1])
    x1, x2, x3, y1, y2, y3 = p
    assert fn(p) == pytest.approx(x1 * y3 + x2 ** 2 - np.exp(y1) + 3 * x3)
    expected = [y3, 2 * x2, 3.0, -np.exp(y1), 0.0, x1]
    assert np.allclose(grad(p), expected, rtol=0, atol=1e-15)


def test_real_scalar_accepts_numbers():
    fn, grad = models._as_real_scalar(2, 2)
    p = np.array([0.3, -0.4, 0.7, 0.2])
    assert fn(p) == 2.0
    assert np.array_equal(grad(p), np.zeros(4))


def test_real_scalar_folds_constants_and_takes_stacks():
    P = np.array([[0.3, -0.4, 0.7, 0.2], [1.0, 2.0, -3.0, 0.5], [0.0, 0.0, 0.0, 0.0]])
    fn, grad = models._as_real_scalar("1", 2)
    assert fn(P[0]) == 1.0 and isinstance(fn(P[0]), float)
    assert np.array_equal(fn(P), np.ones(3))
    fn, grad = models._as_real_scalar("-y1", 2)
    assert np.array_equal(grad(P), np.tile([0.0, 0.0, -1.0, 0.0], (3, 1)))
    fn, grad = models._as_real_scalar("x1*y2 + exp(x2)", 2)
    assert np.array_equal(fn(P), [fn(p) for p in P])
    assert np.array_equal(grad(P), [grad(p) for p in P])


def test_real_scalar_checks_a_constant_once_when_built():
    # Python's (-1) ** 0.5 is complex: the constant is rejected before any evaluation
    with pytest.raises(ValueError, match="not real-valued"):
        models._as_real_scalar("(-1)^0.5", 2, "f")
    fn, _ = models._as_real_scalar("sqrt(z1)", 2, "f")
    with pytest.raises(ValueError, match="not real-valued"):
        fn(np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]))
