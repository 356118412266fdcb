import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phhs import expressions, flows, models
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

from conftest import clear_compile_caches, complex_x, field_point


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


@pytest.mark.parametrize("H", ["conj(P1)^2/2", lambda z: np.conj(z[1]) ** 2 / 2])
def test_torus_antiholomorphic_hamiltonian_rejected(H):
    # no Q-dependence, so only the Cauchy-Riemann check of the shared constructor catches it,
    # with the defect the standard system reports for the same H
    lattice = models.Lattice(np.eye(2))
    with pytest.raises(NotHolomorphicError) as torus:
        models.build_torus_model(lattice, H=H)
    with pytest.raises(NotHolomorphicError) as standard:
        models.build_standard_hhs(1, H)
    assert str(torus.value) == str(standard.value) == "Hamiltonian has Cauchy-Riemann defect 4.070e-01"


def test_lattice_reduce_and_distance():
    lattice = models.Lattice(np.eye(2))
    r = lattice.reduce(np.array([1.3, -0.6]))
    assert np.allclose(r, [0.3, 0.4], atol=1e-12)
    p1 = np.array([0.1, 0.5, 0.2, -0.3])
    p2 = np.array([2.1, 0.5, -0.8, -0.3])  # differs by the lattice in Q
    assert models.torus_distance(lattice, p1, p2) < 1e-12


def test_classify_torus_orbits():
    lattice = models.Lattice(np.eye(2))
    torus = models.classify_torus_orbit(np.array([1.0 + 0.0j]), lattice)
    assert torus.kind == "torus" and not torus.caveat
    # the winding with momentum 1 has periods 1 and i
    periods = {complex(round(z.real, 9), round(z.imag, 9)) for z in torus.periods}
    assert (1 + 0j) in periods and 1j in periods

    const = models.classify_torus_orbit(np.array([0.0 + 0.0j]), lattice)
    assert const.kind == "constant" and not const.caveat

    lattice4 = models.Lattice(np.eye(4))
    aper = models.classify_torus_orbit(np.array([1.0, np.sqrt(2.0)]), lattice4)
    assert aper.kind == "aperiodic*" and aper.caveat

    # (Z + iZ) x (sqrt(2) Z + iZ) with momentum (1, 1): only imaginary periods
    gens = np.zeros((4, 4))
    gens[0] = [1.0, 0.0, 0.0, 0.0]
    gens[1] = [0.0, 0.0, 1.0, 0.0]
    gens[2] = [0.0, np.sqrt(2.0), 0.0, 0.0]
    gens[3] = [0.0, 0.0, 0.0, 1.0]
    cyl = models.classify_torus_orbit(np.array([1.0 + 0j, 1.0 + 0j]), models.Lattice(gens))
    assert cyl.kind == "cylinder" and cyl.caveat
    assert all(abs(z.real) < 1e-9 for z in cyl.periods)


def test_classification_stable_under_unimodular_change():
    U = np.array([[1, 1], [0, 1]])  # unimodular basis change of Z + iZ
    base = np.eye(2)
    for P0, kind in ((np.array([1.0 + 0.0j]), "torus"), (np.array([0.0j]), "constant")):
        for gens in (base, (U @ base)):
            out = models.classify_torus_orbit(P0, models.Lattice(gens))
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


def test_twisted_build_compiles_only_the_varying_expressions(monkeypatch):
    # f = 1 is read from its tree; exp(x1) and -y1 compile once each when the model is built.
    # The gradients compile at their first call, which f's and h's never get; the partials of
    # H_R = -y1 and so X are folded numbers, which compile nothing, so the build's third compile
    # is J X, whose one row with a nonzero X factor reads d(-y1)/dy1, and the assembly compiles
    # nothing.  The first single-point flows of X, J X and a combination compile their three lane
    # steppers, and no later flow compiles any more
    import builtins

    compiled, compile_ = [], builtins.compile

    def counted(source, filename, *args, **kw):
        compiled.append(filename)
        return compile_(source, filename, *args, **kw)

    monkeypatch.setattr(builtins, "compile", counted)
    clear_compile_caches()
    model = models.build_proper_phhs(f="1", h="exp(x1)", H_R="-y1")
    assert compiled[:2] == ["<expression 'exp(x1)'>", "<expression '-y1'>"]
    assert len(compiled) == 3 and "exp(x1)" in compiled[-1] and "d(-y1)/dy1" in compiled[-1]
    fields = assemble_phhs(model)
    assert len(compiled) == 3
    x0 = np.array([0.2, 0.1, -0.3, 0.4])
    for _ in range(2):
        for V in (fields.X, fields.JX, flows._combo_field(fields, 0.6, -0.8)):
            flows.flow(V, x0, 0.05)
            flows.flow(V, np.array([x0, x0]), 0.05)
    assert compiled[3:] == ["<RK4 lane of 4 components>"] * 3


def test_real_text_reading_a_z_alias_takes_the_difference_jet_for_its_gradient():
    # (z1 - x1)^2 is -y1^2.  Its symbolic partials took z1 for a coordinate of its own and gave
    # the gradient [-0, 0, 0, 0] here, with a ComplexWarning; now it has none, and the gradient
    # and the twisted X built on it come from the difference jet
    import warnings

    p = np.array([0.3, 0.2, 0.5, -0.1])
    _, grad = models._as_real_scalar("(z1 - x1)^2", 2)
    assert grad is None
    model = models.build_proper_phhs(H_R="(z1 - x1)^2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(model.H_R.gradient(p), [0.0, 0.0, -1.0, 0.0], rtol=0.0, atol=1e-9)
        assert np.allclose(model.X_hook(p), [0.0, 0.0, 0.0, -1.0], rtol=0.0, atol=1e-9)


def test_a_second_central_problem_compiles_nothing(monkeypatch):
    # its X, one source, is compiled once per process, and so are the lane steppers of its fields
    import builtins

    x0 = np.array([1.0, 0.5, 0.0, 0.0])
    first = assemble_phhs(models.build_central_problem())
    ends = [flows.flow(V, x0, 0.01) for V in (first.X, first.JX, flows._combo_field(first, 0.6, -0.8))]
    monkeypatch.setattr(builtins, "compile", None)
    fields = assemble_phhs(models.build_central_problem())
    again = [flows.flow(V, x0, 0.01) for V in (fields.X, fields.JX, flows._combo_field(fields, 0.6, -0.8))]
    assert all(np.array_equal(a, b) for a, b in zip(ends, again))


def test_a_second_twisted_build_walks_no_tree(monkeypatch):
    # the compile cache is keyed on the trees, before _compile walks them: a second build of
    # the same text, J_g X included, runs no _compile and gives the same fields
    walked, compile_ = [], expressions._compile

    def counted(roots, binding, label, dtype=None):
        walked.append(label)
        return compile_(roots, binding, label, dtype)

    monkeypatch.setattr(expressions, "_compile", counted)
    build = lambda: models.build_proper_phhs(f="1 + x2^2/5", h="exp(x1)", H_R="-y1")  # noqa: E731
    first = build()
    walked.clear()
    again = build()
    assert walked == []
    assert again.X_hook.lane == first.X_hook.lane and again.JX_hook.lane == first.JX_hook.lane is not None


def test_the_compile_cache_tells_signed_zero_leaves_apart():
    # 0.0 == -0.0, so tuple trees that differ only in a zero's sign are equal: the key holds
    # each number leaf's bits, and each tree compiles its own literal
    names = {"x1": 0}
    for zero in (0.0, -0.0, 0.0):
        fn = expressions.compile_vector([expressions.Expression(("num", zero)), "x1"], names, float)
        assert np.copysign(1.0, fn(np.array([0.5]))[0]) == np.copysign(1.0, zero)


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


def test_twisted_j_x_rows_with_a_zero_x_factor_are_zero_where_h_overflows():
    # with H_R = -y1 only X's y2 component is nonzero, so three rows of the compiled J_g X are the
    # number 0.0, not J_g's entry times 0.0: at x1 = 710, where exp(x1) overflows, they stay 0.0
    # on the lane, on a point and on a stack, while matvec(J_g, X) spreads 0 * inf = NaN
    model = models.build_proper_phhs(f="1", h="exp(x1)", H_R="-y1")
    fields = assemble_phhs(model)
    p = np.array([710.0, 0.1, -0.3, 0.4])
    with np.errstate(all="ignore"):
        lane = np.array(expressions.lane_function(*fields.JX.lane)(tuple(p.tolist())))
        point, stack = fields.JX(p), fields.JX(np.array([p, p]))
        product = matvec(model.J(p), fields.X(p))
    for value in (lane, point, *stack):
        assert np.isfinite(value).all() and value.tobytes() == np.zeros(4).tobytes()
    assert np.isnan(product).tolist() == [True, False, False, True]
    # inside the float range the rows are the matrix product's, signed zeros included
    for q in (np.array([709.0, 0.1, -0.3, 0.4]), np.array([-0.5, 0.0, -0.0, 2.0])):
        assert fields.JX(q).tobytes() == matvec(model.J(q), fields.X(q)).tobytes()
        assert np.array(expressions.lane_function(*fields.JX.lane)(tuple(q.tolist()))).tobytes() == fields.JX(q).tobytes()


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


def test_lattice_reduce_lands_in_the_half_open_interval():
    # coefficients land in [-1/2, 1/2): a half rounds up, whatever the parity np.round prefers
    halves = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994]
    c = models.Lattice(np.eye(8)).reduce(np.array(halves + [0.25]))
    assert c.tolist() == [-0.5] * 6 + [0.49999999999999994, 0.25]
    assert models.Lattice(np.eye(2)).reduce([0.5, -0.5]).tolist() == [-0.5, -0.5]
    assert models.Lattice(np.eye(2)).reduce([1.5, 2.5]).tolist() == [-0.5, -0.5]
    B = np.array([[2.0, 0.0], [1.0, 1.0]])  # generators (2, 0) and (1, 1)
    # (1, 1/2) has coefficients (1/4, 1/2), so it reduces to (1/4) (2, 0) - (1/2) (1, 1)
    assert models.Lattice(B).reduce(np.array([1.0, 0.5])).tolist() == [0.0, -0.5]


def _factor(name, k):
    # a power 1 is the name itself: the derivative of Q1^1 reads Q1^0, numpy's power at a point
    return {0: None, 1: name}.get(k, f"{name}^{k}")


@st.composite
def polynomial_text(draw):
    """A polynomial H in Q1 and P1: integer powers 1-4, + - *, and / by nonzero constants."""
    text = ""
    for i in range(draw(st.integers(1, 4))):
        factors = [draw(st.sampled_from(["1", "2", "0.3", "5"])), _factor("Q1", draw(st.integers(0, 4)))]
        factors.append(_factor("P1", draw(st.integers(0, 4))))
        term = "*".join(f for f in factors if f)
        if draw(st.booleans()):
            term += "/" + draw(st.sampled_from(["2", "7", "0.1", "-3"]))
        sign = draw(st.sampled_from(["+", "-"]))
        text += f" {sign} {term}" if i else ("-" if sign == "-" else "") + term
    return text


_SIGNED_ZEROS = [complex(a, b) for a, b in itertools.product([0.0, -0.0], repeat=2)]
LANE_POINTS = [
    *to_complex(seeded_points(29, 6, 4, scale=1.5)),
    *(np.array(z) for z in itertools.product(_SIGNED_ZEROS, repeat=2)),
    np.array([complex(-0.0, 0.7), complex(1.25, -0.0)]),
]


@settings(max_examples=25, deadline=None)
@given(H=polynomial_text())
def test_generated_lane_forms_equal_the_complex_forms_at_the_point(H):
    # X, J X and a X + b J X of a text H come from one compiled source (J X is X's lane at the
    # rate 1j): the lane value times the field's rate is w, i w and a w + (i b) w of X's complex
    # form w at the point, bit for bit, and every lane component a Python complex
    fields = assemble_phhs(models.build_standard_hhs(1, H))
    w = complex_x(H)
    a, ib = 0.6 + 0j, -0.8j
    forms = (w, lambda z: 1j * w(z), lambda z: a * w(z) + ib * w(z))
    for V, form in zip((fields.X, fields.JX, flows._combo_field(fields, 0.6, -0.8)), forms):
        for z in LANE_POINTS:
            lane = field_point(V)(tuple(z.tolist()))
            assert [type(c) for c in lane] == [complex, complex], (V.name, z)
            assert np.array(lane).tobytes() == np.asarray(form(z)).tobytes(), (V.name, z)


@st.composite
def real_polynomial_text(draw):
    """A polynomial in x1, x2, y1, y2: up to two coordinates per term, integer powers 1-3, + - *, and / by nonzero constants."""
    text = ""
    for i in range(draw(st.integers(1, 4))):
        factors = [draw(st.sampled_from(["1", "2", "0.3", "5"]))]
        for name in draw(st.lists(st.sampled_from(["x1", "x2", "y1", "y2"]), max_size=2)):
            factors.append(_factor(name, draw(st.integers(1, 3))))
        term = "*".join(factors)
        if draw(st.booleans()):
            term += "/" + draw(st.sampled_from(["2", "7", "0.1", "-3"]))
        sign = draw(st.sampled_from(["+", "-"]))
        text += f" {sign} {term}" if i else ("-" if sign == "-" else "") + term
    return text


TWISTED_POINTS = [*seeded_points(31, 6, 4, scale=1.5), *map(np.array, itertools.product([0.0, -0.0, 0.8], repeat=4))]


def _same_bits_up_to_nan_signs(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b)
    nan = np.isnan(a)
    return b.dtype == float and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=25, deadline=None)
@given(H=real_polynomial_text(), h=real_polynomial_text(), g=real_polynomial_text())
def test_twisted_lane_forms_equal_the_array_forms_at_the_point(H, h, g):
    # X, J X and a X + b J X of text H_R, h and f = 1 + g^2 come from one compiled source each:
    # the lane value is the array function's at the point, bit for bit (a NaN's sign aside, see
    # the lane stepper's tests), and every lane component a Python float
    try:
        model = models.build_proper_phhs(f=f"1 + ({g})^2", h=h, H_R=H)
    except ZeroDenominatorError:  # h changes sign, or nearly vanishes, on the samples
        assume(False)
    fields = assemble_phhs(model, check_closedness=False)
    with np.errstate(all="ignore"):
        for V in (fields.X, fields.JX, flows._combo_field(fields, np.cos(0.6), np.sin(0.6))):
            for p in TWISTED_POINTS:
                lane = expressions.lane_function(*V.lane)(tuple(p.tolist()))
                assert [type(c) for c in lane] == [float] * 4, (V.name, p)
                assert _same_bits_up_to_nan_signs(lane, V.fn(p)), (V.name, p)


def test_twisted_lane_keeps_python_floats_where_numpy_steps_in():
    # x2 = 0 divides by zero and x1 < 0 takes a fractional power Python's ** gives a complex
    # number for: both fall back to numpy, whose inf and NaN the lane returns as Python floats
    fields = assemble_phhs(models.build_proper_phhs(f="1", h="exp(x1)", H_R="(x1 + 2)^1.5 - y1/x2"), check_closedness=False)
    with np.errstate(all="ignore"):
        for p in (np.array([-3.0, 0.0, 0.5, 0.3]), np.array([-3.0, -0.0, -0.5, 0.3])):
            for V in (fields.X, fields.JX):
                lane = expressions.lane_function(*V.lane)(tuple(p.tolist()))
                assert [type(c) for c in lane] == [float] * 4, (V.name, p)
                assert _same_bits_up_to_nan_signs(lane, V.fn(p)), (V.name, p)
                assert not np.isfinite(lane).all()
