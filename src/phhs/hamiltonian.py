"""Assembly of pseudo-holomorphic Hamiltonian data from (J, Omega_R, H_R).

Sign conventions, fixed once for the whole package:

* Hamiltonian vector field:  w(X, .) = -dH, which with the matrix convention
  ``W[a, b] = w(e_a, e_b)`` is the linear solve ``W X = grad H``.
* Induced form:  Omega_I = -Omega_R(J., .),  i.e.  W_I = -J^T W_R.
* The imaginary Hamiltonian H_I is the primitive of  Omega_R(J X, .)  anchored
  at the model base point, H_I(base) = 0.
* Poisson bracket {F, G} = Omega_R(X_F, X_G); under these conventions the
  Darboux pair gives {q, p} = -1.

The assembled fields take a point or an ``(N, dim)`` stack of points (see
:mod:`phhs.fields`): J X contracts J and X row by row and the generic X is
one batched linear solve, so each evaluates a whole stack in one call
whenever the model's fields do.  Diagnostics, reports and the loop test of
closedness evaluate their whole point set as one stack.  So does the
quadrature primitive H_I of a model with no H_I hook
(:func:`primitive_stack`): it runs the first 21-point Gauss-Kronrod pass of
``scipy.integrate.quad`` on every row at once, one alpha call per abscissa,
and hands only the rows that pass would not settle to ``quad`` itself
(:func:`primitive_scalar`), so every row is bit for bit the ``quad`` value
wherever alpha gives a stack row the bits it gives that point.  A single
point goes to ``quad`` directly.

When X is the real form of a holomorphic w (``VectorField.complex_form``)
and J is the constant structure i (:func:`~phhs.util.standard_j_matrix`,
known from the matrix of a :func:`~phhs.fields.constant_matrix_field`, not
from samples), J X gets the complex form i w.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import integrate

from .errors import NonClosedFormError, SingularFormError
from .fields import CovectorField, ScalarField, TwoFormField, VectorField, jet, matvec
from .tensors import (
    acs_residual,
    anticompat_residual,
    exterior_derivative_2form,
    interior_product_3form,
    lie_bracket,
    lie_derivative_matrix,
    nijenhuis,
)
from .util import (
    as_point,
    as_points,
    first_row,
    invertible_rows,
    max_abs,
    row_max_abs,
    seeded_points,
    standard_j_matrix,
)


@dataclass
class PhhsModel:
    """One Hamiltonian system under study on a coordinate patch.

    Optional hooks carry closed forms where a model knows them (exact
    Hamiltonian fields, exact solutions); every hook has a generic numerical
    route next to it so the two can be cross-checked.
    """

    m: int
    J: object
    omega_R: object
    H_R: object
    lambda_R: object = None
    base_point: np.ndarray = None
    closed_form: object = None
    name: str = "model"
    X_hook: object = None
    H_I_hook: object = None
    extras: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.base_point is None:
            self.base_point = np.zeros(2 * self.m)
        self.base_point = np.asarray(self.base_point, dtype=float)

    @property
    def dim(self):
        return 2 * self.m


@dataclass
class PhsmData:
    """A pseudo-holomorphic symplectic patch without a Hamiltonian."""

    m: int
    J: object
    omega_R: object
    name: str = "phsm"


@dataclass
class HamiltonianFields:
    """Assembled dynamical data of a model plus its diagnostic record."""

    model: PhhsModel
    X: VectorField
    JX: VectorField
    H_I: ScalarField
    omega_I: TwoFormField
    alpha: CovectorField
    diagnostics: dict


def omega_I_from(omega_R, J):
    """Induced 2-form Omega_I = -Omega_R(J., .), pointwise -J^T W_R."""

    def fn(p):
        return -np.asarray(J(p), dtype=float).swapaxes(-1, -2) @ np.asarray(omega_R(p), dtype=float)

    return TwoFormField(fn, fd=J.fd, name="omega_I")


def hamiltonian_vector_field(omega, H, name="X"):
    """Vector field solving w(X, .) = -dH, one linear solve per point in one batched call."""

    def fn(p):
        W = np.asarray(omega(p), dtype=float)
        g = H.gradient(p)
        try:
            x = np.linalg.solve(W, g[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularFormError(f"2-form singular at {first_row(p, ~invertible_rows(W))}: {exc}") from exc
        finite = np.isfinite(x).all(axis=-1)
        if not finite.all():
            raise SingularFormError(f"2-form solve produced non-finite values at {first_row(p, ~finite)}")
        return x

    return VectorField(fn, fd=H.fd, name=name)


def pairing_covector(omega, V, name="alpha"):
    """1-form w(V, .) as a coefficient field (W^T V pointwise)."""

    def fn(p):
        W = np.asarray(omega(p), dtype=float).swapaxes(-1, -2)
        return matvec(W, np.asarray(V(p), dtype=float))

    return CovectorField(fn, fd=V.fd, name=name)


# the loop test of closedness: random small triangles through the point
LOOP_DIAMETER = 0.2
LOOP_TRIANGLES = 8
LOOP_SEED = 7
LOOP_GAUSS = 24


def closedness_residual(alpha, p):
    """Worst loop integral of alpha over random small triangles through p.

    Returns the residual scaled by triangle area; for a closed form it is the
    quadrature noise floor, for a non-closed form the size of d(alpha).  The
    Gauss nodes of every edge of every triangle are one stack call of alpha.
    """
    p = as_point(p)
    dim = p.size
    rng = np.random.default_rng(LOOP_SEED)
    corners = p + 0.5 * LOOP_DIAMETER * (2.0 * rng.random((LOOP_TRIANGLES, 2, dim)) - 1.0)
    verts = np.concatenate([np.broadcast_to(p, (LOOP_TRIANGLES, 1, dim)), corners], axis=1)
    u = verts[:, 1] - verts[:, 0]
    v = verts[:, 2] - verts[:, 0]
    area = 0.5 * np.sqrt(np.maximum(np.vecdot(u, u) * np.vecdot(v, v) - np.vecdot(u, v) ** 2, 0.0))
    ends = np.roll(verts, -1, axis=1)  # edges (0, 1), (1, 2), (2, 0)
    seg = ends - verts
    nodes, weights = np.polynomial.legendre.leggauss(LOOP_GAUSS)
    pts = (0.5 * (verts + ends))[:, :, None] + nodes[:, None] * (0.5 * seg)[:, :, None]
    vals = np.asarray(alpha(pts.reshape(-1, dim)), dtype=float).reshape(pts.shape)
    loop = (0.5 * (np.vecdot(vals, seg[:, :, None]) @ weights)).sum(axis=1)
    keep = area >= 1e-12
    return float(np.max(np.abs(loop[keep]) / area[keep], initial=0.0))


# absolute and relative tolerance of the quadrature primitive H_I; primitive_stack accepts a
# row after its first pass only where ``quad`` run with this tolerance would stop there too
QUAD_TOL = 1e-11
# a loop residual of alpha above this means alpha is not closed, so it has no primitive
CLOSED_TOL = 1e-4
# J^2 = -1 and the Omega_R-anticompatibility of J must hold on the samples to this residual
EXACT_TOL = 1e-6


def primitive_scalar(alpha, base, p, check_closed=True):
    """Line integral of alpha along the straight segment base -> p.

    Defines a primitive anchored at the base point (value 0 there).  With
    ``check_closed`` the loop diagnostic runs first and a NonClosedFormError
    signals that alpha has no primitive, i.e. the originating (J, Omega_R,
    H_R) triple is not a pseudo-holomorphic Hamiltonian system.
    """
    base = as_point(base)
    p = as_point(p)
    if check_closed:
        res = closedness_residual(alpha, p)
        if res > CLOSED_TOL:
            raise NonClosedFormError(
                f"loop residual {res:.3e} exceeds {CLOSED_TOL:.1e}; the 1-form is not closed"
            )
    seg = p - base

    def integrand(t):
        return float(np.dot(np.asarray(alpha(base + t * seg), dtype=float), seg))

    val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    return val


# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al., 1983, routine
# qk21): the nonnegative Kronrod abscissae on [-1, 1] from the outermost in,
# the centre last (the rule is symmetric); the weights of the 10-point Gauss
# rule on XGK[1], XGK[3], ..., XGK[9]; and the Kronrod weights of XGK.
QK21_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
QK21_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
QK21_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def primitive_stack(alpha, base, p):
    """:func:`primitive_scalar` without the closedness check, at a point (a float) or each row of a stack.

    A point is :func:`primitive_scalar` itself.  Every row of a stack first
    takes the 21-point Gauss-Kronrod pass that ``quad`` (QUADPACK's qagse)
    makes on [0, 1] before it subdivides, with the same abscissae and the
    same order of every sum, the integrand at each abscissa one alpha call on
    the whole stack.  A row keeps that value when qagse would stop after the
    pass; every other row (a non-finite one included) is handed to
    :func:`primitive_scalar`.  So each row is bit for bit the value of
    ``quad`` wherever alpha gives a stack row the bits it gives that point;
    an alpha that rounds a stack row differently, as a model built on
    expression text such as ``1 + x1^2`` or ``conj(z1)*z2`` may, can move a
    row from ``quad`` in the last digits.
    """
    base = as_point(base)
    P = as_points(p)
    if P.ndim == 1:
        return primitive_scalar(alpha, base, P, check_closed=False)
    seg = P - base

    def f(t):
        return np.vecdot(np.asarray(alpha(base + t * seg), dtype=float), seg)

    # qk21 on [0, 1]: centre 0.5, half-length 0.5
    fc = f(0.5)
    fv1, fv2 = [None] * 10, [None] * 10
    resg = 0.0
    resk = QK21_WGK[10] * fc
    resabs = np.abs(resk)
    for j in (*range(1, 10, 2), *range(0, 10, 2)):
        absc = 0.5 * QK21_XGK[j]
        fv1[j] = f1 = f(0.5 - absc)
        fv2[j] = f2 = f(0.5 + absc)
        fsum = f1 + f2
        if j % 2:
            resg = resg + QK21_WG[j // 2] * fsum
        resk = resk + QK21_WGK[j] * fsum
        resabs = resabs + QK21_WGK[j] * (np.abs(f1) + np.abs(f2))
    reskh = resk * 0.5
    resasc = QK21_WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + QK21_WGK[j] * (np.abs(fv1[j] - reskh) + np.abs(fv2[j] - reskh))
    result = resk * 0.5
    resabs = resabs * 0.5
    resasc = resasc * 0.5
    abserr = np.abs((resk - resg) * 0.5)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    # min(1, (200 abserr / resasc)^1.5) through the C library's pow, as QUADPACK takes it
    ratio = (200.0 * abserr[scaled] / resasc[scaled]).tolist()
    abserr[scaled] = resasc[scaled] * np.array([min(1.0, r ** 1.5) for r in ratio])
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[floor] = np.maximum((_EPMACH * 50.0) * resabs[floor], abserr[floor])

    # qagse stops after the first pass on these rows
    errbnd = np.maximum(QUAD_TOL, QUAD_TOL * np.abs(result))
    done = ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    for k in np.flatnonzero(~done):
        result[k] = primitive_scalar(alpha, base, P[k], check_closed=False)
    return result


def poisson_bracket(F, G, omega, p):
    """Omega(X_F, X_G) at a point (a float) or each row of a stack, by :func:`hamiltonian_vector_field`."""
    xf = hamiltonian_vector_field(omega, F)(p)
    xg = hamiltonian_vector_field(omega, G)(p)
    val = np.vecdot(np.vecmat(xf, np.asarray(omega(p), dtype=float)), xg)
    return float(val) if val.ndim == 0 else val


def assemble_phhs(model, check_closedness=True):
    """Produce X, JX, Omega_I, H_I and run the full diagnostic suite.

    Validation failures of the structure tensors (J not an almost complex
    structure, or not anticompatible with Omega_R) abort the assembly; the
    remaining diagnostics are recorded in the report without being fatal.
    """
    samples = seeded_points(11, 10, model.dim, scale=0.35, center=model.base_point)

    acs = acs_residual(model.J, samples)
    anti = anticompat_residual(model.omega_R, model.J, samples)
    if acs > EXACT_TOL:
        raise ValueError(f"J fails J^2 = -1 on samples (residual {acs:.3e}); assembly aborted")
    if anti > EXACT_TOL:
        raise ValueError(
            f"J is not Omega_R-anticompatible on samples (residual {anti:.3e}); assembly aborted"
        )

    X = model.X_hook if model.X_hook is not None else hamiltonian_vector_field(model.omega_R, model.H_R)
    X_generic = hamiltonian_vector_field(model.omega_R, model.H_R)

    def jx_fn(p):
        return matvec(np.asarray(model.J(p), dtype=float), np.asarray(X(p), dtype=float))

    w = getattr(X, "complex_form", None)
    j_is_i = w is not None and np.array_equal(getattr(model.J, "matrix", None), standard_j_matrix(model.m))
    JX = VectorField(jx_fn, fd=X.fd, name="JX", complex_form=(lambda z: 1j * w(z)) if j_is_i else None)
    omega_I = omega_I_from(model.omega_R, model.J)
    alpha = pairing_covector(model.omega_R, JX, name="omega_R(JX,.)")

    if check_closedness:
        worst = max(closedness_residual(alpha, p) for p in [model.base_point, samples[0]])
        if worst > CLOSED_TOL:
            raise NonClosedFormError(
                f"Omega_R(J X, .) is not closed (residual {worst:.3e}); "
                "the data do not form a pseudo-holomorphic Hamiltonian system"
            )

    if model.H_I_hook is not None:
        H_I = ScalarField(model.H_I_hook, fd=model.H_R.fd, grad=lambda p: np.asarray(alpha(p)), name="H_I")
    else:
        base = model.base_point
        H_I = ScalarField(
            lambda p: primitive_stack(alpha, base, p), fd=model.H_R.fd, grad=lambda p: np.asarray(alpha(p)), name="H_I"
        )

    Jm = np.asarray(model.J(samples), dtype=float)
    x = np.asarray(X(samples))
    dh = model.H_R.gradient(samples) + 1j * H_I.gradient(samples)
    diagnostics = {
        "acs": acs,
        "anticompat": anti,
        "hook_vs_solve": max_abs(x - np.asarray(X_generic(samples))),
        "commutator": max_abs(lie_bracket(X, JX, samples)),
        "omega_R_closed": max_abs(exterior_derivative_2form(model.omega_R, samples)),
        "omega_I_antisym": omega_I.antisymmetry_residual(samples),
        "pseudo_holomorphy": max_abs(matvec(Jm.swapaxes(-1, -2), dh) - 1j * dh),
        "cr_X_omega_I_H_I": max_abs(np.asarray(hamiltonian_vector_field(omega_I, H_I)(samples)) - x),
        "cr_X_omega_I_H_R": max_abs(
            np.asarray(hamiltonian_vector_field(omega_I, model.H_R)(samples)) - np.asarray(JX(samples))
        ),
        "poisson_H_R_H_I": max_abs(poisson_bracket(model.H_R, H_I, model.omega_R, samples)),
    }
    if model.lambda_R is not None:
        D = jet(model.lambda_R, samples)  # (d lam)_{ab} = d_a lam_b - d_b lam_a
        diagnostics["lambda_primitive"] = max_abs(
            D - D.swapaxes(-1, -2) - np.asarray(model.omega_R(samples), dtype=float)
        )

    return HamiltonianFields(
        model=model, X=X, JX=JX, H_I=H_I, omega_I=omega_I, alpha=alpha, diagnostics=diagnostics
    )


@dataclass
class IntegrabilityReport:
    points: np.ndarray
    nijenhuis_norms: np.ndarray
    d_omega_I_norms: np.ndarray
    threshold: float

    @property
    def max_nijenhuis(self):
        return float(np.max(self.nijenhuis_norms))

    @property
    def max_d_omega_I(self):
        return float(np.max(self.d_omega_I_norms))

    @property
    def classification(self):
        ok = self.max_nijenhuis <= self.threshold and self.max_d_omega_I <= self.threshold
        return "integrable" if ok else "proper"


def integrability_report(model, grid, threshold=1e-3):
    """Per-point (|N_J|, |d Omega_I|) over a grid plus the dichotomy verdict.

    Integrability of J and closedness of the induced Omega_I vanish together;
    the report exposes both sides so the equivalence is observable.
    """
    omega_I = omega_I_from(model.omega_R, model.J)
    pts = np.asarray(grid, dtype=float)
    n_norms = row_max_abs(nijenhuis(model.J, pts))
    d_norms = row_max_abs(exterior_derivative_2form(omega_I, pts))
    return IntegrabilityReport(pts, n_norms, d_norms, threshold)


@dataclass
class JPreservingReport:
    points: np.ndarray
    lie_norms: np.ndarray
    contraction_norms: np.ndarray

    @property
    def max_lie(self):
        return float(np.max(self.lie_norms))

    @property
    def max_contraction(self):
        return float(np.max(self.contraction_norms))


def j_preserving_check(V, model, grid):
    """Pairs (|L_V J|, |iota_V d Omega_I|) over a grid; the two vanish together."""
    omega_I = omega_I_from(model.omega_R, model.J)
    pts = np.asarray(grid, dtype=float)
    lie = row_max_abs(lie_derivative_matrix(V, model.J, pts))
    con = row_max_abs(interior_product_3form(exterior_derivative_2form(omega_I, pts), V(pts)))
    return JPreservingReport(pts, lie, con)
