"""Built-in, parameterized model catalog with closed-form oracles.

Every worked example lives here as a builder returning a
:class:`~phhs.hamiltonian.PhhsModel` (or :class:`~phhs.hamiltonian.PhsmData`
when there is no Hamiltonian).  Where a closed-form solution exists it is
attached as an oracle hook so the numerical routes can be cross-checked
against it.

Coordinate bookkeeping: a patch of m complex dimensions uses the global real
ordering (x_1..x_m, y_1..y_m) with z_j = x_j + i y_j.  For systems with
canonical pairs the first n complex slots are positions Q_j and the next n
are momenta P_j (so m = 2n).  The one-dimensional central-force system is
charted as (Q_x, P_x, Q_y, P_y) -> (x_1, x_2, y_1, y_2).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteStateError,
    NotHolomorphicError,
    QDependenceError,
    ZeroDenominatorError,
)
from .expressions import compile_points, parse_expression
from .fields import (
    CovectorField,
    Field,
    MatrixField,
    ScalarField,
    TwoFormField,
    VectorField,
    complex_gradient,
    constant_matrix_field,
    constant_two_form_field,
    holomorphy_residual,
    matvec,
    rowwise,
)
from .hamiltonian import PhhsModel, PhsmData
from .util import (
    as_point,
    as_points,
    coordinate_names,
    first_row,
    from_complex,
    max_abs,
    seeded_points,
    standard_j_matrix,
    standard_lambda_coeffs,
    standard_omega_matrix,
    to_complex,
)


def _as_complex_hamiltonian(H, m):
    """Normalize a Hamiltonian on C^m given as expression text or callable.

    Returns the value and the gradient (dH/dz_j, slot by slot), both taking
    a complex point or a stack of them.  The gradient of text folds the
    derivatives in Q/P into their z-slots; that of a callable, or of text
    without a symbolic derivative, is the central difference at each point.
    """
    if callable(H):
        H = rowwise(H)
        return H, lambda z: complex_gradient(H, z)
    expr = parse_expression(H)
    names = coordinate_names(m, "complex")
    value = compile_points(expr, names, complex)

    def fn(z):
        z = np.asarray(z)
        v = value(z)
        return complex(v) if z.ndim == 1 else np.asarray(v, dtype=complex)

    try:
        grads = [None] * m
        for name, k in names.items():
            d = expr.diff(name)
            grads[k] = d if grads[k] is None else grads[k] + d
    except ValueError:
        return fn, lambda z: complex_gradient(fn, z)
    partials = [compile_points(g, names) for g in grads]

    def dfn(z):
        z = np.asarray(z)
        out = np.empty(z.shape, dtype=complex)
        for k, d in enumerate(partials):
            out[..., k] = d(z)
        return out

    return fn, dfn


def _as_real_scalar(f, m, what="field"):
    """Normalize a real scalar field on C^m given as a number, text, field or callable.

    The value and the gradient take a point (a float, a vector) or an
    ``(N, 2m)`` stack (one value, one gradient per row); a field is used as
    it is, a bare callable is lifted by :func:`rowwise`.  The gradient comes
    from the symbolic partials in x_1..x_m, y_1..y_m; it is None for fields,
    callables and expressions without a symbolic derivative.  Constant
    values and partials are evaluated once, when the field is built; every
    other value is checked to be real.
    """
    if isinstance(f, Field):
        return f, None
    if callable(f):
        return rowwise(f), None
    if isinstance(f, (int, float)):
        f = str(float(f))
    expr = parse_expression(f)
    names = coordinate_names(m)

    def real(v):
        if v.dtype.kind == "c" and (abs(v.imag) > 1e-14 * np.maximum(1.0, abs(v))).any():
            raise ValueError(f"{what} expression {f!r} is not real-valued")
        return v.real

    value = compile_points(expr, names, lambda c: float(real(np.asarray(c))))
    if expr.variables():

        def fn(p):
            p = as_points(p)
            v = real(value(p))
            return float(v) if p.ndim == 1 else v

    else:

        def fn(p):
            return value(as_points(p))

    try:
        partials = [expr.diff(name) for name in coordinate_names(m, aliases=False)]
    except ValueError:
        return fn, None
    const = np.zeros(2 * m)  # the constant partials, evaluated once
    varying = []
    for k, d in enumerate(partials):
        if d.variables():
            varying.append((k, compile_points(d, names)))
        else:
            const[k] = complex(d.compile({})(None)).real

    def grad(p):
        out = np.empty(p.shape)
        out[...] = const
        for k, d in varying:
            out[..., k] = np.real(d(p))
        return out

    return fn, grad


def _realify_holomorphic_field(V):
    """The field X of a holomorphic V: components (Re V, Im V), with V as its complex form."""

    def fn(p):
        v = V(to_complex(p))
        return from_complex(np.asarray(v, dtype=complex))

    return VectorField(fn, name="X", complex_form=V)


def _standard_fields(n, H_c, dH_c):
    """X hook, the H_R field and the H_I hook of a holomorphic H on standard C^{2n}."""
    m = 2 * n

    def v_c(z):
        g = dH_c(z)
        return np.concatenate([g[..., n:m], -g[..., :n]], axis=-1)

    X = _realify_holomorphic_field(v_c)

    def grad_r(p):
        g = dH_c(to_complex(p))
        return np.concatenate([g.real, -g.imag], axis=-1)

    H_R = ScalarField(lambda p: H_c(to_complex(p)).real, grad=grad_r, name="H_R")
    H_I = lambda p: H_c(to_complex(p)).imag  # noqa: E731 - hook, not a field
    return X, H_R, H_I


def _holomorphy_samples(m, seed=3, count=8, scale=0.4, center=None):
    """An ``(N, m)`` stack of complex sample points."""
    return to_complex(seeded_points(seed, count, 2 * m, scale=scale, center=center))


def build_standard_hhs(n, H, base_point=None, name=None, holo_tol=1e-6):
    """Standard holomorphic system on C^{2n}: J = i, Omega = sum dP_j ^ dQ_j.

    H may be expression text in Q_j / P_j (automatically holomorphic) or a
    callable C^{2n} -> C, which is validated numerically through its
    Cauchy-Riemann defect.
    """
    m = 2 * n
    H_c, dH_c = _as_complex_hamiltonian(H, m)
    center = None if base_point is None else to_complex(as_point(base_point))
    res = holomorphy_residual(H_c, _holomorphy_samples(m, center=center))
    if res > holo_tol:
        raise NotHolomorphicError(f"Hamiltonian has Cauchy-Riemann defect {res:.3e}")
    X, H_R, H_I_hook = _standard_fields(n, H_c, dH_c)
    lam = CovectorField(lambda p: standard_lambda_coeffs(n, p), name="lambda_R")
    model = PhhsModel(
        m=m,
        J=constant_matrix_field(standard_j_matrix(m), name="J"),
        omega_R=constant_two_form_field(standard_omega_matrix(n), name="omega_R"),
        H_R=H_R,
        lambda_R=lam,
        base_point=base_point,
        name=name or f"standard_hhs_{n}",
        X_hook=X,
        H_I_hook=H_I_hook,
    )
    return model


# ---------------------------------------------------------------------------
# Central-force system on the punctured complex line
# ---------------------------------------------------------------------------


def central_hamiltonian(z):
    Q, P = np.asarray(z).T
    return P * P / 2.0 - 1.0 / (8.0 * Q * Q)


def _central_v(z):
    Q, P = z.T
    # below this floor the momentum derivative exceeds the flow blow-up guard
    too_close = abs(Q) < 1.4e-3
    if too_close.any() if too_close.ndim else too_close:
        raise NonFiniteStateError(
            f"central problem evaluated too close to the Q = 0 locus at {first_row(from_complex(z), too_close)}",
            row=int(np.argmax(too_close)) if too_close.ndim else None,
        )
    return np.array([P, -1.0 / (4.0 * Q ** 3)], dtype=complex).T


def central_closed_form(x0):
    """Branch-tracked closed-form trajectory through x0 (real 4-vector).

    Returns a callable ``gamma(z, path=None)`` evaluating

        Q(z) = sqrt(Q0^2 + 2 Q0 P0 z + 2 E0 z^2),   P = Q'

    with the square root chosen by continuity along the path (straight
    segment from 0 by default, refined to steps of at most 0.05) and
    normalized to sqrt(Q0^2) = Q0 at the start.
    """
    z0 = to_complex(as_point(x0))
    Q0, P0 = z0
    E0 = central_hamiltonian(z0)

    def disc(z):
        return Q0 * Q0 + 2.0 * Q0 * P0 * z + 2.0 * E0 * z * z

    def gamma(z, path=None):
        z = complex(z)
        nodes = [complex(u) for u in (path if path is not None else [0.0, z])]
        refined = [nodes[0]]
        for a, b in zip(nodes[:-1], nodes[1:]):
            steps = max(1, int(np.ceil(abs(b - a) / 0.05)))
            refined.extend(a + (b - a) * (k + 1) / steps for k in range(steps))
        q = Q0
        for u in refined:
            w = disc(u)
            if abs(w) < 1e-12:
                raise NonFiniteStateError("closed form hit the branch locus")
            r = np.sqrt(w)
            q = r if abs(r - q) <= abs(-r - q) else -r
        z_end = refined[-1]
        p = (Q0 * P0 + 2.0 * E0 * z_end) / q
        return np.array([q, p], dtype=complex)

    return gamma


def build_central_problem(base_point=(1.0, 0.5, 0.0, 0.0)):
    """Hamiltonian P^2/2 - 1/(8 Q^2) on the patch Q != 0 of C* x C."""
    n = 1

    def grad_r(p):
        g = complex_gradient(central_hamiltonian, to_complex(p))
        return np.concatenate([g.real, -g.imag], axis=-1)

    H_R = ScalarField(lambda p: central_hamiltonian(to_complex(p)).real, grad=grad_r, name="H_R")
    X = _realify_holomorphic_field(_central_v)
    model = PhhsModel(
        m=2,
        J=constant_matrix_field(standard_j_matrix(2), name="J"),
        omega_R=constant_two_form_field(standard_omega_matrix(n), name="omega_R"),
        H_R=H_R,
        lambda_R=CovectorField(lambda p: standard_lambda_coeffs(n, p), name="lambda_R"),
        base_point=base_point,
        closed_form=central_closed_form,
        name="central_problem",
        X_hook=X,
        H_I_hook=lambda p: central_hamiltonian(to_complex(p)).imag,
    )
    return model


# ---------------------------------------------------------------------------
# Natural Hamiltonians on complex tori
# ---------------------------------------------------------------------------


@dataclass
class Lattice:
    """Full-rank lattice in C^n, generators as real 2n-vectors (Re, Im blocks)."""

    generators: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.generators, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] % 2:
            raise ValueError("need 2n generators of length 2n")
        if abs(np.linalg.det(B)) < 1e-12:
            raise ValueError("lattice generators are linearly dependent")
        self.generators = B

    @property
    def n(self):
        return self.generators.shape[0] // 2

    def reduce(self, q):
        """Representative of q modulo the lattice with coefficients in [-1/2, 1/2)."""
        c = np.linalg.solve(self.generators.T, np.asarray(q, dtype=float))
        c -= np.round(c)
        return self.generators.T @ c

    def point(self, k):
        """Lattice point for an integer coefficient vector, as complex n-vector."""
        v = self.generators.T @ np.asarray(k, dtype=float)
        return v[: self.n] + 1j * v[self.n:]


@dataclass
class OrbitClass:
    kind: str  # constant | aperiodic* | cylinder | torus
    periods: list
    caveat: bool


def _torus_q_indices(n):
    # Q block of the real ordering (x_1..x_{2n}, y_1..y_{2n}) with Q_j = z_j.
    return list(range(n)) + list(range(2 * n, 3 * n))


def torus_distance(lattice, p1, p2):
    """Phase-space distance with the position block reduced modulo the lattice."""
    n = lattice.n
    d = as_point(p1) - as_point(p2)
    qi = _torus_q_indices(n)
    dq = lattice.reduce(d[qi])
    rest = np.delete(d, qi)
    return float(np.sqrt(np.dot(dq, dq) + np.dot(rest, rest)))


def build_torus_model(lattice, H=None, name="torus", q_tol=1e-8):
    """Cotangent model over a complex torus; H may depend on momenta only.

    The default Hamiltonian is sum_j P_j^2 / 2, whose trajectories are the
    straight windings gamma(z) = ([Q0 + z P0], P0).
    """
    n = lattice.n
    m = 2 * n
    if H is None:
        H_c = lambda z: 0.5 * np.sum(z[..., n:m] ** 2, axis=-1)  # noqa: E731
        dH_c = lambda z: np.concatenate([np.zeros_like(z[..., :n]), z[..., n:m]], axis=-1)  # noqa: E731
    else:
        H_c, dH_c = _as_complex_hamiltonian(H, m)
    q_dep = max_abs(dH_c(_holomorphy_samples(m, seed=5))[..., :n])
    if q_dep > q_tol:
        raise QDependenceError(
            f"Hamiltonian varies with the position coordinates (|dH/dQ| = {q_dep:.3e}); "
            "only momentum-dependent Hamiltonians live on the torus"
        )
    X, H_R, H_I_hook = _standard_fields(n, H_c, dH_c)

    def closed_form(x0):
        z0 = to_complex(as_point(x0))
        vel = dH_c(z0)[n:m]

        def gamma(z, path=None):
            z = complex(z)
            out = np.array(z0)
            out[:n] = z0[:n] + z * vel
            return out

        return gamma

    model = PhhsModel(
        m=m,
        J=constant_matrix_field(standard_j_matrix(m), name="J"),
        omega_R=constant_two_form_field(standard_omega_matrix(n), name="omega_R"),
        H_R=H_R,
        lambda_R=CovectorField(lambda p: standard_lambda_coeffs(n, p), name="lambda_R"),
        closed_form=closed_form,
        name=name,
        X_hook=X,
        H_I_hook=H_I_hook,
    )
    return model


def classify_torus_orbit(P0, lattice, search_radius=3, velocity=None, tol=1e-9):
    """Classify the winding of the straight trajectory with momentum P0.

    Enumerates integer combinations k with |k_j| <= search_radius, solves
    z * velocity = sum k_j e_j for a complex period z where consistent, and
    classifies by the real rank of the period set: two independent periods
    give a torus, one a cylinder, none an aperiodic winding.  A bounded search
    cannot certify the absence of periods, hence the caveat flag whenever the
    rank comes out below two.
    """
    if search_radius < 1:
        raise ValueError("search_radius must be at least 1")
    P0 = np.asarray(P0, dtype=complex)
    v = P0 if velocity is None else np.asarray(velocity, dtype=complex)
    if np.max(np.abs(v)) == 0.0:
        return OrbitClass(kind="constant", periods=[], caveat=False)
    n = lattice.n
    A = np.zeros((2 * n, 2))
    A[:n, 0] = v.real
    A[n:, 0] = -v.imag
    A[:n, 1] = v.imag
    A[n:, 1] = v.real
    periods = []
    ranges = [range(-search_radius, search_radius + 1)] * (2 * n)
    mesh = np.meshgrid(*ranges, indexing="ij")
    ks = np.stack([g.ravel() for g in mesh], axis=-1)
    for k in ks:
        if not np.any(k):
            continue
        lam = lattice.point(k)
        rhs = np.concatenate([lam.real, lam.imag])
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        if np.linalg.norm(A @ sol - rhs) <= tol * max(1.0, np.linalg.norm(rhs)):
            periods.append(complex(sol[0], sol[1]))
    if periods:
        M = np.array([[z.real, z.imag] for z in periods])
        s = np.linalg.svd(M, compute_uv=False)
        rank = int(np.sum(s >= 1e-9 * s[0])) if s[0] > 0 else 0
    else:
        rank = 0
    kind = {0: "aperiodic*", 1: "cylinder", 2: "torus"}[rank]
    return OrbitClass(kind=kind, periods=periods, caveat=rank < 2)


# ---------------------------------------------------------------------------
# Proper pseudo-holomorphic systems on C^2 (metric construction)
# ---------------------------------------------------------------------------


def i_g_matrix(f_val, h_val):
    """Compatible almost complex structure of the diagonal metric (f, h).

    f and h are numbers, or arrays of one shape giving a stack of matrices.
    """
    I = np.zeros(np.asarray(f_val).shape + (4, 4))
    I[..., 1, 0] = f_val          # I(d_x1) = f d_x2
    I[..., 0, 1] = -1.0 / f_val   # I(d_x2) = -d_x1 / f
    I[..., 3, 2] = -h_val         # I(d_y1) = -h d_y2
    I[..., 2, 3] = 1.0 / h_val    # I(d_y2) = d_y1 / h
    return I


def twist_matrix(f_val, h_val):
    """The twisted structure I_g J I_g of the diagonal metric (f, h), entry by entry.

    f and h are numbers, or arrays of one shape giving a stack of matrices.
    In the matmul ``I @ standard_j_matrix(2) @ I`` with I = ``i_g_matrix(f, h)``,
    every sum behind a nonzero entry has exactly one nonzero term, and
    multiplying by the ±1 entries of J is exact, so each entry is one
    rounding of one product: the four products below, in the matmul's
    order, give its bits.  The one case that differs is a non-finite
    matrix: where 1/f or 1/h overflows, the matmul spreads NaN (0 * inf)
    along a row and a column, where this form leaves those zeros.
    """
    inv_f, inv_h = 1.0 / f_val, 1.0 / h_val
    J = np.zeros(np.shape(f_val) + (4, 4))
    J[..., 0, 2] = inv_f * -h_val   # J_g(d_y1) = -(h/f) d_x1
    J[..., 1, 3] = -f_val * inv_h   # J_g(d_y2) = -(f/h) d_x2
    J[..., 2, 0] = inv_h * f_val    # J_g(d_x1) = (f/h) d_y1
    J[..., 3, 1] = -h_val * -inv_f  # J_g(d_x2) = (h/f) d_y2
    return J


def build_proper_phhs(f=1.0, h=1.0, H_R="-y1", base_point=None, name="proper_phhs"):
    """Twisted structure J_g = I_g o J o I_g on C^2 over the standard form.

    ``f`` and ``h`` are nowhere-zero conformal factors (numbers, expression
    text in x1, x2, y1, y2, or callables).  The flagship choice f = 1,
    h = exp(x1) has r = f/h depending on x1 only, which is exactly when
    Omega_R(J_g X, .) is exact and the twisted system is Hamiltonian.

    J_g is built entry by entry by :func:`twist_matrix`, not as the matmul
    I_g J I_g: each of its four nonzero entries is a sum with exactly one
    nonzero term, one rounding of one product, so the two agree bit for bit
    wherever J_g is finite.  Where 1/f or 1/h overflows the matmul fills a
    row and a column with NaN (0 * inf) and the closed form leaves zeros
    there; both rows are non-finite.
    ``extras["I_g"]`` is I_g itself, from :func:`i_g_matrix`.
    """
    f_fn, _ = _as_real_scalar(f, 2, "f")
    h_fn, _ = _as_real_scalar(h, 2, "h")
    H_fn, H_grad = _as_real_scalar(H_R, 2, "H_R")

    samples = seeded_points(13, 12, 4, scale=0.6, center=base_point)
    for fn, label in ((f_fn, "f"), (h_fn, "h")):
        vals = fn(samples)
        # a sign change across samples already proves a zero in between
        if np.min(np.abs(vals)) < 1e-10 or np.min(vals) * np.max(vals) < 0:
            raise ZeroDenominatorError(f"{label} must be nowhere zero on the working domain")

    def j_g(p):
        return twist_matrix(f_fn(p), h_fn(p))

    W = standard_omega_matrix(1)
    W_inv = np.linalg.inv(W)
    H_field = ScalarField(H_fn, grad=H_grad, name="H_R")

    def x_hook(p):
        return matvec(W_inv, H_field.gradient(p))

    model = PhhsModel(
        m=2,
        J=MatrixField(j_g, name="J_g"),
        omega_R=constant_two_form_field(W, name="omega_R"),
        H_R=H_field,
        lambda_R=CovectorField(lambda p: standard_lambda_coeffs(1, p), name="lambda_R"),
        base_point=base_point,
        name=name,
        X_hook=VectorField(x_hook, name="X"),
    )
    model.extras["f"] = f_fn
    model.extras["I_g"] = MatrixField(lambda p: i_g_matrix(f_fn(p), h_fn(p)), name="I_g")
    return model


def hyperkahler_check(f=1.0, h=1.0, samples=None):
    """Anticommutation data of I_g with the standard structure on C^2.

    For f = h the two anticommute and the twist I_g o J o I_g reproduces J
    exactly (the Euclidean case f = h = 1 is the quaternionic triple); for
    f != h the anticommutator picks up (f - h)-sized entries.
    """
    f_fn, _ = _as_real_scalar(f, 2, "f")
    h_fn, _ = _as_real_scalar(h, 2, "h")
    if samples is None:
        samples = seeded_points(17, 10, 4, scale=0.7)
    samples = as_points(samples)
    J = standard_j_matrix(2)
    f_val, h_val = f_fn(samples), h_fn(samples)
    I = i_g_matrix(f_val, h_val)
    return {
        "anticommutator": max_abs(I @ J + J @ I),
        "i_g_square": max_abs(I @ I + np.eye(4)),
        "twist_vs_standard": max_abs(twist_matrix(f_val, h_val) - J),
    }


# ---------------------------------------------------------------------------
# Rotation family on C^2
# ---------------------------------------------------------------------------


def build_rotation_family(phi, name="rotation"):
    """Axis-rotated structure J_phi on C^2; proper whenever phi is non-constant."""
    phi_fn, _ = _as_real_scalar(phi, 2, "phi")

    def j_phi(p):
        c = np.cos(phi_fn(p))
        s = np.sin(phi_fn(p))
        J = np.zeros(np.shape(c) + (4, 4))
        J[..., 2, 0], J[..., 3, 0] = c, -s   # J(d_x1) = cos d_y1 - sin d_y2
        J[..., 2, 1], J[..., 3, 1] = s, c    # J(d_x2) = sin d_y1 + cos d_y2
        J[..., 0, 2], J[..., 1, 2] = -c, -s  # J(d_y1) = -cos d_x1 - sin d_x2
        J[..., 0, 3], J[..., 1, 3] = s, -c   # J(d_y2) = sin d_x1 - cos d_x2
        return J

    return PhsmData(
        m=2,
        J=MatrixField(j_phi, name="J_phi"),
        omega_R=constant_two_form_field(standard_omega_matrix(1), name="omega_R"),
        name=name,
    )


# ---------------------------------------------------------------------------
# Deformation family of the standard system
# ---------------------------------------------------------------------------


def radial_bump(center, radius):
    """Smooth bump supported in the ball: exp(1 - 1/(1 - |p-c|^2/r^2)), a scalar field."""
    center = np.asarray(center, dtype=float)

    def f(p):
        s = ((p - center) ** 2).sum(axis=-1) / radius ** 2
        out = np.zeros(np.shape(s))
        inside = s < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return out[()]

    return ScalarField(f, name="bump")


def build_deformation(epsilon, f=None, n=1, hamiltonian="const", bump_center=None, bump_radius=0.8):
    """One member of the rescaling deformation J^eps of the standard structure.

    r^eps = 1 + eps^2 f rescales the (z_1, z_{n+1}) block of J; Omega_R stays
    the standard form and the Hamiltonian is either constant (any n) or the
    last complex coordinate z_{2n} (n > 1 only, since the deformation must not
    touch the coordinates the Hamiltonian depends on).  The exterior
    derivative of the induced form has the closed-form

        d Omega_I^eps = eps^2 df ^ (dy_{n+1} ^ dx_1 - r^{-2} dx_{n+1} ^ dy_1)

    exposed as ``extras['d_omega_I_formula']`` for cross-checking.
    """
    m = 2 * n
    dim = 2 * m
    if f is None:
        f = radial_bump(bump_center if bump_center is not None else np.zeros(dim), bump_radius)
    f_fn, _ = _as_real_scalar(f, m, "f")
    eps = float(epsilon)

    def r_eps(p):
        return 1.0 + eps ** 2 * f_fn(p)

    J_std = standard_j_matrix(m)
    ix1, ixn1 = 0, n
    iy1, iyn1 = m, m + n

    def j_eps(p):
        r = r_eps(p)
        J = np.empty(p.shape[:-1] + J_std.shape)
        J[...] = J_std
        J[..., iy1, ix1] = r
        J[..., iyn1, ixn1] = 1.0 / r
        J[..., ix1, iy1] = -1.0 / r
        J[..., ixn1, iyn1] = -r
        return J

    if hamiltonian == "const":
        H_R = ScalarField(lambda p: np.zeros(p.shape[:-1])[()], grad=lambda p: np.zeros(p.shape), name="H_R")
    elif hamiltonian == "linear_last":
        if n == 1:
            raise ValueError(
                "the rescaled block overlaps z_{2n} for n = 1; "
                "only a constant Hamiltonian deforms in one canonical pair"
            )
        e = np.zeros(dim)
        e[m - 1] = 1.0  # grad of Re z_{2n} = x_{2n}
        H_R = ScalarField(lambda p: p.T[m - 1].copy(), grad=lambda p: np.broadcast_to(e, p.shape), name="H_R")
    else:
        raise ValueError("hamiltonian must be 'const' or 'linear_last'")

    W = standard_omega_matrix(n)
    W_inv = np.linalg.inv(W)
    x_hook = VectorField(lambda p: matvec(W_inv, H_R.gradient(p)), name="X")

    f_field = ScalarField(f_fn, name="f")

    def d_omega_formula(p):
        r = r_eps(p)
        df = eps ** 2 * f_field.gradient(p)
        beta = np.zeros(np.shape(r) + (dim, dim))
        beta[..., iyn1, ix1] = 1.0
        beta[..., ix1, iyn1] = -1.0
        beta[..., ixn1, iy1] = -1.0 / r ** 2
        beta[..., iy1, ixn1] = 1.0 / r ** 2
        T = (
            np.einsum("...a,...bc->...abc", df, beta)
            - np.einsum("...b,...ac->...abc", df, beta)
            + np.einsum("...c,...ab->...abc", df, beta)
        )
        return T

    model = PhhsModel(
        m=m,
        J=MatrixField(j_eps, name="J_eps"),
        omega_R=constant_two_form_field(W, name="omega_R"),
        H_R=H_R,
        lambda_R=CovectorField(lambda p: standard_lambda_coeffs(n, p), name="lambda_R"),
        name=f"deformation_eps_{eps}",
        X_hook=x_hook,
        H_I_hook=H_R.fn if hamiltonian == "const" else (lambda p: p.T[dim - 1].copy()),
    )
    model.extras["f"] = f_fn
    model.extras["d_omega_I_formula"] = d_omega_formula
    return model
