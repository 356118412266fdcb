"""Built-in, parameterized model catalog with closed-form oracles.

Every worked example lives here as a builder returning a
:class:`~phhs.hamiltonian.PhhsModel` (or :class:`~phhs.hamiltonian.PhsmData`
when there is no Hamiltonian).  Where a closed-form solution exists it is
attached as an oracle hook so the numerical routes can be cross-checked
against it.

The systems with J = i on (C^{2n}, d lambda_can), which differ only in H
(standard, central, torus), come from one constructor that runs their one
Cauchy-Riemann check.

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
from .expressions import Expression, Lane, compile_points, compile_vector, parse_expression
from .fields import (
    HOLO_TOL,
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


def _gradient_x(n, dH_c):
    """X = (dH/dP, -dH/dQ) on C^{2n}, read off the values of the gradient dH_c."""

    def w(z):
        g = dH_c(z)
        return np.concatenate([g[..., n:], -g[..., :n]], axis=-1)

    return w


def _as_complex_hamiltonian(H, n):
    """The value, gradient (dH/dz_j) and X = (dH/dP, -dH/dQ) of H on C^{2n}, text or callable.

    Each takes a complex point or a stack.  For text the gradient and X are
    compiled from the partial trees (those in Q/P folded into their z-slots)
    by :func:`~phhs.expressions.compile_vector`, so X has a ``lane``;
    otherwise the gradient is the central difference and X is read off it.
    """
    if callable(H):
        H = rowwise(H)
        dH = lambda z: complex_gradient(H, z)  # noqa: E731
        return H, dH, _gradient_x(n, dH)
    expr = parse_expression(H)
    names = coordinate_names(2 * n, "complex")
    value = compile_points(expr, names, complex)

    def fn(z):
        z = np.asarray(z)
        v = value(z)
        return complex(v) if z.ndim == 1 else np.asarray(v, dtype=complex)

    try:
        grads = [None] * (2 * n)
        for name, k in names.items():
            d = expr.diff(name)
            # a slot's names are aliases (z_j and Q_j or P_j); a partial that folded to 0.0 adds nothing
            if grads[k] is None or d.ast != ("num", 0.0):
                grads[k] = d if grads[k] is None or grads[k].ast == ("num", 0.0) else grads[k] + d
    except ValueError:
        dH = lambda z: complex_gradient(fn, z)  # noqa: E731
        return fn, dH, _gradient_x(n, dH)
    X = grads[n:] + [-g for g in grads[:n]]
    return fn, compile_vector(grads, names), compile_vector(X, names)


def _as_real_scalar(f, m, what="field"):
    """Normalize a real scalar field on C^m given as a number, text (or parsed), field or callable.

    The value and the gradient take a point (a float, a vector) or an
    ``(N, 2m)`` stack (one value, one gradient per row); a field is used as
    it is, a bare callable is lifted by :func:`rowwise`.  The gradient comes
    from the symbolic partials in x_1..x_m, y_1..y_m; it is None for fields,
    callables, expressions without a symbolic derivative and text that
    reads a z_j, Q_j or P_j (whose partials would take it for a coordinate
    of its own, not x_j + i y_j).  A constant
    value is evaluated once, when the field is built, every other one is
    checked to be real; the partials are compiled at the first gradient.
    """
    if isinstance(f, Field):
        return f, None
    if callable(f):
        return rowwise(f), None
    if isinstance(f, (int, float)):
        f = str(float(f))
    expr = f if isinstance(f, Expression) else parse_expression(f)
    names = coordinate_names(m)

    def real(v):
        if v.dtype.kind == "c" and (abs(v.imag) > 1e-14 * np.maximum(1.0, abs(v))).any():
            raise ValueError(f"{what} expression {expr.source!r} is not real-valued")
        return v.real

    value = compile_points(expr, names, lambda c: float(real(np.asarray(c))))

    def fn(p):
        p = as_points(p)
        v = real(np.asarray(value(p)))
        return float(v) if p.ndim == 1 else v

    own = coordinate_names(m, aliases=False)
    if not expr.variables() <= own.keys():
        return fn, None
    try:
        partials = [expr.diff(name) for name in own]
    except ValueError:
        return fn, None
    compiled = []  # the partials as one source, compiled at the first gradient (f and h never take one)

    def grad(p):
        if not compiled:
            compiled.append(compile_vector(partials, names, float))
        return compiled[0](p)

    return fn, grad


def _holomorphy_samples(m, seed=3):
    """An ``(8, m)`` stack of complex sample points."""
    return to_complex(seeded_points(seed, 8, 2 * m, scale=0.4))


def _holomorphic_model(n, H_c, dH_c, w, **model_kwargs):
    """The system of H on (C^{2n}, d lambda_can) with J = i, if H passes the Cauchy-Riemann check.

    H_c, dH_c (dH/dz_j) and X's complex form w take a complex point or a
    stack; w's ``lane``, if any, is X's.  The keywords go to
    :class:`~phhs.hamiltonian.PhhsModel`.
    """
    m = 2 * n
    res = holomorphy_residual(H_c, _holomorphy_samples(m))
    if res > HOLO_TOL:
        raise NotHolomorphicError(f"Hamiltonian has Cauchy-Riemann defect {res:.3e}")
    X = VectorField(
        lambda p: from_complex(np.asarray(w(to_complex(p)), dtype=complex)),
        name="X", lane=getattr(w, "lane", None),
    )

    def grad_r(p):
        g = dH_c(to_complex(p))
        return np.concatenate([g.real, -g.imag], axis=-1)

    return PhhsModel(
        m=m,
        J=constant_matrix_field(standard_j_matrix(m), name="J"),
        omega_R=constant_two_form_field(standard_omega_matrix(n), name="omega_R"),
        H_R=ScalarField(lambda p: H_c(to_complex(p)).real, grad=grad_r, name="H_R"),
        lambda_R=CovectorField(lambda p: standard_lambda_coeffs(n, p), name="lambda_R"),
        X_hook=X,
        H_I_hook=lambda p: H_c(to_complex(p)).imag,
        **model_kwargs,
    )


def build_standard_hhs(n, H):
    """Standard holomorphic system on C^{2n}: J = i, Omega = sum dP_j ^ dQ_j.

    H may be expression text in Q_j / P_j (automatically holomorphic) or a
    callable C^{2n} -> C, which is validated numerically through its
    Cauchy-Riemann defect (at most ``fields.HOLO_TOL``).
    """
    return _holomorphic_model(n, *_as_complex_hamiltonian(H, n), name=f"standard_hhs_{n}")


# ---------------------------------------------------------------------------
# Central-force system on the punctured complex line
# ---------------------------------------------------------------------------


def central_hamiltonian(z):
    Q, P = np.asarray(z).T
    return P * P / 2.0 - 1.0 / (8.0 * Q * Q)


# below this floor on |Q| the momentum derivative exceeds the flow blow-up guard
Q_FLOOR = 1.4e-3


def _q_floor(z):
    """Raise where |Q| < ``Q_FLOOR`` (numpy's |Q|) at a complex point, a lane's tuple or a stack's rows: the one check."""
    z = np.asarray(z)
    too_close = np.abs(z[..., 0]) < Q_FLOOR
    if too_close.any():
        raise NonFiniteStateError(
            f"central problem evaluated too close to the Q = 0 locus at {first_row(from_complex(z), too_close)}",
            row=int(np.argmax(too_close)) if too_close.ndim else None,
        )


def _q_floor_checked(w):
    """The central X ``w`` behind :func:`_q_floor`, on arrays and on the lane.

    The lane is w's behind a line that calls the check where both parts of
    Q are below the floor, as they are wherever |Q| is; it reads the parts,
    since Python's |Q| overflows past the float range, where numpy's reads
    inf.
    """
    body, values = w.lane
    test = f"if {-Q_FLOOR!r} < _p0.real < {Q_FLOOR!r} and {-Q_FLOOR!r} < _p0.imag < {Q_FLOOR!r}:\n    _q_floor((_p0, _p1))"
    lane = Lane(body.constants, (test, *body.lines), body.results, (*body.args, "_q_floor")), (*values, _q_floor)

    def checked(z):
        _q_floor(z)
        return w(z)

    checked.lane = lane
    return checked


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


def build_central_problem():
    """Hamiltonian P^2/2 - 1/(8 Q^2) on the patch Q != 0 of C* x C, based at (Q, P) = (1, 1/2)."""
    X = compile_vector(("P1", "-1/(4*Q1^3)"), coordinate_names(2, "complex"))
    return _holomorphic_model(
        1,
        central_hamiltonian,
        lambda z: complex_gradient(central_hamiltonian, z),
        _q_floor_checked(X),
        base_point=(1.0, 0.5, 0.0, 0.0),
        closed_form=central_closed_form,
        name="central_problem",
    )


# ---------------------------------------------------------------------------
# Natural Hamiltonians on complex tori
# ---------------------------------------------------------------------------

Q_TOL = 1e-8  # the largest |dH/dQ| a torus Hamiltonian may show at the samples
SEARCH_RADIUS = 3  # classify_torus_orbit searches the lattice coefficients |k_j| <= SEARCH_RADIUS
PERIOD_TOL = 1e-9  # and takes a z solving z * P0 = sum k_j e_j to this relative residual


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
        # np.round rounds a half to even, which leaves +1/2 where it rounded down
        c[c >= 0.5] -= 1.0
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


def build_torus_model(lattice, H=None):
    """Cotangent model over a complex torus; H may depend on momenta only (|dH/dQ| at most ``Q_TOL``).

    H is validated as for :func:`build_standard_hhs`.  The default
    Hamiltonian is sum_j P_j^2 / 2, whose trajectories are the straight
    windings gamma(z) = ([Q0 + z P0], P0).
    """
    n = lattice.n
    m = 2 * n
    if H is None:
        H = " + ".join(f"P{j}^2/2" for j in range(1, n + 1))
    H_c, dH_c, w = _as_complex_hamiltonian(H, n)
    q_dep = max_abs(dH_c(_holomorphy_samples(m, seed=5))[..., :n])
    if q_dep > Q_TOL:
        raise QDependenceError(
            f"Hamiltonian varies with the position coordinates (|dH/dQ| = {q_dep:.3e}); "
            "only momentum-dependent Hamiltonians live on the torus"
        )

    def closed_form(x0):
        z0 = to_complex(as_point(x0))
        vel = dH_c(z0)[n:m]

        def gamma(z, path=None):
            z = complex(z)
            out = np.array(z0)
            out[:n] = z0[:n] + z * vel
            return out

        return gamma

    return _holomorphic_model(n, H_c, dH_c, w, closed_form=closed_form, name="torus")


def classify_torus_orbit(P0, lattice):
    """Classify the winding of the straight trajectory with momentum P0.

    Enumerates integer combinations k with |k_j| <= ``SEARCH_RADIUS``, solves
    z * P0 = sum k_j e_j for a complex period z where consistent, and
    classifies by the real rank of the period set: two independent periods
    give a torus, one a cylinder, none an aperiodic winding.  A bounded search
    cannot certify the absence of periods, hence the caveat flag whenever the
    rank comes out below two.
    """
    v = np.asarray(P0, dtype=complex)
    if np.max(np.abs(v)) == 0.0:
        return OrbitClass(kind="constant", periods=[], caveat=False)
    n = lattice.n
    A = np.zeros((2 * n, 2))
    A[:n, 0] = v.real
    A[n:, 0] = -v.imag
    A[:n, 1] = v.imag
    A[n:, 1] = v.real
    periods = []
    ranges = [range(-SEARCH_RADIUS, SEARCH_RADIUS + 1)] * (2 * n)
    mesh = np.meshgrid(*ranges, indexing="ij")
    ks = np.stack([g.ravel() for g in mesh], axis=-1)
    for k in ks:
        if not np.any(k):
            continue
        lam = lattice.point(k)
        rhs = np.concatenate([lam.real, lam.imag])
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        if np.linalg.norm(A @ sol - rhs) <= PERIOD_TOL * max(1.0, np.linalg.norm(rhs)):
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
    rounding of one product: the four products of :func:`_twist_entries`,
    in the matmul's order, give its bits.  The one case that differs is a
    non-finite matrix: where 1/f or 1/h overflows, the matmul spreads NaN
    (0 * inf) along a row and a column, where this form leaves those zeros.
    The twisted J_g X is these products times X's components, no matrix,
    and 0.0 in a row whose X component is a folded zero
    (:func:`build_proper_phhs`): where one is inf or NaN, ``matvec`` of this
    matrix spreads NaN to the other components, and J_g X does not.
    """
    J = np.zeros(np.shape(f_val) + (4, 4))
    J[..., 0, 2], J[..., 1, 3], J[..., 2, 0], J[..., 3, 1] = _twist_entries(f_val, h_val)
    return J


def _twist_entries(f_val, h_val):
    """The nonzero entries [0, 2], [1, 3], [2, 0] and [3, 1] of I_g J I_g, of numbers, arrays or expressions."""
    inv_f, inv_h = 1.0 / f_val, 1.0 / h_val
    return (
        inv_f * -h_val,  # J_g(d_y1) = -(h/f) d_x1
        -f_val * inv_h,  # J_g(d_y2) = -(f/h) d_x2
        inv_h * f_val,  # J_g(d_x1) = (f/h) d_y1
        -h_val * -inv_f,  # J_g(d_x2) = (h/f) d_y2
    )


def _real_text(v, own):
    """A number or text as an Expression, if it reads the names ``own`` alone (x_j, y_j: its values are real); else None."""
    v = str(float(v)) if isinstance(v, (int, float)) else v
    expr = parse_expression(v) if isinstance(v, str) else None
    return expr if expr is not None and expr.variables() <= own.keys() else None


def build_proper_phhs(f=1.0, h=1.0, H_R="-y1"):
    """Twisted structure J_g = I_g o J o I_g on C^2 over the standard form.

    ``f`` and ``h`` are nowhere-zero conformal factors (numbers, expression
    text in x1, x2, y1, y2, or callables).  The flagship choice f = 1,
    h = exp(x1) has r = f/h depending on x1 only, which is exactly when
    Omega_R(J_g X, .) is exact and the twisted system is Hamiltonian.

    J_g is built entry by entry by :func:`twist_matrix`, bit for bit the
    matmul I_g J I_g wherever J_g is finite.
    ``extras["I_g"]`` is I_g itself, from :func:`i_g_matrix`.

    For text H_R with symbolic partials, X = W^-1 grad H_R is compiled from
    the partial trees (one ±1 of W^-1 per component); for text f and h too,
    J_g X from the products of :func:`_twist_entries` on the f and h trees,
    each times its component of X, or 0.0 where that component folded to a
    number zero.  Each is one real-layout source
    (:func:`~phhs.expressions.compile_vector`, compiled at the build) for
    arrays and the lane, its components summed onto +0.0 as
    numpy's matrix product sums a row with one nonzero term: the bits of
    ``matvec(W^-1, grad H_R)`` and ``matvec(J_g, X)`` wherever these are
    finite.  Where an entry is inf or NaN, the matrix product makes NaN
    (0 * inf, 0 * NaN) in the other components too; the compiled ones keep
    their own values, and a 0.0 row stays 0.0 (for h = exp(x1) past
    x1 = 709.78 too).  A callable f, h or H_R, or text reading a z_j alias
    (so possibly complex), keeps both matrix products, on arrays alone.
    """
    own = coordinate_names(2, aliases=False)
    f_e, h_e, H_e = (_real_text(v, own) for v in (f, h, H_R))
    f_fn, _ = _as_real_scalar(f_e or f, 2, "f")
    h_fn, _ = _as_real_scalar(h_e or h, 2, "h")
    H_fn, H_grad = _as_real_scalar(H_e or H_R, 2, "H_R")

    samples = seeded_points(13, 12, 4, scale=0.6)
    for fn, label in ((f_fn, "f"), (h_fn, "h")):
        vals = fn(samples)
        # a sign change across samples already proves a zero in between
        if np.min(np.abs(vals)) < 1e-10 or np.min(vals) * np.max(vals) < 0:
            raise ZeroDenominatorError(f"{label} must be nowhere zero on the working domain")

    W = standard_omega_matrix(1)
    W_inv = np.linalg.inv(W)
    H_field = ScalarField(H_fn, grad=H_grad, name="H_R")
    X = JX = None
    if H_e is not None and H_grad is not None:
        grads = [H_e.diff(name) for name in own]
        X_e = [grads[k] * float(W_inv[j, k]) + 0.0 for j, k in zip(*np.nonzero(W_inv))]
        X_fn = compile_vector(X_e, own, float)
        X = VectorField(X_fn, name="X", lane=X_fn.lane)
        if f_e is not None and h_e is not None:
            # row i of J_g has its one entry in column k; a row whose X factor is a number zero is 0.0
            rows, zero = zip(_twist_entries(f_e, h_e), (2, 3, 0, 1)), Expression(("num", 0.0), "0.0")
            JX_e = [zero if X_e[k].ast == zero.ast else e * X_e[k] + 0.0 for e, k in rows]
            JX_fn = compile_vector(JX_e, own, float)
            JX = VectorField(JX_fn, name="JX", lane=JX_fn.lane)

    model = PhhsModel(
        m=2,
        J=MatrixField(lambda p: twist_matrix(f_fn(p), h_fn(p)), name="J_g"),
        omega_R=constant_two_form_field(W, name="omega_R"),
        H_R=H_field,
        lambda_R=CovectorField(lambda p: standard_lambda_coeffs(1, p), name="lambda_R"),
        name="proper_phhs",
        X_hook=X or VectorField(lambda p: matvec(W_inv, H_field.gradient(p)), name="X"),
        JX_hook=JX,
    )
    model.extras["f"] = f_fn
    model.extras["I_g"] = MatrixField(lambda p: i_g_matrix(f_fn(p), h_fn(p)), name="I_g")
    return model


def hyperkahler_check(f=1.0, h=1.0):
    """Anticommutation data of I_g with the standard structure on C^2, at ten seeded points.

    For f = h the two anticommute and the twist I_g o J o I_g reproduces J
    exactly (the Euclidean case f = h = 1 is the quaternionic triple); for
    f != h the anticommutator picks up (f - h)-sized entries.
    """
    f_fn, _ = _as_real_scalar(f, 2, "f")
    h_fn, _ = _as_real_scalar(h, 2, "h")
    J = standard_j_matrix(2)
    samples = seeded_points(17, 10, 4, scale=0.7)
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


def build_rotation_family(phi):
    """Axis-rotated structure J_phi on C^2; proper whenever phi is non-constant."""
    phi_fn, _ = _as_real_scalar(phi, 2, "phi")

    def j_phi(p):
        phi_p = phi_fn(p)
        c, s = np.cos(phi_p), np.sin(phi_p)
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
        name="rotation",
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


def build_deformation(epsilon, n=1, hamiltonian="const", bump_center=None, bump_radius=0.8):
    """One member of the rescaling deformation J^eps of the standard structure.

    f is the :func:`radial_bump` at ``bump_center`` (the origin by default)
    of radius ``bump_radius``, and r^eps = 1 + eps^2 f rescales the
    (z_1, z_{n+1}) block of J; Omega_R stays the standard form and the
    Hamiltonian is either constant (any n) or the last complex coordinate
    z_{2n} (n > 1 only, since the deformation must not touch the coordinates
    the Hamiltonian depends on).  The exterior
    derivative of the induced form has the closed-form

        d Omega_I^eps = eps^2 df ^ (dy_{n+1} ^ dx_1 - r^{-2} dx_{n+1} ^ dy_1)

    exposed as ``extras['d_omega_I_formula']`` for cross-checking.
    """
    m = 2 * n
    dim = 2 * m
    f_fn = radial_bump(bump_center if bump_center is not None else np.zeros(dim), bump_radius)
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
