"""Metric-induced almost complex structures on tangent and cotangent bundles.

From a semi-Riemannian metric g on an n-dimensional base the Levi-Civita
Christoffel symbols produce the horizontal/vertical splitting of T(TM), and
with it the almost complex structure J_nabla exchanging horizontal lifts and
verticals.  Transporting J_nabla through the musical isomorphism G(v) = g(v, .)
gives J* on the cotangent side, compatible with the canonical symplectic form
(their pairing is a semi-Riemannian metric of doubled signature).

J_nabla is evaluated in arbitrary coordinates through the Christoffel
splitting; the familiar constant block form is the special case of vanishing
Christoffels.  Integrability of J* is equivalent to flatness of g, which the
curvature-versus-Nijenhuis report exposes numerically.

Everything here takes a point or a stack of points on a leading axis:
Christoffel symbols and curvature of base points, J_nabla, J* and the
canonical pairing of tangent and cotangent points, and the two real parts of
a holomorphic metric.  Metric entries given as expression text are compiled
to stack functions; only a bare callable of one point is lifted by
:func:`~phhs.fields.rowwise`.
"""

import numpy as np

from .errors import SingularMetricError
from .fields import HOLO_TOL, Field, FdConfig, MatrixField, constant, holomorphy_residual, jet, matvec, stack_function
from .tensors import nijenhuis
from .util import as_points, coordinate_names, first_row, invertible_rows, max_abs, row_max_abs, to_complex


class MetricField(Field):
    """Symmetric invertible matrix field on the base manifold, differenced at step 1e-4."""

    def __init__(self, fn, name=None):
        super().__init__(fn, FdConfig(step=1e-4), name)

    def inverse(self, x):
        """g^{-1} at a point or at each row of a stack; a singular row is named with its point."""
        g = np.asarray(self(x), dtype=float)
        try:
            ginv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise SingularMetricError(f"metric singular at {first_row(x, ~invertible_rows(g))}: {exc}") from exc
        finite = np.isfinite(ginv).all(axis=(-2, -1))
        if not finite.all():
            raise SingularMetricError(f"metric inverse non-finite at {first_row(x, ~finite)}")
        return ginv

    def signature(self, x):
        w = np.linalg.eigvalsh(np.asarray(self(x), dtype=float))
        return int(np.sum(w > 0)), int(np.sum(w < 0))


def euclidean_metric(n):
    return MetricField(constant(np.eye(n)), name="euclidean")


def diagonal_metric(entries):
    """Metric diag(f_1(x), ..., f_n(x)) from per-axis constants, text in x1..xn, fields or callables of one point."""
    names = coordinate_names(len(entries), "base")
    fns = [stack_function(e, names, float) for e in entries]

    def fn(x):
        g = np.zeros(x.shape[:-1] + (len(fns), len(fns)))
        for k, f in enumerate(fns):
            g[..., k, k] = f(x)
        return g

    return MetricField(fn, name="diagonal")


def christoffel(g, x):
    """Gamma^i_{kl} = 1/2 g^{im} (d_k g_{ml} + d_l g_{mk} - d_m g_{kl})."""
    ginv = g.inverse(x)
    dg = jet(g, x)  # dg[..., k, m, l]
    term = np.einsum("...kml->...mkl", dg) + np.einsum("...lmk->...mkl", dg) - dg
    return 0.5 * np.einsum("...im,...mkl->...ikl", ginv, term)


def riemann_curvature(g, x):
    """R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma Gamma terms."""
    gamma_field = Field(lambda p: christoffel(g, p), fd=g.fd)
    dGamma = jet(gamma_field, x)  # [..., k, i, a, b]
    G = christoffel(g, x)
    R = (
        np.einsum("...kilj->...ijkl", dGamma)
        - np.einsum("...likj->...ijkl", dGamma)
        + np.einsum("...ikm,...mlj->...ijkl", G, G)
        - np.einsum("...ilm,...mkj->...ijkl", G, G)
    )
    return R


def j_tangent(g, base, fiber):
    """J_nabla at the tangent point (base, fiber), or at each row of stacks, in (x, v) block coordinates.

    With A[j, k] = Gamma^j_{kl} v_l the horizontal lifts are
    H_k = d_x_k - A[., k] . d_v and the structure exchanges them with the
    verticals: J(V_k) = H_k, J(H_k) = -V_k, giving the block matrix
    [[A, I], [-I - A^2, -A]].
    """
    base = as_points(base)
    fiber = np.asarray(fiber, dtype=float)
    n = base.shape[-1]
    A = np.einsum("...jkl,...l->...jk", christoffel(g, base), fiber)
    J = np.zeros(A.shape[:-2] + (2 * n, 2 * n))
    J[..., :n, :n] = A
    J[..., :n, n:] = np.eye(n)
    J[..., n:, :n] = -np.eye(n) - A @ A
    J[..., n:, n:] = -A
    return J


def _dG_blocks(g, base, fiber):
    """Differential of G(x, v) = (x, g(x) v): [[I, 0], [B, g]] with B = (dg . v)."""
    n = base.shape[-1]
    D = np.zeros(base.shape[:-1] + (2 * n, 2 * n))
    D[..., :n, :n] = np.eye(n)
    D[..., n:, :n] = np.einsum("...kjl,...l->...jk", jet(g, base), fiber)  # jet[..., k, j, l] = d_k g_jl
    D[..., n:, n:] = g(base)
    return D


def j_cotangent(g, base, momentum):
    """J* = dG o J_nabla o dG^{-1} at the cotangent point (base, momentum), or at each row of stacks."""
    base = as_points(base)
    momentum = np.asarray(momentum, dtype=float)
    fiber = matvec(g.inverse(base), momentum)
    dG = _dG_blocks(g, base, fiber)
    try:
        dG_inv = np.linalg.inv(dG)
    except np.linalg.LinAlgError as exc:
        bad = first_row(base, ~invertible_rows(dG))
        raise SingularMetricError(f"musical isomorphism singular at {bad}: {exc}") from exc
    return dG @ j_tangent(g, base, fiber) @ dG_inv


def j_cotangent_field(g):
    """J* as a matrix field over R^{2n} points (q_1..q_n, p_1..p_n)."""

    def fn(qp):
        n = qp.shape[-1] // 2
        return j_cotangent(g, qp[..., :n], qp[..., n:])

    return MatrixField(fn, fd=FdConfig(step=1e-3), name="J_star")


def canonical_omega_matrix(n):
    """omega_can = sum dp_k ^ dq_k in (q, p) ordering."""
    W = np.zeros((2 * n, 2 * n))
    W[:n, n:] = -np.eye(n)
    W[n:, :n] = np.eye(n)
    return W


def canonical_pairing(g, qp):
    """Matrix of omega_can(., J* .) at a cotangent point or each row of a stack; symmetric metric."""
    qp = as_points(qp)
    n = qp.shape[-1] // 2
    return canonical_omega_matrix(n) @ j_cotangent(g, qp[..., :n], qp[..., n:])


def pairing_signature(g, qp):
    S = canonical_pairing(g, qp)
    sym_res = max_abs(S - S.T)
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    return (int(np.sum(w > 0)), int(np.sum(w < 0))), sym_res


def flatness_vs_integrability(g, points):
    """Per-point (|R|, |N_{J*}|) over cotangent points; flat iff integrable."""
    pts = np.asarray(points, dtype=float)
    r_norms = row_max_abs(riemann_curvature(g, pts[:, : pts.shape[1] // 2]))
    n_norms = row_max_abs(nijenhuis(j_cotangent_field(g), pts))
    return {
        "curvature_norms": r_norms,
        "nijenhuis_norms": n_norms,
        "max_curvature": float(np.max(r_norms)),
        "max_nijenhuis": float(np.max(n_norms)),
    }


# ---------------------------------------------------------------------------
# holomorphic metrics: real/imaginary parts share one Levi-Civita connection
# ---------------------------------------------------------------------------


def holo_metric_parts(h_entries):
    """Real metrics h_R, h_I of h = sum h_ij dz_i x dz_j on R^{2n} (x, y blocks).

    With h_ij = a_ij + i b_ij the real blocks are
    h_R = [[a, -b], [-b, -a]] and h_I = [[b, a], [a, -b]].  An entry is a
    constant, text in z1..zn or a holomorphic callable of one complex point,
    but not a Field, which casts its points to float; the third value
    returned holds the entries as stack functions.
    """
    n = len(h_entries)
    names = coordinate_names(n, "complex", aliases=False)
    if any(isinstance(e, Field) for row in h_entries for e in row):
        raise TypeError("a holomorphic metric entry is a Field, which casts its complex points to float "
                        "and drops Im z; pass text in z1..zn or a callable of complex points instead")
    fns = [[stack_function(e, names, complex) for e in row] for row in h_entries]

    def blocks(p):
        z = to_complex(p)
        H = np.empty(z.shape[:-1] + (n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                H[..., i, j] = fns[i][j](z)
        return H.real, H.imag

    def h_r(p):
        a, b = blocks(p)
        return np.block([[a, -b], [-b, -a]])

    def h_i(p):
        a, b = blocks(p)
        return np.block([[b, a], [a, -b]])

    return MetricField(h_r, name="h_R"), MetricField(h_i, name="h_I"), fns


def holo_metric_lc_check(h_entries, grid):
    """Max Christoffel difference of the two real parts of a holomorphic metric.

    Validates the holomorphy of every entry first (to ``fields.HOLO_TOL``),
    then reports max |Gamma(h_R) - Gamma(h_I)| over the grid points where
    both parts are invertible (h_I has split signature but is non-degenerate
    wherever h is).
    """
    h_r, h_i, fns = holo_metric_parts(h_entries)
    pts = np.asarray(grid, dtype=float)
    n = pts.shape[1] // 2
    z_samples = to_complex(pts[:6])
    res = max(holomorphy_residual(fns[i][j], z_samples) for i in range(n) for j in range(n))
    if res > HOLO_TOL:
        raise SingularMetricError(
            f"metric entries fail the Cauchy-Riemann validation (residual {res:.3e})"
        )
    used = pts[invertible_rows(h_r(pts)) & invertible_rows(h_i(pts))]
    if len(used) == 0:
        raise SingularMetricError("no grid point had both metric parts invertible")
    diff = max_abs(christoffel(h_r, used) - christoffel(h_i, used))
    return {"max_christoffel_diff": diff, "points_used": len(used), "holomorphy_residual": res}
