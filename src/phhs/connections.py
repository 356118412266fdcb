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

Christoffel symbols and curvature take a base point or a stack of them;
J* and the holomorphic metric parts are built per point and lifted by rowwise.
"""

import numpy as np

from .errors import SingularMetricError
from .fields import Field, FdConfig, MatrixField, constant, holomorphy_residual, jet, rowwise
from .tensors import nijenhuis
from .util import as_point, max_abs, row_max_abs, to_complex


class MetricField(Field):
    """Symmetric invertible matrix field on the base manifold."""

    def __init__(self, fn, fd=None, name=None):
        super().__init__(fn, fd if fd is not None else FdConfig(step=1e-4), name)

    def inverse(self, x):
        g = np.asarray(self(x), dtype=float)
        try:
            ginv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise SingularMetricError(f"metric singular at {x}: {exc}") from exc
        if not np.all(np.isfinite(ginv)):
            raise SingularMetricError(f"metric inverse non-finite at {x}")
        return ginv

    def signature(self, x):
        w = np.linalg.eigvalsh(np.asarray(self(x), dtype=float))
        return int(np.sum(w > 0)), int(np.sum(w < 0))


def euclidean_metric(n):
    return MetricField(constant(np.eye(n)), name="euclidean")


def diagonal_metric(entries):
    """Metric diag(f_1(x), ..., f_n(x)) from per-axis constants, fields or (lifted) callables of one point."""
    fns = [
        e if isinstance(e, Field) else rowwise(e) if callable(e) else (lambda x, _c=float(e): _c)
        for e in entries
    ]

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
    """J_nabla at the tangent point (base, fiber) in (x, v) block coordinates.

    With A[j, k] = Gamma^j_{kl} v_l the horizontal lifts are
    H_k = d_x_k - A[., k] . d_v and the structure exchanges them with the
    verticals: J(V_k) = H_k, J(H_k) = -V_k, giving the block matrix
    [[A, I], [-I - A^2, -A]].
    """
    base = as_point(base)
    fiber = np.asarray(fiber, dtype=float)
    n = base.size
    G = christoffel(g, base)
    A = np.einsum("jkl,l->jk", G, fiber)
    J = np.zeros((2 * n, 2 * n))
    J[:n, :n] = A
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n) - A @ A
    J[n:, n:] = -A
    return J


def _dG_blocks(g, base, fiber):
    """Differential of G(x, v) = (x, g(x) v): [[I, 0], [B, g]] with B = (dg . v)."""
    n = base.size
    dg = jet(g, base)  # dg[k, j, l]
    B = np.einsum("kjl,l->jk", dg, fiber)
    gm = np.asarray(g(base), dtype=float)
    top = np.hstack([np.eye(n), np.zeros((n, n))])
    bottom = np.hstack([B, gm])
    return np.vstack([top, bottom])


def j_cotangent(g, base, momentum):
    """J* = dG o J_nabla o dG^{-1} at the cotangent point (base, momentum)."""
    base = as_point(base)
    momentum = np.asarray(momentum, dtype=float)
    fiber = g.inverse(base) @ momentum
    dG = _dG_blocks(g, base, fiber)
    try:
        dG_inv = np.linalg.inv(dG)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(f"musical isomorphism singular at {base}: {exc}") from exc
    return dG @ j_tangent(g, base, fiber) @ dG_inv


def j_cotangent_field(g, fd=None):
    """J* as a matrix field over R^{2n} points (q_1..q_n, p_1..p_n)."""

    def fn(qp):
        n = qp.size // 2
        return j_cotangent(g, qp[:n], qp[n:])

    return MatrixField(rowwise(fn), fd=fd if fd is not None else FdConfig(step=1e-3), name="J_star")


def canonical_omega_matrix(n):
    """omega_can = sum dp_k ^ dq_k in (q, p) ordering."""
    W = np.zeros((2 * n, 2 * n))
    W[:n, n:] = -np.eye(n)
    W[n:, :n] = np.eye(n)
    return W


def canonical_pairing(g, qp):
    """Matrix of omega_can(., J* .) at a cotangent point; symmetric metric."""
    qp = as_point(qp)
    n = qp.size // 2
    return canonical_omega_matrix(n) @ j_cotangent(g, qp[:n], qp[n:])


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


def holo_metric_parts(h_entries, fd=None):
    """Real metrics h_R, h_I of h = sum h_ij dz_i x dz_j on R^{2n} (x, y blocks).

    With h_ij = a_ij + i b_ij the real blocks are
    h_R = [[a, -b], [-b, -a]] and h_I = [[b, a], [a, -b]].
    """
    n = len(h_entries)

    def entry(i, j):
        e = h_entries[i][j]
        return rowwise(e if callable(e) else (lambda z, _c=complex(e): _c))

    fns = [[entry(i, j) for j in range(n)] for i in range(n)]

    def complex_matrix(p):
        z = to_complex(p)
        return np.array([[fns[i][j](z) for j in range(n)] for i in range(n)], dtype=complex)

    def h_r(p):
        H = complex_matrix(p)
        a, b = H.real, H.imag
        return np.block([[a, -b], [-b, -a]])

    def h_i(p):
        H = complex_matrix(p)
        a, b = H.real, H.imag
        return np.block([[b, a], [a, -b]])

    fd = fd if fd is not None else FdConfig(step=1e-4)
    return MetricField(rowwise(h_r), fd=fd, name="h_R"), MetricField(rowwise(h_i), fd=fd, name="h_I"), fns


def holo_metric_lc_check(h_entries, grid, fd=None, holo_tol=1e-6):
    """Max Christoffel difference of the two real parts of a holomorphic metric.

    Validates the holomorphy of every entry first, then reports
    max |Gamma(h_R) - Gamma(h_I)| over the grid points where both parts are
    invertible (h_I has split signature but is non-degenerate wherever h is).
    """
    h_r, h_i, fns = holo_metric_parts(h_entries, fd=fd)
    pts = np.asarray(grid, dtype=float)
    n = pts.shape[1] // 2
    z_samples = to_complex(pts[:6])
    res = max(holomorphy_residual(fns[i][j], z_samples) for i in range(n) for j in range(n))
    if res > holo_tol:
        raise SingularMetricError(
            f"metric entries fail the Cauchy-Riemann validation (residual {res:.3e})"
        )
    worst = 0.0
    used = 0
    for p in pts:
        try:
            diff = max_abs(christoffel(h_r, p) - christoffel(h_i, p))
        except SingularMetricError:
            continue
        worst = max(worst, diff)
        used += 1
    if used == 0:
        raise SingularMetricError("no grid point had both metric parts invertible")
    return {"max_christoffel_diff": worst, "points_used": used, "holomorphy_residual": res}
