"""Small shared helpers: coordinate conventions, sample grids, norms.

Coordinate convention, fixed globally: a point of a patch with m complex
dimensions is a real vector of length 2m ordered as

    (x_1, ..., x_m, y_1, ..., y_m),   z_j = x_j + i y_j.

Several points travel together as an ``(N, 2m)`` stack, one point per row;
:func:`to_complex` and :func:`from_complex` act on the last axis, so they
take either form.

Naming convention, fixed with it: :func:`coordinate_names` is the one table
of the identifiers that expression text may use for those coordinates.
"""

import numpy as np


def as_point(p):
    q = np.asarray(p, dtype=float)
    if q.ndim != 1:
        raise ValueError(f"a point must be a 1-d coordinate vector, got shape {q.shape}")
    return q


def as_points(p):
    """A point ``(dim,)`` or a stack ``(N, dim)`` of points, one per row, as a float array."""
    q = np.asarray(p, dtype=float)
    if q.ndim not in (1, 2):
        raise ValueError(f"expected a point (dim,) or a stack of points (N, dim), got shape {q.shape}")
    return q


def to_complex(p):
    """Real (x_1..x_m, y_1..y_m) vector -> complex (z_1..z_m) vector."""
    p = np.asarray(p, dtype=float)
    m = p.shape[-1] // 2
    return p[..., :m] + 1j * p[..., m:]


def coordinate_names(m, layout="real", aliases=True):
    """Identifier -> coordinate of one vector, the binding of ``Expression.compile``.

    A coordinate is an index, or the index pair (x_j, y_j) of z_j over a real
    point.  ``aliases=False`` keeps only the layout's own names:

        "real"     real point of C^m: x_j, y_j; aliases z_j, and for m = 2n
                   Q_j = z_j, P_j = z_{n+j}
        "complex"  complex vector (z_1..z_m): z_j; aliases Q_j, P_j
        "base"     plain real vector of R^m: x_k
    """
    if layout == "base":
        return {f"x{k + 1}": k for k in range(m)}
    if layout == "real":
        z = [(j, m + j) for j in range(m)]
        own = {f"x{j + 1}": j for j in range(m)} | {f"y{j + 1}": m + j for j in range(m)}
        alias = {f"z{j + 1}": z[j] for j in range(m)}
    else:
        z = list(range(m))
        own = {f"z{j + 1}": z[j] for j in range(m)}
        alias = {}
    n = m // 2
    if 2 * n == m:
        alias |= {f"Q{j + 1}": z[j] for j in range(n)} | {f"P{j + 1}": z[n + j] for j in range(n)}
    return own | alias if aliases else own


def from_complex(z):
    """Complex (z_1..z_m) vector -> real (x_1..x_m, y_1..y_m) vector."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def max_abs(a):
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def row_max_abs(a):
    """max |a| of each row of a stack ``(N, ...)``, as an ``(N,)`` array."""
    return np.abs(a).reshape(len(a), -1).max(axis=1)


def first_row(p, bad):
    """Where a per-row mask ``bad`` first holds: the point ``p`` itself, or on a stack its row and point."""
    p = np.asarray(p)
    if p.ndim == 1:
        return f"{p}"
    k = int(np.argmax(bad))
    return f"row {k} (point {p[k]})"


def invertible_rows(M):
    """Whether a square matrix, or each of a stack ``(N, d, d)``, has a finite inverse under ``np.linalg.inv``.

    LAPACK's LU calls a matrix singular exactly when a pivot is zero, which
    is when the determinant, the product of the pivots, is zero.
    """
    ok = np.asarray(np.linalg.det(M) != 0.0)
    ok[ok] = np.isfinite(np.linalg.inv(M[ok])).all(axis=(-2, -1))
    return ok


def standard_j_matrix(m):
    """Multiplication by i on R^{2m} in the (x, y) block ordering."""
    J = np.zeros((2 * m, 2 * m))
    J[m:, :m] = np.eye(m)
    J[:m, m:] = -np.eye(m)
    return J


def standard_omega_matrix(n):
    """Real part of sum_j dP_j ^ dQ_j on C^{2n} (m = 2n complex dimensions).

    Entry [a, b] is the form applied to the coordinate basis pair (e_a, e_b).
    """
    m = 2 * n
    W = np.zeros((2 * m, 2 * m))
    for j in range(n):
        W[n + j, j] = 1.0
        W[j, n + j] = -1.0
        W[m + n + j, m + j] = -1.0
        W[m + j, m + n + j] = 1.0
    return W


def standard_lambda_coeffs(n, p):
    """Coefficients of Re(sum_j P_j dQ_j) at p, same ordering as the point (row by row on a stack)."""
    m = 2 * n
    lam = np.zeros(np.shape(p))
    lam[..., :n] = p[..., n:m]            # x_{n+j} dx_j
    lam[..., m:m + n] = -p[..., m + n:]   # -y_{n+j} dy_j
    return lam


def grid_points(center, half_width, per_axis):
    """Cartesian sample grid: per_axis points per axis over a centered box."""
    center = np.asarray(center, dtype=float)
    axes = [np.linspace(c - half_width, c + half_width, per_axis) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def seeded_points(seed, count, dim, scale=0.5, center=None):
    """Deterministic pseudo-random sample points in a box around center."""
    rng = np.random.default_rng(seed)
    pts = scale * (2.0 * rng.random((count, dim)) - 1.0)
    if center is not None:
        pts = pts + np.asarray(center, dtype=float)
    return pts

