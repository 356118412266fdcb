"""Tensor calculus at a point or at each row of a stack: exterior derivative, brackets, Nijenhuis tensor.

Index conventions (everything 0-based, points of dimension n = 2m).  Every
tensor takes a point ``(n,)`` or a stack ``(N, n)`` and carries the stack
on a leading ``...`` axis, so the indices below are the trailing ones:

* matrices act on column vectors, ``M[..., a, b]`` is component a of the
  image of basis vector b;
* a 2-form is the antisymmetric matrix ``W[..., a, b] = w(e_a, e_b)``, so
  the 1-form ``w(V, .)`` has coefficient vector ``W.T @ V``;
* a 3-form is the fully antisymmetric array ``T[..., a, b, c] = t(e_a, e_b, e_c)``;
* a jet puts the derivative index first: ``jet(F, p)[..., a, :] = d_a F``.
"""

import numpy as np

from .fields import jet
from .util import max_abs

RANK_REL_THRESHOLD, RANK_ABS_FLOOR = 1e-7, 1e-8  # nijenhuis_rank's cut-offs on singular values


def exterior_derivative_2form(omega, p):
    """Full antisymmetric array of d(omega) at p.

    (dw)_{abc} = d_a w_{bc} - d_b w_{ac} + d_c w_{ab}, with every partial
    taken by the field's finite-difference stencil.
    """
    D = jet(omega, p)  # D[..., a, b, c] = d_a w_{bc}
    return D - D.swapaxes(-3, -2) + np.moveaxis(D, -3, -1)


def two_form_components(T):
    """Independent components {(a, b, c): value} (a < b < c) of a 3-form array."""
    n = T.shape[0]
    return {
        (a, b, c): float(T[a, b, c])
        for a in range(n)
        for b in range(a + 1, n)
        for c in range(b + 1, n)
    }


def lie_bracket(V, W, p):
    """[V, W]^a = V^b d_b W^a - W^b d_b V^a at p."""
    v = np.asarray(V(p), dtype=float)
    w = np.asarray(W(p), dtype=float)
    dW = jet(W, p)  # dW[..., b, a] = d_b W^a
    dV = jet(V, p)
    return np.vecmat(v, dW) - np.vecmat(w, dV)


def lie_derivative_matrix(V, J, p):
    """(L_V J)^a_b = V^c d_c J^a_b - J^c_b d_c V^a + J^a_c d_b V^c at p."""
    v = np.asarray(V(p), dtype=float)
    Jm = np.asarray(J(p), dtype=float)
    dJ = jet(J, p)  # dJ[..., c, a, b]
    dV = jet(V, p)  # dV[..., c, a] = d_c V^a
    t1 = np.einsum("...c,...cab->...ab", v, dJ)
    t2 = np.einsum("...cb,...ca->...ab", Jm, dV)
    t3 = np.einsum("...ac,...bc->...ab", Jm, dV)
    return t1 - t2 + t3


def nijenhuis(J, p):
    """Nijenhuis tensor of an almost complex structure at p.

    Returns the array N with N[..., c, a, b] = N^c_{ab}, i.e. ``N[..., :, a, b]``
    is the output vector on the basis pair (e_a, e_b):

        N^c_{ab} = J^d_a d_d J^c_b - J^d_b d_d J^c_a - J^c_d (d_a J^d_b - d_b J^d_a)
    """
    Jm = np.asarray(J(p), dtype=float)
    dJ = jet(J, p)  # dJ[..., d, c, b]
    t1 = np.einsum("...da,...dcb->...cab", Jm, dJ)
    t2 = t1.swapaxes(-2, -1)
    curl = dJ - dJ.swapaxes(-3, -1)  # curl[..., a, d, b] = d_a J^d_b - d_b J^d_a
    t3 = np.einsum("...cd,...adb->...cab", Jm, curl)
    return t1 - t2 - t3


def nijenhuis_rank(J, p):
    """Rank of span{N(e_a, e_b)} over all basis pairs, by singular values.

    Singular values below ``RANK_REL_THRESHOLD`` of the largest do not count;
    if even the largest sits at or below ``RANK_ABS_FLOOR`` the tensor is
    treated as zero (pure finite-difference noise has no rank).
    """
    N = nijenhuis(J, p)
    n = N.shape[0]
    cols = [N[:, a, b] for a in range(n) for b in range(a + 1, n)]
    M = np.stack(cols, axis=1)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] <= RANK_ABS_FLOOR:
        return 0
    return int(np.sum(s >= RANK_REL_THRESHOLD * s[0]))


def acs_residual(J, p):
    """Max-norm of J(p)^2 + Identity (over every row of a stack)."""
    Jm = np.asarray(J(p), dtype=float)
    return max_abs(Jm @ Jm + np.eye(Jm.shape[-1]))


def anticompat_residual(omega, J, p):
    """Max-norm of J^T W J + W, the defect of w(J., J.) = -w (over every row of a stack)."""
    Jm = np.asarray(J(p), dtype=float)
    W = np.asarray(omega(p), dtype=float)
    return max_abs(Jm.swapaxes(-1, -2) @ W @ Jm + W)


def project_10(J, v, p):
    """(1,0)-projection (v - i J v) / 2; the output satisfies J u = i u."""
    Jm = np.asarray(J(p), dtype=float)
    v = np.asarray(v, dtype=float)
    return 0.5 * (v - 1j * (Jm @ v))


def interior_product_3form(T, v):
    """2-form array of iota_v t for a 3-form array T: (i_v t)_{bc} = v^a T_{abc}."""
    return np.einsum("...a,...abc->...bc", np.asarray(v, dtype=float), T)
