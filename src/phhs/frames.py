"""Symplectic Gram-Schmidt frames for complex antisymmetric forms.

Given a non-degenerate complex antisymmetric bilinear form on an
m-dimensional (1,0) fiber (m even), the inductive pairing construction
produces a frame e^Q_1..e^Q_{m/2}, e^P_1..e^P_{m/2} with

    W(e^P_i, e^Q_j) = delta_ij,   W(e^Q_i, e^Q_j) = W(e^P_i, e^P_j) = 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFormError
from .tensors import project_10
from .util import as_point

PARTNER_THRESHOLD = 1e-8  # the smallest |W(p, w)| that makes w the partner of p


@dataclass
class ComplexFrame:
    """Paired frame vectors and their dual covectors.

    ``e_q`` and ``e_p`` have shape (n_pairs, dim); ``theta_q`` / ``theta_p``
    are the dual rows, so ``theta_q[i] @ e_q[j] = delta_ij`` etc.
    """

    e_q: np.ndarray
    e_p: np.ndarray
    theta_q: np.ndarray
    theta_p: np.ndarray

    @property
    def n_pairs(self):
        return self.e_q.shape[0]

    def matrix(self):
        """Columns e^Q_1..e^Q_n, e^P_1..e^P_n stacked into one matrix."""
        return np.concatenate([self.e_q, self.e_p]).T

    def pairing_matrix(self, omega):
        """Form values on all frame pairs, ordered (Q_1..Q_n, P_1..P_n)."""
        F = self.matrix()
        return F.T @ np.asarray(omega, dtype=complex) @ F

    def pairing_residual(self, omega):
        """Max deviation of the pairing matrix from the standard block form."""
        n = self.n_pairs
        P = self.pairing_matrix(omega)
        target = np.zeros_like(P)
        target[n:, :n] = np.eye(n)
        target[:n, n:] = -np.eye(n)
        return float(np.max(np.abs(P - target)))


def _form(omega, u, v):
    return complex(u @ omega @ v)


def symplectic_gram_schmidt(omega):
    """Build a paired frame for a complex antisymmetric m x m form.

    The standard basis is scanned in order; the first vector pairing with the
    current one at or above ``PARTNER_THRESHOLD`` becomes its partner, the
    rest is made form-orthogonal to the new pair, and the construction
    recurses.

    Raises
    ------
    DegenerateFormError
        If m is odd (the fiber dimension of a pseudo-holomorphic symplectic
        patch is even, so the real dimension is a multiple of 4), or if no
        partner above the threshold exists, signalling degeneracy.
    """
    omega = np.asarray(omega, dtype=complex)
    m = omega.shape[0]
    if omega.shape != (m, m):
        raise ValueError("the form must be a square matrix")
    if m % 2 != 0 or m == 0:
        raise DegenerateFormError(
            f"fiber dimension {m} is not even; the paired frame needs real dimension 4n"
        )
    remaining = [np.eye(m, dtype=complex)[:, j] for j in range(m)]

    pairs_q, pairs_p = [], []
    while remaining:
        p_vec = remaining.pop(0)
        partner = None
        for idx, w in enumerate(remaining):
            if abs(_form(omega, p_vec, w)) >= PARTNER_THRESHOLD:
                partner = idx
                break
        if partner is None:
            raise DegenerateFormError(
                "no partner vector pairs above threshold; the form is degenerate here"
            )
        w = remaining.pop(partner)
        q_vec = w / _form(omega, p_vec, w)
        reduced = []
        for v in remaining:
            v_hat = v - _form(omega, v, q_vec) * p_vec + _form(omega, v, p_vec) * q_vec
            reduced.append(v_hat)
        remaining = reduced
        pairs_q.append(q_vec)
        pairs_p.append(p_vec)

    F = np.concatenate([np.stack(pairs_q), np.stack(pairs_p)]).T
    duals = np.linalg.inv(F)
    n = m // 2
    return ComplexFrame(
        e_q=np.stack(pairs_q),
        e_p=np.stack(pairs_p),
        theta_q=duals[:n],
        theta_p=duals[n:],
    )


def frame_from_model(model, p):
    """Paired (1,0)-frame of an assembled model at a point.

    Projects the first m real coordinate directions to (1,0) vectors,
    expresses Omega = Omega_R + i Omega_I on that basis and runs the paired
    construction there.  Returns the frame in coefficient form together with
    the embedded complex 2m-vectors (each satisfying J v = i v).
    """
    p = as_point(p)
    m = model.m
    Jf = model.J
    W_R = np.asarray(model.omega_R(p), dtype=float)
    Jm = np.asarray(Jf(p), dtype=float)
    W_I = -Jm.T @ W_R
    W_C = W_R + 1j * W_I
    basis = np.stack([project_10(Jf, np.eye(2 * m)[:, a], p) for a in range(m)], axis=1)
    omega_small = basis.T @ W_C @ basis
    frame = symplectic_gram_schmidt(omega_small)
    embedded_q = np.stack([basis @ frame.e_q[j] for j in range(frame.n_pairs)])
    embedded_p = np.stack([basis @ frame.e_p[j] for j in range(frame.n_pairs)])
    return frame, embedded_q, embedded_p
