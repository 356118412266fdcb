"""Evaluable tensor fields on a coordinate patch with finite-difference jets.

Every field wraps a plain callable ``point -> value`` together with an
:class:`FdConfig` that fixes how its derivatives are approximated.  A field
is called on one point ``(dim,)`` or on a stack ``(N, dim)`` of points, one
per row; on a stack it returns one value per row, stacked on the first
axis.  The fields a flow advances -- X, J X and J of every built-in
Hamiltonian model -- and the ones the action and the grid monitors read --
H_R, H_I and Lambda_R -- evaluate a whole stack in one numpy pass;
callables that only take a point (user callables, finite-difference jets,
the quadrature primitive H_I) are lifted to stacks by :func:`rowwise`.  A
stack row is bit for bit the single-point value for the built-in models
and their documented expressions, with one exception: H_R and H_I of the
central problem, whose complex arithmetic numpy rounds differently on a
scalar and on an array, may move by one unit in the last place.  Other
expression text may round differently in the last bit on a stack for the
same reason (some real powers and complex products).

This is the only module that knows the central-difference stencil: real
axis partials (:func:`partial_jet`, stacked by :func:`jet`) and derivatives
of holomorphic callables along complex directions (:func:`complex_gradient`,
:func:`holomorphy_residual`) all go through :func:`_central_difference`.
Jets are taken at one point.
"""

from dataclasses import dataclass

import numpy as np

from .util import as_point, as_points


@dataclass(frozen=True)
class FdConfig:
    """Central finite-difference configuration.

    The effective spacing at a point p is ``step * max(1, |p|)`` so that
    derivatives stay well scaled far from the origin.
    """

    step: float = 1e-5
    order: int = 4

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("finite-difference step must be positive")
        if self.order not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")

    def spacing(self, p):
        return self.step * max(1.0, float(np.linalg.norm(p)))


def rowwise(fn):
    """``fn`` of one point, lifted to an ``(N, dim)`` stack by calling it row by row."""

    def lifted(p):
        p = np.asarray(p)
        return fn(p) if p.ndim == 1 else np.array([fn(q) for q in p])

    return lifted


def matvec(M, v):
    """``M @ v`` at a point, row by row on stacks of matrices and/or vectors."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


class Field:
    """An evaluable map point -> value with a finite-difference config."""

    def __init__(self, fn, fd=None, name=None):
        self.fn = fn
        self.fd = fd if fd is not None else FdConfig()
        self.name = name

    def __call__(self, p):
        return self.fn(as_points(p))


class ScalarField(Field):
    """Real scalar field.  ``grad`` may supply an exact gradient hook."""

    def __init__(self, fn, fd=None, grad=None, name=None):
        super().__init__(fn, fd, name)
        self._grad = grad

    def gradient(self, p):
        p = as_points(p)
        if self._grad is not None:
            return np.asarray(self._grad(p), dtype=float)
        return rowwise(lambda q: jet(self, q))(p)


class VectorField(Field):
    """Real vector field, returned in coordinate components."""


class CovectorField(Field):
    """Real 1-form field, returned as its coefficient vector."""


class MatrixField(Field):
    """(1,1)-tensor field; columns of the matrix are images of basis vectors."""


class TwoFormField(Field):
    """2-form field; entry [a, b] is the form on the basis pair (e_a, e_b)."""

    def antisymmetry_residual(self, p):
        W = self(p)
        return float(np.max(np.abs(W + W.T)))


def _central_difference(f, p, e, h, order):
    """Derivative of f at p along the direction e by the central stencil of spacing h.

    Order 2 uses (f(p+h) - f(p-h)) / 2h; order 4 the five-point stencil
    (-f(p+2h) + 8 f(p+h) - 8 f(p-h) + f(p-2h)) / 12h.  Works for real or
    complex points and directions, and for scalar, vector and matrix values.
    """
    if order == 2:
        return (f(p + h * e) - f(p - h * e)) / (2.0 * h)
    f1 = f(p + h * e)
    f2 = f(p + 2.0 * h * e)
    b1 = f(p - h * e)
    b2 = f(p - 2.0 * h * e)
    # paired differences so that symmetric evaluations cancel exactly
    return (8.0 * (f1 - b1) - (f2 - b2)) / (12.0 * h)


def partial_jet(field, p, axis):
    """Partial derivative of a field along one axis by its ``fd`` stencil."""
    p = as_point(p)
    if not 0 <= axis < p.size:
        raise ValueError(f"axis {axis} out of range for a point of dimension {p.size}")
    e = np.zeros_like(p)
    e[axis] = 1.0
    return _central_difference(lambda q: np.asarray(field(q)), p, e, field.fd.spacing(p), field.fd.order)


def jet(field, p):
    """All axis partials of a field at p, stacked: ``out[a] = d_a field(p)``."""
    p = as_point(p)
    return np.stack([partial_jet(field, p, a) for a in range(p.size)])


# derivatives of callables on C^m use the default spacing and order
_COMPLEX_FD = FdConfig()


def _complex_partials(H, z, unit):
    """Derivatives of a callable on C^m at z along unit * e_j, slot by slot."""
    h = _COMPLEX_FD.spacing(z)
    return np.array(
        [_central_difference(H, z, unit * e, h, _COMPLEX_FD.order) for e in np.eye(z.size, dtype=complex)],
        dtype=complex,
    )


def complex_gradient(H, z):
    """dH/dz_j of a holomorphic callable on C^m, slot by slot."""
    return _complex_partials(H, np.asarray(z, dtype=complex), 1.0)


def holomorphy_residual(H, samples):
    """Max Cauchy-Riemann defect |dH/d(conj z_j)| of a callable over complex sample points."""
    worst = 0.0
    for z in samples:
        z = np.asarray(z, dtype=complex)
        dbar = 0.5 * (_complex_partials(H, z, 1.0) + 1j * _complex_partials(H, z, 1j))
        worst = max(worst, float(np.max(np.abs(dbar))))
    return worst


def _constant(M):
    M = np.asarray(M, dtype=float)
    return lambda p: M if p.ndim == 1 else np.broadcast_to(M, p.shape[:-1] + M.shape)


def constant_matrix_field(M, fd=None, name=None):
    return MatrixField(_constant(M), fd=fd, name=name)


def constant_two_form_field(W, fd=None, name=None):
    return TwoFormField(_constant(W), fd=fd, name=name)
