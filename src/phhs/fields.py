"""Evaluable tensor fields on a coordinate patch with finite-difference jets.

Every field wraps a callable together with an :class:`FdConfig` that fixes
how its derivatives are approximated.  The contract: a field takes one point
``(dim,)`` or a stack ``(N, dim)`` of points, one per row, and on a stack
returns one value per row, stacked on the first axis (a scalar field
exactly ``(N,)``); a stack call that does not is a ``ValueError``.  A stack
with as many rows as a point has coordinates is evaluated with one extra
row, so that a function of one point reading ``p[k]`` fails this check
there too.  Every function the package builds itself takes a stack, the
quadrature primitive H_I included; :func:`rowwise` is the user boundary
only.  It lifts a bare callable of one point that a user hands to the
model builders (through
``_as_real_scalar`` and ``_as_complex_hamiltonian`` in :mod:`phhs.models`),
as a metric entry (:func:`~phhs.connections.diagonal_metric`,
:func:`~phhs.connections.holo_metric_parts`) or as the conformal factor
``v`` of :class:`~phhs.morse.PlanarSystem`, the last two through
:func:`stack_function`, which also compiles text.  A stack row is bit for
bit the single-point value for the built-in models and their documented
expressions, with one exception: H_R and H_I of the central
problem, whose complex arithmetic numpy rounds differently on a scalar and
on an array, may move by one unit in the last place.  Other expression text
may round differently in the last bit on a stack for the same reason (some
real powers and complex products).

A vector field that is the real form of a holomorphic map w on C^m carries
w as its ``complex_form`` (the models with J = i set it); the flows then
step the complex state z = x + i y with w and never call the field itself.

This is the only module that knows the central-difference stencil: axis
partials of fields (:func:`jet`, :func:`partial_jet`) and derivatives of
holomorphic callables along complex directions (:func:`complex_gradient`,
:func:`holomorphy_residual`) all go through :func:`_central_difference`,
which calls the function once on every stencil point of a point or a stack.
"""

from dataclasses import dataclass

import numpy as np

from .expressions import compile_points
from .util import as_points, max_abs


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
        """The spacing at a point, or one per row of a stack, rounded as ``np.linalg.norm`` rounds |p|."""
        p = np.asarray(p)
        sq = np.vecdot(p.real, p.real) + np.vecdot(p.imag, p.imag) if p.dtype.kind == "c" else np.vecdot(p, p)
        return self.step * np.maximum(1.0, np.sqrt(sq))


def rowwise(fn):
    """``fn`` of one point, lifted to an ``(N, dim)`` stack by calling it row by row."""

    def lifted(p):
        p = np.asarray(p)
        return fn(p) if p.ndim == 1 else np.array([fn(q) for q in p])

    return lifted


def stack_function(entry, names, cast):
    """A user entry as a stack function.

    A constant is broadcast, text is compiled against ``names``
    (:func:`~phhs.expressions.compile_points`), a Field is taken as it is and
    a callable of one point is lifted by :func:`rowwise`.
    """
    if isinstance(entry, str):
        return compile_points(entry, names, cast)
    if isinstance(entry, Field):
        return entry
    if callable(entry):
        return rowwise(entry)
    c = cast(entry)
    return lambda p: np.full(p.shape[:-1], c)


def matvec(M, v):
    """``M @ v`` at a point, row by row on stacks of matrices and/or vectors."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


class Field:
    """An evaluable map point -> value with a finite-difference config."""

    # the axes of a stack call's value that must read (N,): the first, and all of a scalar's
    _row_axes = slice(1)

    def __init__(self, fn, fd=None, name=None):
        self.fn = fn
        self.fd = fd if fd is not None else FdConfig()
        self.name = name

    def __call__(self, p):
        p = as_points(p)
        if p.ndim == 1:
            return self.fn(p)
        # a function of one point that reads a coordinate p[k] returns a row of the stack, with
        # as many entries as a point has coordinates; on a stack with that many rows it would
        # pass for one value per row, so the stack gets one more row, a copy of its last
        padded = p.shape[0] == p.shape[1]
        if padded:
            p = np.concatenate([p, p[-1:]])
        out = self.fn(p)
        if np.shape(out)[self._row_axes] != p.shape[:1]:
            raise ValueError(
                f"{type(self).__name__} {self.name!r} returned shape {np.shape(out)} for a stack of "
                f"shape {p.shape}; a field must return one value per row (lift a function of one "
                "point with fields.rowwise)"
            )
        return out[:-1] if padded else out


class ScalarField(Field):
    """Real scalar field.  ``grad`` may supply an exact gradient hook."""

    _row_axes = slice(None)

    def __init__(self, fn, fd=None, grad=None, name=None):
        super().__init__(fn, fd, name)
        self._grad = grad

    def gradient(self, p):
        if self._grad is not None:
            return np.asarray(self._grad(as_points(p)), dtype=float)
        return jet(self, p)


class VectorField(Field):
    """Real vector field, returned in coordinate components.

    ``complex_form``, when given, is a stack function w on C^m, taking and
    returning complex ``(..., m)`` arrays, whose real form the field is: the
    field at (x, y) is (Re w(z), Im w(z)) with z = x + i y.  The flows step
    such a field on the complex state z (:mod:`phhs.flows`).
    """

    def __init__(self, fn, fd=None, name=None, complex_form=None):
        super().__init__(fn, fd, name)
        self.complex_form = complex_form


class CovectorField(Field):
    """Real 1-form field, returned as its coefficient vector."""


class MatrixField(Field):
    """(1,1)-tensor field; columns of the matrix are images of basis vectors.

    ``matrix`` is the matrix of a constant field built by
    :func:`constant_matrix_field`, and None otherwise.
    """

    matrix = None


class TwoFormField(Field):
    """2-form field; entry [a, b] is the form on the basis pair (e_a, e_b)."""

    def antisymmetry_residual(self, p):
        W = self(p)
        return max_abs(W + W.swapaxes(-1, -2))


def _central_difference(f, P, E, h, order):
    """Derivatives of f along each direction of E, at a point P or at each row of a stack P.

    ``out[..., k, <value>]`` is the derivative along ``E[k]`` at ``P[...]``
    with that point's spacing ``h[...]``.  Every stencil point is formed as
    ``p + (c h) e``, c in (1, 2, -1, -2) ((1, -1) at order 2), and f is
    called once, on all of them as one stack.  Order 2 uses (f(p+h) - f(p-h)) / 2h; order 4 the
    five-point stencil (-f(p+2h) + 8 f(p+h) - 8 f(p-h) + f(p-2h)) / 12h.
    Works for real or complex points and directions, and for scalar, vector
    and matrix values.
    """
    c = (1.0, -1.0) if order == 2 else (1.0, 2.0, -1.0, -2.0)
    h = np.asarray(h)
    steps = np.stack([P[..., None, :] + (k * h)[..., None, None] * E for k in c])
    F = np.asarray(f(steps.reshape(-1, P.shape[-1])))
    F = F.reshape(steps.shape[:-1] + F.shape[1:])
    h = h.reshape(h.shape + (1,) * (F.ndim - 1 - h.ndim))
    if order == 2:
        return (F[0] - F[1]) / (2.0 * h)
    # paired differences so that symmetric evaluations cancel exactly
    return (8.0 * (F[0] - F[2]) - (F[1] - F[3])) / (12.0 * h)


def jet(field, p):
    """All axis partials of a field at a point or at each row of a stack: ``out[..., a, :] = d_a field``."""
    P = as_points(p)
    return _central_difference(field, P, np.eye(P.shape[-1]), field.fd.spacing(P), field.fd.order)


def partial_jet(field, p, axis):
    """Partial derivative of a field along one axis, at a point or at each row of a stack."""
    P = as_points(p)
    if not 0 <= axis < P.shape[-1]:
        raise ValueError(f"axis {axis} out of range for a point of dimension {P.shape[-1]}")
    E = np.eye(P.shape[-1])[axis:axis + 1]
    return np.take(_central_difference(field, P, E, field.fd.spacing(P), field.fd.order), 0, axis=P.ndim - 1)


# derivatives of callables on C^m use the default spacing and order
_COMPLEX_FD = FdConfig()


def complex_gradient(H, z):
    """dH/dz_j, slot by slot, of a stack-taking holomorphic callable on C^m at a point or a stack."""
    Z = np.asarray(z, dtype=complex)
    E = np.eye(Z.shape[-1], dtype=complex)
    return _central_difference(H, Z, E, _COMPLEX_FD.spacing(Z), _COMPLEX_FD.order)


def holomorphy_residual(H, samples):
    """Max Cauchy-Riemann defect |dH/d(conj z_j)| of a stack-taking callable over complex samples."""
    Z = np.asarray(samples, dtype=complex)
    m = Z.shape[-1]
    E = np.eye(m, dtype=complex)
    D = _central_difference(H, Z, np.concatenate([E, 1j * E]), _COMPLEX_FD.spacing(Z), _COMPLEX_FD.order)
    return max_abs(0.5 * (D[..., :m] + 1j * D[..., m:]))


def constant(M):
    """A callable returning M at a point and one copy of M per row of a stack."""
    M = np.asarray(M, dtype=float)
    return lambda p: M if p.ndim == 1 else np.broadcast_to(M, p.shape[:-1] + M.shape)


def constant_matrix_field(M, fd=None, name=None):
    field = MatrixField(constant(M), fd=fd, name=name)
    field.matrix = np.asarray(M, dtype=float)
    return field


def constant_two_form_field(W, fd=None, name=None):
    return TwoFormField(constant(W), fd=fd, name=name)
