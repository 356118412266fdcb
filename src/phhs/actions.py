"""Action functionals on segments, parallelograms, disks and star domains.

All functionals integrate the pairing of the symplectic primitive Lambda_R
against the curve velocity minus the Hamiltonian over a domain in the complex
time plane, and trajectories are certified as constrained critical points by
finite-difference variational gradients.

Numerical scheme, shared by every functional (all second order in the grid
spacing):

* grid derivatives are :func:`~phhs.fields.grid_derivative`'s, central
  inside and one-sided second order on the boundary;
* plain integrals use the trapezoid rule;
* integrals against the explicit weight e^{i alpha} use a product rule that
  integrates (piecewise-linear data) x e^{i alpha} exactly per interval, so
  constant-in-alpha integrands are handled without quadrature error.

The complex pairing of a holomorphic primitive applied to a real velocity v
is reconstructed from the real part alone: Lambda(v) = Lambda_R(v)
- i Lambda_R(J v).  ``parts`` picks the functional: ``"both"`` pairs with that
reconstruction against H = H_R + i H_I, ``"real"`` pairs with Lambda_R alone
against H_R alone.  Proper pseudo-holomorphic systems have no imaginary
primitive, so they only get the real-valued functionals (``parts="real"``).

Every functional evaluates the model's fields once on the whole stack of its
nodes (segment nodes, every node of every ray, parallelogram cell
midpoints).  Only the curve samplers call the user's curve gamma(z) one
time-plane point at a time.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import MissingPrimitiveError
from .fields import grid_derivative, matvec
from .util import as_point, from_complex, to_complex

GRADIENT_DELTA = 1e-5  # the central-difference step of the variational gradients


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def _filon_exp(alphas, f):
    """Integral of f(alpha) e^{i alpha} with f piecewise linear between nodes."""
    alphas = np.asarray(alphas, dtype=float)
    f = np.asarray(f)
    total = 0.0 + 0.0j
    for j in range(alphas.size - 1):
        h = alphas[j + 1] - alphas[j]
        if h == 0.0:
            continue
        i0 = (np.exp(1j * h) - 1.0) / 1j
        i1 = h * np.exp(1j * h) / 1j - i0 / 1j
        a = i0 - i1 / h
        b = i1 / h
        total += np.exp(1j * alphas[j]) * (f[j] * a + f[j + 1] * b)
    return total


# ---------------------------------------------------------------------------
# primitive pairing
# ---------------------------------------------------------------------------


class _Pairing:
    """Lambda applied to velocities and H, both or their real parts alone (``parts``)."""

    def __init__(self, fields, parts="both"):
        model = fields.model
        if model.lambda_R is None:
            raise MissingPrimitiveError(
                f"model {model.name!r} carries no primitive of Omega_R"
            )
        self.fields = fields
        self.parts = parts

    def lam(self, p, v):
        """Lambda(v) at each row of an ``(N, dim)`` stack p for real velocities v, as an ``(N,)`` array."""
        model = self.fields.model
        lam = np.asarray(model.lambda_R(p), dtype=float)
        re = np.vecdot(lam, v)
        if self.parts == "real":
            return re
        out = np.empty(re.shape, dtype=complex)
        out.real = re
        out.imag = -np.vecdot(lam, matvec(np.asarray(model.J(p), dtype=float), v))
        return out

    def hamiltonian(self, p):
        """H at each row of an ``(N, dim)`` stack p, as a complex ``(N,)`` array (H_R alone for parts="real")."""
        out = np.zeros(len(p), dtype=complex)
        out.real = self.fields.model.H_R(p)
        if self.parts != "real":
            out.imag = self.fields.H_I(p)
        return out


# ---------------------------------------------------------------------------
# curve containers and samplers
# ---------------------------------------------------------------------------


@dataclass
class SegmentCurve:
    u_nodes: np.ndarray
    values: np.ndarray  # (nu, dim)


@dataclass
class ParallelogramCurve:
    """Curve over [t1, t2] + e^{i alpha} [r1, r2] on a rectangular (t, r) grid."""

    alpha: float
    t_nodes: np.ndarray
    r_nodes: np.ndarray
    values: np.ndarray  # (nt, nr, dim)


@dataclass
class PolarCurve:
    """Curve over a star-shaped domain sampled on a polar grid.

    Full-circle layout (variant 1): alphas cover [0, 2 pi] inclusive, the
    radial nodes per angle run h .. R(alpha) and the disk center enters only
    through the fixed ``center`` anchor value.

    Signed layout (variant 2): alphas cover [0, pi] inclusive and the radial
    nodes run -R(alpha - pi) .. R(alpha) through the center.
    """

    z0: complex
    alphas: np.ndarray
    radii: np.ndarray  # (na, nr) radial node positions per angle
    values: np.ndarray  # (na, nr, dim)
    center: np.ndarray = None
    signed: bool = False


def sample_segment(gamma, u_nodes):
    u_nodes = np.asarray(u_nodes, dtype=float)
    vals = np.stack([as_point(gamma(u)) for u in u_nodes])
    return SegmentCurve(u_nodes, vals)


def sample_parallelogram(gamma, alpha, t_nodes, r_nodes):
    t_nodes = np.asarray(t_nodes, dtype=float)
    r_nodes = np.asarray(r_nodes, dtype=float)
    vals = np.stack(
        [
            np.stack([as_point(gamma(t + r * np.exp(1j * alpha))) for r in r_nodes])
            for t in t_nodes
        ]
    )
    return ParallelogramCurve(alpha, t_nodes, r_nodes, vals)


def _radius_fn(radius):
    if callable(radius):
        return radius
    return lambda a: float(radius)


def _sample_rays(gamma, z0, alphas, ray, signed):
    """The :class:`PolarCurve` of gamma on the radial nodes ``ray(alpha)`` of each angle."""
    z0 = complex(z0)
    center = as_point(gamma(z0))
    radii = np.array([ray(a) for a in alphas])
    values = np.empty(radii.shape + center.shape)
    for i, a in enumerate(alphas):
        for j, r in enumerate(radii[i]):
            values[i, j] = as_point(gamma(z0 + r * np.exp(1j * a)))
    return PolarCurve(z0, alphas, radii, values, center=center, signed=signed)


def sample_polar(gamma, z0, radius, nr, nalpha):
    """Variant-1 polar sampling: no node at the center, center kept as anchor."""
    rad = _radius_fn(radius)
    alphas = np.linspace(0.0, 2.0 * np.pi, nalpha + 1)
    return _sample_rays(gamma, z0, alphas, lambda a: np.linspace(0.0, rad(a), nr + 1)[1:], signed=False)


def sample_polar_signed(gamma, z0, radius, nr, nalpha):
    """Variant-2 polar sampling: signed radius through the center, alpha in [0, pi]."""
    rad = _radius_fn(radius)
    alphas = np.linspace(0.0, np.pi, nalpha + 1)
    return _sample_rays(gamma, z0, alphas, lambda a: np.linspace(-rad(a - np.pi), rad(a), nr), signed=True)


# ---------------------------------------------------------------------------
# segment action
# ---------------------------------------------------------------------------


def segment_action(fields, curve, alpha=0.0, parts="both"):
    """Integral of Lambda(gamma') - e^{i alpha} H(gamma) over a 1-d curve."""
    pair = _Pairing(fields, parts)
    u = curve.u_nodes
    vals = curve.values
    vel = grid_derivative(vals, u[1] - u[0])
    return np.trapezoid(pair.lam(vals, vel), u) - np.exp(1j * alpha) * np.trapezoid(pair.hamiltonian(vals), u)


# ---------------------------------------------------------------------------
# parallelogram action with a coloured variational gradient
# ---------------------------------------------------------------------------


class ParallelogramAction(_Pairing):
    """Double integral of Lambda_R(2 dgamma/dz) - H over a parallelogram.

    Discretized as a sum of cell Lagrangians: each grid cell contributes its
    area times the integrand evaluated from the four corners (midpoint value,
    centered difference quotients).  This is the standard discrete variational
    scheme; unlike node-based quadrature with one-sided boundary stencils it
    leaves no boundary layer in the gradient, so sampled trajectories are
    uniform O(h^2) critical points.

    All cells are evaluated as one stack: one call each to Lambda_R, H_R and
    (for ``parts="both"``) H_I on the ``(cells, dim)`` stack of midpoints.
    Perturbing one node touches at most its four cells, and two nodes of one
    parity class ``(i mod 2, j mod 2)`` share no cell, so the gradient
    perturbs a whole class at once (sparse-Jacobian colouring).  Like every
    functional it needs the model's Lambda_R (``MissingPrimitiveError``
    otherwise) and takes ``parts`` as the module describes.
    """

    def _geometry(self, curve):
        ht = curve.t_nodes[1] - curve.t_nodes[0]
        hr = curve.r_nodes[1] - curve.r_nodes[0]
        sina = np.sin(curve.alpha)
        cosa = np.cos(curve.alpha)
        if abs(sina) < 1e-12:
            raise ValueError("degenerate parallelogram: alpha must not be a multiple of pi")
        return ht, hr, sina, cosa, ht * hr * sina

    def integrand_cells(self, curve):
        """Integrand of every cell, shape ``(nt - 1, nr - 1)``, from one stack of midpoints."""
        ht, hr, sina, cosa, _ = self._geometry(curve)
        vals = curve.values
        v00, v10, v01, v11 = vals[:-1, :-1], vals[1:, :-1], vals[:-1, 1:], vals[1:, 1:]
        dim = vals.shape[-1]
        p = (0.25 * (v00 + v10 + v01 + v11)).reshape(-1, dim)
        dt = ((v10 + v11 - v00 - v01) / (2.0 * ht)).reshape(-1, dim)
        dr = ((v01 + v11 - v00 - v10) / (2.0 * hr)).reshape(-1, dim)
        model = self.fields.model
        lam = np.asarray(model.lambda_R(p), dtype=float)
        F = np.zeros(p.shape[0], dtype=complex)
        F.real = np.vecdot(lam, dt) - np.asarray(model.H_R(p), dtype=float)
        if self.parts != "real":
            ds = (dr - cosa * dt) / sina
            F.imag = -np.vecdot(lam, ds) - np.asarray(self.fields.H_I(p), dtype=float)
        return F.reshape(vals.shape[0] - 1, vals.shape[1] - 1)

    def value(self, curve):
        _, _, _, _, w_cell = self._geometry(curve)
        total = complex(w_cell * np.sum(self.integrand_cells(curve)))
        return total.real if self.parts == "real" else total

    __call__ = value

    def gradient(self, curve, fixed="boundary"):
        """Per-node gradients of (Re, Im) of the action w.r.t. node coordinates."""
        w_cell = self._geometry(curve)[-1]
        vals = np.array(curve.values)
        probe = replace(curve, values=vals)
        nt, nr, dim = vals.shape
        F0 = self.integrand_cells(curve)
        grad = np.zeros((nt, nr, dim), dtype=complex)
        free = np.ones((nt, nr), dtype=bool)
        if fixed == "boundary":
            free[0, :] = free[-1, :] = False
            free[:, 0] = free[:, -1] = False
        elif fixed is not None:
            raise ValueError(f"unknown fixed set {fixed!r}")

        # cell changes in a ring of zeros: node (i, j) sums its cells (i-1, j-1),
        # (i-1, j), (i, j-1), (i, j), which sit at D[i, j], D[i, j+1], D[i+1, j], D[i+1, j+1]
        D = np.zeros((nt + 1, nr + 1), dtype=complex)
        for ci, cj in np.ndindex(2, 2):
            nodes = np.zeros_like(free)
            nodes[ci::2, cj::2] = free[ci::2, cj::2]
            for k in range(dim):
                old = vals[nodes, k]
                deltas = []
                for sign in (1.0, -1.0):
                    vals[nodes, k] = old + sign * GRADIENT_DELTA
                    D[1:-1, 1:-1] = self.integrand_cells(probe) - F0
                    s = 0j + D[:-1, :-1] + D[:-1, 1:] + D[1:, :-1] + D[1:, 1:]
                    deltas.append(w_cell * s[nodes])
                vals[nodes, k] = old
                grad[nodes, k] = (deltas[0] - deltas[1]) / (2.0 * GRADIENT_DELTA)
        return grad.real.copy(), grad.imag.copy()


def parallelogram_action(fields, curve, parts="both"):
    return ParallelogramAction(fields, parts=parts).value(curve)


# ---------------------------------------------------------------------------
# disk and star actions
# ---------------------------------------------------------------------------


def star_action(fields, curve, variant, parts="both"):
    """Polar action over a bounded star-shaped time domain.

    Variant 1 averages the tilted-segment actions over radial rays of the full
    circle with weight e^{i alpha} / 2 pi; variant 2 uses diameters over
    alpha in [0, pi] with the normalization i / (4 R_hat), where R_hat is the
    signed first moment of the boundary radius (equal to R for a disk, chosen
    so constant curves evaluate to the Hamilton function).
    """
    pair = _Pairing(fields, parts)
    rs, vals = curve.radii, curve.values  # (na, nr), (na, nr, dim)
    h = rs[:, 1] - rs[:, 0]
    if not curve.signed:
        # variant 1: prepend the center anchor at r = 0 to every ray
        na, _, dim = vals.shape
        rs = np.concatenate([np.zeros((na, 1)), rs], axis=1)
        vals = np.concatenate([np.broadcast_to(curve.center, (na, 1, dim)), vals], axis=1)
    # rays on the last axis: each trapezoid sums its own ray, as a 1-d trapezoid would
    vel = grid_derivative(vals.swapaxes(0, 1), h[:, None]).swapaxes(0, 1)
    nodes, vel = vals.reshape(-1, vals.shape[-1]), vel.reshape(-1, vals.shape[-1])
    L = np.trapezoid(pair.lam(nodes, vel).reshape(rs.shape), rs, axis=-1)
    H = np.trapezoid(pair.hamiltonian(nodes).reshape(rs.shape), rs, axis=-1)
    rule = np.trapezoid(L, curve.alphas) - _filon_exp(curve.alphas, H)
    if variant == 1:
        if curve.signed:
            raise ValueError("variant 1 needs a full-circle polar curve")
        total = rule / (2.0 * np.pi)
    elif variant == 2:
        if not curve.signed:
            raise ValueError("variant 2 needs a signed polar curve")
        spans = curve.radii[:, -1] - curve.radii[:, 0]  # R(alpha) + R(alpha - pi)
        r_hat = -0.25j * _filon_exp(curve.alphas, spans)
        total = 0.25j * rule / r_hat
    else:
        raise ValueError("variant must be 1 or 2")
    if parts == "real":
        return complex(total).real
    return complex(total)


def disk_action_1(fields, curve, parts="both"):
    """Radial-ray action over a disk; vanishes on holomorphic curves."""
    return star_action(fields, curve, 1, parts=parts)


def disk_action_2(fields, curve, parts="both"):
    """Diameter action over a disk; equals H(x0) on constant curves."""
    return star_action(fields, curve, 2, parts=parts)


# ---------------------------------------------------------------------------
# variational gradients
# ---------------------------------------------------------------------------


def variational_gradient(action, curve):
    """Finite-difference gradient of an action w.r.t. the free curve nodes.

    ``action`` is either a :class:`ParallelogramAction` (fast, coloured
    path) or any callable curve -> value, differentiated naively.  The
    boundary nodes are held fixed.  Gradients of the real and imaginary part
    are returned separately as arrays shaped like the node layout plus a
    trailing coordinate axis.
    """
    if isinstance(action, ParallelogramAction):
        return action.gradient(curve)
    vals = np.array(curve.values)
    shape = vals.shape
    grad_re = np.zeros(shape)
    grad_im = np.zeros(shape)
    free = np.ones(shape[:-1], dtype=bool)
    if isinstance(curve, PolarCurve):
        free[:, -1] = False  # outer boundary ring
        if curve.signed:
            free[:, 0] = False  # the other end of each diameter
    elif isinstance(curve, ParallelogramCurve):
        free[0, :] = free[-1, :] = False
        free[:, 0] = free[:, -1] = False
    it = np.ndindex(*shape[:-1])
    for idx in it:
        if not free[idx]:
            continue
        for k in range(shape[-1]):
            old = vals[idx + (k,)]
            curve.values[idx + (k,)] = old + GRADIENT_DELTA
            plus = complex(action(curve))
            curve.values[idx + (k,)] = old - GRADIENT_DELTA
            minus = complex(action(curve))
            curve.values[idx + (k,)] = old
            g = (plus - minus) / (2.0 * GRADIENT_DELTA)
            grad_re[idx + (k,)] = g.real
            grad_im[idx + (k,)] = g.imag
    return grad_re, grad_im


def gradient_max_norm(grads, parts="both"):
    grad_re, grad_im = grads
    if parts == "real":
        return float(np.max(np.abs(grad_re)))
    return float(max(np.max(np.abs(grad_re)), np.max(np.abs(grad_im))))


def curve_from_grid(grid):
    """View a bi-time trajectory grid as a rectangle curve (alpha = pi / 2)."""
    return ParallelogramCurve(
        alpha=np.pi / 2.0,
        t_nodes=np.asarray(grid.t_nodes, dtype=float),
        r_nodes=np.asarray(grid.s_nodes, dtype=float),
        values=np.array(grid.values),
    )


def holomorphic_affine_curve(x0, direction):
    """gamma(z) = x0 + realified(z * direction), a holomorphic affine map."""
    x0 = as_point(x0)
    direction = np.asarray(direction, dtype=complex)

    def gamma(z):
        return x0 + from_complex(complex(z) * direction)

    return gamma
