"""Planar period normalization: period function, rescaling chart, area law.

A planar system here is a symplectic form v(x, y) dx ^ dy (v > 0) together
with the already-normalized quadratic Hamiltonian x^2 + y^2 near its center.
The period of the orbit at radius r is the half angular average

    T_hat(r) = 1/2 int_0^{2 pi} v(r cos phi, r sin phi) d phi,

even in r and bounded below by pi min(v).  Rescaling the Hamiltonian by the
chart

    psi_L(s) = (1/T) int_0^s T_hat(sqrt(|s'|)) ds'

makes every nearby orbit exactly T-periodic, and the symplectic area of the
sublevel set {psi_L(x^2+y^2) <= E} equals T E.

Orbit periods are measured with :func:`phhs.flows.rk4_step`, the package's
one RK4 step; this module only adds the angle-crossing event on top of it.

v follows the package's stack contract (:func:`phhs.fields.stack_function`):
a number, expression text in x1 and y1, a stack-taking Field, or a callable
of one point lifted row by row.  The angular average evaluates v once per
ring of N_PHI + 1 angles and the area law once per ray of N_R + 1 radial
nodes; only the orbit's field evaluates it at one point per RK4 stage.
That field reads T_hat through :func:`_clenshaw`, numpy's domain map and
Clenshaw recurrence of ``Chebyshev.__call__`` written out on Python floats,
so an orbit gives the same bits with no numpy polynomial call per stage.
A v that is not positive and finite on a ring of the angular average (and
so at a node of the interpolant of T_hat) or at an orbit stage raises
:class:`~phhs.errors.ZeroDenominatorError` naming the point, and so does a
ring sample below ``V_REL_FLOOR`` of the ring's largest v, which is how a v
vanishing on a line through a ring angle shows.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import brentq

from .errors import NoReturnError, ZeroDenominatorError
from .fields import stack_function
from .flows import FlowConfig, _check_state, rk4_step
from .util import coordinate_names

N_PHI = 256   # trapezoid intervals of the angular average and the area law
N_R = 400     # trapezoid intervals of the radial area quadrature
N_GAUSS = 64  # Gauss-Legendre nodes of the rescaling chart, computed once here
DEGREE = 48   # degree of the Chebyshev interpolant of T_hat on [0, rmax]
# a ring sample of v below this fraction of the ring's largest v counts as a zero of v: a v that
# vanishes on a line through a ring angle is positive there only by the rounding of that angle,
# about eps of its ring maximum for a linear zero (|x1|) and eps^2 for a square (x1^2 reads
# 3.7e-33 at phi = pi/2), while a smooth positive v keeps a range of up to 1e14 on a ring
V_REL_FLOOR = 64 * np.finfo(float).eps
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(N_GAUSS)
_PHIS = np.linspace(0.0, 2.0 * np.pi, N_PHI + 1)
_RING = np.stack([np.cos(_PHIS), np.sin(_PHIS)], axis=-1)


@dataclass
class PlanarSystem:
    """Conformal factor v, target period T, working radius of the chart.

    ``v`` is stored as a stack function of (x1, y1), built by
    :func:`phhs.fields.stack_function` from what is passed.
    """

    v: object
    T: float
    rmax: float = 1.2
    _interp: object = dc_field(default=None, repr=False)

    def __post_init__(self):
        self.v = stack_function(self.v, coordinate_names(1, aliases=False), float)


def _bad_factor(value, point, need="v must be positive and finite"):
    return ZeroDenominatorError(f"conformal factor v = {value!r} at point {point}; {need}")


def period_function(sys, r):
    """T_hat(r) by trapezoid quadrature of the angular average.

    Raises ZeroDenominatorError, naming the point, where v on the ring is
    not positive and finite, or below ``V_REL_FLOOR`` times its largest
    value on the ring.
    """
    pts = r * _RING
    vals = np.asarray(sys.v(pts), dtype=float)
    bad = np.flatnonzero(~((vals > 0.0) & (vals < np.inf)))
    if bad.size:
        raise _bad_factor(float(vals[bad[0]]), pts[bad[0]].tolist())
    low = np.flatnonzero(vals < V_REL_FLOOR * vals.max())
    if low.size:
        need = f"v must not fall below {V_REL_FLOOR:g} of its largest value on the ring"
        raise _bad_factor(float(vals[low[0]]), pts[low[0]].tolist(), need)
    return 0.5 * float(np.trapezoid(vals, _PHIS))


def _period_interpolant(sys):
    if sys._interp is None:
        sys._interp = np.polynomial.chebyshev.Chebyshev.interpolate(
            lambda rr: np.array([period_function(sys, float(r)) for r in np.atleast_1d(rr)]),
            DEGREE,
            domain=[0.0, sys.rmax],
        )
    return sys._interp


def _clenshaw(interp):
    """``interp`` as a function of one Python float, bit for bit ``interp.__call__``.

    The domain map ``off + scl * r`` and the recurrence are the operations
    numpy's ``mapdomain`` and ``chebval`` perform, in the same order, on the
    coefficients taken once as Python floats.
    """
    off, scl = (float(a) for a in interp.mapparms())
    c = interp.coef.tolist()
    tail = c[-3::-1]

    def value(r):
        x = off + scl * r
        x2 = 2 * x
        c0, c1 = c[-2], c[-1]
        for ck in tail:
            c0, c1 = ck - c1, c0 + c1 * x2
        return c0 + c1 * x

    return value


def rescaling_chart(sys, s):
    """psi_L(s), computed through the substitution s' = u^2 on each side.

    The substitution removes the square-root kink at s = 0, so fixed
    Gauss-Legendre quadrature converges at machine precision for smooth v:
    int_0^s T_hat(sqrt(s')) ds' = 2 int_0^{sqrt(s)} T_hat(u) u du.

    The period values come from the spectral interpolant of T_hat (machine
    accurate for smooth v).
    """
    s = float(s)
    if s == 0.0:
        return 0.0
    period = _period_interpolant(sys)
    sign = 1.0 if s > 0 else -1.0
    u_max = np.sqrt(abs(s))
    u = 0.5 * u_max * (_GL_NODES + 1.0)
    w = 0.5 * u_max * _GL_WEIGHTS
    return sign * 2.0 * float(np.dot(w, period(u) * u)) / sys.T


def chart_derivative(sys, s):
    """d psi_L / ds at s, which equals T_hat(sqrt(|s|)) / T."""
    return period_function(sys, np.sqrt(abs(s))) / sys.T


def hamiltonian_flow_field(sys, rescale=True):
    """Hamiltonian field of psi_L(x^2 + y^2) for omega = v dx ^ dy, at one point.

    Without rescaling the Hamiltonian is x^2 + y^2 itself and orbit periods
    are radius dependent.
    """
    v, T, rmax = sys.v, sys.T, sys.rmax
    period = _clenshaw(_period_interpolant(sys)) if rescale else None

    def X(p):
        x, y = p.tolist()
        factor = 1.0
        if rescale:
            factor = period(min(math.sqrt(x * x + y * y), rmax)) / T
        vp = float(v(p))
        if not 0.0 < vp < math.inf:
            raise _bad_factor(vp, [x, y])
        q = factor / vp
        return np.array([-2.0 * y * q, 2.0 * x * q])

    return X


def verify_T_periodic(sys, r0, cfg=FlowConfig(), rescale=True):
    """Measured period of the orbit started at (r0, 0).

    Steps with :func:`phhs.flows.rk4_step`, checks the state after each step
    as every flow does, unwraps the polar angle and locates the first full
    turn by linear interpolation between steps.
    """
    X = hamiltonian_flow_field(sys, rescale=rescale)
    y = np.array([r0, 0.0])
    h = cfg.dt
    theta = 0.0
    prev_angle = 0.0
    t = 0.0
    for step in range(1, cfg.max_step_count + 1):
        y = rk4_step(X, y, h)
        _check_state(y, step, h)
        t += h
        angle = np.arctan2(y[1], y[0])
        delta = angle - prev_angle
        if delta > np.pi:
            delta -= 2.0 * np.pi
        elif delta < -np.pi:
            delta += 2.0 * np.pi
        prev_angle = angle
        new_theta = theta + delta
        if new_theta >= 2.0 * np.pi:
            frac = (2.0 * np.pi - theta) / (new_theta - theta)
            return t - h + frac * h
        theta = new_theta
    raise NoReturnError("the orbit angle did not advance a full turn within the step budget")


def area_law_check(sys, E):
    """(area, T*E, residual) for the sublevel set of the rescaled Hamiltonian.

    The sublevel set is a disk, since psi_L(r^2) does not depend on the
    angle: its radius comes from one scalar root find on psi_L(r^2) - E, and
    the symplectic area from polar quadrature of v r dr dphi.
    """
    rE = brentq(lambda r: rescaling_chart(sys, r * r) - E, 1e-12, sys.rmax, xtol=1e-13)
    rs = np.linspace(0.0, rE, N_R + 1)
    ring = np.empty(_PHIS.size)
    for i, direction in enumerate(_RING):
        # one call of v per ray of N_R + 1 radial nodes, and its own 1-d trapezoid
        ray = rs[:, None] * direction
        ring[i] = np.trapezoid(np.asarray(sys.v(ray), dtype=float) * rs, rs)
    area = float(np.trapezoid(ring, _PHIS))
    target = sys.T * E
    return area, target, abs(area - target)
