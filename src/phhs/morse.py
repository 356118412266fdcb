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
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import brentq

from .errors import NoReturnError
from .flows import FlowConfig, rk4_step

N_PHI = 256   # trapezoid intervals of the angular average and the area law
N_R = 400     # trapezoid intervals of the radial area quadrature
N_GAUSS = 64  # Gauss-Legendre nodes of the rescaling chart, computed once here
DEGREE = 48   # degree of the Chebyshev interpolant of T_hat on [0, rmax]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(N_GAUSS)


@dataclass
class PlanarSystem:
    """Conformal factor v, target period T, working radius of the chart."""

    v: object
    T: float
    rmax: float = 1.2
    _interp: object = dc_field(default=None, repr=False)

    def conformal(self, x, y):
        return float(self.v(np.array([x, y])) if callable(self.v) else self.v)


def period_function(sys, r):
    """T_hat(r) by trapezoid quadrature of the angular average."""
    phis = np.linspace(0.0, 2.0 * np.pi, N_PHI + 1)
    vals = np.array([sys.conformal(r * np.cos(p), r * np.sin(p)) for p in phis])
    return 0.5 * float(np.trapezoid(vals, phis))


def _period_interpolant(sys):
    if sys._interp is None:
        cheb = np.polynomial.chebyshev.Chebyshev.interpolate(
            lambda rr: np.array([period_function(sys, float(r)) for r in np.atleast_1d(rr)]),
            DEGREE,
            domain=[0.0, sys.rmax],
        )
        sys._interp = cheb
    return sys._interp


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
    """Hamiltonian field of psi_L(x^2 + y^2) for omega = v dx ^ dy.

    Without rescaling the Hamiltonian is x^2 + y^2 itself and orbit periods
    are radius dependent.
    """
    interp = _period_interpolant(sys) if rescale else None

    def X(p):
        x, y = p
        v = sys.conformal(x, y)
        factor = 1.0
        if rescale:
            r = np.sqrt(x * x + y * y)
            factor = float(interp(min(r, sys.rmax))) / sys.T
        return np.array([-2.0 * y, 2.0 * x]) * (factor / v)

    return X


def verify_T_periodic(sys, r0, cfg=FlowConfig(), rescale=True):
    """Measured period of the orbit started at (r0, 0).

    Steps with :func:`phhs.flows.rk4_step`, unwraps the polar angle and
    locates the first full turn by linear interpolation between steps.
    """
    X = hamiltonian_flow_field(sys, rescale=rescale)
    y = np.array([r0, 0.0])
    h = cfg.dt
    theta = 0.0
    prev_angle = 0.0
    t = 0.0
    for _ in range(cfg.max_step_count):
        y = rk4_step(X, y, h)
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
    phis = np.linspace(0.0, 2.0 * np.pi, N_PHI + 1)
    rE = brentq(lambda r: rescaling_chart(sys, r * r) - E, 1e-12, sys.rmax, xtol=1e-13)
    rs = np.linspace(0.0, rE, N_R + 1)
    ring = np.empty(phis.size)
    for i, phi in enumerate(phis):
        vals = np.array([sys.conformal(r * np.cos(phi), r * np.sin(phi)) * r for r in rs])
        ring[i] = np.trapezoid(vals, rs)
    area = float(np.trapezoid(ring, phis))
    target = sys.T * E
    return area, target, abs(area - target)
