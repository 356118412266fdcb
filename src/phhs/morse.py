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

Orbit periods are measured with :func:`phhs.flows.rk4_states`, the
package's one loop of RK4 steps, on its scalar lane (two Python floats);
this module only adds the angle-crossing event on top of it.

v follows the package's stack contract (:func:`phhs.fields.stack_function`):
a number, expression text in x1 and y1, a stack-taking Field, or a callable
of one point lifted row by row.  The angular average evaluates v once per
ring of N_PHI + 1 angles and the area law once per ray of N_R + 1 radial
nodes; only the orbit's field evaluates it at one point per RK4 stage.
That field is a lane (:class:`~phhs.expressions.Lane`), which the flow
writes into its generated stepper: v's own lane written inline where v
is text or a number, and it reads T_hat through :func:`_clenshaw`,
``Chebyshev.__call__`` as straight-line code on Python floats: an orbit of
text v gives the same bits with no numpy call and no loop per stage.
A v that is not positive and finite on a ring of the angular average (and
so at a node of the interpolant of T_hat) or at an orbit stage raises
:class:`~phhs.errors.ZeroDenominatorError` naming the point, and so does a
ring sample below ``V_REL_FLOOR`` of the ring's largest v, which is how a v
vanishing on a line through a ring angle shows.
"""

import math
from dataclasses import dataclass, field as dc_field
from itertools import islice

import numpy as np
from scipy.optimize import brentq

from .errors import NoReturnError, ZeroDenominatorError
from .expressions import Lane, _literal, _renamed, lane_function
from .fields import VectorField, rowwise, stack_function
from .flows import FlowConfig, rk4_states
from .util import coordinate_names

N_PHI = 256   # trapezoid intervals of the angular average and the area law
N_R = 400     # trapezoid intervals of the radial area quadrature
N_GAUSS = 64  # Gauss-Legendre nodes of the rescaling chart, computed once here
DEGREE = 48   # degree of the Chebyshev interpolant of T_hat on [0, RMAX]
RMAX = 1.2    # working radius of the chart: the interpolant's domain, and T_hat past it is T_hat(RMAX)
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
    """Conformal factor v and target period T.

    ``v`` is stored as a stack function of (x1, y1), built by
    :func:`phhs.fields.stack_function` from what is passed.
    """

    v: object
    T: float
    _interp: object = dc_field(default=None, init=False, repr=False)
    _t_hat: object = dc_field(default=None, init=False, repr=False)

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
            domain=[0.0, RMAX],
        )
    return sys._interp


def _clenshaw(interp, r):
    """``interp`` at the Python float named ``r`` as a :class:`~phhs.expressions.Lane`: bit for bit ``interp.__call__``.

    numpy's ``mapdomain`` and ``chebval`` in the same order, one line per coefficient: a
    finite one is its ``repr``, which reads back as itself; inf and NaN are bound by name.
    As in ``chebval``, one coefficient c0 is c0 + 0 x, and two run no recurrence.
    """
    values = [float(a) for a in [*interp.mapparms(), *interp.coef]]
    constants = tuple(f"_k{i} = {_literal(a)}" for i, a in enumerate(values) if not math.isfinite(a))
    off, scl, *c = [repr(a) if math.isfinite(a) else f"_k{i}" for i, a in enumerate(values)]
    if len(c) == 1:
        c.append("0")
    lines = [f"_x = {off} + {scl} * {r}", "_x2 = 2 * _x", f"_b0, _b1 = {c[-2]}, {c[-1]}"]
    lines += [f"_b0, _b1 = {ck} - _b1, _b0 + _b1 * _x2" for ck in c[-3::-1]]
    return Lane(constants, tuple(lines), ("_b0 + _b1 * _x",))


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
    are radius dependent.  The field is its lane: v, written inline from
    its own lane (its locals renamed ``_v...``) where v has one (text or a
    number), and called on the point's array where it has none (a callable
    or a Field), as a Python float, then a line that raises where v is not
    positive and finite, and T_hat's code (:func:`_clenshaw`, made once per
    system) on min(r, RMAX); its array form is the function generated from
    the lane, row by row on a stack.
    """
    constants = ("from math import inf as _inf, sqrt as _fsqrt",)
    if getattr(sys.v, "lane", None) is None:
        v_lines, args, values = ("_vp = float(_v((_p0, _p1)))",), ("_v",), (lambda q: sys.v(np.array(q)),)
    else:
        body, values = sys.v.lane
        body = _renamed(body, "_v")
        constants += body.constants
        v_lines, args = (*body.lines, f"_vp = float({body.results[0]})"), body.args
    lines = (*v_lines, "if not 0.0 < _vp < _inf:\n    raise _bad_factor(_vp, [_p0, _p1])")
    if rescale:
        if sys._t_hat is None:
            sys._t_hat = _clenshaw(_period_interpolant(sys), "_r")
        t_hat = sys._t_hat
        constants += t_hat.constants
        lines += (
            "_r = _fsqrt(_p0 * _p0 + _p1 * _p1)",
            f"_r = {RMAX!r} if {RMAX!r} < _r else _r",  # min(r, RMAX), NaN too
            *t_hat.lines,
            f"_q = ({t_hat.results[0]}) / {_literal(sys.T)} / _vp",
        )
    else:
        lines += ("_q = 1.0 / _vp",)
    lane = Lane(constants, lines, ("-2.0 * _p1 * _q", "2.0 * _p0 * _q"), (*args, "_bad_factor"))
    values = (*values, _bad_factor)
    array = rowwise(lambda p: np.array(lane_function(lane, values)(tuple(p.tolist()))))
    return VectorField(array, name="orbit", lane=(lane, values))


def verify_T_periodic(sys, r0, cfg=FlowConfig(), rescale=True):
    """Measured period of the orbit started at (r0, 0), as a Python float.

    Takes at most ``cfg.max_step_count`` steps of
    :func:`phhs.flows.rk4_states`, the orbit field's lane stepped on two
    Python floats and each state checked as in every flow, unwraps the
    polar angle with numpy's ``arctan2`` (``math.atan2`` rounds
    differently) and locates the first full turn by linear interpolation
    between steps.
    """
    h = cfg.dt
    states = rk4_states(hamiltonian_flow_field(sys, rescale=rescale), np.array([r0, 0.0]), h)
    pi, two_pi = math.pi, 2.0 * math.pi
    theta = prev_angle = t = 0.0
    for y in islice(states, cfg.max_step_count):
        t += h
        angle = float(np.arctan2(y[1], y[0]))
        delta = angle - prev_angle
        if delta > pi:
            delta -= two_pi
        elif delta < -pi:
            delta += two_pi
        prev_angle = angle
        new_theta = theta + delta
        if new_theta >= two_pi:
            frac = (two_pi - theta) / (new_theta - theta)
            return t - h + frac * h
        theta = new_theta
    raise NoReturnError("the orbit angle did not advance a full turn within the step budget")


def area_law_check(sys, E):
    """(area, T*E, residual) for the sublevel set of the rescaled Hamiltonian.

    The sublevel set is a disk, since psi_L(r^2) does not depend on the
    angle: its radius comes from one scalar root find on psi_L(r^2) - E, and
    the symplectic area from polar quadrature of v r dr dphi.
    """
    rE = brentq(lambda r: rescaling_chart(sys, r * r) - E, 1e-12, RMAX, xtol=1e-13)
    rs = np.linspace(0.0, rE, N_R + 1)
    ring = np.empty(_PHIS.size)
    for i, direction in enumerate(_RING):
        # one call of v per ray of N_R + 1 radial nodes, and its own 1-d trapezoid
        ray = rs[:, None] * direction
        ring[i] = np.trapezoid(np.asarray(sys.v(ray), dtype=float) * rs, rs)
    area = float(np.trapezoid(ring, _PHIS))
    target = sys.T * E
    return area, target, abs(area - target)
