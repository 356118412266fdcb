"""Flow endpoints against exact solutions computed with mpmath at 40 digits.

Every flow here starts at one point, so it steps on the scalar lane of
:mod:`phhs.flows`.  The bounds are stated per model:

* The twisted model with H_R = -y1 has the constant X = (0, 0, 0, -1), and
  J_g X = (0, exp(-x1), 0, 0) is constant along its own flow (x1 does not
  move).  RK4 is exact for a constant field, so only rounding is left: one
  rounding of a state component per step, at most ``n eps max(1, |x|)``
  after n steps.
* The oscillator H = (P^2 + Q^2)/2 flows by Q(t) = Q0 cos t + P0 sin t,
  P(t) = P0 cos t - Q0 sin t, and J X = i X by the same formulas at the
  imaginary time i s.  RK4's global truncation on a rotation is about
  ``|t| dt^4 / 120 |x|``, under the rounding bound at dt = 1e-3.
"""

import mpmath
import numpy as np
import pytest

from phhs import models
from phhs.flows import FlowConfig, flow
from phhs.hamiltonian import assemble_phhs

CFG = FlowConfig(dt=1e-3)
EPS = np.finfo(float).eps
STARTS = [[0.2, 0.1, -0.3, 0.4], [-0.7, 1.3, 0.25, -2.0], [1.2, -0.5, 0.3, 0.7]]
TIMES = [1.0, -0.45, 2.5]


def _error(end, exact):
    return max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(end, exact))


def _bound(end, t, truncation=0.0):
    steps = int(np.ceil(abs(t) / CFG.dt))
    size = max(1.0, float(np.max(np.abs(end))))
    return steps * EPS * size + abs(t) * CFG.dt**4 / 120.0 * size * truncation


@pytest.fixture(scope="module")
def twisted():
    return assemble_phhs(models.build_proper_phhs(f="1", h="exp(x1)", H_R="-y1"))


@pytest.fixture(scope="module")
def oscillator():
    return assemble_phhs(models.build_standard_hhs(1, "(P1^2 + Q1^2)/2"))


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("x0", STARTS)
def test_twisted_flows_are_straight_lines(twisted, x0, t):
    with mpmath.workdps(40):
        start = [mpmath.mpf(c) for c in x0]
        exact_x = start[:3] + [start[3] - t]
        exact_jx = [start[0], start[1] + t * mpmath.exp(-start[0])] + start[2:]
        for V, exact in ((twisted.X, exact_x), (twisted.JX, exact_jx)):
            end = flow(V, x0, t, CFG)
            assert _error(end, exact) <= _bound(end, t)


def _oscillator_exact(x0, tau):
    Q0, P0 = mpmath.mpc(x0[0], x0[2]), mpmath.mpc(x0[1], x0[3])
    c, s = mpmath.cos(tau), mpmath.sin(tau)
    Q, P = Q0 * c + P0 * s, P0 * c - Q0 * s
    return [Q.real, P.real, Q.imag, P.imag]


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("x0", STARTS)
def test_oscillator_flows_are_rotations(oscillator, x0, t):
    with mpmath.workdps(40):
        for V, tau in ((oscillator.X, mpmath.mpf(t)), (oscillator.JX, mpmath.mpc(0, t))):
            end = flow(V, x0, t, CFG)
            assert _error(end, _oscillator_exact(x0, tau)) <= _bound(end, t, truncation=1.0)
