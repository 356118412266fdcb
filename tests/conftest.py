from collections import Counter

import numpy as np
import pytest

from phhs import flows, models
from phhs.expressions import compile_vector, lane_function
from phhs.hamiltonian import assemble_phhs
from phhs.util import coordinate_names


def scalar_lane(fn):
    """The value of the compiled scalar ``fn`` at one point of Python numbers: the function its Lane writes out, unpacked."""
    point = lane_function(*fn.lane)
    return lambda q: point(q)[0]


def complex_x(H=None, n=1):
    """X's complex form w on C^(2n) from the model builder's own pieces, a function of complex arrays.

    For text H it is the X that ``models._as_complex_hamiltonian`` compiles,
    and without H the central problem's compiled pair behind its Q-floor
    check.  Equal text compiles to the same function (``expressions.generated``),
    so w is the function behind the built model's X.
    """
    if H is None:
        return models._q_floor_checked(compile_vector(("P1", "-1/(4*Q1^3)"), coordinate_names(2, "complex")))
    return models._as_complex_hamiltonian(H, n)[2]


@pytest.fixture(scope="session")
def central():
    model = models.build_central_problem()
    return model, assemble_phhs(model)


@pytest.fixture(scope="session")
def harmonic():
    # standard system on C^2 with H = (P1^2 + Q1^2)/2; curvy trajectories
    model = models.build_standard_hhs(1, "(P1^2 + Q1^2)/2")
    return model, assemble_phhs(model)


@pytest.fixture(scope="session")
def proper():
    # the flagship twisted system: f = 1, h = exp(x1), H_R = -y1
    model = models.build_proper_phhs(f="1", h="exp(x1)", H_R="-y1")
    return model, assemble_phhs(model)


@pytest.fixture(scope="session")
def torus_square():
    lattice = models.Lattice(np.eye(2))
    model = models.build_torus_model(lattice)
    return model, assemble_phhs(model)


@pytest.fixture
def rk4_steps(monkeypatch):
    """The RK4 steps taken from here on: ``lane``, the sum of the lane steppers' n, and ``array``, the ``rk4_step`` calls.

    A stack of a field with a lane steps row by row, one stepper call per
    row, so ``lane`` counts step-rows: n steps of N rows are n N.  An
    ``rk4_step`` call steps a whole array state, so ``array`` counts steps.
    """
    taken = Counter()
    lane_stepper, rk4_step = flows._lane_stepper, flows.rk4_step

    def counted_stepper(m, lane, complex_state):
        run = lane_stepper(m, lane, complex_state)

        def stepper(y, n, *rest, **row):
            taken["lane"] += n
            return run(y, n, *rest, **row)

        return stepper

    def counted_step(V, y, h):
        taken["array"] += 1
        return rk4_step(V, y, h)

    monkeypatch.setattr(flows, "_lane_stepper", counted_stepper)
    monkeypatch.setattr(flows, "rk4_step", counted_step)
    return taken
