from collections import Counter
from itertools import count

import numpy as np
import pytest

from phhs import expressions, flows, models
from phhs.errors import NonFiniteStateError
from phhs.expressions import compile_vector, lane_function
from phhs.hamiltonian import assemble_phhs
from phhs.util import coordinate_names


def scalar_lane(fn):
    """The value of the compiled scalar ``fn`` at one point of Python numbers: the function its Lane writes out, unpacked."""
    point = lane_function(*fn.lane)
    return lambda q: point(q)[0]


def field_point(V):
    """The vector field V at one point of Python numbers: its lane written out (``lane_function``), times ``V.rate``."""
    point = lane_function(*V.lane)
    if V.rate == 1:
        return point
    return lambda q: tuple(V.rate * c for c in point(q))


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


def clear_compile_caches():
    """Forget every walked tree, compiled text and lane stepper, as a new process starts."""
    expressions._compiled.cache_clear()
    expressions.generated.cache_clear()
    flows._lane_stepper.cache_clear()


# ---------------------------------------------------------------------------
# RK4 on numpy arrays: the reference of the lane steppers
# ---------------------------------------------------------------------------


def rk4_step(V, y, h):
    """One classical Runge-Kutta 4 step of dy/dt = V(y) with step h on numpy's arrays.

    ``y`` is a point or an ``(N, dim)`` stack, V must take the same shape,
    and the stages keep y's dtype: a real ``y`` steps as a lane's real
    coordinates, a complex one as its complex z_j.
    """
    half, full, sixth, two = flows._coefficients(y.dtype.kind == "c", h)
    k1 = np.asarray(V(y), dtype=y.dtype)
    k2 = np.asarray(V(y + half * k1), dtype=y.dtype)
    k3 = np.asarray(V(y + half * k2), dtype=y.dtype)
    k4 = np.asarray(V(y + full * k3), dtype=y.dtype)
    return y + sixth * (k1 + two * k2 + two * k3 + k4)


def _check_state(y, step, h):
    """``flows._check_state`` of a point, or of each row of a stack in turn, which names the first row that left the box."""
    if y.ndim == 1:
        return flows._check_state(y, step, h)
    for row, p in enumerate(y):
        flows._check_state(p, step, h, row)


def array_states(F, y, h):
    """The checked states after steps 1, 2, ... of F's RK4 flow on the array ``y`` (a point or a stack), endlessly.

    The first step's stages call F, the later ones its ``fn`` (a bare
    callable as it is).  A field's ``NonFiniteStateError`` is located in
    its step, naming the row the field named on a stack, and a state past
    the box names its first row outside it, as the lane's errors do.
    """
    for step in count(1):
        try:
            y = rk4_step(F, y, h)
        except NonFiniteStateError as exc:
            if exc.step is not None:
                raise
            row = exc.row if y.ndim == 2 else None
            raise flows._located(exc, y if row is None else y[row], step, h, row) from exc
        _check_state(y, step, h)
        if step == 1:
            F = getattr(F, "fn", F)
        yield y


@pytest.fixture
def rk4_steps(monkeypatch):
    """The step-rows the lane steppers take from here on, as ``{"lane": n}``: n steps of N rows are n N."""
    taken = Counter()
    lane_stepper = flows._lane_stepper

    def counted_stepper(m, lane, complex_state):
        run = lane_stepper(m, lane, complex_state)

        def stepper(y, n, *rest, **row):
            taken["lane"] += n
            return run(y, n, *rest, **row)

        return stepper

    monkeypatch.setattr(flows, "_lane_stepper", counted_stepper)
    return taken
