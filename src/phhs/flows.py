"""Deterministic numerical flows and their compositions.

All integration is fixed-step classical Runge-Kutta 4: determinism is worth
more than adaptivity for golden-value work, and the step budget guards the
singular loci.  The stage and the update are written once, as the formula
strings ``_STAGE`` and ``_UPDATE``: the array path's :func:`rk4_step` and
the scalar lane's generated steppers are both made from them.  An array
state steps through one loop of :func:`rk4_step` calls and a lane state
through its stepper; :func:`rk4_states` yields the states of either, and
every flow in the package, the period measurement of :mod:`phhs.morse`
included, advances through them.

A flow state is one point ``(dim,)`` or a stack ``(N, dim)`` of points that
share one step schedule; the field is then evaluated on the whole stack at
each stage.  The stages of the first step call the field itself, whose
``Field.__call__`` checks that it returns one value per row; the later
steps call its raw function ``fn`` on the same shape (see
:mod:`phhs.fields`).  :func:`trajectory_grid` flows all its column anchors
as one stack, each row taking exactly the steps it would take alone.  Its
monitors come from :func:`grid_monitors`, paid for only by the callers that
report them, which take H_R and H_I on node stacks, so an energy drift can
differ in the last digits from node-by-node values where a stack row rounds
differently from its point (the central problem's H_I, or text such as
``1 + x1^2``).

A field that is the real form of a holomorphic w on C^m (J = i; see
``VectorField.complex_form``) is flowed on the complex state z = x + i y,
converted once when a flow starts and once when it ends: every stage calls
w on z, with no real/complex round trip and no J matrix.  The stage
arithmetic of :func:`rk4_step` is the real one component by component, so
the endpoints are bit for bit those of the real path.  The combination
a X + b J X is a w + (i b) w there, two terms as on the real path (a single
(a + i b) w rounds differently), one formula for its complex form and its
lane (:func:`~phhs.fields.holomorphic_map`).

One point of a field with a lane (X, J X and their combination where they
are compiled text, and the Morse orbit field) takes the scalar lane: a
tuple of Python numbers, complex z_j with a complex form and floats
otherwise, converted once per flow.  The bits are numpy's: Python does the
same IEEE operations, every coefficient of a complex product is a Python
complex (CPython 3.14 would multiply a float by a complex without numpy's
cast), compiled text keeps numpy's quotient and power and sums the twisted
model's J_g X onto +0.0 as numpy's matrix product does
(:mod:`phhs.expressions`, :func:`~phhs.models.build_proper_phhs`), and the
Morse angle is ``np.arctan2``.  A lane error names the step, time and state
the array path names.

The lane steps through :func:`_lane_stepper`, one generator of
straight-line code, compiled once per process for each component count and
field :class:`~phhs.expressions.Lane`: the four stages and the update of
each component written out, the box test inline, and at each stage the
field's lane written inline: the compiled text of X and J_g X, the map
i w or a w + (i b) w of :func:`~phhs.fields.holomorphic_map` on it,
a c + b d of the twisted combination, the central problem's Q-floor line,
and the Morse orbit field with T_hat's code.  A line that raises is the
field's error there.  The lane's values (a, i b, a function its lines
call) and the step's coefficients are arguments, so every segment of a
path shares one stepper.  A flow's endpoint takes one call of the
stepper for all its steps (:func:`flow`, :func:`flow_word`,
:func:`continue_along_path`, the swap check of :func:`grid_monitors`);
:func:`rk4_states` calls it once per step, so the Morse angle event sees
every state.

Time-plane conventions: a bi-time grid node t + i s is reached by flowing X
for t and then J X for s from the anchor; paths in the complex time plane
are polylines integrated segment by segment.
"""

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import count, islice
from textwrap import indent

import numpy as np

from .errors import NonFiniteStateError, StepBudgetExceededError
from .expressions import formula_function, generated, lane_map
from .fields import VectorField, grid_derivative, holomorphic_map, matvec
from .util import as_point, as_points, from_complex, to_complex

BLOWUP = 1e8


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-3
    max_step_count: int = 5_000_000
    richardson: bool = False

    def __post_init__(self):
        if not 0 < self.dt < np.inf:  # NaN fails both comparisons
            raise ValueError("dt must be positive and finite")
        if self.max_step_count <= 0:
            raise ValueError("max_step_count must be positive")


def _check_state(y, step, h):
    """Raise if the state after ``step`` steps of size ``h`` left the finite box.

    The box bounds every real component, of a complex state too.  The error
    names the step, the flow time reached and, for a stack, the first row
    that left (and its state, in the real (x, y) layout).  A lane state, a
    tuple whose inline box test failed, is checked, and reported, as the
    array it stands for.
    """
    y = np.asarray(y)
    # NaN fails the comparisons, so this also rejects non-finite entries; |z|
    # bounds both parts of a complex entry, so only a state with some |z| past
    # the bound needs the check of the float view
    if np.abs(y).max() <= BLOWUP or np.abs(y.view(float)).max() <= BLOWUP:
        return
    if y.dtype.kind == "c":
        y = from_complex(y)
    where = f"at step {step} (flow time {step * h:.17g})"
    row = None
    if y.ndim == 2:
        row = int(np.flatnonzero(~(np.abs(y) <= BLOWUP).all(axis=1))[0])
        where += f" in row {row}, state {y[row].tolist()}"
    raise NonFiniteStateError(
        f"flow state overflowed {where}; a singular locus was hit",
        step=step, time=step * h, row=row, state=y[row] if row is not None else y,
    )


# The RK4 stage state y + c k and the step's end state y + (h/6)(k1 + 2 k2 + 2 k3 + k4), the one
# written form of each: the array path's _stage and _update and every lane stepper are made from them.
_STAGE = "{y} + {c} * {k}"
_UPDATE = "{y} + {sixth} * ({k1} + {two} * {k2} + {two} * {k3} + {k4})"


_stage = formula_function(_STAGE, "y", "c", "k")
_update = formula_function(_UPDATE, "y", "sixth", "k1", "k2", "k3", "k4", "two")


def _coefficients(complex_state, h):
    """half, full, sixth and two of a step of size h: Python complex numbers for a complex state.

    numpy would cast each float to x + 0j anyway, and on the lane each
    product is then the complex one numpy makes.  A numpy h (a grid's node
    spacing) is read as a Python float, so a float lane steps Python floats.
    """
    h = float(h)
    if complex_state:
        return complex(0.5 * h), complex(h), complex(h / 6.0), 2.0 + 0j
    return 0.5 * h, h, h / 6.0, 2.0


def rk4_step(V, y, h):
    """One classical Runge-Kutta 4 step of dy/dt = V(y) with step h.

    ``y`` is a point or an ``(N, dim)`` stack, real or complex; V must take
    the same shape, and the stages keep the dtype of ``y``.  The scalar
    lane steps through :func:`_lane_stepper`, made from the same formulas.
    """
    half, full, sixth, two = _coefficients(y.dtype.kind == "c", h)
    k1 = np.asarray(V(y), dtype=y.dtype)
    k2 = np.asarray(V(_stage(y, half, k1)), dtype=y.dtype)
    k3 = np.asarray(V(_stage(y, half, k2)), dtype=y.dtype)
    k4 = np.asarray(V(_stage(y, full, k3)), dtype=y.dtype)
    return _update(y, sixth, k1, k2, k3, k4, two)


@lru_cache(maxsize=256)
def _lane_stepper(m, lane):
    """The scalar lane's RK4 stepper for m components and the field's Lane ``lane``, generated once per process.

    ``stepper(y, n, first_step, h, half, full, sixth, two, *args)`` takes
    steps first_step, ..., first_step + n - 1 of size h of the field from
    the tuple ``y`` and returns the tuple state after them, with the
    coefficients of :func:`_coefficients` and the values of the lane's
    ``args``.  Each step is straight-line code on y0..y{m-1}: the stages
    and the update of each component written from ``_STAGE`` and
    ``_UPDATE``, so their operations are those of :func:`rk4_step` on a
    one-point array, and at each stage the lane written inline, on the
    stage state ``_p0``, ``_p1``, ....  The box test of
    :func:`_check_state` is inlined, |y_j| <= BLOWUP per component; a state
    that fails it, or whose Python |z| overflows, goes to
    :func:`_check_state`, which passes it if every real part is inside the
    box and raises its error otherwise.  A field's ``NonFiniteStateError``
    is located in its step by :func:`_located`.  The text is compiled once
    per process (:func:`~phhs.expressions.generated`).
    """
    y = [f"y{j}" for j in range(m)]
    p = [f"_p{j}" for j in range(m)]
    k = [[f"k{i}_{j}" for j in range(m)] for i in range(1, 5)]
    text = "\n".join([*lane.lines, *lane.results])

    def state(names):
        return f"({', '.join(names)},)"

    def field(c, previous, ks):
        """The lines that set ``ks`` to the field at the stage y + c previous (y itself at the first)."""
        stage = y if c is None else [_STAGE.format(y=a, c=c, k=b) for a, b in zip(y, previous)]
        reads = [f"{a} = {b}" for a, b in zip(p, stage) if re.search(rf"\b{a}\b", text)]
        return [*reads, *lane.lines, *(f"{a} = {r}" for a, r in zip(ks, lane.results))]

    def update(j):
        k1, k2, k3, k4 = (ks[j] for ks in k)
        return _UPDATE.format(y=y[j], sixth="sixth", k1=k1, k2=k2, k3=k3, k4=k4, two="two")

    stages = [*field(None, None, k[0]), *field("half", k[0], k[1]), *field("half", k[1], k[2]), *field("full", k[2], k[3])]
    source = [
        *lane.constants,
        f"def lane(y, n, first_step, h, half, full, sixth, two{''.join(f', {a}' for a in lane.args)}):",
        f"    {state(y)} = y",
        "    for step in range(first_step, first_step + n):",
        "        try:",
        indent("\n".join(stages), " " * 12),
        "        except NonFiniteStateError as exc:",
        "            if exc.step is not None:",
        "                raise",
        f"            raise _located(exc, {state(y)}, step, h) from exc",
        *(f"        {y[j]} = {update(j)}" for j in range(m)),
        "        try:",
        f"            inside = {' and '.join(f'{BLOWUP!r} >= abs({a})' for a in y)}",
        "        except OverflowError:  # Python's |z| past the float range: outside the box",
        "            inside = False",
        "        if not inside:",
        f"            _check_state({state(y)}, step, h)",
        f"    return {state(y)}",
    ]
    namespace = generated(
        "\n".join(source), f"<RK4 lane of {m} components>",
        NonFiniteStateError=NonFiniteStateError, _located=_located, _check_state=_check_state,
    )
    return namespace["lane"]


def _located(exc, y, step, h):
    """A field's ``NonFiniteStateError`` raised in ``step``, from state ``y``, naming that step.

    The time and the state are those the step started from; the row is the
    one the field named, if it named one.
    """
    y = np.asarray(y)
    if y.dtype.kind == "c":
        y = from_complex(y)
    time = (step - 1) * h
    row = exc.row if y.ndim == 2 else None
    where = f"in step {step} of the flow (from flow time {time:.17g})"
    if row is not None:
        where += f" in row {row}, state {y[row].tolist()}"
    return NonFiniteStateError(
        f"{exc}, {where}", step=step, time=time, row=row, state=y[row] if row is not None else y
    )


def _start(V, x0):
    """What a flow of V from ``x0`` steps, the lane, complex or real form of V, and its start state."""
    w = getattr(V, "complex_form", None)
    lane = getattr(V, "lane", None) if x0.ndim == 1 else None
    if lane is not None:
        return lane, tuple((x0 if w is None else to_complex(x0)).tolist())
    if w is not None:
        return w, to_complex(x0)
    return V, np.array(x0, dtype=float)


def rk4_states(V, x0, h):
    """The checked states after steps 1, 2, ... of the RK4 flow of V from ``x0`` with step h, endlessly.

    The state is the one :func:`_start` picks.  A lane state is advanced one
    step per call of its :func:`_lane_stepper`, so a caller sees every
    state, the Morse angle event included.  On the array path the four
    stages of the first step call the field itself, so ``Field.__call__``
    checks that it returns one value per row of the state; every later
    step calls the field's function ``fn`` on the same shape and dtype
    unchecked.  A bare callable and a complex form are called as they are.
    """
    F, y = _start(V, x0)
    return _lane_states(F, y, h) if type(y) is tuple else _array_states(F, y, h)


def _stepper_of(lane, y, h):
    """The stepper of ``lane`` from ``y`` with step h, and the values it takes after h."""
    body, args = lane()
    return _lane_stepper(len(y), body), (*_coefficients(isinstance(y[0], complex), h), *args)


def _lane_states(lane, y, h):
    stepper, values = _stepper_of(lane, y, h)
    for step in count(1):
        y = stepper(y, 1, step, h, *values)
        yield y


def _array_states(F, y, h):
    for step in count(1):
        try:
            y = rk4_step(F, y, h)
        except NonFiniteStateError as exc:
            if exc.step is not None:
                raise
            raise _located(exc, y, step, h) from exc
        _check_state(y, step, h)
        if step == 1:
            F = getattr(F, "fn", F)
        yield y


def _rk4(V, x0, t, n_steps):
    """Endpoint of n_steps RK4 steps over time t, as a real array: one lane stepper call on the lane."""
    h = t / n_steps
    F, y = _start(V, x0)
    if type(y) is tuple:
        stepper, values = _stepper_of(F, y, h)
        y = np.array(stepper(y, n_steps, 1, h, *values))
    else:
        for y in islice(_array_states(F, y, h), n_steps):
            pass
    return from_complex(y) if y.dtype.kind == "c" else y


def _steps_for(t, cfg):
    n = max(1, int(np.ceil(abs(t) / cfg.dt)))
    if n > cfg.max_step_count:
        raise StepBudgetExceededError(
            f"flow of duration {t} needs {n} steps, budget is {cfg.max_step_count}"
        )
    return n


def _coarse_fine(V, x0, t, cfg):
    """Endpoints with the configured step and with the step halved."""
    n = _steps_for(t, cfg)
    return _rk4(V, x0, t, n), _rk4(V, x0, t, 2 * n)


def flow(V, x0, t, cfg=FlowConfig()):
    """Endpoint of the time-t flow of V from x0 (fixed-step RK4).

    ``x0`` is a point or an ``(N, dim)`` stack of points flowed together.
    With ``cfg.richardson`` the endpoint is Richardson-extrapolated from the
    base and halved step sizes (one extra order, deterministic as well).
    """
    x0 = as_points(x0)
    if t == 0.0:
        return np.array(x0)
    if not cfg.richardson:
        return _rk4(V, x0, t, _steps_for(t, cfg))
    coarse, fine = _coarse_fine(V, x0, t, cfg)
    return fine + (fine - coarse) / 15.0


def flow_error_estimate(V, x0, t, cfg=FlowConfig()):
    """Flow endpoint with a Richardson error estimate from halved steps.

    The endpoint is the halved-step one; the estimate, max |fine - coarse| / 15,
    estimates the truncation error of RK4 only.  Once that falls near the
    rounding floor, about sqrt(steps) eps |x|, rounding dominates both
    endpoints and the estimate is no bound.  On the central problem's X flow
    from (1, 1/2) for t = 1, against the closed form sqrt(1 + t), it reads
    1.8e-14 for a true 1.83e-14 at dt = 3e-3, but 3.4e-16 for a true 9.0e-15
    at dt = 1e-3.
    """
    x0 = as_points(x0)
    if t == 0.0:
        return np.array(x0), 0.0
    coarse, fine = _coarse_fine(V, x0, t, cfg)
    return fine, float(np.max(np.abs(fine - coarse))) / 15.0


def _flow_through_nodes(V, x0, offsets, cfg):
    """Flow sequentially through increasing |offsets| from 0, capturing states."""
    out = {0.0: np.array(x0)}
    for sgn in (1.0, -1.0):
        ts = sorted((o for o in offsets if (o > 0 if sgn > 0 else o < 0)), key=abs)
        y = np.array(x0)
        prev = 0.0
        for t in ts:
            y = flow(V, y, t - prev, cfg)
            out[t] = y
            prev = t
    return out


@dataclass
class GridCurve:
    """Discrete bi-time trajectory over a rectangle in the complex time plane."""

    t_nodes: np.ndarray
    s_nodes: np.ndarray
    values: np.ndarray  # (nt, ns, dim)
    z0: complex
    x0: np.ndarray
    anchor: tuple  # (i0, j0), the node of z0; values[i0, j0] is x0

    @property
    def nt(self):
        return self.t_nodes.size

    @property
    def ns(self):
        return self.s_nodes.size

    def node_z(self, i, j):
        return complex(self.t_nodes[i], self.s_nodes[j])


def trajectory_grid(fields, x0, z0, t_range, s_range, nt, ns, cfg=FlowConfig()):
    """Fill a rectangular bi-time grid by flowing X in t and then J X in s.

    The anchor z0 must be a grid node.  Only the two sweeps run here: the t
    sweep of x0 and the s sweep of the column anchors as one stack.  The
    monitors of the grid are :func:`grid_monitors`, paid for by the callers
    that report them (``integrate``, not ``action-check``).
    """
    x0 = as_point(x0)
    z0 = complex(z0)
    t_nodes = np.linspace(t_range[0], t_range[1], nt)
    s_nodes = np.linspace(s_range[0], s_range[1], ns)
    i0 = int(np.argmin(np.abs(t_nodes - z0.real)))
    j0 = int(np.argmin(np.abs(s_nodes - z0.imag)))
    if abs(t_nodes[i0] - z0.real) > 1e-12 or abs(s_nodes[j0] - z0.imag) > 1e-12:
        raise ValueError("the anchor z0 must lie on a grid node")

    t_states = _flow_through_nodes(fields.X, x0, [t - t_nodes[i0] for t in t_nodes], cfg)
    # the column anchors, one per row, flow in s together
    anchors = np.array([t_states[t - t_nodes[i0]] for t in t_nodes])
    s_states = _flow_through_nodes(fields.JX, anchors, [s - s_nodes[j0] for s in s_nodes], cfg)
    values = np.stack([s_states[s - s_nodes[j0]] for s in s_nodes], axis=1)
    return GridCurve(t_nodes=t_nodes, s_nodes=s_nodes, values=values, z0=z0, x0=np.array(x0), anchor=(i0, j0))


def grid_monitors(fields, grid, cfg=FlowConfig()):
    """The monitors of a bi-time grid made by :func:`trajectory_grid` with ``cfg``.

    * swap_defect: distance between the two sweep orders at the far corner,
      the J X flow then the X flow of x0 (two single-point flows);
    * energy_drift_R / energy_drift_I: max |H o gamma - H(x0)|;
    * cr_residual: max |d_s gamma - J(d_t gamma)| at the interior nodes, with
      both derivatives from :func:`~phhs.fields.grid_derivative` (central
      there), and cr_nodes, its value at each node (0 on the border).
    """
    t_nodes, s_nodes, values, x0 = grid.t_nodes, grid.s_nodes, grid.values, grid.x0
    nt, ns = grid.nt, grid.ns
    i0, j0 = grid.anchor

    far_t = t_nodes[-1] - t_nodes[i0]
    far_s = s_nodes[-1] - s_nodes[j0]
    swapped = flow(fields.X, flow(fields.JX, x0, far_s, cfg), far_t, cfg)
    swap_defect = float(np.max(np.abs(values[-1, -1] - swapped)))

    dim = x0.size
    nodes = values.reshape(-1, dim)
    drift_r = float(np.max(np.abs(np.asarray(fields.model.H_R(nodes), dtype=float) - fields.model.H_R(x0))))
    # node (i0, j0) holds x0 itself, so H_I(x0) is read off the same stack
    h_i = np.asarray(fields.H_I(nodes), dtype=float)
    drift_i = float(np.max(np.abs(h_i - h_i[i0 * ns + j0])))

    cr = 0.0
    cr_nodes = np.zeros((nt, ns))
    if nt > 2 and ns > 2:
        ht = t_nodes[1] - t_nodes[0]
        hs = s_nodes[1] - s_nodes[0]
        dt_g = grid_derivative(values, ht)[1:-1, 1:-1].reshape(-1, dim)
        ds_g = grid_derivative(values.swapaxes(0, 1), hs).swapaxes(0, 1)[1:-1, 1:-1].reshape(-1, dim)
        Jm = np.asarray(fields.model.J(values[1:-1, 1:-1].reshape(-1, dim)), dtype=float)
        residual = np.max(np.abs(ds_g - matvec(Jm, dt_g)), axis=-1)
        cr_nodes[1:-1, 1:-1] = residual.reshape(nt - 2, ns - 2)
        cr = float(np.max(cr_nodes))

    return {
        "swap_defect": swap_defect,
        "energy_drift_R": drift_r,
        "energy_drift_I": drift_i,
        "cr_residual": cr,
        "cr_nodes": cr_nodes,
    }


# a X + b J X on the real state, of X's value {c} and J X's {d}: the combination's array form, and
# its lane where X and J X have lanes
_COMBINATION = "a * {c} + b * {d}"
_combination = formula_function(_COMBINATION, "c", "d", "a", "b")


def _combo_field(fields, a, b):
    """a X + b J X from X's and J X's own forms; a w + (i b) w on z when J X has a complex form.

    a and b are read as Python floats (``tilted_flow`` passes numpy's), so
    a float lane steps Python floats.
    """
    a, b = float(a), float(b)
    X, JX = fields.X, fields.JX
    X_fn, JX_fn = X.fn, JX.fn

    def fn(p):
        return _combination(np.asarray(X_fn(p), dtype=float), np.asarray(JX_fn(p), dtype=float), a, b)

    if JX.complex_form is not None:
        return holomorphic_map(X, fn, "combo", "a * {v} + ib * {v}", a=complex(a), ib=1j * b)
    lane = None if X.lane is None or JX.lane is None else lane_map(_COMBINATION, {"a": a, "b": b}, c=X.lane, d=JX.lane)
    return VectorField(fn, fd=X.fd, name="combo", lane=lane)


def tilted_flow(fields, x0, alpha, r, cfg=FlowConfig()):
    """Flow along cos(alpha) X + sin(alpha) J X for parameter r."""
    return flow(_combo_field(fields, np.cos(alpha), np.sin(alpha)), x0, r, cfg)


def flow_word(fields, x0, word, cfg=FlowConfig()):
    """Composition phi^X_{t_1} o phi^{JX}_{s_1} o ... o phi^{JX}_{s_n} (x0).

    The innermost factor phi^{JX}_{s_n} is applied first, i.e. the word is
    consumed right to left.
    """
    y = as_point(x0)
    for t_k, s_k in reversed(list(word)):
        y = flow(fields.JX, y, s_k, cfg)
        y = flow(fields.X, y, t_k, cfg)
    return y


def continue_along_path(fields, x0, path, cfg=FlowConfig()):
    """Analytic continuation along a polyline in the complex time plane.

    Integrates d gamma / du = Re(dz) X + Im(dz) J X across each segment; the
    endpoint depends on the path homotopy class around singular loci, which is
    exactly the monodromy this operation exposes.
    """
    nodes = [complex(z) for z in path]
    if len(nodes) < 2:
        return np.array(as_point(x0))
    y = as_point(x0)
    for z_a, z_b in zip(nodes[:-1], nodes[1:]):
        dz = z_b - z_a
        if dz == 0:
            raise ValueError("consecutive path nodes must be distinct")
        seg_cfg = replace(cfg, dt=cfg.dt / max(abs(dz), 1e-300))
        y = flow(_combo_field(fields, dz.real, dz.imag), y, 1.0, seg_cfg)
    return y


def circle_path(center, radius, start, turns=1, n_segments=64):
    """Polyline approximating circles around a center, starting at ``start``.

    The start point must lie on the circle; the path closes back onto it.
    """
    center = complex(center)
    start = complex(start)
    if abs(abs(start - center) - radius) > 1e-9:
        raise ValueError("start point is not on the circle")
    theta0 = np.angle(start - center)
    total = int(round(n_segments * turns))
    thetas = theta0 + 2.0 * np.pi * turns * np.arange(total + 1) / total
    return [center + radius * np.exp(1j * th) for th in thetas]


def commutation_defect(fields, x0, t, s, cfg=FlowConfig()):
    """Distance between phi^X_t o phi^{JX}_s (x0) and phi^{JX}_s o phi^X_t (x0)."""
    a = flow(fields.X, flow(fields.JX, x0, s, cfg), t, cfg)
    b = flow(fields.JX, flow(fields.X, x0, t, cfg), s, cfg)
    return float(np.linalg.norm(a - b))
