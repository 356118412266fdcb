"""Deterministic numerical flows and their compositions.

All integration is fixed-step classical Runge-Kutta 4: determinism is worth
more than adaptivity for golden-value work, and the step budget guards the
singular loci.  The stage and the update are written once, as the formula
strings ``_STAGE`` and ``_UPDATE``, from which the array path's
:func:`rk4_step` and the lane's generated steppers (:func:`_lane_stepper`)
are made.  Every flow in the package advances through them, and
:func:`rk4_states` yields the states of one point's flow, for the period
measurement of :mod:`phhs.morse`.

A flow state is one point ``(dim,)`` or a stack ``(N, dim)`` of points that
share one step schedule.  Every flow of a field with a lane (X, J X and
their combination where they are compiled text, and the Morse orbit field)
steps on the lane, a stack row by row, so that each row takes exactly the
steps and the bits it would take alone: a point is a tuple of Python
numbers, converted once per flow, and the field's lane is written inline
into a stepper that every row and every segment of a path share, with
each result that reads only constants computed once per stepper call.  A
component whose rate is such a number zero is frozen: it stays fixed along
the flow but for the sign of a zero, so a field that reads only frozen
components (the twisted J_g X = (0, e^-x1, 0, 0)) is evaluated twice per
stepper call, not four times a step, with the same bits.  The lane
of the real form of a holomorphic w on C^m (J = i) steps complex
z_j = x_j + i y_j, as the lane shows (:func:`~phhs.fields.on_complex_state`):
J X is i w there and a X + b J X is a w + (i b) w, two terms as on the real
path (:func:`~phhs.expressions.lane_map`).  The bits are numpy's on
arrays: Python does the same IEEE operations on Python complex
coefficients (:func:`_coefficients`), compiled text keeps numpy's quotient
and power and sums the twisted J_g X onto +0.0 as numpy's matrix product
does (:mod:`phhs.expressions`; a row with a zero X factor is 0.0, see
:func:`~phhs.models.build_proper_phhs`), and the Morse angle is
``np.arctan2``.  A
lane error names the step, time, row and real state the array path names,
and a stack raises the error the array path meets first (:func:`_lane_rows`).

A field without a lane (a user's callable) steps the real array state
through :func:`rk4_step`, a stack evaluated whole at each stage.  The
stages of the first step call the field itself, whose ``Field.__call__``
checks that it returns one value per row; the later steps call its raw
function ``fn`` (see :mod:`phhs.fields`).

:func:`trajectory_grid` flows all its column anchors as one stack.  Its
monitors come from :func:`grid_monitors`, paid for only by the callers that
report them; they take H_R and H_I on node stacks, so an energy drift can
differ in the last digits from node-by-node values where a stack row rounds
differently from its point (the central problem's H_I, or text such as
``1 + x1^2``).  A bi-time grid node t + i s is reached by flowing X for t
and then J X for s from the anchor; paths in the complex time plane are
polylines integrated segment by segment.
"""

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from io import StringIO
from itertools import count, islice
from keyword import iskeyword
from textwrap import indent
from tokenize import NAME, OP, generate_tokens

import numpy as np

from .errors import NonFiniteStateError, StepBudgetExceededError
from .expressions import formula_function, generated, lane_map
from .fields import VectorField, grid_derivative, matvec, on_complex_state
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


def _check_state(y, step, h, row=None):
    """Raise if the state after ``step`` steps of size ``h`` left the finite box.

    The box bounds every real component, of a complex state too.  The error
    names the step, the flow time reached and, for a stack, the first row
    that left and its real (x, y) state; a lane state, a tuple whose inline
    box test failed, is checked as its array and named as ``row``.
    """
    y = np.asarray(y)
    # NaN fails the comparisons, so this also rejects non-finite entries; |z| bounds both parts of
    # a complex entry, so only a state with some |z| past the bound needs the check of the float view
    if np.abs(y).max() <= BLOWUP or np.abs(y.view(float)).max() <= BLOWUP:
        return
    if y.dtype.kind == "c":
        y = from_complex(y)
    if y.ndim == 2:
        row = int(np.flatnonzero(~(np.abs(y) <= BLOWUP).all(axis=1))[0])
        y = y[row]
    where = f"at step {step} (flow time {step * h:.17g})"
    if row is not None:
        where += f" in row {row}, state {y.tolist()}"
    raise NonFiniteStateError(
        f"flow state overflowed {where}; a singular locus was hit", step=step, time=step * h, row=row, state=y
    )


# The RK4 stage state y + c k and the step's end state y + (h/6)(k1 + 2 k2 + 2 k3 + k4), each y plus
# its increment, the one written form of each: the array path's _stage and _update and every lane
# stepper are made from them.
_STAGE = "{c} * {k}"
_UPDATE = "{sixth} * ({k1} + {two} * {k2} + {two} * {k3} + {k4})"


_stage = formula_function("{y} + " + _STAGE, "y", "c", "k")
_update = formula_function("{y} + " + _UPDATE, "y", "sixth", "k1", "k2", "k3", "k4", "two")


def _coefficients(complex_state, h):
    """half, full, sixth and two of a step of size h: Python complex numbers for a complex state.

    numpy would cast each float to x + 0j anyway (CPython 3.14 would not),
    and on the lane each product is then the complex one numpy makes.  A
    numpy h (a grid's node spacing) is read as a Python float, so a float
    lane steps Python floats.
    """
    h = float(h)
    if complex_state:
        return complex(0.5 * h), complex(h), complex(h / 6.0), 2.0 + 0j
    return 0.5 * h, h, h / 6.0, 2.0


def rk4_step(V, y, h):
    """One classical Runge-Kutta 4 step of dy/dt = V(y) with step h.

    ``y`` is a point or an ``(N, dim)`` stack, V must take the same shape,
    and the stages keep y's dtype: the flows step the real state of a field
    without a lane, and a complex ``y`` steps as the lane's complex z_j do.
    """
    half, full, sixth, two = _coefficients(y.dtype.kind == "c", h)
    k1 = np.asarray(V(y), dtype=y.dtype)
    k2 = np.asarray(V(_stage(y, half, k1)), dtype=y.dtype)
    k3 = np.asarray(V(_stage(y, half, k2)), dtype=y.dtype)
    k4 = np.asarray(V(_stage(y, full, k3)), dtype=y.dtype)
    return _update(y, sixth, k1, k2, k3, k4, two)


def _reads(text):
    """The names the code ``text`` reads, and ``f()`` for each name f that it calls (a name before ``(``)."""
    tokens = [t.string for t in generate_tokens(StringIO(text).readline) if t.type in (NAME, OP)]
    names = set()
    for before, name, after in zip(["", *tokens], tokens, [*tokens[1:], ""]):
        # not an attribute, a keyword, or a name that ``=`` sets (an assignment's or a keyword argument's)
        if name.isidentifier() and not iskeyword(name) and before != "." and after != "=":
            names.update((name, f"{name}()") if after == "(" else (name,))
    return names


@lru_cache(maxsize=256)
def _lane_stepper(m, lane, complex_state):
    """The lane's RK4 stepper for m components and the field's Lane ``lane``, generated once per process.

    ``stepper(y, n, first_step, h, half, full, sixth, two, *args, row=None)``
    takes steps first_step, ..., first_step + n - 1 (n >= 1) of size h of
    the field from the tuple ``y`` and returns the tuple state after them,
    with the coefficients of :func:`_coefficients` and the values of the
    lane's ``args``; its errors name ``row``, the row of a stack ``y`` is.
    Each step is straight-line code on y0..y{m-1}: the stages and the
    update of each component written from ``_STAGE`` and ``_UPDATE``, the
    operations of :func:`rk4_step` on a one-point array, and at each stage
    the lane written inline on the stage state ``_p0``, ``_p1``, ....

    Code that reads only what a call fixes is moved out of the loop, with
    the same operations, so each step adds the same bits; what a line or
    result reads is one analysis (:func:`_reads`).  A result that reads
    only the lane's constants and args, and calls nothing, is the same at
    every stage: it and its increments are computed once per call, before
    the loop.  Such a result bound to the number ±0.0 on the real layout
    makes its component *frozen*: half, full and sixth share h's sign, so
    its increments are one signed zero z and every stage state of it is
    y_j + z, (y + z) + z being y + z, but for the first stage of the
    call's first step, which reads y_j.  When every line and result reads
    only constants, args and frozen components, and calls no arg, the
    field lines run twice, before the loop (their errors located in
    ``first_step``): on y, for k1 of the first step, and on the stage
    state y + half k, for every other stage.  The loop then only adds the
    increments, the first step's sixth (k1 + 2 k + 2 k + k) and every
    later step's sixth (k + 2 k + 2 k + k).

    The box test is inlined: ``-BLOWUP <= y_j <= BLOWUP`` on the real
    layout, and |y_j| <= BLOWUP on a ``complex_state`` (the layout
    :func:`_lane_start` reads off the state); a state that fails it, or
    whose Python |z| overflows, goes to :func:`_check_state`.  A field's
    ``NonFiniteStateError`` is located in its step by :func:`_located`.
    The text is compiled once per process
    (:func:`~phhs.expressions.generated`).
    """
    y = [f"y{j}" for j in range(m)]
    p = [f"_p{j}" for j in range(m)]
    k = [[f"k{i}_{j}" for j in range(m)] for i in range(1, 5)]

    def state(names):
        return f"({', '.join(names)},)"

    def update(k1, k2, k3, k4):
        return _UPDATE.format(sixth="sixth", two="two", k1=k1, k2=k2, k3=k3, k4=k4)

    results = [_reads(r) for r in lane.results]
    read = _reads("\n".join(lane.lines)).union(*results)
    # the results that read only names the constants bind and the args, and call nothing: k_j, the
    # same at every stage, with its increments half_k_j, full_k_j and sixth_k_j
    bound = dict(re.findall(r"^(\w+) = (.*)$", "\n".join(lane.constants), re.M))
    fixed = [j for j, r in enumerate(results) if r <= {*bound, *lane.args}]
    hoisted = [f"k_{j} = {lane.results[j]}" for j in fixed]
    hoisted += [f"{c}_k_{j} = {_STAGE.format(c=c, k=f'k_{j}')}" for j in fixed for c in ("half", "full")]
    hoisted += [f"sixth_k_{j} = {update(*[f'k_{j}'] * 4)}" for j in fixed]
    # the frozen components, and whether the whole field reads nothing else that varies
    frozen = set() if complex_state else {p[j] for j in fixed if bound.get(lane.results[j]) in ("0.0", "-0.0")}
    varying = {*p, *(f"{a}()" for a in lane.args)} - frozen
    invariant = len(fixed) < m and not read & varying

    def field(c, previous, ks):
        """The lines that set ``ks`` to the field at the stage y + c previous (y itself at the first)."""
        stage = y if c is None else [
            f"{a} + {c}_k_{j}" if j in fixed else f"{a} + {_STAGE.format(c=c, k=b)}" for j, (a, b) in enumerate(zip(y, previous))
        ]
        reads = [f"{a} = {b}" for a, b in zip(p, stage) if a in read]
        return [*reads, *lane.lines, *(f"{ks[j]} = {r}" for j, r in enumerate(lane.results) if j not in fixed)]

    def located(lines, step, pad):
        """``lines`` in a try that locates the field's ``NonFiniteStateError`` in ``step``."""
        return [
            f"{pad}try:",
            indent("\n".join(lines) or "pass", pad + "    "),
            f"{pad}except NonFiniteStateError as exc:",
            f"{pad}    if exc.step is not None:",
            f"{pad}        raise",
            f"{pad}    raise _located(exc, {state(y)}, {step}, h, row) from exc",
        ]

    varied = [j for j in range(m) if j not in fixed]
    if invariant:
        # the field at y, k1_j of the first step, and at y + half k, k2_j of every later stage; step_j
        # is the increment of the step to come
        before = [
            *located([*field(None, None, k[0]), *field("half", k[0], k[1])], "first_step", "    "),
            *(f"    step_{j} = {update(k[0][j], *[k[1][j]] * 3)}" for j in varied),
            *(f"    sixth_k_{j} = {update(*[k[1][j]] * 4)}" for j in varied),
        ]
        stages, increments = [], {j: f"step_{j}" for j in varied}
        swaps = [f"        step_{j} = sixth_k_{j}" for j in varied]
    else:
        before, swaps = [], []
        stages = [*field(None, None, k[0]), *field("half", k[0], k[1]), *field("half", k[1], k[2]), *field("full", k[2], k[3])]
        stages = located(stages, "step", "        ")
        increments = {j: update(*(ks[j] for ks in k)) for j in varied}

    if complex_state:
        box = [
            "        try:",
            f"            inside = {' and '.join(f'{BLOWUP!r} >= abs({a})' for a in y)}",
            "        except OverflowError:  # Python's |z| past the float range: outside the box",
            "            inside = False",
            "        if not inside:",
        ]
    else:
        box = [f"        if not ({' and '.join(f'{-BLOWUP!r} <= {a} <= {BLOWUP!r}' for a in y)}):"]
    source = [
        *lane.constants,
        f"def lane(y, n, first_step, h, half, full, sixth, two{''.join(f', {a}' for a in lane.args)}, *, row=None):",
        f"    {state(y)} = y",
        *(f"    {line}" for line in hoisted),
        *before,
        "    for step in range(first_step, first_step + n):",
        *stages,
        *(f"        {y[j]} = {y[j]} + {increments.get(j, f'sixth_k_{j}')}" for j in range(m)),
        *swaps,
        *box,
        f"            _check_state({state(y)}, step, h, row)",
        f"    return {state(y)}",
    ]
    namespace = generated(
        "\n".join(source), f"<RK4 lane of {m} components>",
        NonFiniteStateError=NonFiniteStateError, _located=_located, _check_state=_check_state,
    )
    return namespace["lane"]


def _located(exc, y, step, h, row=None):
    """A field's ``NonFiniteStateError`` raised in ``step``, from state ``y``, naming that step.

    The time and the state are those the step started from; the row is the
    one the field named on an array stack, and ``row`` on the lane.
    """
    y = np.asarray(y)
    if y.dtype.kind == "c":
        y = from_complex(y)
    if y.ndim == 2:
        row = exc.row
        y = y if row is None else y[row]
    time = (step - 1) * h
    where = f"in step {step} of the flow (from flow time {time:.17g})"
    if row is not None:
        where += f" in row {row}, state {y.tolist()}"
    return NonFiniteStateError(f"{exc}, {where}", step=step, time=time, row=row, state=y)


def _lane_start(V, x0, h):
    """V's lane stepper, the values it takes after step h and the rows of ``x0`` as tuples; None without a lane."""
    if getattr(V, "lane", None) is None:
        return None
    body, args = V.lane
    complex_state = on_complex_state(body, x0.shape[-1])
    rows = np.atleast_2d(to_complex(x0) if complex_state else x0)
    values = (*_coefficients(complex_state, h), *args)
    return _lane_stepper(len(body.results), body, complex_state), values, [tuple(y) for y in rows.tolist()]


def _lane_rows(stepper, values, rows, n, first_step, h, stack):
    """The lane states ``rows`` after steps first_step, ..., first_step + n - 1 of size h, one stepper call per row.

    The error raised is the one the array path meets first: the earliest
    step, in a step a field's error (located with the field's error as its
    cause) before the box test at its end, then the lowest row, named in a
    ``stack``.  Later rows step only as far as a failed one did.  An error
    of another type propagates from the row that raises it.
    """
    out, first = [], None
    for row, y in enumerate(rows):
        try:
            out.append(stepper(y, n, first_step, h, *values, row=row if stack else None))
        except NonFiniteStateError as exc:
            key = (exc.step, exc.__cause__ is None)
            if first is None or key < first[0]:
                first = key, exc
                n = exc.step - first_step + 1
    if first is not None:
        raise first[1]
    return out


def rk4_states(V, x0, h):
    """The checked states after steps 1, 2, ... of the RK4 flow of V from the point ``x0`` with step h, endlessly.

    On the lane the state is a tuple, one stepper call per step (the Morse
    angle event sees every state); without a lane it is the real array
    (:func:`_array_states`).
    """
    x0 = as_point(x0)
    lane = _lane_start(V, x0, h)
    return _array_states(V, x0, h) if lane is None else _lane_states(*lane, h)


def _lane_states(stepper, values, rows, h):
    (y,) = rows
    for step in count(1):
        y = stepper(y, 1, step, h, *values)
        yield y


def _array_states(F, y, h):
    """F's flow on the real array: the first step's stages call F, the later ones its ``fn`` (a bare callable as it is)."""
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
    """Endpoint of n_steps RK4 steps over time t, as a real array: one lane stepper call per row on the lane."""
    h = t / n_steps
    lane = _lane_start(V, x0, h)
    if lane is None:
        for y in islice(_array_states(V, np.array(x0, dtype=float), h), n_steps):
            pass
        return y
    y = np.array(_lane_rows(*lane, n_steps, 1, h, x0.ndim == 2)).reshape(*x0.shape[:-1], -1)
    return from_complex(y) if y.dtype.kind == "c" else y


def _steps_for(t, cfg):
    """The number of steps of size at most ``cfg.dt`` over the duration t, within the step budget.

    The count is tested as a float, so a duration whose count overflows
    (inf, or |t| / dt past the float range) exceeds the budget.
    """
    if np.isnan(t):
        raise ValueError(f"the flow duration must be a number, got {t}")
    n = max(1.0, float(np.ceil(abs(t) / cfg.dt)))
    if n > cfg.max_step_count:
        raise StepBudgetExceededError(
            f"flow of duration {t} needs {n:.17g} steps, budget is {cfg.max_step_count}"
        )
    return int(n)


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
    sweep of x0 and the s sweep of the column anchors as one stack (row by
    row where J X has a lane, so each column is its own flow).  The
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
# its lane where X and J X have lanes on the real state
_COMBINATION = "a * {c} + b * {d}"
_combination = formula_function(_COMBINATION, "c", "d", "a", "b")


def _combo_field(fields, a, b):
    """a X + b J X from X's and J X's own forms; its lane a w + (i b) w where X's lane steps complex z_j (J X is i w).

    a and b are read as Python floats (``tilted_flow`` passes numpy's), so
    a float lane steps Python floats.
    """
    a, b = float(a), float(b)
    X, JX = fields.X, fields.JX
    X_fn, JX_fn = X.fn, JX.fn

    def fn(p):
        return _combination(np.asarray(X_fn(p), dtype=float), np.asarray(JX_fn(p), dtype=float), a, b)

    if X.lane is None or JX.lane is None:
        return VectorField(fn, fd=X.fd, name="combo")
    if on_complex_state(X.lane[0], fields.model.dim):
        lane = lane_map("a * {v} + ib * {v}", {"a": complex(a), "ib": 1j * b}, v=X.lane)
    else:
        lane = lane_map(_COMBINATION, {"a": a, "b": b}, c=X.lane, d=JX.lane)
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
