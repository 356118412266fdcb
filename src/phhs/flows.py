"""Deterministic numerical flows and their compositions.

All integration is fixed-step classical Runge-Kutta 4: determinism is worth
more than adaptivity for golden-value work, and the step budget guards the
singular loci.  :func:`rk4_step` is the only place the RK4 stage formula is
written; every flow in the package, the period measurement of
:mod:`phhs.morse` included, advances through it.

A flow state is one point ``(dim,)`` or a stack ``(N, dim)`` of points that
share one step schedule; the field is then evaluated on the whole stack at
each stage.  :func:`trajectory_grid` flows all its column anchors so, and
since every row takes exactly the steps it would take alone, each node is
the value a flow of its own column gives.  The grid carries no monitor:
:func:`grid_monitors` computes them from it, so only a caller that reports
them pays for them (the ``integrate`` verb does; ``action-check``, which
reads the nodes alone, skips the swap check's two single-point flows).  The
monitors take H_R and H_I on all nodes and J on the interior nodes as one
stack each, so an energy drift can differ in the last digits from
node-by-node values where H_R or H_I rounds a stack row differently from
that point (the central problem's H_I, or expression text such as
``1 + x1^2``).

A field that is the real form of a holomorphic w on C^m (J = i; see
``VectorField.complex_form``) is flowed on the complex state z = x + i y:
the state is converted once when a flow starts and once when it ends, and
every stage calls w on z directly, with no real/complex round trip and no
J matrix.  The same :func:`rk4_step` advances both states; the stage
arithmetic is the real one component by component, so the endpoints are
bit for bit those of the real path.  The combination a X + b J X is
a w + (i b) w on that path, two terms as on the real one: a single
(a + i b) w rounds differently.

Time-plane conventions: a bi-time grid node t + i s is reached by flowing X
for t and then J X for s from the anchor; paths in the complex time plane
are polylines integrated segment by segment.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteStateError, StepBudgetExceededError
from .fields import VectorField, matvec
from .util import as_point, as_points, from_complex, to_complex

BLOWUP = 1e8


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-3
    max_step_count: int = 5_000_000
    richardson: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.max_step_count <= 0:
            raise ValueError("max_step_count must be positive")


def _check_state(y, step, h):
    """Raise if the state after ``step`` steps of size ``h`` left the finite box.

    The box bounds every real component, of a complex state too.  The error
    names the step, the flow time reached and, for a stack, the first row
    that left (and its state, in the real (x, y) layout).
    """
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


def rk4_step(V, y, h):
    """One classical Runge-Kutta 4 step of dy/dt = V(y) with step h.

    ``y`` is a point or an ``(N, dim)`` stack, real or complex; V must take
    the same shape, and the stages keep the dtype of ``y``.
    """
    k1 = np.asarray(V(y), dtype=y.dtype)
    k2 = np.asarray(V(y + 0.5 * h * k1), dtype=y.dtype)
    k3 = np.asarray(V(y + 0.5 * h * k2), dtype=y.dtype)
    k4 = np.asarray(V(y + h * k3), dtype=y.dtype)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _located(exc, y, step, h):
    """A field's ``NonFiniteStateError`` raised in ``step``, from state ``y``, naming that step.

    The time and the state are those the step started from; the row is the
    one the field named, if it named one.
    """
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


def _rk4(V, x0, t, n_steps):
    """Endpoint of n_steps RK4 steps; a field with a complex form steps z = x + i y."""
    w = getattr(V, "complex_form", None)
    F, y = (V, np.array(x0, dtype=float)) if w is None else (w, to_complex(x0))
    h = t / n_steps
    for step in range(1, n_steps + 1):
        try:
            y = rk4_step(F, y, h)
        except NonFiniteStateError as exc:
            if exc.step is not None:
                raise
            raise _located(exc, y, step, h) from exc
        _check_state(y, step, h)
    return y if w is None else from_complex(y)


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
    """Flow endpoint with a Richardson error estimate from halved steps."""
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
    * cr_residual: max |d_s gamma - J(d_t gamma)| by grid central differences,
      and cr_nodes, its value at each node (0 on the border).
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
        dt_g = ((values[2:, 1:-1] - values[:-2, 1:-1]) / (2.0 * ht)).reshape(-1, dim)
        ds_g = ((values[1:-1, 2:] - values[1:-1, :-2]) / (2.0 * hs)).reshape(-1, dim)
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


def _combo_field(fields, a, b):
    """a X + b J X, with X evaluated once per call; a w + (i b) w on z when J X has a complex form."""

    def fn(p):
        x = np.asarray(fields.X(p), dtype=float)
        return a * x + b * matvec(np.asarray(fields.model.J(p), dtype=float), x)

    if fields.JX.complex_form is None:
        return VectorField(fn, fd=fields.X.fd, name="combo")
    w = fields.X.complex_form

    def complex_fn(z):
        v = w(z)
        return a * v + (1j * b) * v

    return VectorField(fn, fd=fields.X.fd, name="combo", complex_form=complex_fn)


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
