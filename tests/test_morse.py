import numpy as np
import pytest
from scipy.optimize import brentq

from textwrap import indent

from phhs import expressions, flows, morse
from phhs.errors import NonFiniteStateError, NoReturnError, ZeroDenominatorError
from phhs.expressions import lane_function
from phhs.fields import ScalarField, VectorField
from phhs.flows import FlowConfig
from phhs.morse import (
    PlanarSystem,
    area_law_check,
    chart_derivative,
    period_function,
    rescaling_chart,
    verify_T_periodic,
)

from conftest import array_states, clear_compile_caches

CFG = FlowConfig(dt=1e-3)


@pytest.fixture(scope="module")
def quad_system():
    return PlanarSystem(v=lambda p: 1.0 + p[0] ** 2, T=np.pi)


def test_period_function_constant_factors():
    assert period_function(PlanarSystem(v=lambda p: 1.0, T=np.pi), 0.7) == pytest.approx(np.pi)
    assert period_function(PlanarSystem(v=lambda p: 2.0, T=np.pi), 0.3) == pytest.approx(2 * np.pi)


def test_period_function_oracle_and_evenness(quad_system):
    for r in (0.2, 0.5, 0.8):
        oracle = np.pi * (1.0 + r * r / 2.0)
        assert period_function(quad_system, r) == pytest.approx(oracle, abs=1e-12)
        assert period_function(quad_system, -r) == pytest.approx(period_function(quad_system, r), abs=1e-12)


def test_period_lower_bound(quad_system):
    # T_hat(r) >= pi min(v) = pi
    for r in np.linspace(0.0, 1.0, 7):
        assert period_function(quad_system, r) >= np.pi - 1e-12


def test_rescaling_chart_identity_and_scaling():
    ident = PlanarSystem(v=lambda p: 1.0, T=np.pi)
    assert rescaling_chart(ident, 0.37) == pytest.approx(0.37, abs=1e-13)
    double = PlanarSystem(v=lambda p: 2.0, T=np.pi)
    assert rescaling_chart(double, 0.37) == pytest.approx(0.74, abs=1e-13)


def test_rescaling_chart_oracle_and_monotone(quad_system):
    ss = np.linspace(-0.5, 0.9, 11)
    vals = [rescaling_chart(quad_system, s) for s in ss]
    for s, v in zip(ss, vals):
        assert v == pytest.approx(s + s * abs(s) / 4.0, abs=1e-12)
    assert np.all(np.diff(vals) > 0)
    assert rescaling_chart(quad_system, 0.0) == 0.0


def test_chart_derivative_law(quad_system):
    # d psi / ds (r^2) = T_hat(r) / T
    for r in (0.2, 0.5, 0.8):
        s = r * r
        fd = (rescaling_chart(quad_system, s + 1e-6) - rescaling_chart(quad_system, s - 1e-6)) / 2e-6
        assert fd == pytest.approx(chart_derivative(quad_system, s), abs=1e-8)
        assert chart_derivative(quad_system, s) == pytest.approx(
            period_function(quad_system, r) / np.pi, abs=1e-10
        )


def test_rescaled_orbits_share_the_target_period(quad_system):
    for r0 in (0.2, 0.5, 0.8):
        T = verify_T_periodic(quad_system, r0, CFG)
        assert abs(T - np.pi) < 1e-4


def test_unrescaled_periods_are_radius_dependent(quad_system):
    for r0 in (0.2, 0.5):
        T = verify_T_periodic(quad_system, r0, CFG, rescale=False)
        assert abs(T - np.pi * (1.0 + r0 * r0 / 2.0)) < 1e-4


def test_harmonic_flow_period():
    sys0 = PlanarSystem(v=lambda p: 1.0, T=np.pi)
    assert abs(verify_T_periodic(sys0, 0.5, CFG) - np.pi) < 1e-6


def test_no_return_guard(quad_system):
    with pytest.raises(NoReturnError):
        verify_T_periodic(quad_system, 0.5, FlowConfig(dt=1e-3, max_step_count=100))


def test_area_law(quad_system):
    for E in (0.05, 0.1, 0.2):
        area, target, res = area_law_check(quad_system, E)
        assert res < 1e-4
        # a deliberately wrong period shows up as |dT| * E
        wrong = abs(area - (np.pi + 0.1) * E)
        assert wrong == pytest.approx(0.1 * E, abs=1e-3)


def test_area_law_finds_the_sublevel_radius_once(quad_system, monkeypatch):
    # psi_L(r^2) is radial, so one root find per energy needs a few dozen charts, not one per angle
    calls = []
    chart = morse.rescaling_chart

    def counting(*args, **kwargs):
        calls.append(args)
        return chart(*args, **kwargs)

    monkeypatch.setattr(morse, "rescaling_chart", counting)
    area_law_check(quad_system, 0.1)
    assert 0 < len(calls) < 100


def test_disk_area_exact_for_unit_factor():
    sys0 = PlanarSystem(v=lambda p: 1.0, T=np.pi)
    area, target, res = area_law_check(sys0, 0.2)
    assert res < 1e-10


@pytest.mark.parametrize("v", [lambda p: p[0] - 0.3, lambda p: 1.0 / abs(p[1])])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_positive_or_non_finite_conformal_factor_raises(v):
    # v = x - 0.3 changes sign inside the disk; 1/|y| is infinite on the ray phi = 0
    # (before the check, the x - 0.3 orbit walked the whole step budget)
    with pytest.raises(ZeroDenominatorError, match=r"at point \["):
        verify_T_periodic(PlanarSystem(v=v, T=np.pi), 0.5, FlowConfig(dt=1e-3, max_step_count=20000))
    # the interpolant of T_hat checks its rings, so the area law, which flows no orbit, raises too
    with pytest.raises(ZeroDenominatorError, match=r"at point \["):
        area_law_check(PlanarSystem(v=v, T=np.pi), 0.1)


def test_conformal_factor_vanishing_on_a_line_raises():
    # x1^2 vanishes on x1 = 0, which the ring angle pi/2 meets only up to rounding: v there is
    # 3.7e-33 of the ring maximum, positive, and the period used to read 3.0365459195825792
    with pytest.raises(ZeroDenominatorError, match=r"at point \[.*of its largest value on the ring"):
        verify_T_periodic(PlanarSystem(v="x1^2", T=np.pi), 0.5)
    # a linear zero is left at about eps of the ring maximum
    with pytest.raises(ZeroDenominatorError, match=r"of its largest value on the ring"):
        period_function(PlanarSystem(v=lambda p: abs(p[0]), T=np.pi), 0.5)


@pytest.mark.parametrize("v", ["exp(8*x1)", "exp(10*x1)"])
def test_conformal_factor_with_a_wide_range_on_the_rings_is_accepted(v):
    # on the ring r = RMAX = 1.2, exp(10*x1) spans e^24 (about 2.6e10), far above the rounding floor
    sys = PlanarSystem(v=v, T=np.pi)
    assert np.isfinite(period_function(sys, morse.RMAX))
    assert verify_T_periodic(sys, 0.1) == pytest.approx(np.pi, abs=1e-8)


def test_unrescaled_orbit_checks_the_factor_at_each_stage():
    # no interpolant is built: the orbit itself meets v <= 0 where it crosses x = 0.3, while
    # the rescaled orbit meets it first on a ring of T_hat's interpolant; messages recorded
    # before the orbit field was written as a lane
    cfg = FlowConfig(dt=1e-3, max_step_count=20000)
    messages = []
    for rescale in (True, False):
        with pytest.raises(ZeroDenominatorError) as info:
            verify_T_periodic(PlanarSystem(v="x1 - 0.3", T=np.pi), 0.5, cfg, rescale=rescale)
        messages.append(str(info.value))
    assert messages == [
        "conformal factor v = -0.29969172972041275 at point [0.0003082702795872416, 0.0]; v must be positive and finite",
        "conformal factor v = -0.01841933536719681 at point [0.2815806646328032, 0.41409179243938954]; "
        "v must be positive and finite",
    ]


def test_period_measurement_checks_the_state_each_step():
    # with v = 1e-12 an orbit turns in ~3e-12, far below one step: the first step leaves the finite box
    system = PlanarSystem(v=1e-12, T=np.pi)
    with pytest.raises(NonFiniteStateError) as err:
        verify_T_periodic(system, 0.5, FlowConfig(dt=1e-3, max_step_count=20000), rescale=False)
    assert err.value.step == 1


def _t_hat(interp):
    """T_hat's lane on the radius ``_p0``, as the function of one radius that it writes out."""
    point = lane_function(morse._clenshaw(interp, "_p0"))
    return lambda r: point((r,))[0]


def test_clenshaw_equals_chebyshev_call_bit_for_bit(quad_system):
    interp = morse._period_interpolant(quad_system)
    value = _t_hat(interp)
    rng = np.random.default_rng(7)
    radii = np.concatenate([np.linspace(0.0, morse.RMAX, 10001), rng.uniform(0.0, morse.RMAX, 2000)])
    assert radii[0] == 0.0 and radii[10000] == morse.RMAX
    fast = np.array([value(r) for r in radii.tolist()])
    assert np.array_equal(fast, np.array([interp(r) for r in radii]))


@pytest.mark.parametrize(
    "coef, domain",
    [
        ([-0.0], [0.0, 1.2]),
        ([0.7], [0.0, 1.2]),
        ([0.7, -1.3], [0.0, 1.2]),
        ([0.7, -1.3, 0.2], [0.0, 1.2]),
        (list(np.random.default_rng(49).standard_normal(49)), [0.0, 1.2]),
        ([0.7, -0.0, -1.3, 0.0, -0.0, 0.2], [0.0, 1.2]),
        (list(np.random.default_rng(7).standard_normal(9)), [1.2, 0.0]),
        ([0.7, np.inf, -1.3, 0.2], [0.0, 1.2]),
        ([0.7, -1.3, np.nan, 0.2, -np.inf], [0.0, 1.2]),
        ([0.7, -np.nan, 0.2, -1.3], [0.0, 1.2]),
    ],
    ids=["-0", "1", "2", "3", "49", "inner -0", "reversed domain", "inf", "nan", "-nan"],
)
def test_clenshaw_on_short_series_equals_chebyshev_call_bit_for_bit(coef, domain):
    # chebval reads a series of one coefficient as c0 + 0 x, of two as c0 + c1 x; a finite
    # coefficient is a literal of the generated code, inf and NaN are bound by name
    interp = np.polynomial.chebyshev.Chebyshev(coef, domain=domain)
    value = _t_hat(interp)
    radii = np.concatenate([[0.0, 0.6, 1.2], np.random.default_rng(len(coef)).uniform(-0.2, 1.4, 500)])
    fast = np.array([value(r) for r in radii.tolist()])
    with np.errstate(all="ignore"):  # inf - inf in numpy's recurrence
        assert fast.tobytes() == np.array([interp(r) for r in radii]).tobytes()


def test_orbit_field_scalar_form_equals_its_array_form_bit_for_bit():
    # v = 2 - x1^2 is positive on every ring of the interpolant (r <= RMAX = 1.2) and not from
    # |x1| = sqrt(2) on; past RMAX T_hat is read at RMAX, min's choice, and a NaN radius gives NaN
    system = PlanarSystem(v="2 - x1^2", T=np.pi)
    F = morse.hamiltonian_flow_field(system)
    interp = morse._period_interpolant(system)
    inf, nan = np.inf, np.nan
    scalar_form = lane_function(*F.lane)
    for x, y in [(0.3, -0.4), (1.0, 0.9), (-0.1, 1.5), (0.0, inf), (0.0, -inf), (0.0, nan), (0.5, 1e300)]:
        r = np.sqrt(x * x + y * y)
        q = float(interp(min(r, morse.RMAX))) / system.T / float(system.v(np.array([x, y])))
        with np.errstate(all="ignore"):
            expected = np.array([-2.0 * y * q, 2.0 * x * q])
            array = F.fn(np.array([x, y]))
        scalar = scalar_form((x, y))
        assert all(type(c) is float for c in scalar)
        assert np.array(scalar).tobytes() == array.tobytes() == expected.tobytes()
    for x, y in [(1.5, 0.0), (2.0**0.5, 0.0), (-inf, 0.3), (nan, 0.0)]:
        with pytest.raises(ZeroDenominatorError, match="conformal factor v = ") as scalar:
            scalar_form((x, y))
        with pytest.raises(ZeroDenominatorError) as array, np.errstate(all="ignore"):
            F.fn(np.array([x, y]))
        assert str(scalar.value) == str(array.value)
        if (x, y) == (1.5, 0.0):  # recorded before the orbit field was written as a lane
            assert str(scalar.value) == "conformal factor v = -0.25 at point [1.5, 0.0]; v must be positive and finite"


@pytest.mark.parametrize(
    "v", ["1 + x1^2", "exp(x1)", "2 + sin(x1) * y1", 1.5, lambda p: 1.0 + p[0] ** 2], ids=["text-1", "text-2", "text-3", "number", "callable"]
)
def test_orbit_periods_on_the_scalar_lane_equal_the_array_path_bit_for_bit(v, monkeypatch):
    # text or a number v is written into the orbit's lane, a callable is called from it
    system = PlanarSystem(v=v, T=np.pi)
    orbit_field = morse.hamiltonian_flow_field
    assert orbit_field(system).lane is not None
    lane = [verify_T_periodic(system, r0, CFG) for r0 in (0.2, 0.5, 0.8)]
    # the orbit field with its lane stripped, stepped as a point array on numpy's arrays
    monkeypatch.setattr(morse, "hamiltonian_flow_field", lambda *args, **kw: VectorField(orbit_field(*args, **kw).fn))
    monkeypatch.setattr(morse, "rk4_states", lambda V, x0, h: array_states(V, np.array(x0, dtype=float), h))
    array = [verify_T_periodic(system, r0, CFG) for r0 in (0.2, 0.5, 0.8)]
    assert np.array(lane).tobytes() == np.array(array).tobytes()
    assert max(abs(T - np.pi) for T in lane) < 1e-5


@pytest.mark.parametrize("v", ["1 + x1^2", "2 + sin(x1) * y1", "1/(1 + x1^2) + y1^2"])
def test_text_v_is_written_into_each_stage_of_the_orbit_stepper(v, monkeypatch):
    # v's own lane, its locals renamed _v..., takes the place of a call of v: the generated
    # stepper holds each of v's lines once per RK4 stage, and a callable v keeps the one call line
    sources = []

    def recorded(source, *args, **names):
        sources.append(source)
        return generated(source, *args, **names)

    generated = flows.generated
    monkeypatch.setattr(flows, "generated", recorded)
    text = PlanarSystem(v=v, T=np.pi)
    for system in (text, PlanarSystem(v=lambda p: 1.5, T=np.pi)):
        body, _ = morse.hamiltonian_flow_field(system).lane
        flows._lane_stepper.__wrapped__(2, body, False)
    inline, called = sources
    v_lines = expressions._renamed(text.v.lane[0], "_v").lines
    assert v_lines and "_v(" not in inline
    assert all(inline.count(indent(line, " " * 12)) == 4 for line in v_lines)
    assert inline.count("_vp = float(") == 4 and called.count("_vp = float(_v((_p0, _p1)))") == 4


@pytest.mark.parametrize("v", [2.0, "2", "2 + 0*x1"], ids=["number", "constant-text", "text"])
def test_constant_v_is_a_literal_of_the_orbit_stepper(v, monkeypatch):
    # a constant v carries a Lane, its number as a literal: the stepper calls no _v, and the
    # period is the bits of the same v written as text in x1
    sources = []

    def recorded(source, *args, **names):
        sources.append(source)
        return generated(source, *args, **names)

    generated = flows.generated
    monkeypatch.setattr(flows, "generated", recorded)
    system = PlanarSystem(v=v, T=np.pi)
    body, _ = morse.hamiltonian_flow_field(system).lane
    flows._lane_stepper.__wrapped__(2, body, False)
    (source,) = sources
    assert "_v(" not in source and source.count("_vp = float(") == 4
    assert verify_T_periodic(system, 0.5, CFG).hex() == "0x1.921fb54442e84p+1"


@pytest.mark.parametrize("v", ["1 + x1^2", 1.5, lambda p: 1.0 + p[0] ** 2], ids=["text", "number", "callable"])
def test_orbit_field_on_a_stack_is_its_rows_bit_for_bit(v):
    # the field takes a stack, one row per point, as every field does (np.zeros((3, 2)) raised a
    # TypeError when the array form read a stack as one point)
    F = morse.hamiltonian_flow_field(PlanarSystem(v=v, T=np.pi))
    for P in (np.zeros((3, 2)), np.random.default_rng(5).uniform(-1.0, 1.0, (3, 2))):
        stack = F(P)
        assert stack.shape == P.shape
        for row, p in zip(stack, P):
            assert row.tobytes() == F(p).tobytes()


def test_ring_and_ray_stacks_equal_the_pointwise_loop(quad_system):
    # the reference: v called at one point per angle and per radial node
    phis = np.linspace(0.0, 2.0 * np.pi, morse.N_PHI + 1)

    def conformal(x, y):
        return float(quad_system.v(np.array([x, y])))

    for r in (0.0, 0.2, 0.55, 1.2):
        vals = np.array([conformal(r * np.cos(p), r * np.sin(p)) for p in phis])
        assert period_function(quad_system, r) == 0.5 * float(np.trapezoid(vals, phis))
    E = 0.1
    rE = brentq(lambda r: rescaling_chart(quad_system, r * r) - E, 1e-12, morse.RMAX, xtol=1e-13)
    rs = np.linspace(0.0, rE, morse.N_R + 1)
    ring = [np.trapezoid([conformal(r * np.cos(p), r * np.sin(p)) * r for r in rs], rs) for p in phis]
    assert area_law_check(quad_system, E)[0] == float(np.trapezoid(ring, phis))


def test_text_and_point_callable_factors_give_the_same_bits():
    text = PlanarSystem(v="1 + x1^2", T=np.pi)
    point = PlanarSystem(v=lambda p: 1 + p[0] ** 2, T=np.pi)
    radii = np.linspace(0.0, 1.0, 41)
    assert np.array_equal([period_function(text, r) for r in radii], [period_function(point, r) for r in radii])
    for E in (0.05, 0.2):
        assert np.array_equal(area_law_check(text, E), area_law_check(point, E))
    cfg = FlowConfig(dt=2e-3)
    for r0 in (0.2, 0.8):
        assert verify_T_periodic(text, r0, cfg) == verify_T_periodic(point, r0, cfg)


def test_area_law_evaluates_v_once_per_ray():
    calls = []

    def v(p):
        calls.append(p.shape)
        return 1.0 + p[..., 0] ** 2

    system = PlanarSystem(v=ScalarField(v), T=np.pi)
    area_law_check(system, 0.1)  # builds the interpolant of T_hat
    calls.clear()
    area, target, res = area_law_check(system, 0.2)
    assert res < 1e-4
    assert len(calls) <= morse.N_PHI + 2
    assert calls == [(morse.N_R + 1, 2)] * (morse.N_PHI + 1)


def test_orbit_field_makes_no_numpy_polynomial_call(quad_system, monkeypatch):
    morse._period_interpolant(quad_system)

    def no_call(self, arg):
        raise AssertionError("Chebyshev.__call__ called by the orbit field")

    monkeypatch.setattr(np.polynomial.chebyshev.Chebyshev, "__call__", no_call)
    assert abs(verify_T_periodic(quad_system, 0.5, FlowConfig(dt=2e-3)) - np.pi) < 1e-4


def test_t_hat_code_is_compiled_once_per_system(monkeypatch):
    # the rescaled orbit field writes T_hat's code, made once and kept on the system, into its
    # lane stepper, which is compiled once per process for its text: once for the rescaled
    # orbits and once for the unrescaled one, and not again for a second system with the same
    # T_hat
    import builtins

    from phhs import expressions, flows

    compiled, compile_ = [], builtins.compile

    def counted(source, filename, *args, **kw):
        compiled.append(filename)
        return compile_(source, filename, *args, **kw)

    monkeypatch.setattr(builtins, "compile", counted)
    clear_compile_caches()
    system = PlanarSystem(v=lambda p: 1.0 + p[0] ** 2, T=np.pi)
    cfg = FlowConfig(dt=2e-3)
    periods = [verify_T_periodic(system, r0, cfg) for r0 in (0.3, 0.5, 0.3)]
    verify_T_periodic(system, 0.5, cfg, rescale=False)
    assert compiled == ["<RK4 lane of 2 components>"] * 2
    assert periods[0] == periods[2]
    other = PlanarSystem(v=lambda p: 1.0 + p[0] ** 2, T=np.pi)
    assert verify_T_periodic(other, 0.3, cfg) == periods[0]
    assert compiled == ["<RK4 lane of 2 components>"] * 2
