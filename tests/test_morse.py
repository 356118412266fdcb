import numpy as np
import pytest
from scipy.optimize import brentq

from phhs import morse
from phhs.errors import NonFiniteStateError, NoReturnError, ZeroDenominatorError
from phhs.fields import ScalarField
from phhs.flows import FlowConfig
from phhs.morse import (
    PlanarSystem,
    area_law_check,
    chart_derivative,
    period_function,
    rescaling_chart,
    verify_T_periodic,
)

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
    # on the ring r = rmax = 1.2, exp(10*x1) spans e^24 (about 2.6e10), far above the rounding floor
    sys = PlanarSystem(v=v, T=np.pi)
    assert np.isfinite(period_function(sys, sys.rmax))
    assert verify_T_periodic(sys, 0.1) == pytest.approx(np.pi, abs=1e-8)


def test_unrescaled_orbit_checks_the_factor_at_each_stage():
    # no interpolant is built: the orbit itself meets v <= 0 where it crosses x = 0.3
    with pytest.raises(ZeroDenominatorError, match=r"v = -?[0-9.e-]+ at point \["):
        verify_T_periodic(PlanarSystem(v="x1 - 0.3", T=np.pi), 0.5, FlowConfig(dt=1e-3, max_step_count=20000),
                          rescale=False)


def test_period_measurement_checks_the_state_each_step():
    # with v = 1e-12 an orbit turns in ~3e-12, far below one step: the first step leaves the finite box
    system = PlanarSystem(v=1e-12, T=np.pi)
    with pytest.raises(NonFiniteStateError) as err:
        verify_T_periodic(system, 0.5, FlowConfig(dt=1e-3, max_step_count=20000), rescale=False)
    assert err.value.step == 1


def test_clenshaw_equals_chebyshev_call_bit_for_bit(quad_system):
    interp = morse._period_interpolant(quad_system)
    value = morse._clenshaw(interp)
    rng = np.random.default_rng(7)
    radii = np.concatenate([np.linspace(0.0, quad_system.rmax, 10001), rng.uniform(0.0, quad_system.rmax, 2000)])
    assert radii[0] == 0.0 and radii[10000] == quad_system.rmax
    fast = np.array([value(r) for r in radii.tolist()])
    assert np.array_equal(fast, np.array([interp(r) for r in radii]))


def test_ring_and_ray_stacks_equal_the_pointwise_loop(quad_system):
    # the reference: v called at one point per angle and per radial node
    phis = np.linspace(0.0, 2.0 * np.pi, morse.N_PHI + 1)

    def conformal(x, y):
        return float(quad_system.v(np.array([x, y])))

    for r in (0.0, 0.2, 0.55, 1.2):
        vals = np.array([conformal(r * np.cos(p), r * np.sin(p)) for p in phis])
        assert period_function(quad_system, r) == 0.5 * float(np.trapezoid(vals, phis))
    E = 0.1
    rE = brentq(lambda r: rescaling_chart(quad_system, r * r) - E, 1e-12, quad_system.rmax, xtol=1e-13)
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
