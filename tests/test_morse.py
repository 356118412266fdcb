import numpy as np
import pytest

from phhs import morse
from phhs.errors import NoReturnError
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
