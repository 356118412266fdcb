"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) before
asserting, so a red criterion still reports its measured numbers.
"""

import time

import numpy as np
import pytest

from phhs import actions as act
from phhs import connections as conn
from phhs import models
from phhs.flows import FlowConfig, circle_path, continue_along_path, flow_word, trajectory_grid
from phhs.frames import symplectic_gram_schmidt
from phhs.hamiltonian import assemble_phhs, integrability_report, j_preserving_check, omega_I_from
from phhs.morse import PlanarSystem, area_law_check, period_function, verify_T_periodic
from phhs.tensors import exterior_derivative_2form, nijenhuis_rank
from phhs.util import grid_points, to_complex

CFG = FlowConfig(dt=1e-3)
X0 = np.array([1.0, 0.5, 0.0, 0.0])


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_flow_word_golden_value(central):
    # Endpoint for the word [(0, -2), (-2, 1)] from (Q, P) = (1, 1/2), where
    # E0 = 0 and the branch-tracked closed form is Q(z) = sqrt(z + 1),
    # P = 1/(2 Q).  The word ends at z = -2 - i, so z + 1 = -1 - i with
    # |z + 1| = sqrt(2) and, on the tracked sheet, arg(z + 1) = 5 pi/4:
    # Q = 2**0.25 e^{i 5 pi/8}, P = 2**-1.25 e^{-i 5 pi/8}.  The swapped word
    # lands on the other sheet, at the negative.
    _, fields = central
    t0 = time.time()
    end1 = to_complex(flow_word(fields, X0, [(0.0, -2.0), (-2.0, 1.0)], CFG))
    end2 = to_complex(flow_word(fields, X0, [(0.0, 1.0), (-2.0, -2.0)], CFG))
    elapsed = time.time() - t0
    target = np.array(
        [
            2.0**0.25 * np.exp(1j * 5.0 * np.pi / 8.0),
            2.0**-1.25 * np.exp(-1j * 5.0 * np.pi / 8.0),
        ]
    )
    # The target is Q = sqrt(z + 1) at z = -2 - i and P = 1/(2 Q).
    assert abs(target[0] ** 2 - (-1.0 - 1.0j)) <= 1e-15
    assert abs(target[1] - 0.5 / target[0]) <= 1e-15
    err1 = float(np.max(np.abs(end1 - target)))
    err2 = float(np.max(np.abs(end2 + target)))
    ok = err1 <= 1e-5 and err2 <= 1e-5 and elapsed < 5.0
    report(
        1,
        ok,
        f"flow word endpoint vs closed-form pair: err={err1:.3e}, swapped err={err2:.3e}, "
        f"runtime {elapsed:.2f}s (computed endpoint {end1})",
    )
    assert elapsed < 5.0
    assert err1 <= 1e-5, (
        f"endpoint {end1} is not the closed-form pair "
        "(2**0.25 e^{i 5 pi/8}, 2**-1.25 e^{-i 5 pi/8})"
    )
    assert err2 <= 1e-5


def test_criterion_02_closed_form_trajectory(central):
    model, fields = central
    grid = trajectory_grid(fields, X0, 0.0, (0.0, 1.0), (0.0, 1.0), 33, 33, CFG)
    gamma = model.closed_form(X0)
    worst = 0.0
    for i in range(grid.nt):
        for j in range(grid.ns):
            z = grid.node_z(i, j)
            worst = max(worst, float(np.max(np.abs(to_complex(grid.values[i, j]) - gamma(z)))))
    ok = worst <= 1e-6
    assert report(2, ok, f"33x33 grid vs sqrt(z+1): max error {worst:.3e} <= 1e-6")


def test_criterion_03_monodromy(central):
    _, fields = central
    once = continue_along_path(fields, X0, circle_path(-1.0, 1.0, 0.0, turns=1), CFG)
    twice = continue_along_path(fields, X0, circle_path(-1.0, 1.0, 0.0, turns=2), CFG)
    e1 = float(np.max(np.abs(once + X0)))
    e2 = float(np.max(np.abs(twice - X0)))
    ok = e1 <= 1e-5 and e2 <= 1e-5
    assert report(3, ok, f"loop once -> -x0 ({e1:.3e}), twice -> x0 ({e2:.3e}), tol 1e-5")


def test_criterion_04_integrability_dichotomy():
    tau = 1e-3
    zoo = [
        ("standard", models.build_standard_hhs(1, "P1"), 0.5, True),
        ("twist(1,1)", models.build_proper_phhs(f="1", h="1"), 0.5, True),
        ("twist(1,exp)", models.build_proper_phhs(f="1", h="exp(x1)"), 0.5, False),
        ("rotation(0)", models.build_rotation_family("0"), 0.5, True),
        ("rotation(x1)", models.build_rotation_family("x1"), 0.5, False),
        ("deform(0)", models.build_deformation(0.0, n=1), 1.2, True),
        ("deform(0.5)", models.build_deformation(0.5, n=1), 1.2, False),
    ]
    ok = True
    details = []
    for name, model, half, integrable in zoo:
        rep = integrability_report(model, grid_points(np.zeros(4), half, 5), threshold=tau)
        both_small = rep.max_nijenhuis <= tau and rep.max_d_omega_I <= tau
        dichotomy = (rep.max_nijenhuis <= tau) == (rep.max_d_omega_I <= tau)
        good = dichotomy and (both_small == integrable)
        if not integrable:
            good = good and rep.max_nijenhuis > 0.05 and rep.max_d_omega_I > 0.05
        ok = ok and good
        details.append(f"{name}: N={rep.max_nijenhuis:.2e} dO={rep.max_d_omega_I:.2e}")
    twist = models.build_proper_phhs(f="1", h="exp(x1)")
    omega_I = omega_I_from(twist.omega_R, twist.J)
    comp = exterior_derivative_2form(omega_I, np.zeros(4))[0, 1, 2]
    ok = ok and abs(comp - 1.0) <= 1e-4
    assert report(4, ok, "; ".join(details) + f"; dOmega_I[x1x2y1](0)={comp:.6f} vs 1")


def test_criterion_05_assembly_identities(proper):
    model, fields = proper
    d = fields.diagnostics
    residuals = {
        "[X,JX]": d["commutator"],
        "dH o J - i dH": d["pseudo_holomorphy"],
        "{H_R,H_I}": d["poisson_H_R_H_I"],
        "X_omega_I_H_I - X": d["cr_X_omega_I_H_I"],
    }
    ok = all(v <= 1e-4 for v in residuals.values())
    offsets = []
    for x1 in (-0.5, -0.2, 0.0, 0.3, 0.6):
        p = np.array([x1, 0.2, -0.1, 0.4])
        offsets.append(fields.H_I(p) - (-np.exp(-x1)))
    spread = max(offsets) - min(offsets)
    ok = ok and spread <= 1e-6
    assert report(
        5,
        ok,
        ", ".join(f"{k}={v:.2e}" for k, v in residuals.items())
        + f", H_I vs -exp(-x1) spread {spread:.2e} <= 1e-6",
    )


def test_criterion_06_j_preserving_criterion(proper):
    model, fields = proper
    pts = np.concatenate([[np.zeros(4)], grid_points(np.zeros(4), 0.3, 2)])
    rep_x = j_preserving_check(fields.X, model, pts)
    rep_jx = j_preserving_check(fields.JX, model, [np.zeros(4)])
    ok = (
        rep_x.max_lie <= 1e-3
        and rep_x.max_contraction <= 1e-3
        and rep_jx.max_lie >= 0.05
        and rep_jx.max_contraction >= 0.05
    )
    assert report(
        6,
        ok,
        f"L_X J={rep_x.max_lie:.2e} (iota={rep_x.max_contraction:.2e}) <= 1e-3; "
        f"L_JX J={rep_jx.max_lie:.3f} (iota={rep_jx.max_contraction:.3f}) >= 0.05",
    )


def test_criterion_07_action_identities(harmonic):
    _, fields = harmonic
    x0 = np.array([0.4, 0.3, 0.1, -0.2])
    gamma = act.holomorphic_affine_curve(x0, np.array([0.3 + 0.2j, -0.1 + 0.4j]))
    fine = act.sample_polar(gamma, 0.0, 1.0, 64, 256)
    coarse = act.sample_polar(gamma, 0.0, 1.0, 32, 128)
    v_f = act.disk_action_1(fields, fine)
    v_c = act.disk_action_1(fields, coarse)
    est = abs(v_f - v_c) / 3.0 + 1e-13
    first = abs(v_f) <= 2.0 * est
    const = act.sample_polar_signed(lambda z: x0, 0.0, 1.0, 65, 128)
    v2 = act.disk_action_2(fields, const)
    h = complex(fields.model.H_R(x0), fields.H_I(x0))
    second = abs(v2 - h) <= 1e-8
    ok = first and second
    assert report(
        7,
        ok,
        f"|A1[holo]|={abs(v_f):.2e} <= 2x est {est:.2e}; |A2[const]-H(x0)|={abs(v2 - h):.2e} <= 1e-8",
    )


def test_criterion_08_variational_principle(harmonic, proper):
    ratios = {}
    for label, (model, fields), x0, parts in (
        ("standard", harmonic, np.array([0.4, 0.3, 0.1, -0.2]), "both"),
        ("twisted", proper, np.array([0.2, 0.1, -0.3, 0.4]), "real"),
    ):
        grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), 17, 17, CFG)
        curve = act.curve_from_grid(grid)
        action = act.ParallelogramAction(fields, parts=parts)
        base = act.gradient_max_norm(action.gradient(curve), parts=parts)
        curve.values[8, 8, 0] += 0.05
        displaced = act.gradient_max_norm(action.gradient(curve), parts=parts)
        ratios[label] = displaced / base
    ok = all(r >= 10.0 for r in ratios.values())
    assert report(
        8, ok, "; ".join(f"{k}: displaced/trajectory gradient ratio {v:.1f} >= 10" for k, v in ratios.items())
    )


def test_criterion_09_morse_darboux():
    system = PlanarSystem(v=lambda p: 1.0 + p[0] ** 2, T=np.pi)
    period_errs = [abs(verify_T_periodic(system, r0, CFG) - np.pi) for r0 in (0.2, 0.5, 0.8)]
    oracle_errs = [
        abs(period_function(system, r) - np.pi * (1.0 + r * r / 2.0)) for r in (0.2, 0.5, 0.8)
    ]
    area_res = [area_law_check(system, E)[2] for E in (0.05, 0.1, 0.2)]
    ok = max(period_errs) <= 1e-4 and max(oracle_errs) <= 1e-8 and max(area_res) <= 1e-4
    assert report(
        9,
        ok,
        f"periods err {max(period_errs):.2e} <= 1e-4; T_hat vs oracle {max(oracle_errs):.2e} <= 1e-8; "
        f"area residual {max(area_res):.2e} <= 1e-4",
    )


def test_criterion_10_connection_module():
    pts = grid_points(np.array([1.0, 0.2, 0.4, -0.3]), 0.2, 2)
    eucl = conn.flatness_vs_integrability(conn.euclidean_metric(2), pts)
    sig, _ = conn.pairing_signature(conn.euclidean_metric(2), pts[0])
    curved = conn.flatness_vs_integrability(
        conn.diagonal_metric([lambda x: 1.0, lambda x: 1.0 + x[0] ** 2]), pts
    )
    h = [[lambda z: 1.0, lambda z: 0.0], [lambda z: 0.0, lambda z: np.exp(z[0])]]
    lc = conn.holo_metric_lc_check(h, grid_points(np.array([0.1, -0.2, 0.3, 0.2]), 0.3, 3))
    ok = (
        eucl["max_nijenhuis"] <= 1e-8
        and sig == (4, 0)
        and curved["max_curvature"] >= 1e-2
        and curved["max_nijenhuis"] >= 1e-2
        and lc["max_christoffel_diff"] <= 1e-5
    )
    assert report(
        10,
        ok,
        f"euclidean N={eucl['max_nijenhuis']:.1e} (sig {sig}); curved R={curved['max_curvature']:.2f}, "
        f"N={curved['max_nijenhuis']:.2f} >= 1e-2; levi-civita diff {lc['max_christoffel_diff']:.1e} <= 1e-5",
    )


def test_criterion_11_nijenhuis_rank():
    model = models.build_deformation(0.5, n=1)
    ranks = {
        "df=0 center": nijenhuis_rank(model.J, np.zeros(4)),
        "df!=0": nijenhuis_rank(model.J, np.array([0.6, 0.0, 0.0, 0.0])),
        "df!=0 generic": nijenhuis_rank(model.J, np.array([0.3, 0.2, -0.1, 0.25])),
        "df=0 outside": nijenhuis_rank(model.J, np.array([1.1, 0.0, 0.0, 0.0])),
    }
    ok = (
        ranks["df=0 center"] == 0
        and ranks["df!=0"] == 2
        and ranks["df!=0 generic"] == 2
        and ranks["df=0 outside"] == 0
    )
    assert report(11, ok, f"ranks {ranks} (2 where df != 0, else 0)")


def test_criterion_12_torus_classification():
    square = models.Lattice(np.eye(2))
    torus = models.classify_torus_orbit(np.array([1.0 + 0j]), square)
    const = models.classify_torus_orbit(np.array([0.0 + 0j]), square)
    aper = models.classify_torus_orbit(np.array([1.0, np.sqrt(2.0)]), models.Lattice(np.eye(4)))
    ok = (
        torus.kind == "torus"
        and const.kind == "constant"
        and aper.kind == "aperiodic*"
        and aper.caveat
    )
    assert report(
        12,
        ok,
        f"Z+iZ momentum 1 -> {torus.kind}; momentum 0 -> {const.kind}; "
        f"Z^4 momentum (1, sqrt2) -> {aper.kind} (caveat {aper.caveat})",
    )


def test_criterion_13_gram_schmidt():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for m in (2, 4, 6):
        for _ in range(7 if m < 6 else 6):
            A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            omega = A - A.T
            while abs(np.linalg.det(omega)) < 1e-6:
                A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                omega = A - A.T
            frame = symplectic_gram_schmidt(omega)
            worst = max(worst, frame.pairing_residual(omega))
            count += 1
    ok = worst <= 1e-10 and count == 20
    assert report(13, ok, f"{count} random forms (m in 2,4,6): worst pairing residual {worst:.2e} <= 1e-10")
