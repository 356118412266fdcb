"""Scenario documents of the three benchmark workloads, generated from a seed.

A workload is a fixed list of ``(verb, scenario)`` pairs; one pass runs the
list once.  Its *focus* scenarios are the ones the workload was chosen for.
Every other verb runs on a small *probe* scenario, so that each workload
reports a time for every verb: the probes run as one round after each focus
scenario, which gives them several samples per pass spread over the pass.
A pass's ``wall_s`` is timed over its focus scenarios only, so the probes do
not change the workload's end-to-end profile (they do appear in the traced
per-layer counts).

The seed picks one of ``VARIANTS`` anchor sets.  Variant 0 (seed 0) is the
unjittered scenario set; variants 1..7 move the anchors (the initial points
x0, the bi-time anchor node z0 and the scan centers) inside boxes where every
expected verdict still holds.  A finite variant set lets every generated
scenario have reference outputs captured once (see ``capture.py``).
"""

import math

import numpy as np

VARIANTS = 8

VERBS = (
    "integrate",
    "action-check",
    "integrability-scan",
    "deform",
    "connection-check",
    "monodromy",
    "foliate",
    "morse-period",
)

FOCUS = {
    "bigrid": ("integrate", "action-check"),
    "scan": ("integrability-scan", "deform", "connection-check"),
    "orbits": ("monodromy", "foliate", "morse-period"),
}

TWISTED = {"name": "proper_phhs", "f": "1", "h": "exp(x1)", "H_R": "-y1"}
OSCILLATOR = {"name": "standard_hhs", "n": 1, "H": "(P1^2 + Q1^2)/2"}
CENTRAL = {"name": "central_problem"}

# Models each workload builds in set-up: those its focus scenarios assemble.
SETUP_MODELS = {
    "bigrid": (TWISTED, OSCILLATOR),
    "scan": (TWISTED, {"name": "deformation", "epsilon": 0.0}, {"name": "deformation", "epsilon": 0.5}),
    "orbits": (CENTRAL,),
}


def variant_of(seed):
    return int(seed) % VARIANTS


def anchors(variant):
    """Anchor inputs of one variant; variant 0 is the unjittered set."""
    a = {
        "x0_twisted": [0.2, 0.1, -0.3, 0.4],
        "x0_oscillator": [0.4, 0.3, 0.1, -0.2],
        "x0_central": [1.0, 0.5, 0.0, 0.0],
        "z0_node": [0, 0],
        "scan_center": [0.0, 0.0, 0.0, 0.0],
        "deform_center": [0.0, 0.0, 0.0, 0.0],
    }
    if variant == 0:
        return a
    rng = np.random.default_rng([20230316, variant])

    def jitter(base, width):
        return [round(float(b + width * (2.0 * rng.random() - 1.0)), 4) for b in base]

    a["x0_twisted"] = jitter(a["x0_twisted"], 0.1)
    a["x0_oscillator"] = jitter(a["x0_oscillator"], 0.1)
    # the central anchor stays near the zero-energy leaf, so the branch point
    # of Q(z) stays near z = -1 inside the monodromy circle
    a["x0_central"] = jitter(a["x0_central"], 0.03)
    a["z0_node"] = [int(k) for k in rng.integers(0, 4, size=2)]
    a["scan_center"] = jitter(a["scan_center"], 0.1)
    a["deform_center"] = jitter(a["deform_center"], 0.1)
    return a


def _circle(n_segments):
    """Closed polyline of radius 1 about -1, starting and ending at time 0."""
    pts = []
    for k in range(n_segments + 1):
        th = 2.0 * math.pi * k / n_segments
        pts.append([-1.0 + math.cos(th), math.sin(th)])
    return pts


def _z0(a, span, n):
    i, j = a["z0_node"]
    h = span / (n - 1)
    return [i * h, j * h]


def _integrate(a, probe):
    if probe:
        return {
            "model": OSCILLATOR, "x0": a["x0_oscillator"], "z0": _z0(a, 0.5, 5),
            "t_range": [0.0, 0.5], "s_range": [0.0, 0.5], "nt": 5, "ns": 5,
            "flow": {"dt": 0.0025},
        }
    return {
        "model": TWISTED, "x0": a["x0_twisted"], "z0": _z0(a, 1.0, 17),
        "t_range": [0.0, 1.0], "s_range": [0.0, 1.0], "nt": 17, "ns": 17,
        "flow": {"dt": 1e-3},
    }


def _action_check(a, probe):
    if probe:
        return {
            "model": OSCILLATOR, "x0": a["x0_oscillator"], "z0": _z0(a, 0.5, 5),
            "t_range": [0.0, 0.5], "s_range": [0.0, 0.5], "nt": 5, "ns": 5,
            "flow": {"dt": 0.005},
            "displace": {"node": [2, 2], "coord": 0, "amount": 0.05},
            "ratio_min": 10.0,
        }
    return {
        "model": OSCILLATOR, "x0": a["x0_oscillator"], "z0": _z0(a, 1.0, 17),
        "t_range": [0.0, 1.0], "s_range": [0.0, 1.0], "nt": 17, "ns": 17,
        "displace": {"node": [8, 8], "coord": 0, "amount": 0.05},
        "ratio_min": 10.0,
    }


def _integrability_scan(a, probe):
    return {
        "model": TWISTED, "center": a["scan_center"], "half_width": 0.5,
        "per_axis": 3 if probe else 5,
    }


def _deform(a, probe):
    return {
        "epsilons": [0.0, 0.5], "n": 1, "center": a["deform_center"], "half_width": 0.6,
        "per_axis": 4 if probe else 5,
    }


def _connection_check(a, probe):
    cfg = {"metric": {"kind": "diag", "entries": ["1", "1 + x1^2"], "n": 2}}
    if not probe:
        cfg["holo_metric"] = {"entries": [["1", "0"], ["0", "exp(z1)"]]}
    return cfg


def _monodromy(a, probe):
    return {
        "model": CENTRAL, "x0": a["x0_central"],
        "path": _circle(16 if probe else 64),
        "expect": "negated",
        "flow": {"dt": 0.005 if probe else 1e-3},
    }


def _foliate(a, probe):
    words = [[[0.0, -1.0], [1.0, 0.5]]] if probe else [[[0, -2], [-2, 1]], [[0, 1], [-2, -2]]]
    return {"model": CENTRAL, "x0": a["x0_central"], "words": words}


def _morse_period(a, probe):
    if probe:
        return {"v": "1 + x1^2", "T": math.pi, "radii": [0.5], "energies": [], "flow": {"dt": 0.002}}
    return {"v": "1 + x1^2", "T": math.pi, "radii": [0.2, 0.5, 0.8], "energies": [0.1]}


_BUILDERS = {
    "integrate": _integrate,
    "action-check": _action_check,
    "integrability-scan": _integrability_scan,
    "deform": _deform,
    "connection-check": _connection_check,
    "monodromy": _monodromy,
    "foliate": _foliate,
    "morse-period": _morse_period,
}


def workload(name, variant):
    """``[(verb, scenario), ...]`` of one pass: each focus scenario, then a probe round."""
    a = anchors(variant)
    focus = FOCUS[name]
    probes = [(verb, _BUILDERS[verb](a, probe=True)) for verb in VERBS if verb not in focus]
    out = []
    for verb in focus:
        out += [(verb, _BUILDERS[verb](a, probe=False))] + probes
    return out
