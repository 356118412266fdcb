"""The public parameters of the numerical layers, pinned.

Every parameter here is set by some caller to more than one value, or
carries the data the function works on.  A setting that only ever had one
value is a module constant (pinned below with its value), so a parameter
added back for it fails here.
"""

import dataclasses
import inspect

import pytest

from phhs import actions, connections, fields, frames, hamiltonian, models, morse, tensors

SIGNATURES = {
    fields.VectorField: "fn, fd, name, lane",
    fields.constant_matrix_field: "M, name",
    fields.constant_two_form_field: "W, name",
    actions.segment_action: "fields, curve, alpha, parts",
    actions.star_action: "fields, curve, variant, parts",
    actions.disk_action_1: "fields, curve, parts",
    actions.disk_action_2: "fields, curve, parts",
    actions.ParallelogramAction: "fields, parts",
    actions.ParallelogramAction.gradient: "self, curve, fixed",
    actions.variational_gradient: "action, curve",
    tensors.nijenhuis_rank: "J, p",
    frames.symplectic_gram_schmidt: "omega",
    frames.frame_from_model: "model, p",
    hamiltonian.hamiltonian_vector_field: "omega, H",
    models.build_standard_hhs: "n, H",
    models.build_central_problem: "",
    models.build_torus_model: "lattice, H",
    models.classify_torus_orbit: "P0, lattice",
    models.build_proper_phhs: "f, h, H_R",
    models.hyperkahler_check: "f, h",
    models.build_rotation_family: "phi",
    models.build_deformation: "epsilon, n, hamiltonian, bump_center, bump_radius",
    connections.MetricField: "fn, name",
    connections.holo_metric_parts: "h_entries",
    connections.holo_metric_lc_check: "h_entries, grid",
}

CONFIG_FIELDS = {
    fields.FdConfig: "step",
    morse.PlanarSystem: "v, T",
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__qualname__)
def test_public_parameters_are_pinned(fn):
    assert ", ".join(inspect.signature(fn).parameters) == SIGNATURES[fn]


@pytest.mark.parametrize("cls", CONFIG_FIELDS, ids=lambda cls: cls.__name__)
def test_config_fields_are_pinned(cls):
    assert ", ".join(f.name for f in dataclasses.fields(cls) if f.init) == CONFIG_FIELDS[cls]


def test_retired_settings_keep_their_old_defaults():
    assert actions.GRADIENT_DELTA == 1e-5
    assert (tensors.RANK_REL_THRESHOLD, tensors.RANK_ABS_FLOOR) == (1e-7, 1e-8)
    assert frames.PARTNER_THRESHOLD == 1e-8
    assert (fields.HOLO_TOL, models.Q_TOL) == (1e-6, 1e-8)
    assert (models.SEARCH_RADIUS, models.PERIOD_TOL) == (3, 1e-9)
    assert morse.RMAX == 1.2
