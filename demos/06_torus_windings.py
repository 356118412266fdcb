"""Straight-line windings over complex tori and their period classification.

Over a torus the momentum is constant and the position drifts linearly, so
the topology of a trajectory is decided by which complex times map the
velocity into the lattice: none (aperiodic plane), a rank-one family
(cylinder) or a rank-two family (doubly periodic winding).
"""

import numpy as np

from phhs import models
from phhs.flows import FlowConfig, grid_monitors, trajectory_grid
from phhs.hamiltonian import assemble_phhs
from phhs.util import from_complex, to_complex

square = models.Lattice(np.eye(2))
model = models.build_torus_model(square)
fields = assemble_phhs(model)

print("== classification over the square lattice Z + iZ ==")
for P0 in (1.0 + 0.0j, 0.0j, 0.5 + 0.5j):
    out = models.classify_torus_orbit(np.array([P0]), square, 3)
    shown = [f"{z:.3g}" for z in out.periods[:4]]
    print(f"momentum {P0}: {out.kind:10s} periods {shown} caveat={out.caveat}")

print()
print("== an incommensurate momentum pair on Z^4 stays aperiodic ==")
out = models.classify_torus_orbit(np.array([1.0, np.sqrt(2.0)]), models.Lattice(np.eye(4)), 3)
print(f"momentum (1, sqrt 2): {out.kind} (caveat={out.caveat}; bounded search cannot certify absence)")

print()
print("== the numerical grid follows the straight winding exactly ==")
x0 = from_complex(np.array([0.1 + 0.2j, 0.6 - 0.3j]))
cfg = FlowConfig(dt=1e-3)
grid = trajectory_grid(fields, x0, 0.0, (0.0, 1.0), (0.0, 1.0), 9, 9, cfg)
gamma = model.closed_form(x0)
worst = max(
    float(np.max(np.abs(to_complex(grid.values[i, j]) - gamma(grid.node_z(i, j)))))
    for i in range(grid.nt)
    for j in range(grid.ns)
)
print("max deviation from [Q0 + z P0]:", worst)
monitors = grid_monitors(fields, grid, cfg)
print("swap defect:", monitors["swap_defect"], " energy drift:", monitors["energy_drift_R"])
