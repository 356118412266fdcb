"""Numerics for holomorphic and pseudo-holomorphic Hamiltonian systems.

The package builds the structure tensors (J, Omega_R, Omega_I, H_R, H_I) of
Hamiltonian systems over coordinate patches, integrates their commuting
bi-time flows, evaluates action functionals over segments, parallelograms,
disks and star-shaped time domains, and runs integrability diagnostics based
on the Nijenhuis tensor and the closedness of the induced imaginary form.
"""

from .errors import (
    DegenerateFormError,
    MissingPrimitiveError,
    NoReturnError,
    NonClosedFormError,
    NonFiniteStateError,
    NotHolomorphicError,
    ParseError,
    PhhsError,
    QDependenceError,
    SingularFormError,
    SingularMetricError,
    StepBudgetExceededError,
    ZeroDenominatorError,
)
from .expressions import Expression, parse_expression
from .fields import (
    CovectorField,
    FdConfig,
    MatrixField,
    ScalarField,
    TwoFormField,
    VectorField,
    constant_matrix_field,
    constant_two_form_field,
    partial_jet,
)
from .flows import (
    FlowConfig,
    GridCurve,
    circle_path,
    commutation_defect,
    continue_along_path,
    flow,
    flow_error_estimate,
    flow_word,
    grid_monitors,
    tilted_flow,
    trajectory_grid,
)
from .frames import ComplexFrame, frame_from_model, symplectic_gram_schmidt
from .hamiltonian import (
    HamiltonianFields,
    PhhsModel,
    PhsmData,
    assemble_phhs,
    closedness_residual,
    hamiltonian_vector_field,
    integrability_report,
    j_preserving_check,
    omega_I_from,
    pairing_covector,
    poisson_bracket,
    primitive_scalar,
    primitive_stack,
)
from .tensors import (
    acs_residual,
    anticompat_residual,
    exterior_derivative_2form,
    interior_product_3form,
    lie_bracket,
    lie_derivative_matrix,
    nijenhuis,
    nijenhuis_rank,
    project_10,
    two_form_components,
)
from .util import from_complex, grid_points, to_complex

__version__ = "0.1.0"
