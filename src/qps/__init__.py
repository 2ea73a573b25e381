"""Action-angle phase-space numerics for the q-deformed harmonic oscillator.

Subpackages follow the pipeline: scalar q-series primitives (qseries),
Rogers-Szego polynomials and functions (rspoly), the Jacobi theta_3 weight
(theta), the ladder-operator algebra (qalgebra), and the Wigner function
with its action/angle marginals (wigner).  The relation checks behind
`qps verify` live in qps.verify and the command-line front end in qps.cli.
"""

from .errors import ImaginaryResidueError, NonConvergenceError, ResolutionWarning
from .qalgebra import (
    AlgebraReport,
    apply_A_poly,
    apply_Adag_poly,
    rs_basis_expand,
    verify_algebra,
)
from .qseries import (
    QParam,
    qbinomial,
    qfactorial,
    qnumber,
)
from .rspoly import (
    Polynomial,
    jackson_derivative,
    rs_coefficients,
    rs_eval_direct,
    rs_eval_recurrence,
    rs_function,
)
from .theta import (
    MU_SWITCH,
    ThetaEval,
    ThetaRepresentation,
    theta3,
    theta3_gaussian,
    theta3_series,
)
from .wigner import (
    DistributionTable,
    PhaseGrid,
    WignerValue,
    action_distribution,
    action_table,
    angle_distribution,
    angle_distribution_from_wigner,
    angle_table,
    carlitz_closed_form,
    carlitz_double_sum,
    circular_variance,
    orthogonality_quadrature,
    sinc_kernel,
    wigner_eval,
    wigner_grid,
    wigner_one_sided,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraReport",
    "DistributionTable",
    "ImaginaryResidueError",
    "MU_SWITCH",
    "NonConvergenceError",
    "PhaseGrid",
    "Polynomial",
    "QParam",
    "ResolutionWarning",
    "ThetaEval",
    "ThetaRepresentation",
    "WignerValue",
    "action_distribution",
    "action_table",
    "angle_distribution",
    "angle_distribution_from_wigner",
    "angle_table",
    "apply_A_poly",
    "apply_Adag_poly",
    "carlitz_closed_form",
    "carlitz_double_sum",
    "circular_variance",
    "jackson_derivative",
    "orthogonality_quadrature",
    "qbinomial",
    "qfactorial",
    "qnumber",
    "rs_basis_expand",
    "rs_coefficients",
    "rs_eval_direct",
    "rs_eval_recurrence",
    "rs_function",
    "sinc_kernel",
    "theta3",
    "theta3_gaussian",
    "theta3_series",
    "verify_algebra",
    "wigner_eval",
    "wigner_grid",
    "wigner_one_sided",
    "__version__",
]
