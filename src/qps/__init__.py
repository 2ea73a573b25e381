"""Action-angle phase-space numerics for the q-deformed harmonic oscillator.

Subpackages follow the pipeline: scalar q-series primitives (qseries),
Rogers-Szego polynomials and functions (rspoly), the Jacobi theta_3 weight
(theta), the ladder-operator algebra (qalgebra), and the Wigner function
with its action/angle marginals (wigner).  The relation checks behind
`qps verify` live in qps.verify and the command-line front end in qps.cli.
"""

from .errors import NonConvergenceError
from .qalgebra import (
    AlgebraReport,
    apply_Adag_poly,
    verify_algebra,
)
from .qseries import (
    QParam,
    qbinomial,
    qfactorial,
    qnumber,
)
from .rspoly import (
    jackson_derivative,
    rs_coefficients,
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
    action_distribution,
    action_table,
    angle_distribution,
    angle_distribution_from_wigner,
    angle_table,
    carlitz_closed_form,
    carlitz_double_sum,
    circular_variance,
    orthogonality_quadrature,
    phase_grid,
    sinc_kernel,
    wigner_grid,
    wigner_one_sided,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraReport",
    "MU_SWITCH",
    "NonConvergenceError",
    "QParam",
    "ThetaEval",
    "ThetaRepresentation",
    "action_distribution",
    "action_table",
    "angle_distribution",
    "angle_distribution_from_wigner",
    "angle_table",
    "apply_Adag_poly",
    "carlitz_closed_form",
    "carlitz_double_sum",
    "circular_variance",
    "jackson_derivative",
    "orthogonality_quadrature",
    "phase_grid",
    "qbinomial",
    "qfactorial",
    "qnumber",
    "rs_coefficients",
    "rs_function",
    "sinc_kernel",
    "theta3",
    "theta3_gaussian",
    "theta3_series",
    "verify_algebra",
    "wigner_grid",
    "wigner_one_sided",
    "__version__",
]
