"""Cutoff-stabilized implicit time stepping for parabolic problems.

The package couples standard implicit integrators (a theta scheme and a
three-stage L-stable SDIRK) with a nodewise floor applied between time
steps, and drives two model problems with it: an anisotropic
convection-diffusion layer on the unit square and a degenerate fourth-order
thin-film equation whose solution touches down and lifts off.
"""

# set before the submodule imports: harness records it in metadata.txt
__version__ = "0.1.0"

from .cutoff import CutoffParams, apply_floor, lemma_gap
from .grids import Field, Grid1D, Grid2D, l2_norm, trapezoid_weights
from .linalg import Factorization, SolveError, SparseMatrix
from .stepping import (
    SDIRK3_GAMMA,
    ButcherTableau,
    DivergenceError,
    LinearProblem,
    RunTrace,
    SolverStats,
    StepperConfig,
    run,
    scheme_diagnostics,
    sdirk3_tableau,
    theta_operator,
    theta_tableau,
)
from .anisotropic import AnisotropicSpec, assemble, exact_field, exact_solution, forcing
from .lubrication import (
    LubricationSpec,
    MobilitySpec,
    SingularityRecord,
    assemble_lubrication_1d,
    assemble_lubrication_2d,
    mobility,
    run_lubrication,
    touching_length,
    track_singularity,
)
from .harness import (
    ConvergenceReport,
    ExperimentConfig,
    convergence_study,
    loglog_slope,
    regularization_comparison,
)

__all__ = [
    "AnisotropicSpec",
    "ButcherTableau",
    "ConvergenceReport",
    "CutoffParams",
    "DivergenceError",
    "ExperimentConfig",
    "Factorization",
    "Field",
    "Grid1D",
    "Grid2D",
    "LinearProblem",
    "LubricationSpec",
    "MobilitySpec",
    "RunTrace",
    "SDIRK3_GAMMA",
    "SingularityRecord",
    "SolveError",
    "SolverStats",
    "SparseMatrix",
    "StepperConfig",
    "apply_floor",
    "assemble",
    "assemble_lubrication_1d",
    "assemble_lubrication_2d",
    "convergence_study",
    "exact_field",
    "exact_solution",
    "forcing",
    "l2_norm",
    "lemma_gap",
    "loglog_slope",
    "mobility",
    "regularization_comparison",
    "run",
    "run_lubrication",
    "scheme_diagnostics",
    "sdirk3_tableau",
    "theta_operator",
    "theta_tableau",
    "touching_length",
    "track_singularity",
    "trapezoid_weights",
]
