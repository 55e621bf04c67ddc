"""Riemannian optimization on products of rank-one (Segre) manifolds for
noisy low-CP-rank tensor decomposition and scalar-on-tensor regression."""

__version__ = "0.1.0"

from .manifold import (  # noqa: E402
    CPModel,
    DegenerateInputError,
    ErrorReport,
    TangentBasis,
    align_and_error,
    incoherence,
    project_tangent,
    retract_thosvd,
    tangent_basis,
)
from .operators import GaussianDesignOp, IdentityOp, MeasurementOp  # noqa: E402
from .initialization import InitSpec, cpca, init_decomposition, init_regression  # noqa: E402
from .solvers import (  # noqa: E402
    ConvergenceTrace,
    Problem,
    SolverConfig,
    SolverError,
    SolverState,
    rgd_step,
    rgn_step,
    run,
    solve_tangent_ls,
)
from .als import cp_als_decompose, cp_als_regress  # noqa: E402
from .harness import (  # noqa: E402
    ExperimentConfig,
    gen_coherent_factors,
    gen_instance,
    run_experiment,
)

__all__ = [
    "CPModel",
    "ConvergenceTrace",
    "DegenerateInputError",
    "ErrorReport",
    "ExperimentConfig",
    "GaussianDesignOp",
    "IdentityOp",
    "InitSpec",
    "MeasurementOp",
    "Problem",
    "SolverConfig",
    "SolverError",
    "SolverState",
    "TangentBasis",
    "align_and_error",
    "cp_als_decompose",
    "cp_als_regress",
    "cpca",
    "gen_coherent_factors",
    "gen_instance",
    "incoherence",
    "init_decomposition",
    "init_regression",
    "project_tangent",
    "retract_thosvd",
    "rgd_step",
    "rgn_step",
    "run",
    "run_experiment",
    "solve_tangent_ls",
    "tangent_basis",
]
