"""Solvers for time-fractional diffusion with a degenerate x^beta diffusion
coefficient on (0, 1) and a regularized Caputo-type fractional power of the
hyper-Bessel operator t^theta d/dt, with arbitrary starting point a."""

from .errors import (
    ConfigError,
    DegeneracyError,
    DomainError,
    RegimeError,
    ResolutionError,
    SolverError,
    VerificationError,
)
from .special import (
    MLBoundFit,
    ml_bound_fit,
    ml_eval,
    ml_eval_many,
)
from .fracops import (
    SampledFunction,
    TimeWarp,
    graded_grid,
    hb_caputo,
    warp_forward,
    warp_inverse,
)
from .spectral import (
    BCDescriptor,
    EigenSystem,
    FluxLimitReport,
    OrthogonalityReport,
    bc_requirements,
    bessel_eigen,
    flux_limit_check,
    grading_exponent,
    orthogonality_report,
    solve_eigen,
)
from .solver import (
    ModeODE,
    ModeTrajectory,
    NormReport,
    ProblemSpec,
    ResidualReport,
    SeparableSource,
    SolutionField,
    assemble,
    fourier_coeff,
    mode_solution,
    mode_solution_alt,
    residual_strong,
    residual_weak,
    solution_norms,
)
from .oraclefd import CompareReport, FDMesh, compare, fd_solve

__version__ = "0.1.0"
