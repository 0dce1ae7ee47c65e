"""Root finding for nonlinear systems via the fractional pseudo-Newton method.

The iteration x_{i+1} = x_i - P(x_i) f(x_i) multiplies the residual by a
diagonal matrix of fractional derivatives of the unit constant, so it needs
no derivatives of f at all, and sweeping the fractional order discovers
multiple roots from a single initial condition.  The package ships the
generic solver, a classical Newton baseline, a convergence-order diagnostic,
and the Dixit-Pindyck investment-threshold model as a built-in application
with a reproduction CLI.

Quick start::

    import numpy as np
    from fracroots import SolverSettings, fixed_point_solve

    out = fixed_point_solve(lambda x: x**2 - 2.0, np.array([1.0]),
                            SolverSettings(alpha=0.5))
    assert out.converged
"""

from ._accel import backend_name
from .dixit_pindyck import (Decision, EconomicPrimitives, ModelConstants,
                            ThresholdOrderingWarning, ThresholdProblem,
                            ThresholdSolution, back_substitute,
                            classify_income, derive_constants, full_residual,
                            full_residual_scale, make_residual,
                            reduced_residual, solve_thresholds,
                            sweep_thresholds)
from .errors import (ConfigError, DegenerateThresholds, DomainError,
                     FracrootsError, InsufficientData, InvalidPrimitives,
                     NonRealEvaluation, PoleArgument, SingularJacobian,
                     ThresholdSolveFailed)
from .kernel import FractionalOrder, constant_frac_deriv, gamma, p_matrix
from .solver import (IterationTrace, RootRecord, RootSet, SkippedAlpha,
                     SolverSettings, SolveOutcome, Status, alpha_sweep,
                     default_alpha_grid, estimate_order, fd_jacobian,
                     fixed_point_solve, fpn_step, fpn_update, newton_step,
                     newton_update, norm2)

__version__ = "0.1.0"

__all__ = [
    "Decision", "EconomicPrimitives", "ModelConstants", "ThresholdProblem",
    "ThresholdSolution", "ThresholdOrderingWarning", "back_substitute",
    "classify_income", "derive_constants", "full_residual",
    "full_residual_scale", "make_residual", "reduced_residual",
    "solve_thresholds", "sweep_thresholds",
    "ConfigError", "DegenerateThresholds", "DomainError", "FracrootsError",
    "InsufficientData", "InvalidPrimitives", "NonRealEvaluation",
    "PoleArgument", "SingularJacobian", "ThresholdSolveFailed",
    "FractionalOrder", "constant_frac_deriv", "gamma", "p_matrix",
    "IterationTrace", "RootRecord", "RootSet", "SkippedAlpha",
    "SolverSettings", "SolveOutcome", "Status", "alpha_sweep",
    "default_alpha_grid", "estimate_order", "fd_jacobian", "fixed_point_solve",
    "fpn_step", "fpn_update", "newton_step", "newton_update", "norm2",
    "backend_name", "__version__",
]
