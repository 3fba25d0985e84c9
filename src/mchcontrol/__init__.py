"""Viscous modified Camassa-Holm solver with adjoint-based tracking control.

The state is the momentum y = u - u_xx on a Dirichlet interval; the forward
model is an IMEX march (implicit diffusion, explicit transport). On top of it
sit the exact discrete adjoint, reduced-gradient optimization of a window
control, and a verification battery for the optimality system and the energy
estimates behind it.
"""

from .errors import (MchControlError, DomainMismatchError, ConfigError,
                     NumericsError, StabilityWarning)
from .grid import Domain1D, TimeGrid
from .helmholtz import get_operator
from .forward import (ModelParams, ControlWindow, ForwardTrajectory,
                      solve_forward, weak_residual,
                      export_trajectory_csv, import_trajectory_csv)
from .tangent_adjoint import (TangentState, AdjointState, solve_tangent,
                              solve_adjoint_discrete, solve_adjoint_continuous,
                              finish_adjoint)
from .control import (TrackingProblem, OptimOptions, OptimState, cost,
                      reduced_gradient, optimize, lagrangian,
                      first_order_residuals, constants, quadratic_form,
                      coercivity_check)
from .analysis import energy_identity, momentum_identity
from .config import resolve_config, load_config, config_hash

__version__ = "0.1.0"

__all__ = [
    "MchControlError", "DomainMismatchError", "ConfigError", "NumericsError",
    "StabilityWarning",
    "Domain1D", "TimeGrid", "get_operator",
    "ModelParams", "ControlWindow", "ForwardTrajectory", "solve_forward",
    "weak_residual", "export_trajectory_csv", "import_trajectory_csv",
    "TangentState", "AdjointState", "solve_tangent",
    "solve_adjoint_discrete", "solve_adjoint_continuous", "finish_adjoint",
    "TrackingProblem", "OptimOptions", "OptimState", "cost",
    "reduced_gradient", "optimize", "lagrangian", "first_order_residuals",
    "constants", "quadratic_form", "coercivity_check",
    "energy_identity", "momentum_identity",
    "resolve_config", "load_config", "config_hash",
    "__version__",
]
