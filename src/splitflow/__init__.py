"""splitflow: continuous-time operator-splitting flows, their discrete
counterparts, and the Lyapunov diagnostics that certify them."""

from .errors import (DivergenceError, FitError, HypothesisError, SolverError,
                     SpecError)
from .integrate import (FlowField, IntegratorConfig, Trajectory, euler_unit_step,
                        integrate, write_trajectory_csv)
from .operators import (LinearMap, MonotoneMap, ProxFunction, SingleValuedMap,
                        SmoothFunction, fb_delta, prox_eval,
                        reflected_resolvent, resolvent_eval, yosida_eval)
from .schedules import Schedule, affine_clamped, constant, exp_decay, inv_power, over_t

__all__ = [
    "DivergenceError", "FitError", "HypothesisError", "SolverError", "SpecError",
    "FlowField", "IntegratorConfig", "Trajectory", "euler_unit_step", "integrate",
    "write_trajectory_csv",
    "LinearMap", "MonotoneMap", "ProxFunction", "SingleValuedMap", "SmoothFunction",
    "fb_delta", "prox_eval", "reflected_resolvent",
    "resolvent_eval", "yosida_eval",
    "Schedule", "affine_clamped", "constant", "exp_decay", "inv_power", "over_t",
]

__version__ = "0.1.0"
