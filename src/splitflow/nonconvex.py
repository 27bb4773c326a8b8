"""The nonconvex proximal-gradient flow and its merit-function diagnostics.

Here beta denotes the Lipschitz constant of grad g itself (||grad g(x) -
grad g(y)|| <= beta*||x - y||), g possibly nonconvex, and the step eta must
satisfy eta*beta*(3 + eta*beta) < 1.  The merit function is
H(u, v) = (f+g)(u) + ||u - v||^2/(2*eta), evaluated along trajectories at
u = xd + x, v = x.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from .diagnostics import _loglog_fit, _step_product, cumulative_trapezoid
from .errors import FitError, SpecError
from .integrate import FlowField, Trajectory
from .operators import ProxFunction, SmoothFunction, _per_row, norm


def check_eta(beta: float, eta: float) -> bool:
    """True iff eta*beta*(3 + eta*beta) < 1."""
    if not (beta >= 0 and eta > 0):
        raise ValueError("need beta >= 0 and eta > 0")
    return _step_product(eta, beta) < 1.0


@dataclasses.dataclass(frozen=True)
class NonconvexProblem:
    f: ProxFunction
    g: SmoothFunction
    eta: float

    def __post_init__(self):
        if not check_eta(self.g.grad_lipschitz, self.eta):
            raise SpecError("step condition violated: eta*beta*(3 + eta*beta) = %g >= 1"
                            % _step_product(self.eta, self.g.grad_lipschitz))

    @property
    def descent_coefficient(self) -> float:
        """The per-unit-time merit decrease factor 1/eta - (3 + eta*beta)*beta."""
        beta = self.g.grad_lipschitz
        return 1.0 / self.eta - (3.0 + self.eta * beta) * beta


def proxgrad_increment(prox, eta, grad, x):
    """prox(x - eta*grad(x)) - x, with prox the map prox_{eta f} and grad the gradient
    of g."""
    return prox(x - eta * grad(x)) - x


def proxgrad_field(p: NonconvexProblem) -> FlowField:
    """dx/dt = prox_{eta f}(x - eta*grad g(x)) - x."""
    prox, eta, grad = p.f.prox(p.eta), np.array(p.eta), p.g.gradient
    return FlowField(order=1, fn=lambda t, x: proxgrad_increment(prox, eta, grad, x),
                     label="proxgrad")


def merit_eval(p: NonconvexProblem, u, v):
    """H(u, v) = (f+g)(u) + ||u - v||^2/(2*eta); +inf outside dom f.  A float for
    vectors u, v, or one value per row of stacks."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    fval = p.f.value(u)
    d = u - v
    H = np.where(np.isfinite(fval), fval + p.g.value(u) + np.vecdot(d, d) / (2.0 * p.eta),
                 np.inf)
    return _per_row(H, u)


def merit_subgradient(p: NonconvexProblem, x, xdot) -> Tuple[np.ndarray, np.ndarray]:
    """The explicit element (-grad g(x) + grad g(xd+x), -xd/eta) of the merit subdifferential."""
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    return (p.g.gradient(xdot + x) - p.g.gradient(x), -xdot / p.eta)


def merit_subgradient_norm(p: NonconvexProblem, x, xdot):
    """The norm of merit_subgradient: a float for vectors, one value per row of stacks."""
    b1, b2 = merit_subgradient(p, x, xdot)
    return _per_row(np.sqrt(np.vecdot(b1, b1) + np.vecdot(b2, b2)), b1)


def critical_residual(p: NonconvexProblem, x):
    """||prox_{eta f}(x - eta*grad g(x)) - x|| / eta, vanishing exactly at critical points;
    one value per row of a stack x."""
    return norm(proxgrad_increment(p.f.prox(p.eta), p.eta, p.g.gradient, x)) / p.eta


def merit_series(p: NonconvexProblem, traj: Trajectory) -> np.ndarray:
    """H(xd + x, x) along the recorded grid (the merit_H probe)."""
    return merit_eval(p, traj.states + traj.velocities, traj.states)


def subgradient_norm_series(p: NonconvexProblem, traj: Trajectory) -> np.ndarray:
    """The merit_subgrad probe along the recorded grid."""
    return merit_subgradient_norm(p, traj.states, traj.velocities)


def arclength_series(traj: Trajectory) -> np.ndarray:
    """Cumulative trapezoid of ||xd|| over the recorded grid (the arclength probe)."""
    return cumulative_trapezoid(traj.times, norm(traj.velocities))


@dataclasses.dataclass(frozen=True)
class KLFitReport:
    """Power-form desingularization fit ||z|| ~ c*(H - H_inf)^theta.

    exponent_estimate is theta; limit_value the estimated H at the limit.
    (The neighborhood radius of the underlying property, kl_radius in the
    docs, plays no computational role here and is never the flow step eta.)
    """

    exponent_estimate: float
    fit_window: Tuple[float, float]
    r2: float
    limit_value: float


def lojasiewicz_fit(traj: Trajectory, p: NonconvexProblem) -> KLFitReport:
    """Estimate the power-form exponent from a converged trajectory.

    Regresses log||z(t)|| on log(H(t) - H_inf) over the window where the merit
    gap lies in [1e-10, 1e-2]; H_inf is taken as the final merit value.  The
    final state must have a critical residual of at most 1e-4.
    """
    residual = critical_residual(p, traj.final_state)
    if residual > 1e-4:
        raise FitError("trajectory tail has not converged (residual %g > 0.0001)" % residual)
    H = merit_series(p, traj)
    Z = subgradient_norm_series(p, traj)
    h_inf = float(H[-1])
    gap = H - h_inf
    mask = (gap >= 1e-10) & (gap <= 1e-2) & (Z > 0)
    if int(np.sum(mask)) < 10:
        raise FitError("only %d points in the fit window, need at least 10"
                       % int(np.sum(mask)))
    theta, _, r2 = _loglog_fit(np.log(gap[mask]), np.log(Z[mask]))
    tw = traj.times[mask]
    return KLFitReport(exponent_estimate=float(theta),
                       fit_window=(float(tw[0]), float(tw[-1])),
                       r2=r2, limit_value=h_inf)


def brute_force_critical_points(p: NonconvexProblem, lo: float, hi: float,
                                step: float = 1e-3) -> np.ndarray:
    """1-D grid search on the prox-residual, refined by golden-section on each basin
    whose grid minimum lies below 5e-3."""
    xs = np.arange(lo, hi + step, step)
    res = critical_residual(p, xs[:, None])
    hits = []
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for i in range(1, len(xs) - 1):
        if res[i] <= res[i - 1] and res[i] <= res[i + 1] and res[i] < 5e-3:
            a, b = xs[i - 1], xs[i + 1]
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            fc = critical_residual(p, np.array([c]))
            fd = critical_residual(p, np.array([d]))
            while b - a > 1e-10:
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - invphi * (b - a)
                    fc = critical_residual(p, np.array([c]))
                else:
                    a, c, fc = c, d, fd
                    d = a + invphi * (b - a)
                    fd = critical_residual(p, np.array([d]))
            x_ref = 0.5 * (a + b)
            if critical_residual(p, np.array([x_ref])) < 1e-6:
                if not hits or abs(x_ref - hits[-1]) > 10 * step:
                    hits.append(x_ref)
    return np.array(hits)


def nonconvex_probes(p: NonconvexProblem):
    """Probe set: merit_H, merit_subgrad, crit_residual, speed, arclength.

    Each probe takes a trajectory's stacked records (see integrate) and is a
    pure function of them, so the list can be reused across runs; arclength
    is the cumulative trapezoid of the speed over the record times.
    """
    return [
        ("merit_H", lambda t, x, v: merit_eval(p, x + v, x)),
        ("merit_subgrad", lambda t, x, v: merit_subgradient_norm(p, x, v)),
        ("crit_residual", lambda t, x, v: critical_residual(p, x)),
        ("speed", lambda t, x, v: norm(v)),
        ("arclength", lambda t, x, v: cumulative_trapezoid(t, norm(v))),
    ]
