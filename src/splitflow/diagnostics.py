"""Lyapunov monotonicity checks, rate fits, and the
objective-gap certificate of the unrelaxed proximal-gradient flow.

All reports are plain dicts with keys {check, pass, first_violation_t, margin}
(plus check-specific extras) and serialize to JSON as-is.  Every check decides
through one verdict (_verdict): a grid time passes where its value <= bound
comparison holds, so a NaN is a violation, and so is a rise to +inf.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from .errors import FitError, HypothesisError
from .integrate import Trajectory
from .operators import ProxFunction, SmoothFunction
from .schedules import Schedule


def _verdict(name: str, times, holds, margin: float, **extra) -> dict:
    """The report of a check that holds at times[i] where holds[i]: holds is a mask
    of comparisons value <= bound, which a NaN fails."""
    bad = ~holds
    first = float(times[bad][0]) if np.any(bad) else None
    return {"check": name, "pass": first is None, "first_violation_t": first,
            "margin": margin, **extra}


def nonincreasing_check(times, values, name: str = "nonincreasing",
                        abs_slack: float = 1e-9) -> dict:
    """Verify a sampled series never rises by more than abs_slack plus 1e-12 times the
    larger finite magnitude of the pair; report the first violation.  A step to or
    from NaN and a rise to +inf are violations; a fall from +inf is not."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    rises = np.diff(values)
    size = np.where(np.isfinite(values), np.abs(values), 0.0)
    allowed = abs_slack + 1e-12 * np.maximum(size[:-1], size[1:])
    return _verdict(name, times[1:], rises <= allowed,
                    float(np.max(rises)) if rises.size else 0.0)


def fejer_check(traj: Trajectory, ref) -> dict:
    """Distance to a supplied fixed point/zero is nonincreasing along the run."""
    ref = np.asarray(ref, dtype=float)
    dist = np.linalg.norm(traj.states - ref, axis=1)
    out = nonincreasing_check(traj.times, dist, name="fejer")
    out["final_value"] = float(dist[-1])
    return out


def record_monotone_check(traj: Trajectory, record: str) -> dict:
    """nonincreasing_check of a stored record, reported under the record's name."""
    if record not in traj.records:
        raise KeyError("trajectory has no record %r" % record)
    return nonincreasing_check(traj.times, traj.records[record], name=record)


def cumulative_trapezoid(t, y) -> np.ndarray:
    """The trapezoid integrals of y from t[0] to each t[i] (0.0 at t[0])."""
    out = np.zeros(len(t))
    out[1:] = np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))
    return out


def objective_gap_check(times, gaps, d0_sq_over_2gamma: float, tol: float = 1e-6) -> dict:
    """0 <= gap(T) <= d0^2/(2*gamma*T)*(1+tol) at every positive grid time, gap nonincreasing.

    The lower bound carries a tiny floating-point allowance so that exact-zero
    gaps at converged tails do not fail on rounding.  A NaN gap is a violation.
    The first violation is the bound's, else the monotone check's.
    """
    times = np.asarray(times, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    lower_slack = 1e-12 * (1.0 + abs(d0_sq_over_2gamma))
    pos = times > 0
    t, gap = times[pos], gaps[pos]
    viol = np.maximum(-gap - lower_slack, gap - d0_sq_over_2gamma / t * (1.0 + tol))
    mono = nonincreasing_check(times, gaps, name="gap-nonincreasing")
    # the monotone verdict goes last, at its own first violation (0.0 unused when it holds)
    return _verdict("objective-gap-certificate",
                    np.append(t, mono["first_violation_t"] or 0.0),
                    np.append(viol <= 0, mono["pass"]),
                    float(np.max(viol, initial=-np.inf)), monotone=mono["pass"])


def _step_product(gamma: float, L: float) -> float:
    """q*(3 + q) for q = gamma*L, the product the proximal-gradient step hypotheses
    bound by 1, with L the Lipschitz constant of grad g."""
    q = gamma * L
    return q * (3.0 + q)


def _gap_step_holds(gamma: float, g: SmoothFunction) -> bool:
    """The objective-gap certificate's step hypothesis: _step_product(gamma, L) does
    not exceed 1 (to 1e-12)."""
    return _step_product(gamma, g.grad_lipschitz) <= 1.0 + 1e-12


def proxgrad_gap_certificate(traj: Trajectory, f: ProxFunction, g: SmoothFunction,
                          gamma: float, xstar, tol: float = 1e-6) -> dict:
    """Certify the objective-gap bound of the unrelaxed proximal-gradient flow from the
    run's first state x0: gap(T) <= ||x0 - x*||^2/(2*gamma*T), with
    gap(T) = (f+g)(xd(T)+x(T)) - (f+g)(x*) + ||xd(T)||^2/(2*gamma) on the grid.

    Hypothesis: _gap_step_holds(gamma, g) (the flow must also run with relaxation
    1, which the caller guarantees by construction).
    """
    if not _gap_step_holds(gamma, g):
        raise HypothesisError("step hypothesis violated: gamma*L*(3+gamma*L) = %g > 1"
                              % _step_product(gamma, g.grad_lipschitz))
    xstar = np.asarray(xstar, dtype=float)
    d0 = traj.states[0] - xstar
    u, v = traj.states + traj.velocities, traj.velocities
    gaps = (f.value(u) + g.value(u) - (f.value(xstar) + g.value(xstar))
            + np.vecdot(v, v) / (2.0 * gamma))
    return objective_gap_check(traj.times, gaps, float(d0 @ d0) / (2.0 * gamma), tol=tol)


@dataclasses.dataclass(frozen=True)
class RateFit:
    model: str               # "power" | "exponential"
    coefficient: float       # c in c/t^p or c*exp(-rho*t)
    exponent: float          # p or rho
    window: Tuple[float, float]
    r2: float


def _loglog_fit(lx, ly) -> Tuple[float, float, float]:
    """Least-squares line ly ~ slope*lx + intercept; returns (slope, intercept, r2 in [0, 1]).
    FitError unless every lx and ly is finite."""
    if not (np.all(np.isfinite(lx)) and np.all(np.isfinite(ly))):
        raise FitError("log-log fits need finite coordinates")
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - float(np.sum((ly - pred) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, float(max(min(r2, 1.0), 0.0))


def rate_fit(times, values, model: str = "power") -> RateFit:
    """Least squares in log space for c/t^p (power) or c*exp(-rho*t) (exponential)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 10:
        raise FitError("need at least 10 points, got %d" % times.size)
    if not np.all(values > 0):
        raise FitError("rate fits need finite positive values")
    ly = np.log(values)
    if model == "power":
        if not np.all(times > 0):
            raise FitError("power fits need positive times")
        lx = np.log(times)
    elif model == "exponential":
        lx = times
    else:
        raise ValueError("unknown model %r" % model)
    slope, intercept, r2 = _loglog_fit(lx, ly)
    return RateFit(model=model, coefficient=float(np.exp(intercept)),
                   exponent=float(-slope), window=(float(times[0]), float(times[-1])),
                   r2=r2)


def envelope_slope(times, values, window: float) -> Tuple[float, float]:
    """Log-log slope of sliding-window maxima (for oscillatory decay envelopes)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not window > 0:
        raise FitError("window must be positive")
    env_t, env_v = [], []
    start = times[0]
    while start < times[-1]:
        mask = (times >= start) & (times < start + window)
        if np.any(mask):
            env_t.append(float(np.mean(times[mask])))
            env_v.append(float(np.max(values[mask])))
        start += window
    if len(env_t) < 5:
        raise FitError("too few envelope windows (%d)" % len(env_t))
    env_t, env_v = np.array(env_t), np.array(env_v)
    if not np.all(env_v > 0):
        raise FitError("envelope values must be finite and positive")
    slope, _, r2 = _loglog_fit(np.log(env_t), np.log(env_v))
    return float(slope), r2


def km_residual_rate_check(traj: Trajectory, lam: Schedule) -> dict:
    """Check t*r(t)^2 <= (2/tau_lo) * int_{t/2}^t lam(1-lam)*r^2 ds at every grid t >= 2dt.

    r is the stored fp_residual record; the integral uses trapezoid
    quadrature on the stored grid with a linearly interpolated lower endpoint;
    slack is 1e-6*(1 + rhs).  Requires 0 < inf lam <= sup lam < 1 on the grid.
    """
    times = np.asarray(traj.times, dtype=float)
    if "fp_residual" not in traj.records:
        raise KeyError("trajectory has no record 'fp_residual'")
    r = np.asarray(traj.records["fp_residual"], dtype=float)
    lam_vals = lam(times)
    if not (np.min(lam_vals) > 0.0 and np.max(lam_vals) < 1.0):
        raise HypothesisError("need 0 < inf lam <= sup lam < 1 on the grid, got range [%g, %g]"
                              % (np.min(lam_vals), np.max(lam_vals)))
    tau_lo = float(np.min(lam_vals * (1.0 - lam_vals)))
    cum = cumulative_trapezoid(times, lam_vals * (1.0 - lam_vals) * r ** 2)
    dt = times[1] - times[0]
    k = (times >= 2.0 * dt - 1e-12) & (times > times[0])
    t = times[k]
    cum_lo = np.interp(np.maximum(t / 2.0, times[0]), times, cum)
    rhs = (2.0 / tau_lo) * (cum[k] - cum_lo)
    viol = t * r[k] ** 2 - rhs - 1e-6 * (1.0 + rhs)
    return _verdict("km-rate-inequality", t, viol <= 0, float(np.max(viol, initial=-np.inf)))
