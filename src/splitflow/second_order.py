"""Damped second-order flows and the schedule condition that certifies them.

Every flow is xdd + damping(t)*xd + drive(t, x) = 0, with damping a Schedule.
The scheduled variants damp with gamma(t) and drive with lam(t)*B(x), where B
is beta-cocoercive: B itself (cocoercive), B = Id - T for a nonexpansive T
(nonexpansive, beta = 1/2), or the forward-backward residual (fb, beta =
delta/2).  They are certified by gamma^2/lam >= (1+theta)/beta with gamma
nonincreasing and lam nondecreasing (Bot & Csetnek 2016, SIAM J. Control
Optim. 54); check_damping_condition probes it with the spec's own beta.  The
vanishing-damping variants damp with over_t(alpha) and drive with grad g (avd)
or the Yosida regularization A_{lam(t)} (yosida); they have no beta and no
condition.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .errors import SpecError
from .integrate import FlowField, Trajectory
from .operators import (MonotoneMap, SingleValuedMap, SmoothFunction, _nonexpansive,
                        check_fb_step, fb_delta, norm, yosida_eval)
from .schedules import Schedule, _bind, over_t


@dataclasses.dataclass(frozen=True)
class DampingCondition:
    """Damping gamma(t), relaxation lam(t) and the margin theta > 0 of the condition."""

    gamma: Schedule
    lam: Schedule
    theta: float

    def __post_init__(self):
        if not self.theta > 0:
            raise SpecError("theta must be positive, got %r" % (self.theta,))


def check_damping_condition(condition: DampingCondition, beta: float, grid) -> dict:
    """Probe gamma, lam > 0, their monotonicity and gamma^2/lam >= (1+theta)/beta on a
    grid (each schedule read once, at all of it), beta the cocoercivity of the drive;
    report per-condition pass/fail and bounds."""
    if beta is None or not beta > 0:
        raise SpecError("the damping condition needs the drive's beta > 0, got %r" % (beta,))
    grid = np.asarray(grid, dtype=float)
    gam, dgam = condition.gamma(grid), condition.gamma.derivative(grid)
    lam, dlam = condition.lam(grid), condition.lam.derivative(grid)

    def first_bad(mask):
        idx = np.nonzero(mask)[0]
        return float(grid[idx[0]]) if idx.size else None

    tol = 1e-12
    pos = (gam > 0) & (lam > 0)
    mono = (dgam <= tol) & (dlam >= -tol)
    bound = (1.0 / beta) * (1.0 + condition.theta)
    ratio_ok = gam ** 2 / lam >= bound - 1e-12
    conditions = {
        "positivity": {"pass": bool(np.all(pos)), "first_violation_t": first_bad(~pos)},
        "monotonicity": {"pass": bool(np.all(mono)), "first_violation_t": first_bad(~mono)},
        "ratio": {"pass": bool(np.all(ratio_ok)), "first_violation_t": first_bad(~ratio_ok),
                  "min_value": float(np.min(gam ** 2 / lam)), "required": bound},
    }
    return {"bounds": {"lam_lo": float(np.min(lam)), "lam_hi": float(np.max(lam)),
                       "gamma_lo": float(np.min(gam)), "gamma_hi": float(np.max(gam))},
            "conditions": conditions,
            "pass": all(c["pass"] for c in conditions.values())}


@dataclasses.dataclass(frozen=True)
class SecondOrderSpec:
    """One damped second-order flow; build it with a classmethod.

    A classmethod sets drive(t, x), the damping schedule, the relaxation
    schedule the drive reads (None for avd) and beta, the cocoercivity of the
    driving operator (None for avd and yosida).  A scheduled variant takes its
    damping gamma(t) and relaxation lam(t) from its DampingCondition; the
    field never reads the condition, and check_damping_condition(condition,
    spec.beta, grid) certifies the flow against the drive's own beta.
    operator is the driving operator B(x) where it does not depend on t.
    """

    label: str
    drive: Callable
    damping: Schedule
    relaxation: Optional[Schedule] = None
    operator: Optional[Callable] = None
    beta: Optional[float] = None
    g: Optional[SmoothFunction] = None

    @classmethod
    def _scheduled(cls, variant, operator, beta, condition):
        lam = _bind(condition.lam)
        return cls(label="second-order-" + variant, operator=operator,
                   drive=lambda t, x: lam(t) * operator(x), damping=condition.gamma,
                   relaxation=condition.lam, beta=beta)

    @classmethod
    def cocoercive(cls, B: SingleValuedMap, condition: DampingCondition):
        if B.cocoercivity_beta is None:
            raise SpecError("cocoercive variant needs B.cocoercivity_beta")
        return cls._scheduled("cocoercive", B.fn, B.cocoercivity_beta, condition)

    @classmethod
    def nonexpansive(cls, T: SingleValuedMap, condition: DampingCondition):
        if not _nonexpansive(T):
            raise SpecError("nonexpansive variant needs a nonexpansive T")
        Tf = T.fn
        return cls._scheduled("nonexpansive", lambda x: x - Tf(x), 0.5, condition)

    @classmethod
    def fb(cls, A: MonotoneMap, B: SingleValuedMap, eta: float, condition: DampingCondition):
        beta, Bf = check_fb_step(B, eta), B.fn
        J, step = A.resolvent(eta), np.array(eta)
        return cls._scheduled("fb", lambda x: x - J(x - step * Bf(x)),
                              fb_delta(beta, eta) / 2.0, condition)

    @classmethod
    def avd(cls, g: SmoothFunction, alpha: float):
        grad = g.gradient
        return cls(label="avd", operator=grad, damping=over_t(alpha),
                   drive=lambda t, x: grad(x), g=g)

    @classmethod
    def yosida(cls, A: MonotoneMap, lam_schedule: Schedule, alpha: float):
        def drive(t, x):
            lam = lam_schedule(t)
            if isinstance(lam, float):
                return yosida_eval(A, lam, x)
            # stacked records at times of their own: a resolvent takes one step size
            return np.array([yosida_eval(A, step, row) for step, row in zip(lam.ravel(), x)])

        return cls(label="yosida-avd", damping=over_t(alpha), relaxation=lam_schedule,
                   drive=drive)

    def driving_operator(self, x):
        """The operator whose zero set the flow targets, evaluated at x."""
        if self.operator is None:
            raise SpecError("driving_operator depends on t for flow %r" % self.label)
        return self.operator(x)


def second_order_field(spec: SecondOrderSpec) -> FlowField:
    """xdd = -damping(t)*xd - drive(t, x); breakpoints of damping and relaxation."""
    neg_damping, drive = _bind(spec.damping, lambda gam, t: -gam), spec.drive
    relax = spec.relaxation.breakpoints if spec.relaxation is not None else ()
    return FlowField(order=2, fn=lambda t, x, v: neg_damping(t) * v - drive(t, x),
                     label=spec.label,
                     breakpoints=tuple(sorted(set(spec.damping.breakpoints) | set(relax))))


def _lyapunov(spec: SecondOrderSpec, xstar):
    """The Lyapunov value as a function lyap(t, x, v), for the probe and the series."""
    ref = np.asarray(xstar, dtype=float)
    beta = spec.beta
    if beta is None:
        raise SpecError("flow %r has no Lyapunov functional: its drive has no beta"
                        % spec.label)

    def lyap(t, x, v):
        d = x - ref
        gam, lam = spec.damping(t), spec.relaxation(t)
        # np.vecdot rounds as @ does; d @ v is a cross dot (see operators)
        return (np.vecdot(d, v) + gam * 0.5 * np.vecdot(d, d)
                + beta * (gam / lam) * np.vecdot(v, v))

    return lyap


def second_order_lyapunov(traj: Trajectory, spec: SecondOrderSpec, xstar) -> np.ndarray:
    """V(t) = <x - x*, v> + gamma(t)*||x - x*||^2/2 + beta*(gamma/lam)(t)*||v||^2 on the grid."""
    return _lyapunov(spec, xstar)(traj.times, traj.states, traj.velocities)


def second_order_probes(spec: SecondOrderSpec, xstar=None):
    """Standard probe set: lyapunov_V, h, hdot, speed, accel (+ objective for avd).

    Each probe takes a trajectory's stacked records (see integrate); accel
    evaluates the field once on all of them, at the times as a column.
    """
    probes = []
    if xstar is not None:
        ref = np.asarray(xstar, dtype=float)
        if spec.beta is not None:
            probes.append(("lyapunov_V", _lyapunov(spec, ref)))
        probes.append(("h", lambda t, x, v: 0.5 * np.vecdot(x - ref, x - ref)))
        # a cross dot, which rounds as @ (see operators)
        probes.append(("hdot", lambda t, x, v: np.vecdot(x - ref, v)))
    probes.append(("speed", lambda t, x, v: norm(v)))
    field = second_order_field(spec)
    probes.append(("accel", lambda t, x, v: norm(field.fn(t[:, None], x, v))))
    if spec.g is not None:
        probes.append(("objective", lambda t, x, v: spec.g.value(x)))
    return probes
