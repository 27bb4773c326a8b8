"""Damped second-order flows and the schedule condition that certifies them.

The general flow is xdd + gamma(t)*xd + lam(t)*B(x) = 0 for a cocoercive B;
the nonexpansive, averaged and forward-backward variants are the special
cases B = Id - T.  The vanishing-damping variants (avd, yosida) replace
gamma(t) by alpha/t and carry no schedule condition.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .errors import SpecError
from .integrate import FlowField, Trajectory
from .operators import (MonotoneMap, SingleValuedMap, SmoothFunction, fb_delta,
                        resolvent_eval, yosida_eval)
from .schedules import Schedule

_KINDS = ("cocoercive", "nonexpansive", "averaged", "fb", "opt-relaxed")


@dataclasses.dataclass(frozen=True)
class DampingCondition:
    """Damping/relaxation schedules plus the margin theta of the certifying condition.

    kind selects the threshold K in gamma^2/lam >= K*(1+theta):
    "cocoercive" K=1/beta, "nonexpansive" K=2, "averaged" K=2*alpha,
    "fb" K=2/delta.  kind="opt-relaxed" instead checks constant schedules with
    gamma^2 > eta/beta + 1.
    """

    gamma: Schedule
    lam: Schedule
    theta: float
    kind: str
    beta: Optional[float] = None
    alpha: Optional[float] = None
    delta: Optional[float] = None
    eta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecError("unknown condition kind %r" % self.kind)
        if self.theta <= 0 and self.kind != "opt-relaxed":
            raise SpecError("theta must be positive")
        if self.kind == "cocoercive" and (self.beta is None or self.beta <= 0):
            raise SpecError("cocoercive kind needs beta > 0")
        if self.kind == "averaged" and (self.alpha is None or not 0 < self.alpha < 1):
            raise SpecError("averaged kind needs alpha in (0,1)")
        if self.kind == "fb" and (self.delta is None or self.delta <= 0):
            raise SpecError("fb kind needs delta > 0")
        if self.kind == "opt-relaxed" and (self.beta is None or self.eta is None):
            raise SpecError("opt-relaxed kind needs beta and eta")

    @property
    def threshold(self) -> float:
        if self.kind == "cocoercive":
            return 1.0 / self.beta
        if self.kind == "nonexpansive":
            return 2.0
        if self.kind == "averaged":
            return 2.0 * self.alpha
        if self.kind == "fb":
            return 2.0 / self.delta
        raise SpecError("threshold is undefined for the opt-relaxed kind")

    @property
    def effective_beta(self) -> float:
        """Cocoercivity constant of the operator the flow actually drives."""
        return 1.0 / self.threshold


def check_damping_condition(spec: DampingCondition, grid) -> dict:
    """Probe the schedule condition on a grid; report per-condition pass/fail and bounds."""
    grid = np.asarray(grid, dtype=float)
    gam = np.array([spec.gamma(t) for t in grid])
    lam = np.array([spec.lam(t) for t in grid])
    dgam = np.array([spec.gamma.derivative(t) for t in grid])
    dlam = np.array([spec.lam.derivative(t) for t in grid])
    report = {
        "kind": spec.kind,
        "bounds": {"lam_lo": float(np.min(lam)), "lam_hi": float(np.max(lam)),
                   "gamma_lo": float(np.min(gam)), "gamma_hi": float(np.max(gam))},
        "conditions": {},
    }

    def first_bad(mask):
        idx = np.nonzero(mask)[0]
        return float(grid[idx[0]]) if idx.size else None

    tol = 1e-12
    if spec.kind == "opt-relaxed":
        const = (np.max(np.abs(dgam)) <= tol) and (np.max(np.abs(dlam)) <= tol)
        bound = spec.eta / spec.beta + 1.0
        ok = bool(np.all(gam ** 2 > bound))
        report["conditions"]["schedules_constant"] = {"pass": const, "first_violation_t": None}
        report["conditions"]["gamma_sq_margin"] = {
            "pass": ok, "first_violation_t": first_bad(gam ** 2 <= bound)}
        report["pass"] = const and ok
        return report

    pos = (gam > 0) & (lam > 0)
    mono = (dgam <= tol) & (dlam >= -tol)
    bound = spec.threshold * (1.0 + spec.theta)
    ratio_ok = gam ** 2 / lam >= bound - 1e-12
    report["conditions"]["positivity"] = {"pass": bool(np.all(pos)),
                                          "first_violation_t": first_bad(~pos)}
    report["conditions"]["monotonicity"] = {"pass": bool(np.all(mono)),
                                            "first_violation_t": first_bad(~mono)}
    report["conditions"]["ratio"] = {"pass": bool(np.all(ratio_ok)),
                                     "first_violation_t": first_bad(~ratio_ok),
                                     "min_value": float(np.min(gam ** 2 / lam)),
                                     "required": bound}
    report["pass"] = all(c["pass"] for c in report["conditions"].values())
    return report


@dataclasses.dataclass(frozen=True)
class SecondOrderSpec:
    """One of the damped second-order flows; build with the classmethods."""

    variant: str  # "cocoercive" | "nonexpansive" | "fb" | "avd" | "yosida"
    condition: Optional[DampingCondition] = None
    B: Optional[SingleValuedMap] = None
    T: Optional[SingleValuedMap] = None
    A: Optional[MonotoneMap] = None
    eta: Optional[float] = None
    g: Optional[SmoothFunction] = None
    alpha: Optional[float] = None
    lam_schedule: Optional[Schedule] = None

    @classmethod
    def cocoercive(cls, B: SingleValuedMap, condition: DampingCondition):
        if B.cocoercivity_beta is None:
            raise SpecError("cocoercive variant needs B.cocoercivity_beta")
        return cls(variant="cocoercive", B=B, condition=condition)

    @classmethod
    def nonexpansive(cls, T: SingleValuedMap, condition: DampingCondition):
        if T.lipschitz_L is not None and T.lipschitz_L > 1.0 + 1e-10:
            raise SpecError("nonexpansive variant needs a nonexpansive T")
        return cls(variant="nonexpansive", T=T, condition=condition)

    @classmethod
    def fb(cls, A: MonotoneMap, B: SingleValuedMap, eta: float, condition: DampingCondition):
        beta = B.cocoercivity_beta
        if beta is None:
            raise SpecError("fb variant needs a cocoercive B")
        if not 0 < eta < 2 * beta:
            raise SpecError("fb variant needs eta in (0, 2*beta)")
        return cls(variant="fb", A=A, B=B, eta=eta, condition=condition)

    @classmethod
    def avd(cls, g: SmoothFunction, alpha: float):
        if alpha <= 0:
            raise SpecError("avd variant needs alpha > 0")
        return cls(variant="avd", g=g, alpha=alpha)

    @classmethod
    def yosida(cls, A: MonotoneMap, lam_schedule: Schedule, alpha: float):
        if alpha <= 0:
            raise SpecError("yosida variant needs alpha > 0")
        return cls(variant="yosida", A=A, lam_schedule=lam_schedule, alpha=alpha)

    @property
    def fb_averagedness_delta(self) -> float:
        return fb_delta(self.B.cocoercivity_beta, self.eta)

    @property
    def effective_beta(self) -> float:
        """Cocoercivity of the driving operator (the B of the general flow)."""
        if self.variant == "cocoercive":
            return self.B.cocoercivity_beta
        if self.variant == "nonexpansive":
            return 0.5
        if self.variant == "fb":
            return self.fb_averagedness_delta / 2.0
        raise SpecError("effective_beta is undefined for variant %r" % self.variant)

    def driving_operator(self, x):
        """The operator whose zero set the flow targets, evaluated at x."""
        if self.variant == "cocoercive":
            return self.B(x)
        if self.variant == "nonexpansive":
            return x - self.T(x)
        if self.variant == "fb":
            return x - resolvent_eval(self.A, self.eta, x - self.eta * self.B(x))
        if self.variant == "avd":
            return self.g.gradient(x)
        raise SpecError("driving_operator is schedule-dependent for variant %r" % self.variant)


def second_order_field(spec: SecondOrderSpec) -> FlowField:
    if spec.variant in ("cocoercive", "nonexpansive", "fb"):
        gam, lam = spec.condition.gamma, spec.condition.lam

        def fn(t, x, v):
            return -gam(t) * v - lam(t) * spec.driving_operator(x)

        brk = tuple(sorted(set(gam.breakpoints) | set(lam.breakpoints)))
        return FlowField(order=2, fn=fn, label="second-order-" + spec.variant,
                         breakpoints=brk)

    if spec.variant == "avd":
        def fn(t, x, v):
            if t <= 0:
                raise SpecError("vanishing damping alpha/t needs t > 0")
            return -(spec.alpha / t) * v - spec.g.gradient(x)

        return FlowField(order=2, fn=fn, label="avd")

    def fn(t, x, v):
        if t <= 0:
            raise SpecError("vanishing damping alpha/t needs t > 0")
        return -(spec.alpha / t) * v - yosida_eval(spec.A, spec.lam_schedule(t), x)

    return FlowField(order=2, fn=fn, label="yosida-avd")


def _lyapunov(spec: SecondOrderSpec, xstar):
    """The Lyapunov value as a function lyap(t, x, v), for the probe and the series."""
    ref = np.asarray(xstar, dtype=float)
    beta = spec.effective_beta

    def lyap(t, x, v):
        d = x - ref
        gam, lam = spec.condition.gamma(t), spec.condition.lam(t)
        return float(d @ v) + gam * 0.5 * float(d @ d) + beta * (gam / lam) * float(v @ v)

    return lyap


def second_order_lyapunov(traj: Trajectory, spec: SecondOrderSpec, xstar) -> np.ndarray:
    """V(t) = <x - x*, v> + gamma(t)*||x - x*||^2/2 + beta*(gamma/lam)(t)*||v||^2 on the grid."""
    if spec.condition is None:
        raise SpecError("the Lyapunov functional needs the scheduled variants")
    lyap = _lyapunov(spec, xstar)
    out = np.empty(len(traj.times))
    for k, t in enumerate(traj.times):
        out[k] = lyap(t, traj.states[k], traj.velocities[k])
    return out


def second_order_probes(spec: SecondOrderSpec, xstar=None):
    """Standard probe set: lyapunov_V, h, hdot, speed, accel (+ objective for avd)."""
    probes = []
    if xstar is not None:
        ref = np.asarray(xstar, dtype=float)
        if spec.condition is not None:
            probes.append(("lyapunov_V", _lyapunov(spec, ref)))
        probes.append(("h", lambda t, x, v: 0.5 * float((x - ref) @ (x - ref))))
        probes.append(("hdot", lambda t, x, v: float((x - ref) @ v)))
    probes.append(("speed", lambda t, x, v: float(np.linalg.norm(v))))
    field = second_order_field(spec)
    probes.append(("accel", lambda t, x, v: float(np.linalg.norm(field.fn(t, x, v)))))
    if spec.variant == "avd":
        probes.append(("objective", lambda t, x, v: float(spec.g.value(x))))
    return probes
