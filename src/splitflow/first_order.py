"""First-order flows: Krasnoselskii-Mann, forward-backward (plain and
Tikhonov-regularized), forward-backward-forward, and Douglas-Rachford in its
coupled and reflected forms.

Each *_increment function returns the raw field value; the discrete steps in
algorithms.py reuse the same code paths so that unit-step Euler integration
and the discrete algorithms coincide bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .errors import SpecError
from .integrate import FlowField
from .operators import (MonotoneMap, SingleValuedMap, fb_delta, reflected_resolvent,
                        resolvent_eval)
from .schedules import Schedule

_BOUND_TOL = 1e-12


def km_increment(T: SingleValuedMap, lam: float, x):
    return lam * (T(x) - x)


def fb_increment(A: MonotoneMap, B: SingleValuedMap, gamma: float, lam: float, x,
                 shift=None):
    arg = x - gamma * B(x)
    if shift is not None:
        arg = arg + shift
    return lam * (resolvent_eval(A, gamma, arg) - x)


def fbf_increment(A: MonotoneMap, B: SingleValuedMap, gamma: float, lam: float, x):
    Bx = B(x)
    y = resolvent_eval(A, gamma, x - gamma * Bx)
    return -x + y + lam * (Bx - B(y))


def dr_operator(A: MonotoneMap, B: MonotoneMap, gamma: float, z):
    """The averaged Douglas-Rachford operator (Id + R_{gamma A} R_{gamma B})/2."""
    return 0.5 * (reflected_resolvent(A, gamma, reflected_resolvent(B, gamma, z)) + z)


@dataclasses.dataclass(frozen=True)
class KMFlowSpec:
    """dx/dt = lam(t) * (T(x) - x) for nonexpansive (or averaged) T."""

    T: SingleValuedMap
    lam: Schedule
    averaged_alpha: Optional[float] = None

    def __post_init__(self):
        if self.averaged_alpha is not None and not (0.0 < self.averaged_alpha < 1.0):
            raise SpecError("averagedness parameter must lie in (0,1)")
        L = self.T.lipschitz_L
        if L is not None and L > 1.0 + 1e-10:
            raise SpecError("KM flow needs a nonexpansive T, got Lipschitz bound %g" % L)
        cap = self.lambda_cap
        if self.lam.bounds is not None:
            lo, hi = self.lam.bounds
            if lo < -_BOUND_TOL or hi > cap + _BOUND_TOL:
                raise SpecError("relaxation schedule range [%g, %g] outside [0, %g]"
                                % (lo, hi, cap))

    @property
    def lambda_cap(self) -> float:
        return 1.0 / self.averaged_alpha if self.averaged_alpha is not None else 1.0

    def _lam_at(self, t: float) -> float:
        lam = self.lam(t)
        if lam < -_BOUND_TOL or lam > self.lambda_cap + _BOUND_TOL:
            raise SpecError("relaxation lam(%g)=%g outside [0, %g]" % (t, lam, self.lambda_cap))
        return lam


def km_field(spec: KMFlowSpec) -> FlowField:
    return FlowField(order=1, label="km",
                     fn=lambda t, x: km_increment(spec.T, spec._lam_at(t), x),
                     breakpoints=spec.lam.breakpoints)


@dataclasses.dataclass(frozen=True)
class FBFlowSpec:
    """dx/dt = lam(t) * [J_{gamma A}(x - gamma*B(x) (+ sign*eps(t)*x)) - x].

    epsilon switches on the Tikhonov-regularized variant; the perturbation is
    added inside the resolvent argument with the printed sign (+1 default),
    tikhonov_sign=-1 selects the classical vanishing-regularization form.
    """

    A: MonotoneMap
    B: SingleValuedMap
    gamma: float
    lam: Schedule
    epsilon: Optional[Schedule] = None
    tikhonov_sign: float = 1.0
    allow_relaxed: bool = False

    def __post_init__(self):
        beta = self.B.cocoercivity_beta
        if beta is None:
            raise SpecError("forward-backward flow needs a cocoercive B")
        if self.gamma <= 0:
            raise SpecError("step gamma must be positive")
        if not self.allow_relaxed and self.gamma >= 2.0 * beta:
            raise SpecError("step gamma=%g outside (0, 2*beta)=(0, %g)"
                            % (self.gamma, 2.0 * beta))
        if self.lam.bounds is not None and not self.allow_relaxed:
            lo, hi = self.lam.bounds
            if lo < -_BOUND_TOL or hi > self.delta + _BOUND_TOL:
                raise SpecError("relaxation range [%g, %g] outside [0, delta=%g]"
                                % (lo, hi, self.delta))

    @property
    def delta(self) -> float:
        return fb_delta(self.B.cocoercivity_beta, self.gamma)

    def _lam_at(self, t: float) -> float:
        lam = self.lam(t)
        if lam < -_BOUND_TOL or (not self.allow_relaxed and lam > self.delta + _BOUND_TOL):
            raise SpecError("relaxation lam(%g)=%g outside [0, delta=%g]"
                            % (t, lam, self.delta))
        return lam


def fb_field(spec: FBFlowSpec) -> FlowField:
    brk = spec.lam.breakpoints
    if spec.epsilon is not None:
        brk = tuple(sorted(set(brk) | set(spec.epsilon.breakpoints)))

    def fn(t, x):
        shift = None
        if spec.epsilon is not None:
            shift = spec.tikhonov_sign * spec.epsilon(t) * x
        return fb_increment(spec.A, spec.B, spec.gamma, spec._lam_at(t), x, shift=shift)

    label = "fb-tikhonov" if spec.epsilon is not None else "fb"
    return FlowField(order=1, fn=fn, label=label, breakpoints=brk)


@dataclasses.dataclass(frozen=True)
class FBFFlowSpec:
    """Forward-backward-forward flow for monotone Lipschitz B (Tseng range gamma*L < 1)."""

    A: MonotoneMap
    B: SingleValuedMap
    gamma: float
    lam: float

    def __post_init__(self):
        L = self.B.lipschitz_L
        if L is None:
            raise SpecError("forward-backward-forward flow needs a Lipschitz bound on B")
        if self.gamma <= 0 or self.gamma * L >= 1.0:
            raise SpecError("need 0 < gamma with gamma*L < 1, got gamma*L=%g"
                            % (self.gamma * L))
        if self.lam <= 0:
            raise SpecError("lam must be positive")


def fbf_field(spec: FBFFlowSpec) -> FlowField:
    return FlowField(order=1, label="fbf",
                     fn=lambda t, x: fbf_increment(spec.A, spec.B, spec.gamma, spec.lam, x))


@dataclasses.dataclass(frozen=True)
class DRFlowSpec:
    """Douglas-Rachford flow.

    form="reflected": dz/dt = (Id + R_{gamma A} R_{gamma B})/2 (z) - z on the
    governing variable z.  form="coupled": the x-dynamics with y(t) =
    gamma*B(x(t)), which requires a single-valued differentiable B; the
    implicit dy/dt is resolved by a finite-difference Jacobian linear solve.
    """

    A: MonotoneMap
    B: object  # MonotoneMap (reflected) or SingleValuedMap (coupled)
    gamma: float
    form: str = "reflected"

    def __post_init__(self):
        if self.gamma <= 0:
            raise SpecError("gamma must be positive")
        if self.form not in ("reflected", "coupled"):
            raise SpecError("form must be 'reflected' or 'coupled'")
        if self.form == "coupled":
            if not isinstance(self.B, SingleValuedMap):
                raise SpecError("coupled form needs a single-valued B; "
                                "use form='reflected' for set-valued B")
            if not self.B.differentiable:
                raise SpecError("coupled form needs a differentiable B; "
                                "use form='reflected' instead")


def _fd_jacobian(B: SingleValuedMap, x):
    x = np.asarray(x, dtype=float)
    n = x.size
    h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
    J = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        J[:, i] = (B(x + e) - B(x - e)) / (2.0 * h)
    return J


def dr_field(spec: DRFlowSpec) -> FlowField:
    if spec.form == "reflected":
        def fn(t, z):
            return 1.0 * (dr_operator(spec.A, spec.B, spec.gamma, z) - z)

        return FlowField(order=1, fn=fn, label="dr-reflected")

    def fn(t, x):
        x = np.asarray(x, dtype=float)
        c = resolvent_eval(spec.A, spec.gamma, x - spec.gamma * spec.B(x)) - x
        J = _fd_jacobian(spec.B, x)
        return np.linalg.solve(np.eye(x.size) + spec.gamma * J, c)

    return FlowField(order=1, fn=fn, label="dr-coupled")


# ---------------------------------------------------------------------------
# probes


def _norm(v):
    return float(np.linalg.norm(v))


def _fb_residual(A, B, gamma):
    """The probe ||J_{gamma A}(x - gamma*B(x)) - x||."""
    def residual(t, x, v):
        return _norm(resolvent_eval(A, gamma, x - gamma * B(x)) - x)

    return residual


def _fp_probes(residual, ref):
    """The fixed-point probe set: fp_residual, dist_to_ref (with ref), field_norm."""
    probes = [("fp_residual", residual), ("field_norm", lambda t, x, v: _norm(v))]
    if ref is not None:
        r = np.asarray(ref, dtype=float)
        probes.insert(1, ("dist_to_ref", lambda t, x, v: _norm(x - r)))
    return probes


def km_probes(spec: KMFlowSpec, ref=None):
    return _fp_probes(lambda t, x, v: _norm(spec.T(x) - x), ref)


def fb_probes(spec: FBFlowSpec, ref=None):
    return _fp_probes(_fb_residual(spec.A, spec.B, spec.gamma), ref)


def fbf_probes(spec: FBFFlowSpec, ref=None):
    return _fp_probes(_fb_residual(spec.A, spec.B, spec.gamma), ref)


def dr_probes(spec: DRFlowSpec, ref=None):
    if spec.form == "coupled":
        return _fp_probes(_fb_residual(spec.A, spec.B, spec.gamma), ref)
    return _fp_probes(lambda t, z, v: _norm(dr_operator(spec.A, spec.B, spec.gamma, z) - z),
                      ref)
