"""First-order flows: Krasnoselskii-Mann, forward-backward (plain and
Tikhonov-regularized), forward-backward-forward, and Douglas-Rachford in its
coupled and reflected forms.

km_increment and fbf_increment return the raw field value of their flows.  The
fb fields, dr-coupled's right-hand side and the fb, fbf and dr-coupled
residual probes apply the forward-backward residual operators.fb_residual,
with a relaxation multiplied outside it.  The discrete steps in algorithms.py
reuse the same code paths so that unit-step Euler integration and the
discrete algorithms coincide bit for bit.  A field passes them the values it
bound when it was built: B.fn for B, the resolvent bound at its step (see
operators), the step and a constant lam as 0-d arrays.  A discrete step binds
its resolvent at every call.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .errors import SpecError
from .integrate import FlowField
from .operators import (MonotoneMap, SingleValuedMap, _nonexpansive, _reflect, check_fb_step,
                        fb_delta, fb_residual, norm)
from .schedules import Schedule, _bind

_BOUND_TOL = 1e-12
_HALF = np.array(0.5)


def check_relaxation(lam: float, cap: float, t: Optional[float] = None) -> float:
    """The relaxation hypothesis lam in [0, cap] (to 1e-12), else SpecError; returns lam.

    cap is 1/alpha for KM (1 when T is merely nonexpansive), delta for forward-
    backward; t is the time a scheduled lam was read at.
    """
    if not -_BOUND_TOL <= lam <= cap + _BOUND_TOL:
        at = "" if t is None else "(%g)" % t
        raise SpecError("relaxation lam%s=%g outside [0, %g]" % (at, lam, cap))
    return lam


def check_tseng_step(B: SingleValuedMap, gamma: float):
    """Tseng's step hypothesis: B has a known Lipschitz bound L and 0 < gamma*L < 1."""
    L = B.lipschitz_L
    if L is None:
        raise SpecError("forward-backward-forward step needs a Lipschitz bound on B")
    if not (gamma > 0 and gamma * L < 1.0):
        raise SpecError("need 0 < gamma with gamma*L < 1, got gamma*L=%g" % (gamma * L))


def km_increment(T: Callable, lam, x):
    return lam * (T(x) - x)


def fbf_increment(J: Callable, B: Callable, gamma, lam, x):
    """-x + y + lam*(B(x) - B(y)), y = J(x - gamma*B(x)), J bound at gamma."""
    Bx = B(x)
    y = J(x - gamma * Bx)
    return -x + y + lam * (Bx - B(y))


def dr_operator(JA: Callable, JB: Callable, z):
    """The averaged Douglas-Rachford operator (Id + R_{gamma A} R_{gamma B})/2, JA and
    JB the resolvents of A and B bound at gamma."""
    return _HALF * (_reflect(JA, _reflect(JB, z)) + z)


@dataclasses.dataclass(frozen=True)
class KMFlowSpec:
    """dx/dt = lam(t) * (T(x) - x) for nonexpansive (or averaged) T."""

    T: SingleValuedMap
    lam: Schedule
    averaged_alpha: Optional[float] = None

    def __post_init__(self):
        if self.averaged_alpha is not None and not (0.0 < self.averaged_alpha < 1.0):
            raise SpecError("averagedness parameter must lie in (0,1)")
        if not _nonexpansive(self.T):
            raise SpecError("KM flow needs a nonexpansive T, got Lipschitz bound %g"
                            % self.T.lipschitz_L)
        for lam in self.lam.bounds or ():
            check_relaxation(lam, self.lambda_cap)

    @property
    def lambda_cap(self) -> float:
        return 1.0 / self.averaged_alpha if self.averaged_alpha is not None else 1.0


def _relaxation(spec):
    """The field's reader of spec.lam, checked against the spec's cap (see _bind)."""
    cap = spec.lambda_cap
    return _bind(spec.lam, lambda lam, t: check_relaxation(lam, cap, t))


def km_field(spec: KMFlowSpec) -> FlowField:
    T, lam = spec.T.fn, _relaxation(spec)
    return FlowField(order=1, label="km", fn=lambda t, x: km_increment(T, lam(t), x),
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

    def __post_init__(self):
        check_fb_step(self.B, self.gamma)
        for lam in self.lam.bounds or ():
            check_relaxation(lam, self.lambda_cap)

    @property
    def delta(self) -> float:
        return fb_delta(self.B.cocoercivity_beta, self.gamma)

    lambda_cap = delta


def fb_field(spec: FBFlowSpec) -> FlowField:
    J, B, lam = spec.A.resolvent(spec.gamma), spec.B.fn, _relaxation(spec)
    gamma = np.array(spec.gamma)
    if spec.epsilon is None:
        return FlowField(order=1, label="fb", breakpoints=spec.lam.breakpoints,
                         fn=lambda t, x: lam(t) * fb_residual(J, B, gamma, x))
    sign = spec.tikhonov_sign
    eps = _bind(spec.epsilon, lambda e, t: sign * e)

    def fn(t, x):
        return lam(t) * fb_residual(J, B, gamma, x, shift=eps(t) * x)

    brk = tuple(sorted(set(spec.lam.breakpoints) | set(spec.epsilon.breakpoints)))
    return FlowField(order=1, fn=fn, label="fb-tikhonov", breakpoints=brk)


@dataclasses.dataclass(frozen=True)
class FBFFlowSpec:
    """Forward-backward-forward flow for monotone Lipschitz B (Tseng range gamma*L < 1)."""

    A: MonotoneMap
    B: SingleValuedMap
    gamma: float
    lam: float

    def __post_init__(self):
        check_tseng_step(self.B, self.gamma)
        if not self.lam > 0:
            raise SpecError("lam must be positive")


def fbf_field(spec: FBFFlowSpec) -> FlowField:
    J, B = spec.A.resolvent(spec.gamma), spec.B.fn
    gamma, lam = np.array(spec.gamma), np.array(spec.lam)
    return FlowField(order=1, label="fbf", fn=lambda t, x: fbf_increment(J, B, gamma, lam, x))


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
        if not self.gamma > 0:
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


def _fd_jacobian(B, x, eye):
    """The central-difference Jacobian of B at x, one stacked call of B per side; eye is
    the identity of x's dimension."""
    h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
    steps = h * eye
    return ((B(x + steps) - B(x - steps)) / (2.0 * h)).T


def dr_field(spec: DRFlowSpec) -> FlowField:
    JA = spec.A.resolvent(spec.gamma)
    if spec.form == "reflected":
        JB = spec.B.resolvent(spec.gamma)
        return FlowField(order=1, label="dr-reflected",
                         fn=lambda t, z: dr_operator(JA, JB, z) - z)
    B, gamma = spec.B.fn, np.array(spec.gamma)

    def fn(t, x):
        eye = np.eye(x.size)
        c = fb_residual(JA, B, gamma, x)
        return np.linalg.solve(eye + gamma * _fd_jacobian(B, x, eye), c)

    return FlowField(order=1, fn=fn, label="dr-coupled")


# ---------------------------------------------------------------------------
# probes


def _fb_residual_probe(A, B, gamma):
    """The probe ||J_{gamma A}(x - gamma*B(x)) - x||."""
    J = A.resolvent(gamma)
    return lambda t, x, v: norm(fb_residual(J, B, gamma, x))


def _fp_probes(residual, ref):
    """The fixed-point probe set: fp_residual, dist_to_ref (with ref), field_norm."""
    probes = [("fp_residual", residual), ("field_norm", lambda t, x, v: norm(v))]
    if ref is not None:
        r = np.asarray(ref, dtype=float)
        probes.insert(1, ("dist_to_ref", lambda t, x, v: norm(x - r)))
    return probes


def km_probes(spec: KMFlowSpec, ref=None):
    return _fp_probes(lambda t, x, v: norm(spec.T(x) - x), ref)


def fb_probes(spec: FBFlowSpec, ref=None):
    return _fp_probes(_fb_residual_probe(spec.A, spec.B, spec.gamma), ref)


def fbf_probes(spec: FBFFlowSpec, ref=None):
    return _fp_probes(_fb_residual_probe(spec.A, spec.B, spec.gamma), ref)


def dr_probes(spec: DRFlowSpec, ref=None):
    if spec.form == "coupled":
        return _fp_probes(_fb_residual_probe(spec.A, spec.B, spec.gamma), ref)
    JA, JB = spec.A.resolvent(spec.gamma), spec.B.resolvent(spec.gamma)
    return _fp_probes(lambda t, z, v: norm(dr_operator(JA, JB, z) - z), ref)
