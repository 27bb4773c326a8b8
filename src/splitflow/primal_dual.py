"""Primal-dual dynamics for min f(x) + h(x) + g(Ax) and their diagnostics.

The full-splitting special field uses closed-form proxes (with the Moreau
identity for the conjugate block); the general metric-scheduled field solves
its two implicit resolvent lines by an inner proximal-gradient loop.  The
three derivative lines are lower-triangular in (xd, zd, yd), so no outer
fixed-point iteration is needed; the redundancy between the second and third
lines is exposed as the pd_consistency probe instead of being silently
resolved.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .errors import SolverError, SpecError
from .integrate import FlowField
from .operators import (LinearMap, ProxFunction, SmoothFunction,
                        moreau_conjugate_prox, prox_eval)
from .schedules import Schedule

Array = np.ndarray


@dataclasses.dataclass(frozen=True)
class StructuredProblem:
    """min_x f(x) + h(x) + g(Ax) with proximable f, g, smooth h, linear A."""

    f: ProxFunction
    h: SmoothFunction
    g: ProxFunction
    A: LinearMap
    n: int
    m: int


@dataclasses.dataclass(frozen=True)
class PDParams:
    c: float
    gamma_relax: float
    tau: Schedule

    def __post_init__(self):
        if self.c <= 0:
            raise SpecError("penalty c must be positive")
        if not 0.0 <= self.gamma_relax <= 1.0:
            raise SpecError("relaxation parameter must lie in [0, 1]")


@dataclasses.dataclass(frozen=True)
class PDState:
    x: Array
    z: Array
    y: Array

    def to_vector(self) -> Array:
        return np.concatenate([self.x, self.z, self.y])

    @staticmethod
    def from_vector(u: Array, n: int, m: int) -> "PDState":
        u = np.asarray(u, dtype=float)
        return PDState(x=u[:n], z=u[n:n + m], y=u[n + m:n + 2 * m])


def _check_tau(prob: StructuredProblem, params: PDParams, t: float) -> float:
    tau = params.tau(t)
    if tau <= 0:
        raise SpecError("tau(%g)=%g must be positive" % (t, tau))
    if params.c * tau * prob.A.norm_estimate ** 2 > 1.0 + 1e-9:
        raise SpecError("step constraint violated at t=%g: c*tau*||A||^2 = %g > 1"
                        % (t, params.c * tau * prob.A.norm_estimate ** 2))
    return tau


def _special_rates(prob: StructuredProblem, params: PDParams, t: float, x, z, y):
    tau = _check_tau(prob, params, t)
    c, gam, A = params.c, params.gamma_relax, prob.A
    w1 = (x - c * tau * A.adjoint(A(x)) + c * tau * A.adjoint(z)
          - tau * A.adjoint(y) - tau * prob.h.gradient(x))
    xdot = prox_eval(prob.f, tau, w1) - x
    w2 = c * A(gam * xdot + x) + y
    p = moreau_conjugate_prox(prob.g, c, w2)
    ydot = p - y - c * (gam - 1.0) * A(xdot)
    zdot = A(x + xdot) - ydot / c - z
    return xdot, zdot, ydot


def pd_field_special(prob: StructuredProblem, params: PDParams) -> FlowField:
    """The full-splitting primal-dual field on the stacked state (x, z, y)."""
    n, m = prob.n, prob.m

    def fn(t, u):
        s = PDState.from_vector(u, n, m)
        xdot, zdot, ydot = _special_rates(prob, params, t, s.x, s.z, s.y)
        return np.concatenate([xdot, zdot, ydot])

    return FlowField(order=1, fn=fn, label="pd-special", dim=n + 2 * m,
                     breakpoints=params.tau.breakpoints)


def solve_prox_quadratic(f: ProxFunction, q_apply: Callable[[Array], Array],
                         q_norm: float, w: Array, u0: Array,
                         tol: float = 1e-10, max_iter: int = 20000) -> Array:
    """Minimize f(u) + <Q u, u>/2 - <w, u> by proximal gradient with step 1/q_norm."""
    if q_norm <= 0:
        raise ValueError("q_norm must be a positive Lipschitz bound")
    s = 1.0 / q_norm
    u = np.asarray(u0, dtype=float).copy()
    for _ in range(max_iter):
        u_next = prox_eval(f, s, u - s * (q_apply(u) - w))
        move = float(np.linalg.norm(u_next - u)) / s
        u = u_next
        if move <= tol:
            return u
    raise SolverError("inner prox-quadratic solve stalled", residual=move)


def _metric_block_solve(f: ProxFunction, c: float, A: Optional[LinearMap],
                        M: Optional[LinearMap], w: Array, u0: Array, tol: float) -> Array:
    """argmin_u f(u) + <Q u, u>/2 - <w + M u0, u> with Q = c*A*A + M, from u0.

    A None stands for the identity; M None for the zero metric.
    """
    def q(v):
        out = c * (A.adjoint(A(v)) if A is not None else v)
        if M is not None:
            out = out + M(v)
        return out

    q_norm = c * (A.norm_estimate ** 2 if A is not None else 1.0)
    if M is not None:
        q_norm = q_norm + M.norm_estimate
        w = w + M(u0)
    return solve_prox_quadratic(f, q, q_norm, w, u0, tol=tol)


def pd_field_general(prob: StructuredProblem, params: PDParams,
                     M1: Optional[Callable[[float], LinearMap]] = None,
                     M2: Optional[Callable[[float], LinearMap]] = None,
                     inner_tol: float = 1e-10) -> FlowField:
    """The metric-scheduled field; M1(t), M2(t) are positive-semidefinite LinearMaps.

    Each evaluation solves the two strongly convex resolvent lines to
    inner_tol, then closes the dual line yd = c*A(x + xd) - c*(z + zd).
    """
    n, m = prob.n, prob.m
    c, gam, A = params.c, params.gamma_relax, prob.A

    def fn(t, u):
        s = PDState.from_vector(u, n, m)
        x, z, y = s.x, s.z, s.y
        m1 = M1(t) if M1 is not None else None
        m2 = M2(t) if M2 is not None else None
        w1 = c * A.adjoint(z) - A.adjoint(y) - prob.h.gradient(x)
        xdot = _metric_block_solve(prob.f, c, A, m1, w1, x, inner_tol) - x
        w2 = c * A(gam * xdot + x) + y
        zdot = _metric_block_solve(prob.g, c, None, m2, w2, z, inner_tol) - z
        ydot = c * (A(x + xdot) - (z + zdot))
        return np.concatenate([xdot, zdot, ydot])

    return FlowField(order=1, fn=fn, label="pd-general", dim=n + 2 * m)


def special_metric(prob: StructuredProblem, params: PDParams):
    """The M1(t) = (1/tau(t)) I - c A*A, M2 = 0 choice that recovers the special field."""
    c, A = params.c, prob.A

    def M1(t):
        tau = _check_tau(prob, params, t)

        def apply(v):
            return v / tau - c * A.adjoint(A(v))

        return LinearMap(apply=apply, adjoint=apply, norm_estimate=1.0 / tau)

    return M1, None


def lagrangian_eval(prob: StructuredProblem, state: PDState) -> float:
    """l(x, z, y) = f(x) + h(x) + g(z) + <y, Ax - z>; +inf outside the domains."""
    fx = prob.f.value(state.x)
    gz = prob.g.value(state.z)
    if not (np.isfinite(fx) and np.isfinite(gz)):
        return np.inf
    coupling = float(state.y @ (prob.A(state.x) - state.z))
    return float(fx + prob.h.value(state.x) + gz + coupling)


def saddle_residuals(prob: StructuredProblem, state: PDState) -> dict:
    """First-order residuals of the three blocks at a candidate saddle point."""
    x, z, y = state.x, state.z, state.y
    rx = np.linalg.norm(prox_eval(prob.f, 1.0, x - (prob.h.gradient(x) + prob.A.adjoint(y))) - x)
    rz = np.linalg.norm(prox_eval(prob.g, 1.0, z + y) - z)
    ry = np.linalg.norm(prob.A(x) - z)
    return {"x": float(rx), "z": float(rz), "y": float(ry)}


def psd_probe(M: LinearMap, dim: int, n_samples: int = 64, seed: int = 0) -> bool:
    """Random-vector quadratic forms: <Mv, v> >= -1e-12 on unit samples."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        if float(M(v) @ v) < -1e-12:
            return False
    return True


def pd_probes(prob: StructuredProblem, params: PDParams):
    """Probe set: feas_norm, lagrangian, block_residuals, pd_consistency."""
    n, m = prob.n, prob.m

    def unpack(u):
        return PDState.from_vector(u, n, m)

    def feas(t, u, v):
        s = unpack(u)
        return float(np.linalg.norm(prob.A(s.x) - s.z))

    def lagr(t, u, v):
        return lagrangian_eval(prob, unpack(u))

    def block(t, u, v):
        r = saddle_residuals(prob, unpack(u))
        return max(r.values())

    def consistency(t, u, v):
        # second-line resolvent relation recomputed from the derivative estimate
        s = unpack(u)
        xdot = v[:n] if v is not None else None
        zdot = v[n:n + m]
        w2 = params.c * prob.A(params.gamma_relax * xdot + s.x) + s.y
        target = prox_eval(prob.g, 1.0 / params.c, w2 / params.c)
        return float(np.linalg.norm((s.z + zdot) - target))

    return [("feas_norm", feas), ("lagrangian", lagr),
            ("block_residuals", block), ("pd_consistency", consistency)]
