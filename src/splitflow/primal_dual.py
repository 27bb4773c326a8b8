"""Primal-dual dynamics for min f(x) + h(x) + g(Ax) and their diagnostics.

Both field builders return the one metric-scheduled field (Bot, Csetnek &
Laszlo 2020): pd_field_general takes the metrics M1(t), M2(t), and
pd_field_special is that field under special_metric, the linearized metric
M1 = I/tau - c A*A with M2 = 0.  Under it the x-line is one prox of f, and
without a z-metric the z-line is the closed form z' = prox_{g/c}(w2/c) - z,
w2 = c(Ax + gamma_relax Ax') + y; any other metric line is solved by an inner
proximal-gradient loop.  The dual line closes y' = c(A(x + x') - (z + z')),
which by Moreau's identity prox_{c g*}(w) = w - c prox_{g/c}(w/c) equals the
full-splitting form y' = prox_{c g*}(w2) - y - c(gamma_relax - 1)Ax'.  The
three lines are lower-triangular in (x', z', y'), so no outer fixed-point
iteration is needed; the redundancy between the second and third lines is
exposed as the pd_consistency probe instead of being silently resolved.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .errors import SolverError, SpecError
from .integrate import FlowField
from .operators import LinearMap, ProxFunction, SmoothFunction, _per_row, norm, prox_eval
from .schedules import Schedule, _bind

Array = np.ndarray

# the floor of the sufficient-decrease test, in units of |F|
_DECREASE_ULPS = 4.0 * np.finfo(float).eps


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
        if not self.c > 0:
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
        """The blocks of u, or of each row of a stack u as stacks (views, not copies)."""
        u = np.asarray(u, dtype=float)
        return PDState(x=u[..., :n], z=u[..., n:n + m], y=u[..., n + m:n + 2 * m])


def _tau_check(prob: StructuredProblem, params: PDParams):
    """check(tau, t) -> tau: tau > 0 and c*tau*||A||^2 <= 1 (to 1e-9), else SpecError."""
    c, a_sq = params.c, prob.A.norm_estimate ** 2

    def check(tau, t):
        if not tau > 0:
            raise SpecError("tau(%g)=%g must be positive" % (t, tau))
        if c * tau * a_sq > 1.0 + 1e-9:
            raise SpecError("step constraint violated at t=%g: c*tau*||A||^2 = %g > 1"
                            % (t, c * tau * a_sq))
        return tau

    return check


@dataclasses.dataclass(frozen=True)
class LinearizedMetric(LinearMap):
    """M = I/tau - c A*A, the metric that makes the x-line one prox of f.

    Built from (tau, c, A); apply, adjoint and norm_estimate = 1/tau follow
    from them.  pd_general_increment solves the x-line in closed form when
    the metric's c and A are the field's own.
    """

    apply: Callable[[Array], Array] = dataclasses.field(init=False, repr=False)
    adjoint: Callable[[Array], Array] = dataclasses.field(init=False, repr=False)
    norm_estimate: float = dataclasses.field(init=False)
    tau: float
    c: float
    A: LinearMap

    def __post_init__(self):
        tau, c, A = self.tau, self.c, self.A

        def apply(v):
            return v / tau - c * A.adjoint(A(v))

        object.__setattr__(self, "apply", apply)
        object.__setattr__(self, "adjoint", apply)
        object.__setattr__(self, "norm_estimate", 1.0 / tau)


def solve_prox_quadratic(f: ProxFunction, q_apply: Callable[[Array], Array],
                         q_norm: float, w: Array, u0: Array,
                         max_iter: int = 20000) -> Array:
    """Minimize F(u) = f(u) + <Q u, u>/2 - <w, u> by proximal gradient with
    spectral steps, for a symmetric PSD Q with ||Q|| <= q_norm.

    Step rule: the first step is the safe step s_safe = 1/q_norm; after each
    accepted step d = u+ - u the next trial step is the two-point (Barzilai-
    Borwein) step max(s_safe, <d, d>/<d, Q d>), or s_safe when <d, Q d> <= 0.
    Q u is carried from the accepted iterate, so each prox evaluation costs
    one q_apply; f(u) is carried too, so a trial step evaluates f once.

    Safeguard: a trial step s > s_safe is accepted only if
    F(u) - F(u+) >= 1e-4*||d||^2/(2 s) - 4*eps*max(|F(u)|, |F(u+)|);
    otherwise the iteration is redone at s_safe, where the descent lemma
    guarantees decrease.  The floor of a few ulps of F keeps a move at
    rounding level, whose computed decrease is noise of that size, from
    being rejected.

    Stopping: return u+ once ||d||/s_safe <= 1e-10*max(1, ||u+||), a test
    absolute near the origin and relative to the iterate beyond unit size,
    so that a large iterate, whose rounding alone moves it by more than an
    absolute 1e-10, still stops (a diverging flow then reaches integrate's
    divergence guard).  Since ||u - T_s(u)|| is nondecreasing in s (T_s the
    prox-gradient map), the safe step from the same u would have moved no
    more than d: the test is at least as strict as plain proximal gradient at
    1/q_norm.  max_iter bounds the number of prox evaluations; SolverError
    carries the last accepted move ||d||/s_safe.
    """
    if q_norm <= 0:
        raise ValueError("q_norm must be a positive Lipschitz bound")
    s_safe = 1.0 / q_norm
    s = s_safe
    u = np.asarray(u0, dtype=float)
    qu = q_apply(u)
    fu = None  # f(u), evaluated when a trial step first needs it
    move = math.inf
    for _ in range(max_iter):
        u_next = prox_eval(f, s, u - s * (qu - w))
        d = u_next - u
        dd = float(d.dot(d))
        qu_next = q_apply(u_next)
        # this and the decrease's dots are cross dots, which stay @ (see operators)
        dqd = float(d @ (qu_next - qu))
        f_next = None
        if s > s_safe:
            if fu is None:
                fu = f.value(u)
            f_next = f.value(u_next)
            # F(u) - F(u+), with the quadratic part expanded in d (Q symmetric)
            decrease = fu - f_next - float((qu - w) @ d) - dqd / 2.0
            obj = fu + float((qu / 2.0 - w) @ u)  # F(u)
            floor = _DECREASE_ULPS * max(abs(obj), abs(obj - decrease))
            # a decrease of -inf (u+ outside dom f) meets an infinite floor as nan
            if not decrease + floor >= 1e-4 * dd / (2.0 * s):
                s = s_safe
                continue
        move = math.sqrt(dd) / s_safe
        if move <= 1e-10 * max(1.0, norm(u_next)):
            return u_next
        u, qu, fu = u_next, qu_next, f_next
        s = max(s_safe, dd / dqd) if dqd > 0 else s_safe
    raise SolverError("inner prox-quadratic solve stalled", residual=move)


def _metric_block_solve(f: ProxFunction, c: float, A: Optional[LinearMap],
                        M: Optional[LinearMap], w: Array, u0: Array) -> Array:
    """argmin_u f(u) + <Q u, u>/2 - <w + M u0, u> with Q = c*A*A + M, from u0.

    A None stands for the identity; M None for the zero metric.  With both
    None, Q = c*I and the minimiser is prox_{f/c}(w/c) in closed form (no
    inner solve); otherwise solve_prox_quadratic iterates from u0.  The
    linearized x-line (Q = I/tau) never gets here: pd_general_increment takes
    its closed form first.
    """
    if A is None and M is None:
        return prox_eval(f, 1.0 / c, w / c)

    def q(v):
        out = c * (A.adjoint(A(v)) if A is not None else v)
        if M is not None:
            out = out + M(v)
        return out

    q_norm = c * (A.norm_estimate ** 2 if A is not None else 1.0)
    if M is not None:
        q_norm = q_norm + M.norm_estimate
        w = w + M(u0)
    return solve_prox_quadratic(f, q, q_norm, w, u0)


def _general_rates(prob: StructuredProblem, c: float, cv, gam, A, At, grad_h,
                   M1: Optional[LinearMap], M2: Optional[LinearMap], x, z, y):
    """pd_general_increment from bound values: A, At and grad_h are the callables
    A.apply, A.adjoint and h.gradient, cv and gam the 0-d c and gamma_relax."""
    if isinstance(M1, LinearizedMetric) and M1.c == c and M1.A is prob.A:
        ax = A(x)
        w1 = x - M1.tau * (At(cv * (ax - z) + y) + grad_h(x))
        xdot = prox_eval(prob.f, M1.tau, w1) - x
    else:
        w1 = At(cv * z - y) - grad_h(x)
        xdot = _metric_block_solve(prob.f, c, prob.A, M1, w1, x) - x
        ax = A(x)
    axdot = A(xdot)
    w2 = cv * (ax + gam * axdot) + y
    zdot = _metric_block_solve(prob.g, c, None, M2, w2, z) - z
    ydot = cv * (ax + axdot - (z + zdot))
    return xdot, zdot, ydot


def pd_general_increment(prob: StructuredProblem, params: PDParams,
                         M1: Optional[LinearMap], M2: Optional[LinearMap], x, z, y):
    """(xd, zd, yd) of the metric-scheduled field for metrics M1, M2 (None for zero).

    When M1 is a LinearizedMetric with the field's c and the problem's A
    itself, Q = c*A*A + M1 = I/tau and the x-line is the closed form
    prox_{tau f}(x - tau*(A*(c(Ax - z) + y) + grad h(x))).  Any other M1 (a
    linearized one built for another c or A included) is solved with
    solve_prox_quadratic (to its fixed 1e-10 stopping test), and so is the
    z-line when M2 is given; with M2 None the z-line is the closed form
    prox_{g/c}(w2/c).  The dual line closes
    yd = c*A(x + xd) - c*(z + zd).  By linearity of A an increment needs
    A(x), A(xd) and one adjoint besides any inner solves.
    """
    c, A = params.c, prob.A
    return _general_rates(prob, c, c, params.gamma_relax, A.apply, A.adjoint, prob.h.gradient,
                          M1, M2, x, z, y)


def _pd_field(prob: StructuredProblem, params: PDParams,
              M1: Optional[Callable[[float], LinearMap]],
              M2: Optional[Callable[[float], LinearMap]], label: str,
              breakpoints=()) -> FlowField:
    """The metric-scheduled field on the stacked state (x, z, y), under the label
    of the public builder that made it."""
    n, m, c = prob.n, prob.m, params.c
    cv, gam = np.array(c), np.array(params.gamma_relax)
    A, At, grad_h = prob.A.apply, prob.A.adjoint, prob.h.gradient

    def fn(t, u):
        rates = _general_rates(prob, c, cv, gam, A, At, grad_h,
                               M1(t) if M1 is not None else None,
                               M2(t) if M2 is not None else None, u[:n], u[n:n + m], u[n + m:])
        return np.concatenate(rates)

    return FlowField(order=1, fn=fn, label=label, dim=n + 2 * m, breakpoints=breakpoints)


def pd_field_special(prob: StructuredProblem, params: PDParams) -> FlowField:
    """The full-splitting field: the metric-scheduled field under special_metric,
    with tau's breakpoints; a constant tau is checked here, any other at every
    evaluation."""
    return _pd_field(prob, params, *special_metric(prob, params), "pd-special",
                     params.tau.breakpoints)


def pd_field_general(prob: StructuredProblem, params: PDParams,
                     M1: Optional[Callable[[float], LinearMap]] = None,
                     M2: Optional[Callable[[float], LinearMap]] = None) -> FlowField:
    """The metric-scheduled field; M1(t), M2(t) are positive-semidefinite LinearMaps."""
    return _pd_field(prob, params, M1, M2, "pd-general")


def special_metric(prob: StructuredProblem, params: PDParams):
    """The M1(t) = (1/tau(t)) I - c A*A, M2 = 0 choice of pd_field_special.

    M1(t) returns a LinearizedMetric, so the field's x-line is a single prox
    of f, with no inner solve.  The step constraint c*tau*||A||^2 <= 1 is
    checked, and the metric built, once here when tau is constant, and at
    every call of M1 otherwise.
    """
    c, A, check = params.c, prob.A, _tau_check(prob, params)
    M1 = _bind(params.tau, lambda tau, t: LinearizedMetric(tau=check(tau, t), c=c, A=A))
    return M1, None


def lagrangian_eval(prob: StructuredProblem, state: PDState):
    """l(x, z, y) = f(x) + h(x) + g(z) + <y, Ax - z>; +inf outside the domains.  A
    float, or one value per row of a stacked state."""
    fx = prob.f.value(state.x)
    gz = prob.g.value(state.z)
    # a cross dot, which rounds as @ (see operators)
    coupling = np.vecdot(state.y, prob.A(state.x) - state.z)
    return _per_row(np.where(np.isfinite(fx) & np.isfinite(gz),
                             fx + prob.h.value(state.x) + gz + coupling, np.inf), state.x)


def saddle_residuals(prob: StructuredProblem, state: PDState) -> dict:
    """First-order residuals of the three blocks at a candidate saddle point, or at
    each row of a stacked state."""
    x, z, y = state.x, state.z, state.y
    rx = norm(prox_eval(prob.f, 1.0, x - (prob.h.gradient(x) + prob.A.adjoint(y))) - x)
    rz = norm(prox_eval(prob.g, 1.0, z + y) - z)
    ry = norm(prob.A(x) - z)
    return {"x": rx, "z": rz, "y": ry}


def pd_probes(prob: StructuredProblem, params: PDParams):
    """Probe set: feas_norm, lagrangian, block_residuals, pd_consistency, each on a
    trajectory's stacked records (see integrate)."""
    n, m = prob.n, prob.m

    def unpack(u):
        return PDState.from_vector(u, n, m)

    def feas(t, u, v):
        s = unpack(u)
        return norm(prob.A(s.x) - s.z)

    def lagr(t, u, v):
        return lagrangian_eval(prob, unpack(u))

    def block(t, u, v):
        r = saddle_residuals(prob, unpack(u))
        return np.maximum(np.maximum(r["x"], r["z"]), r["y"])

    def consistency(t, u, v):
        # second-line resolvent relation recomputed from the derivative estimate
        s = unpack(u)
        xdot = v[..., :n]
        zdot = v[..., n:n + m]
        w2 = params.c * prob.A(params.gamma_relax * xdot + s.x) + s.y
        target = prox_eval(prob.g, 1.0 / params.c, w2 / params.c)
        return norm((s.z + zdot) - target)

    return [("feas_norm", feas), ("lagrangian", lagr),
            ("block_residuals", block), ("pd_consistency", consistency)]
