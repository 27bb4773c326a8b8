"""Discrete counterparts of the flows, obtained by unit-step explicit discretization.

km_step, fb_step and tseng_step are written as x + increment with the same
increment code the flow fields use, so n steps coincide bit for bit with n
unit-step Euler integrations of the matching flow.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

import numpy as np

from .first_order import fb_increment, fbf_increment, km_increment
from .integrate import _write_csv
from .operators import (MonotoneMap, ProxFunction, SingleValuedMap, SmoothFunction,
                        fb_delta, prox_eval, resolvent_eval)
from .primal_dual import PDParams, PDState, StructuredProblem, _metric_block_solve

Array = np.ndarray


def km_step(T: SingleValuedMap, lam: float, x) -> Array:
    """x + lam*(T(x) - x), the classical relaxed fixed-point iteration."""
    if not 0.0 <= lam <= 1.0 + 1e-12:
        raise ValueError("relaxation lam=%g outside [0, 1]" % lam)
    return x + km_increment(T, lam, x)


def fb_step(A: MonotoneMap, B: SingleValuedMap, gamma: float, lam: float, x) -> Array:
    """x + lam*(J_{gamma A}(x - gamma*B(x)) - x)."""
    beta = B.cocoercivity_beta
    if beta is None:
        raise ValueError("fb_step needs a cocoercive B")
    delta = fb_delta(beta, gamma)
    if not 0.0 <= lam <= delta + 1e-12:
        raise ValueError("relaxation lam=%g outside [0, delta=%g]" % (lam, delta))
    return x + fb_increment(A, B, gamma, lam, x)


def tseng_step(A: MonotoneMap, B: SingleValuedMap, gamma: float, lam: float, x) -> Array:
    """Forward-backward-forward update y + lam*(B(x) - B(y)), y = J_{gamma A}(x - gamma*B(x))."""
    L = B.lipschitz_L
    if L is None or gamma <= 0 or gamma * L >= 1.0:
        raise ValueError("tseng_step needs gamma*L < 1 with a known Lipschitz bound")
    return x + fbf_increment(A, B, gamma, lam, x)


def frb_step(A: MonotoneMap, B: SingleValuedMap, gamma: float, x_curr, x_prev) -> Array:
    """Reflected-gradient style step with a single forward evaluation per iteration."""
    L = B.lipschitz_L
    if L is None or gamma <= 0 or gamma * L >= 0.5:
        raise ValueError("frb_step needs gamma*L < 1/2 with a known Lipschitz bound")
    Bc = B(x_curr)
    return resolvent_eval(A, gamma, x_curr - gamma * Bc) - gamma * (Bc - B(x_prev))


def inertial_fb_step(f: ProxFunction, g: SmoothFunction, eta: float,
                     gamma_n: float, lam_n: float, x_curr, x_prev) -> Array:
    """Relaxed forward-backward step with inertia, exactly as printed:

    x+ = (1 - w)*x + w*prox_{eta f}(x - eta*grad g(x)) + w*(x - x_prev),
    w = lam_n/(1 + gamma_n).
    """
    L = g.grad_lipschitz
    if L > 0 and not 0.0 < eta < 2.0 / L:
        raise ValueError("eta=%g outside (0, 2*beta) with beta=1/L=%g" % (eta, 1.0 / L))
    if lam_n <= 0 or gamma_n <= 0:
        raise ValueError("lam_n and gamma_n must be positive")
    w = lam_n / (1.0 + gamma_n)
    p = prox_eval(f, eta, x_curr - eta * g.gradient(x_curr))
    return (1.0 - w) * x_curr + w * p + w * (x_curr - x_prev)


def nesterov_step(g: SmoothFunction, gamma: float, alpha: float, n: int,
                  x_curr, x_prev) -> Array:
    """y = x + (n-1)/(n+alpha-1)*(x - x_prev); return y - gamma*grad g(y).

    gamma must stay within the gradient step range gamma*L <= 1 (L the
    Lipschitz constant of grad g, i.e. gamma <= beta in the cocoercivity
    convention).
    """
    if n < 1:
        raise ValueError("iteration counter n starts at 1")
    L = g.grad_lipschitz
    if L > 0 and gamma * L > 1.0 + 1e-12:
        raise ValueError("step gamma=%g exceeds the gradient range 1/L=%g" % (gamma, 1.0 / L))
    coef = (n - 1.0) / (n + alpha - 1.0)
    y = x_curr + coef * (x_curr - x_prev)
    return y - gamma * g.gradient(y)


def prox_admm_step(prob: StructuredProblem, params: PDParams, M1, M2,
                   state: PDState, inner_tol: float = 1e-10) -> PDState:
    """One three-block proximal ADMM / linearized method-of-multipliers step.

    M1, M2 are positive-semidefinite LinearMaps (or None for zero).  The two
    block subproblems are solved by the inner proximal-gradient loop to
    inner_tol.
    """
    c, gam, A = params.c, params.gamma_relax, prob.A
    x, z, y = state.x, state.z, state.y
    w1 = -prob.h.gradient(x) + c * A.adjoint(z - y / c)
    x_next = _metric_block_solve(prob.f, c, A, M1, w1, x, inner_tol)
    w2 = c * (A(gam * x_next + (1.0 - gam) * x) + y / c)
    z_next = _metric_block_solve(prob.g, c, None, M2, w2, z, inner_tol)
    y_next = y + c * (A(x_next) - z_next)
    return PDState(x=x_next, z=z_next, y=y_next)


@dataclasses.dataclass
class IterateSequence:
    """Iterates of a discrete scheme on the Trajectory record format (integer time).

    params holds per-step parameter series (relaxation, damping, ...) when the
    driver varies them.
    """

    iterates: Array           # (k+1) x n, including the start point
    records: Dict[str, Array]
    params: Dict[str, Array] = dataclasses.field(default_factory=dict)
    label: str = ""

    @property
    def steps(self) -> Array:
        return np.arange(self.iterates.shape[0])

    @property
    def final(self) -> Array:
        return self.iterates[-1]


def run_sequence(update: Callable[[int, Array, Optional[Array]], Array], x0,
                 n_steps: int, x_prev0=None, probes=(), params=None,
                 label: str = "") -> IterateSequence:
    """Drive update(n, x, x_prev) -> x_next for n = 1..n_steps.

    probes is a sequence of (name, fn) with fn(n, x) -> float, evaluated at
    every iterate including the start point.  params, when given, maps a name
    to fn(n) -> float and is recorded per step.
    """
    x = np.asarray(x0, dtype=float).copy()
    x_prev = None if x_prev0 is None else np.asarray(x_prev0, dtype=float).copy()
    out = [x.copy()]
    rec = {name: [float(fn(0, x))] for name, fn in probes}
    par = {name: [] for name in (params or {})}
    for n in range(1, n_steps + 1):
        x_next = np.asarray(update(n, x, x_prev), dtype=float)
        x_prev, x = x, x_next
        out.append(x.copy())
        for name, fn in probes:
            rec[name].append(float(fn(n, x)))
        for name, fn in (params or {}).items():
            par[name].append(float(fn(n)))
    return IterateSequence(iterates=np.array(out),
                           records={k: np.array(v) for k, v in rec.items()},
                           params={k: np.array(v) for k, v in par.items()},
                           label=label)


def write_sequence_csv(seq: IterateSequence, path):
    """Same schema as the trajectory CSV with an integer step column.

    The velocity columns hold the increments x_k - x_{k-1} (zero at k=0).
    """
    incr = np.zeros_like(seq.iterates)
    incr[1:] = seq.iterates[1:] - seq.iterates[:-1]
    _write_csv(path, np.arange(seq.iterates.shape[0], dtype=float), seq.iterates, incr,
               seq.records)
