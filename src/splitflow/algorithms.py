"""Discrete counterparts of the flows, obtained by unit-step explicit discretization.

km_step, fb_step and tseng_step are written as x + increment with the same
increment code the flow fields use, so n steps coincide bit for bit with n
unit-step Euler integrations of the matching flow.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

import numpy as np

from .errors import SpecError
from .first_order import (check_relaxation, check_tseng_step, fb_increment, fbf_increment,
                          km_increment)
from .integrate import _write_csv
from .operators import (MonotoneMap, ProxFunction, SingleValuedMap, SmoothFunction,
                        check_fb_step, fb_delta, prox_eval, resolvent_eval)
from .primal_dual import PDParams, PDState, StructuredProblem, _metric_block_solve

Array = np.ndarray


def km_step(T: SingleValuedMap, lam: float, x) -> Array:
    """x + lam*(T(x) - x), the classical relaxed fixed-point iteration, lam in [0, 1]."""
    return x + km_increment(T, check_relaxation(lam, 1.0), x)


def fb_step(A: MonotoneMap, B: SingleValuedMap, gamma: float, lam: float, x) -> Array:
    """x + lam*(J_{gamma A}(x - gamma*B(x)) - x) for any step gamma > 0, lam in [0, delta]."""
    delta = fb_delta(check_fb_step(B, gamma, relaxed=True), gamma)
    return x + fb_increment(A, B, gamma, check_relaxation(lam, delta), x)


def tseng_step(A: MonotoneMap, B: SingleValuedMap, gamma: float, lam: float, x) -> Array:
    """Forward-backward-forward update y + lam*(B(x) - B(y)), y = J_{gamma A}(x - gamma*B(x))."""
    check_tseng_step(B, gamma)
    return x + fbf_increment(A, B, gamma, lam, x)


def frb_step(A: MonotoneMap, B: SingleValuedMap, gamma: float, x_curr, x_prev) -> Array:
    """Reflected-gradient style step with a single forward evaluation per iteration."""
    L = B.lipschitz_L
    if L is None or not (0.0 < gamma and gamma * L < 0.5):
        raise SpecError("frb_step needs 0 < gamma*L < 1/2 with a known Lipschitz bound")
    Bc = B(x_curr)
    return resolvent_eval(A, gamma, x_curr - gamma * Bc) - gamma * (Bc - B(x_prev))


def inertial_fb_step(f: ProxFunction, g: SmoothFunction, eta: float,
                     gamma_n: float, lam_n: float, x_curr, x_prev) -> Array:
    """Relaxed forward-backward step with inertia, exactly as printed:

    x+ = (1 - w)*x + w*prox_{eta f}(x - eta*grad g(x)) + w*(x - x_prev),
    w = lam_n/(1 + gamma_n).
    """
    L = g.grad_lipschitz
    if not (0.0 < eta and eta * L < 2.0):
        raise SpecError("eta=%g outside (0, 2/L) with L=%g" % (eta, L))
    if not (0.0 < lam_n and 0.0 < gamma_n):
        raise SpecError("lam_n and gamma_n must be positive")
    w = lam_n / (1.0 + gamma_n)
    p = prox_eval(f, eta, x_curr - eta * g.gradient(x_curr))
    return (1.0 - w) * x_curr + w * p + w * (x_curr - x_prev)


def nesterov_step(g: SmoothFunction, gamma: float, alpha: float, n: int,
                  x_curr, x_prev) -> Array:
    """y = x + (n-1)/(n+alpha-1)*(x - x_prev); return y - gamma*grad g(y).

    gamma must be positive and stay within the gradient step range
    gamma*L <= 1 (L the Lipschitz constant of grad g, i.e. gamma <= beta in
    the cocoercivity convention).
    """
    if n < 1:
        raise SpecError("iteration counter n starts at 1")
    L = g.grad_lipschitz
    if not (0.0 < gamma and gamma * L <= 1.0 + 1e-12):
        raise SpecError("step gamma=%g outside the gradient range (0, 1/L], L=%g" % (gamma, L))
    coef = (n - 1.0) / (n + alpha - 1.0)
    y = x_curr + coef * (x_curr - x_prev)
    return y - gamma * g.gradient(y)


def prox_admm_step(prob: StructuredProblem, params: PDParams, M1, M2,
                   state: PDState) -> PDState:
    """One three-block proximal ADMM / linearized method-of-multipliers step.

    M1, M2 are positive-semidefinite LinearMaps (or None for zero).  The two
    block subproblems are solved by solve_prox_quadratic.
    """
    c, gam, A = params.c, params.gamma_relax, prob.A
    x, z, y = state.x, state.z, state.y
    w1 = -prob.h.gradient(x) + c * A.adjoint(z - y / c)
    x_next = _metric_block_solve(prob.f, c, A, M1, w1, x)
    w2 = c * (A(gam * x_next + (1.0 - gam) * x) + y / c)
    z_next = _metric_block_solve(prob.g, c, None, M2, w2, z)
    y_next = y + c * (A(x_next) - z_next)
    return PDState(x=x_next, z=z_next, y=y_next)


@dataclasses.dataclass
class IterateSequence:
    """Iterates of a discrete scheme on the Trajectory record format (integer time)."""

    iterates: Array           # (k+1) x n, including the start point
    records: Dict[str, Array]
    label: str = ""

    @property
    def final(self) -> Array:
        return self.iterates[-1]


def run_sequence(update: Callable[[int, Array, Optional[Array]], Array], x0,
                 n_steps: int, probes=(), label: str = "") -> IterateSequence:
    """Drive update(n, x, x_prev) -> x_next for n = 1..n_steps; x_prev is None at n = 1.

    probes is a sequence of (name, fn) with fn(n, x) -> float, evaluated at
    every iterate including the start point.
    """
    x = np.asarray(x0, dtype=float).copy()
    x_prev = None
    out = [x.copy()]
    rec = {name: [float(fn(0, x))] for name, fn in probes}
    for n in range(1, n_steps + 1):
        x_next = np.asarray(update(n, x, x_prev), dtype=float)
        x_prev, x = x, x_next
        out.append(x.copy())
        for name, fn in probes:
            rec[name].append(float(fn(n, x)))
    return IterateSequence(iterates=np.array(out),
                           records={k: np.array(v) for k, v in rec.items()}, label=label)


def write_sequence_csv(seq: IterateSequence, path):
    """Same schema as the trajectory CSV with an integer step column.

    The velocity columns hold the increments x_k - x_{k-1} (zero at k=0).
    """
    incr = np.zeros_like(seq.iterates)
    incr[1:] = seq.iterates[1:] - seq.iterates[:-1]
    _write_csv(path, np.arange(seq.iterates.shape[0], dtype=float), seq.iterates, incr,
               seq.records)
