"""Discrete counterparts of the flows, obtained by unit-step explicit discretization.

km_step, fb_step, tseng_step and prox_admm_step are written as x + increment
with the same increment code the flow fields use, so n steps coincide bit for
bit with n unit-step Euler integrations of the matching flow.  A step binds
its prox or resolvent at every call, where a field binds it once.  run_sequence
records a discrete run as a Trajectory through integrate's stepping loop.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import SpecError
from .first_order import (check_relaxation, check_tseng_step, fb_increment, fbf_increment,
                          km_increment)
from .integrate import Trajectory, _drive, _write_csv
from .operators import (MonotoneMap, ProxFunction, SingleValuedMap, SmoothFunction, as_vector,
                        check_fb_step, fb_delta, prox_eval)
from .primal_dual import PDParams, PDState, StructuredProblem, pd_general_increment

Array = np.ndarray


def km_step(T: SingleValuedMap, lam: float, x) -> Array:
    """x + lam*(T(x) - x), the classical relaxed fixed-point iteration, lam in [0, 1]."""
    return x + km_increment(T, check_relaxation(lam, 1.0), x)


def fb_step(A: MonotoneMap, B: SingleValuedMap, gamma: float, lam: float, x) -> Array:
    """x + lam*(J_{gamma A}(x - gamma*B(x)) - x) for any step gamma > 0, lam in [0, delta]."""
    delta = fb_delta(check_fb_step(B, gamma, relaxed=True), gamma)
    return x + fb_increment(A.resolvent(gamma), B, gamma, check_relaxation(lam, delta), x)


def tseng_step(A: MonotoneMap, B: SingleValuedMap, gamma: float, lam: float, x) -> Array:
    """Forward-backward-forward update y + lam*(B(x) - B(y)), y = J_{gamma A}(x - gamma*B(x))."""
    check_tseng_step(B, gamma)
    return x + fbf_increment(A.resolvent(gamma), B, gamma, lam, x)


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

    M1, M2 are positive-semidefinite LinearMaps (or None for zero).  The step
    is the state plus the increment of pd_field_general with constant metrics
    M1, M2, so n steps equal n unit Euler steps of that field.  With the
    linearized M1 of special_metric the x-update is one prox of f, with no
    inner solve.
    """
    xd, zd, yd = pd_general_increment(prob, params, M1, M2, state.x, state.z, state.y)
    return PDState(x=state.x + xd, z=state.z + zd, y=state.y + yd)


def run_sequence(update: Callable[[int, Array, Optional[Array]], Array], x0,
                 n_steps: int, probes=(), label: str = "") -> Trajectory:
    """Drive update(n, x, x_prev) -> x_next for n = 1..n_steps; x_prev is None at n = 1.

    Returns a Trajectory with times 0..n_steps, the iterates as states and the
    increments x_n - x_{n-1} as velocities.  probes, (name, fn) pairs, are
    called once, after the run, on every iterate stacked, as in integrate:
    fn(t, x, v) with t of shape (R,) and x, v of shape (R, n), read-only,
    returning a float64 array of shape (R,) (anything else raises ValueError
    naming the probe).  Each iterate is a float64 copy of what update
    returned, so update may reuse its output buffer; it is lent to update
    read-only, so an update that writes into x or x_prev raises ValueError.
    The loop and the divergence guard are integrate's: the run stops at the
    first iterate with a coordinate past 1e12, NaN or inf with
    DivergenceError, which carries the finite prefix and its probes.
    """
    x = as_vector(x0).copy()
    x.flags.writeable = False
    x_prev, step = None, np.zeros_like(x)  # the increment recorded at n = 0 is zero

    def advance(n, t, x):
        nonlocal x_prev, step
        x_next = np.array(update(n, x, x_prev), dtype=float)
        x_next.flags.writeable = False
        x_prev, step = x, x_next - x
        return x_next

    return _drive(advance, lambda t, x: step, x, 0.0, 1.0, n_steps, 1, probes, label)


def write_sequence_csv(seq: Trajectory, path):
    """The trajectory CSV of a discrete run: a step column and the increments as v."""
    _write_csv(seq, path)
