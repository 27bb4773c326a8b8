"""Each field builder binds its loop invariants once; the bound field must equal the
shared increment arithmetic bit for bit, and keep every hypothesis check.

The references read every spec, schedule and scalar at each evaluation, as the
fields did before binding, with Python floats where the fields now hold 0-d
arrays, and evaluate every prox and resolvent through the checked entry points
(prox_eval, resolvent_eval, reflected_resolvent) at Python-float steps, so that
they do not depend on the binders.  A time-varying relaxation (km, fb) and a
time-varying tau (pd) keep their per-evaluation path and are checked too.
"""

import numpy as np
import pytest

from splitflow.errors import SpecError
from splitflow.first_order import (DRFlowSpec, FBFFlowSpec, FBFlowSpec, KMFlowSpec,
                                   check_relaxation, dr_field, fb_field, fbf_field, km_field)
from splitflow.integrate import IntegratorConfig, integrate
from splitflow.nonconvex import proxgrad_field
from splitflow.operators import (matrix_operator, prox_eval, reflected_resolvent,
                                 resolvent_eval)
from splitflow.primal_dual import PDParams, pd_field_general, pd_field_special, special_metric
from splitflow.problems import get_problem
from splitflow.schedules import (Schedule, affine_clamped, constant, exp_decay, inv_power,
                                 over_t)
from splitflow.second_order import DampingCondition, SecondOrderSpec, second_order_field


def _km(lam):
    spec = KMFlowSpec(T=get_problem("rotation2d").components["T"], lam=lam)
    return km_field(spec), lambda t, x: (
        check_relaxation(spec.lam(t), spec.lambda_cap, t) * (spec.T(x) - x))


def _fb(lam, epsilon=None, sign=1.0):
    c = get_problem("lasso10").components
    spec = FBFlowSpec(A=c["A"], B=c["B"], gamma=c["beta"], lam=lam, epsilon=epsilon,
                      tikhonov_sign=sign)

    def reference(t, x):
        arg = x - spec.gamma * spec.B(x)
        if epsilon is not None:
            arg = arg + spec.tikhonov_sign * spec.epsilon(t) * x
        lam = check_relaxation(spec.lam(t), spec.lambda_cap, t)
        return lam * (resolvent_eval(spec.A, spec.gamma, arg) - x)

    return fb_field(spec), reference


def _fbf():
    c = get_problem("bilinear_saddle").components
    spec = FBFFlowSpec(A=c["A"], B=c["B"], gamma=0.5, lam=0.5)

    def reference(t, x):
        Bx = spec.B(x)
        y = resolvent_eval(spec.A, spec.gamma, x - spec.gamma * Bx)
        return -x + y + spec.lam * (Bx - spec.B(y))

    return fbf_field(spec), reference


def _column_jacobian(B, x):
    """The central-difference Jacobian column by column, one vector call of B per side and
    column: the field's two stacked calls must give it bit for bit."""
    h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
    J = np.empty((x.size, x.size))
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        J[:, i] = (B(x + e) - B(x - e)) / (2.0 * h)
    return J


def _dr(form, B=None):
    c = get_problem("two_lines").components
    if B is None:
        B = c["B_mono" if form == "reflected" else "B"]
    spec = DRFlowSpec(A=c["A"], B=B, gamma=1.0, form=form)
    A, B, gamma = spec.A, spec.B, spec.gamma
    if form == "reflected":
        return dr_field(spec), lambda t, z: 0.5 * (
            reflected_resolvent(A, gamma, reflected_resolvent(B, gamma, z)) + z) - z

    def reference(t, x):
        c = resolvent_eval(A, gamma, x - gamma * B(x)) - x
        return np.linalg.solve(np.eye(x.size) + gamma * _column_jacobian(B, x), c)

    return dr_field(spec), reference


def _proxgrad():
    p = get_problem("nonconvex_cos").components["problem"]
    return (proxgrad_field(p),
            lambda t, x: prox_eval(p.f, p.eta, x - p.eta * p.g.gradient(x)) - x)


def _second_order_fb(gamma, lam):
    c = get_problem("constrained_quadratic").components
    A, B, eta = c["A"], c["B"], 1.0
    spec = SecondOrderSpec.fb(A=A, B=B, eta=eta,
                              condition=DampingCondition(gamma=gamma, lam=lam, theta=0.5))

    def reference(t, x, v):
        return -gamma(t) * v - lam(t) * (x - resolvent_eval(A, eta, x - eta * B(x)))

    return second_order_field(spec), reference


def _avd():
    g = get_problem("lasso1d").components["g"]
    damping = over_t(3.0)
    return (second_order_field(SecondOrderSpec.avd(g=g, alpha=3.0)),
            lambda t, x, v: -damping(t) * v - g.gradient(x))


PD_C = 0.7  # c and gamma_relax away from 1, where c*(gam - 1) = c*gam - c


def _pd(tau, general=False):
    prob = get_problem("pd_lasso_analysis").components["structured"]
    params = PDParams(c=PD_C, gamma_relax=0.3, tau=tau)
    n, m = prob.n, prob.m

    def reference(t, u):
        x, z, y = u[:n], u[n:n + m], u[n + m:]
        tau, c, gam, A = params.tau(t), params.c, params.gamma_relax, prob.A
        ax = A(x)
        w1 = x - tau * (A.adjoint(c * (ax - z) + y) + prob.h.gradient(x))
        xdot = prox_eval(prob.f, tau, w1) - x
        axdot = A(xdot)
        w2 = c * (ax + gam * axdot) + y
        zdot = prox_eval(prob.g, 1.0 / c, w2 / c) - z
        ydot = c * (ax + axdot - (z + zdot))
        return np.concatenate([xdot, zdot, ydot])

    if general:
        return pd_field_general(prob, params, *special_metric(prob, params)), reference
    return pd_field_special(prob, params), reference


CASES = {
    "km": lambda: _km(constant(0.7)),
    "km-varying-lam": lambda: _km(affine_clamped(0.2, 0.05, 0.2, 0.9)),
    "fb": lambda: _fb(constant(0.75)),
    "fb-varying-lam": lambda: _fb(inv_power(1.0, 1.2)),
    "fb-tikhonov": lambda: _fb(constant(0.75), exp_decay(0.0, 0.5, 0.1)),
    "fb-tikhonov-negative": lambda: _fb(constant(0.75), constant(0.25), sign=-1.0),
    "fbf": _fbf,
    "dr-reflected": lambda: _dr("reflected"),
    "dr-coupled": lambda: _dr("coupled"),
    # a B whose Jacobian is not symmetric, so that a transposed Jacobian shows
    "dr-coupled-nonsymmetric": lambda: _dr("coupled", matrix_operator([[1.0, 2.0],
                                                                       [-0.5, 1.0]])),
    "proxgrad": _proxgrad,
    "second-order-fb": lambda: _second_order_fb(constant(2.0), constant(1.0)),
    "second-order-fb-varying": lambda: _second_order_fb(affine_clamped(3.0, -0.01, 2.0, 3.0),
                                                        affine_clamped(0.5, 0.01, 0.5, 1.0)),
    "avd": _avd,
    "pd-special": lambda: _pd(constant(0.26)),
    "pd-special-varying-tau": lambda: _pd(affine_clamped(0.1, 0.01, 0.1, 0.26)),
    "pd-general": lambda: _pd(constant(0.26), general=True),
    "pd-general-varying-tau": lambda: _pd(affine_clamped(0.1, 0.01, 0.1, 0.26), general=True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bound_field_equals_the_shared_arithmetic_bit_for_bit(case):
    field, reference = CASES[case]()
    dim = field.dim or {"km": 2, "fb": 10, "fb-tikhonov": 10, "fbf": 2, "dr-reflected": 2,
                        "dr-coupled": 2, "proxgrad": 1, "second-order-fb": 2,
                        "avd": 1}[field.label]
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(25):
        t = float(rng.uniform(0.5, 40.0))
        x = rng.standard_normal(dim) * 2.0
        if field.order == 1:
            got, want = field.fn(t, x), reference(t, x)
        else:
            v = rng.standard_normal(dim)
            got, want = field.fn(t, x, v), reference(t, x, v)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def _first_bad_evaluation(cfg, bad):
    """The first time an RK4 run on cfg evaluates its field at a time where bad(t) holds."""
    half = 0.5 * cfg.dt
    for k in range(cfg.n_steps):
        t = cfg.t_start + k * cfg.dt
        for s in (t, t + half, t + cfg.dt):
            if bad(s):
                return s
    raise AssertionError("the schedule never leaves its range on this grid")


def _rising(start, slope):
    # no declared bounds, so nothing is checked before the run
    return Schedule(fn=lambda t: start + slope * t, dfn=lambda t: slope)


@pytest.mark.parametrize("flow", ["km", "fb"])
def test_a_relaxation_that_leaves_its_range_mid_run_raises_at_that_time(flow):
    lam = _rising(0.5, 0.1)
    field, _ = _km(lam) if flow == "km" else _fb(lam)
    cap = 1.0 if flow == "km" else 1.5  # lasso10 runs at gamma = beta: delta = 1.5
    cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=20.0)
    t_bad = _first_bad_evaluation(cfg, lambda t: lam(t) > cap + 1e-12)
    x0 = np.ones(2 if flow == "km" else 10)
    with pytest.raises(SpecError, match=r"relaxation lam\(%g\)=" % t_bad):
        integrate(field, x0, cfg)


@pytest.mark.parametrize("general", [False, True])
def test_a_tau_that_leaves_its_range_mid_run_raises_at_that_time(general):
    prob = get_problem("pd_lasso_analysis").components["structured"]
    tau = _rising(0.1, 0.02)
    field, _ = _pd(tau, general=general)
    cfg = IntegratorConfig(method="rk4", dt=0.05, t_end=20.0)
    a_sq = prob.A.norm_estimate ** 2
    t_bad = _first_bad_evaluation(cfg, lambda t: PD_C * tau(t) * a_sq > 1.0 + 1e-9)
    with pytest.raises(SpecError, match=r"step constraint violated at t=%g:" % t_bad):
        integrate(field, np.zeros(prob.n + 2 * prob.m), cfg)


def test_a_constant_tau_outside_its_range_fails_both_builders():
    prob = get_problem("pd_lasso_analysis").components["structured"]
    params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(1.0 / prob.A.norm_estimate ** 2 * 1.1))
    with pytest.raises(SpecError, match="step constraint violated"):
        pd_field_special(prob, params)
    with pytest.raises(SpecError, match="step constraint violated"):
        pd_field_general(prob, params, *special_metric(prob, params))
