"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 10 is expected to fail: the stated flow decays faster than
the band the criterion demands (see the README's acceptance notes).
"""

import math

import numpy as np
import pytest

from splitflow.algorithms import fb_step, km_step, tseng_step
from splitflow.diagnostics import (proxgrad_gap_certificate, envelope_slope, fejer_check,
                                   nonincreasing_check, km_residual_rate_check,
                                   rate_fit, record_monotone_check)
from splitflow.first_order import (DRFlowSpec, FBFFlowSpec, FBFlowSpec, KMFlowSpec,
                                   dr_field, dr_operator, fb_field, fb_probes,
                                   fbf_field, fbf_probes, km_field, km_probes)
from splitflow.integrate import FlowField, IntegratorConfig, euler_unit_step, integrate
from splitflow.nonconvex import (arclength_series, brute_force_critical_points,
                                 critical_residual, lojasiewicz_fit, merit_series,
                                 nonconvex_probes, proxgrad_field,
                                 subgradient_norm_series)
from splitflow.operators import SingleValuedMap, quadratic_fn, rotation_map
from splitflow.primal_dual import (PDParams, PDState, lagrangian_eval, pd_field_general,
                                   pd_field_special, pd_probes, special_metric)
from splitflow.problems import get_problem
from splitflow.schedules import constant, exp_decay
from splitflow.second_order import (DampingCondition, SecondOrderSpec, check_damping_condition,
                                    second_order_field, second_order_lyapunov,
                                    second_order_probes)


def neg_id():
    return SingleValuedMap(fn=lambda x: -np.asarray(x, dtype=float), lipschitz_L=1.0)


def report(num, ok, detail):
    print("ACCEPTANCE %02d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def test_criterion_01_km_closed_form_and_discrete_contrast():
    spec = KMFlowSpec(T=neg_id(), lam=constant(1.0))
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=1.0)
    traj = integrate(km_field(spec), np.array([1.0]), cfg)
    err = abs(traj.final_state[0] - math.exp(-2.0))

    x = np.array([1.0])
    oscillates = True
    for _ in range(100):
        x_next = km_step(spec.T, 1.0, x)
        oscillates = oscillates and (x_next[0] == -x[0])
        x = x_next

    ok = err < 1e-8 and oscillates
    assert report(1, ok, "flow error %.2e; discrete x_{n+1} = -x_n %s"
                  % (err, oscillates))


@pytest.fixture(scope="module")
def rotation_run_07():
    spec = KMFlowSpec(T=rotation_map(np.pi / 2), lam=constant(0.7))
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=50.0, record_every=5)
    return integrate(km_field(spec), np.array([1.0, 0.0]), cfg,
                     probes=km_probes(spec, ref=np.zeros(2)))


def test_criterion_02_fejer_and_residual_monotonicity(rotation_run_07):
    traj = rotation_run_07
    fejer = fejer_check(traj, np.zeros(2))
    resid = record_monotone_check(traj, "fp_residual")
    final = traj.records["fp_residual"][-1]
    ok = fejer["pass"] and resid["pass"] and final < 1e-6
    assert report(2, ok, "fejer=%s residual_monotone=%s final_residual=%.2e"
                  % (fejer["pass"], resid["pass"], final))


def test_criterion_03_km_rate_inequality():
    spec = KMFlowSpec(T=rotation_map(np.pi / 2), lam=constant(0.5))
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=50.0, record_every=1)
    traj = integrate(km_field(spec), np.array([1.0, 0.0]), cfg,
                     probes=km_probes(spec))
    rep = km_residual_rate_check(traj, constant(0.5))
    assert report(3, rep["pass"], "first_violation=%s margin=%.2e"
                  % (rep["first_violation_t"], rep["margin"]))


def test_criterion_04_fb_flow_on_lasso():
    p = get_problem("lasso10")
    beta = p.components["beta"]
    spec = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=beta,
                      lam=constant(0.75))  # delta/2 with delta = 3/2
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=200.0, record_every=100)
    traj = integrate(fb_field(spec), p.default_start, cfg,
                     probes=fb_probes(spec, ref=p.known_solution))
    final = traj.records["fp_residual"][-1]
    B = p.components["B"]
    b_gap = np.linalg.norm(B(traj.final_state) - B(p.known_solution))
    ok = final < 1e-6 and b_gap < 1e-8
    assert report(4, ok, "residual=%.2e gradient gap at limit=%.2e" % (final, b_gap))


def test_criterion_05_exponential_regime():
    p = get_problem("strongcvx_l1")
    beta = p.components["beta"]
    spec = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=beta,
                      lam=constant(0.75))
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=80.0, record_every=10)
    traj = integrate(fb_field(spec), p.default_start, cfg,
                     probes=fb_probes(spec, ref=p.known_solution))
    dist = traj.records["dist_to_ref"]
    mask = (traj.times >= 10.0) & (dist > 1e-13)
    fit = rate_fit(traj.times[mask], dist[mask], model="exponential")
    assert report(5, fit.r2 > 0.99, "exponential fit r2=%.6f rate=%.4f"
                  % (fit.r2, fit.exponent))


@pytest.mark.parametrize("problem_name", ["lasso1d", "lasso10"])
def test_criterion_06_objective_gap_certificate(problem_name):
    p = get_problem(problem_name)
    beta = p.components["beta"]
    gamma = 0.25 * beta  # (gamma/beta)(3 + gamma/beta) = 0.8125 <= 1
    spec = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=gamma,
                      lam=constant(1.0))
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=100.0, record_every=1)
    traj = integrate(fb_field(spec), p.default_start, cfg)
    rep = proxgrad_gap_certificate(traj, p.components["f"], p.components["g"], gamma,
                                p.known_solution, tol=1e-6)
    assert report(6, rep["pass"], "%s: margin=%.2e monotone=%s"
                  % (problem_name, rep["margin"], rep["monotone"]))


def test_criterion_07_fbf_succeeds_where_plain_flow_circles():
    p = get_problem("bilinear_saddle")
    spec = FBFFlowSpec(A=p.components["A"], B=p.components["B"], gamma=0.5, lam=0.5)
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=200.0, record_every=100)
    traj = integrate(fbf_field(spec), np.array([1.0, 0.0]), cfg,
                     probes=fbf_probes(spec))
    fbf_resid = traj.records["fp_residual"][-1]

    B = p.components["B"]
    plain = FlowField(order=1, fn=lambda t, x: -B(x), label="plain-gradient")
    traj_plain = integrate(plain, np.array([1.0, 0.0]), cfg)
    norms = np.linalg.norm(traj_plain.states, axis=1)
    drift = float(np.max(np.abs(norms - norms[0])))
    ok = fbf_resid < 1e-5 and drift < 1e-6
    assert report(7, ok, "fbf residual=%.2e plain-flow norm drift=%.2e"
                  % (fbf_resid, drift))


def test_criterion_08_dr_coupled_reflected_equivalence():
    p = get_problem("two_lines")
    A, B, Bm = p.components["A"], p.components["B"], p.components["B_mono"]
    gamma = 1.0
    x0 = p.default_start
    cfg = IntegratorConfig(method="rk4", dt=0.005, t_end=10.0, record_every=10)
    coupled = integrate(dr_field(DRFlowSpec(A=A, B=B, gamma=gamma, form="coupled")),
                        x0, cfg)
    z0 = x0 + gamma * B(x0)
    reflected = integrate(dr_field(DRFlowSpec(A=A, B=Bm, gamma=gamma)), z0, cfg)
    z_from_coupled = np.array([x + gamma * B(x) for x in coupled.states])
    sup = float(np.max(np.linalg.norm(z_from_coupled - reflected.states, axis=1)))
    assert report(8, sup < 1e-6, "sup-norm gap over [0,10] = %.2e" % sup)


def test_criterion_09_second_order_lyapunov():
    p = get_problem("constrained_quadratic")
    condition = DampingCondition(gamma=exp_decay(2.0, 1.0), lam=exp_decay(1.0, -0.5), theta=0.1)
    spec = SecondOrderSpec.fb(A=p.components["A"], B=p.components["B"], eta=1.0, condition=condition)
    cfg = IntegratorConfig(method="rk4", dt=0.005, t_end=100.0, record_every=20)
    cond_report = check_damping_condition(condition, spec.beta, np.linspace(0.0, 100.0, 501))
    traj = integrate(second_order_field(spec), np.array([-1.0, 3.0]), cfg,
                     v0=np.zeros(2), probes=second_order_probes(spec, p.known_solution))
    V = second_order_lyapunov(traj, spec, p.known_solution)
    mono = nonincreasing_check(traj.times, V, abs_slack=1e-8)
    speed_end = float(np.linalg.norm(traj.final_velocity))
    resid = float(np.linalg.norm(spec.driving_operator(traj.final_state)))
    ok = cond_report["pass"] and mono["pass"] and speed_end < 1e-4 and resid < 1e-5
    assert report(9, ok, "condition=%s V_monotone=%s |xd(100)|=%.2e residual=%.2e"
                  % (cond_report["pass"], mono["pass"], speed_end, resid))


def test_criterion_10_avd_envelope_band():
    # stated band [-2.3, -1.7] for the envelope slope of g = x^2/2 under
    # xdd + (3/t) xd + x = 0 from (1, 0); the exact solution decays like
    # t^{-3}, so this criterion fails by construction (see README notes)
    g = quadratic_fn(np.eye(1))
    spec = SecondOrderSpec.avd(g, alpha=3.0)
    cfg = IntegratorConfig(method="rk4", dt=0.0025, t_start=1.0, t_end=1000.0,
                           record_every=20)
    traj = integrate(second_order_field(spec), np.array([1.0]), cfg,
                     v0=np.array([0.0]), probes=second_order_probes(spec,
                                                                    xstar=np.zeros(1)))
    mask = (traj.times >= 10.0) & (traj.times <= 1000.0)
    slope, r2 = envelope_slope(traj.times[mask], traj.records["objective"][mask],
                               window=2.0 * math.pi)
    ok = -2.3 <= slope <= -1.7
    report(10, ok, "measured envelope slope=%.3f (r2=%.4f); required band [-2.3,-1.7]"
           % (slope, r2))
    assert ok, ("envelope slope %.3f outside the stated band [-2.3, -1.7]; the "
                "trajectory obeys the o(1/t^2) objective bound but decays like "
                "t^-3, so the two-sided band cannot hold" % slope)


def test_criterion_11_nonconvex_kl_suite():
    p = get_problem("nonconvex_cos").components["problem"]
    cfg = IntegratorConfig(method="rk4", dt=0.005, t_end=200.0, record_every=100)
    traj = integrate(proxgrad_field(p), np.array([2.5]), cfg,
                     probes=nonconvex_probes(p))
    H = merit_series(p, traj)
    mono = nonincreasing_check(traj.times, H, abs_slack=1e-8)

    bound = p.g.grad_lipschitz + 1.0 / p.eta
    Z = subgradient_norm_series(p, traj)
    speeds = np.linalg.norm(traj.velocities, axis=1)
    h2_ok = bool(np.all(Z <= bound * speeds + 1e-10))

    arc = arclength_series(traj)
    half = int(np.searchsorted(traj.times, traj.times[-1] / 2.0))
    tail_ok = (arc[-1] - arc[half]) < 0.05 * arc[-1]

    crits = brute_force_critical_points(p, -8.0, 8.0, step=1e-3)
    limit_gap = float(np.min(np.abs(crits - traj.final_state[0])))
    fit = lojasiewicz_fit(traj, p)
    fit_ok = 0.0 < fit.exponent_estimate < 1.0 and fit.r2 > 0.9

    ok = (mono["pass"] and h2_ok and tail_ok and limit_gap < 1e-3
          and critical_residual(p, traj.final_state) < 1e-5 and fit_ok)
    assert report(11, ok,
                  "merit_monotone=%s H2=%s tail=%s limit_gap=%.1e theta=%.3f r2=%.3f"
                  % (mono["pass"], h2_ok, tail_ok, limit_gap,
                     fit.exponent_estimate, fit.r2))


def test_criterion_12_primal_dual_dynamics():
    p = get_problem("pd_lasso_analysis")
    prob = p.components["structured"]
    tau = 0.9 / prob.A.norm_estimate ** 2  # c*tau*||A||^2 = 0.9
    params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(tau))
    cfg = IntegratorConfig(method="rk4", dt=0.02, t_end=500.0, record_every=250)
    traj = integrate(pd_field_special(prob, params), p.default_start.to_vector(), cfg,
                     probes=pd_probes(prob, params))
    feas = float(traj.records["feas_norm"][-1])

    M1, M2 = special_metric(prob, params)
    cfg_eq = IntegratorConfig(method="rk4", dt=0.02, t_end=20.0, record_every=50)
    u0 = p.default_start.to_vector()
    t_special = integrate(pd_field_special(prob, params), u0, cfg_eq)
    t_general = integrate(pd_field_general(prob, params, M1, M2), u0, cfg_eq)
    sup = float(np.max(np.linalg.norm(t_special.states - t_general.states, axis=1)))

    limit = PDState.from_vector(traj.final_state, prob.n, prob.m)
    l_star = lagrangian_eval(prob, limit)
    rng = np.random.default_rng(17)
    sandwich_ok = True
    for _ in range(100):
        y_pert = limit.y + rng.standard_normal(prob.m)
        x_pert = limit.x + rng.standard_normal(prob.n)
        z_pert = limit.z + rng.standard_normal(prob.m)
        lo = lagrangian_eval(prob, PDState(limit.x, limit.z, y_pert))
        hi = lagrangian_eval(prob, PDState(x_pert, z_pert, limit.y))
        sandwich_ok = sandwich_ok and (lo <= l_star + 1e-6) and (l_star <= hi + 1e-6)

    ok = feas < 1e-5 and sup < 1e-6 and sandwich_ok
    assert report(12, ok, "feasibility=%.2e field-equivalence sup=%.2e sandwich=%s"
                  % (feas, sup, sandwich_ok))


def test_criterion_13_unit_step_correspondence():
    checks = []

    spec_km = KMFlowSpec(T=neg_id(), lam=constant(0.5))
    field_km = km_field(spec_km)
    x_f = x_d = np.array([1.0])
    for k in range(100):
        x_f = euler_unit_step(field_km, x_f, t=float(k))
        x_d = km_step(spec_km.T, 0.5, x_d)
    checks.append(("km", bool(np.all(x_f == x_d))))

    p = get_problem("lasso10")
    beta = p.components["beta"]
    spec_fb = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=beta,
                         lam=constant(0.75))
    field_fb = fb_field(spec_fb)
    x_f = x_d = p.default_start.copy()
    for k in range(100):
        x_f = euler_unit_step(field_fb, x_f, t=float(k))
        x_d = fb_step(p.components["A"], p.components["B"], beta, 0.75, x_d)
    checks.append(("fb", bool(np.all(x_f == x_d))))

    ps = get_problem("bilinear_saddle")
    spec_ts = FBFFlowSpec(A=ps.components["A"], B=ps.components["B"], gamma=0.5,
                          lam=0.5)
    field_ts = fbf_field(spec_ts)
    x_f = x_d = np.array([1.0, 0.0])
    for k in range(100):
        x_f = euler_unit_step(field_ts, x_f, t=float(k))
        x_d = tseng_step(ps.components["A"], ps.components["B"], 0.5, 0.5, x_d)
    checks.append(("tseng", bool(np.all(x_f == x_d))))

    pt = get_problem("two_lines")
    spec_dr = DRFlowSpec(A=pt.components["A"], B=pt.components["B_mono"], gamma=1.0)
    field_dr = dr_field(spec_dr)
    JA, JB = pt.components["A"].resolvent(1.0), pt.components["B_mono"].resolvent(1.0)
    T_dr = SingleValuedMap(fn=lambda z: dr_operator(JA, JB, z), lipschitz_L=1.0)
    z_f = z_d = np.array([3.0, -2.0])
    for k in range(100):
        z_f = euler_unit_step(field_dr, z_f, t=float(k))
        z_d = km_step(T_dr, 1.0, z_d)
    checks.append(("dr", bool(np.all(z_f == z_d))))

    ok = all(flag for _, flag in checks)
    assert report(13, ok, " ".join("%s=%s" % c for c in checks))
