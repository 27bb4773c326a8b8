import numpy as np
import pytest

from splitflow.diagnostics import envelope_slope, nonincreasing_check
from splitflow.errors import SpecError
from splitflow.first_order import FBFlowSpec, fb_field
from splitflow.integrate import IntegratorConfig, integrate
from splitflow.operators import (SingleValuedMap, gradient_map, l1_prox,
                                 least_squares_fn, quadratic_fn, subdifferential_map,
                                 zero_operator)
from splitflow.problems import get_problem
from splitflow.schedules import constant, exp_decay
from splitflow.second_order import (DampingCondition, SecondOrderSpec, check_damping_condition,
                                    second_order_field, second_order_lyapunov,
                                    second_order_probes)


class TestCheckA1:
    def test_constant_pass(self):
        spec = DampingCondition(gamma=constant(3.0), lam=constant(1.0), theta=0.5,
                      kind="nonexpansive")
        report = check_damping_condition(spec, np.linspace(0, 10, 50))
        assert report["pass"]  # 9 >= 2 * 1.5

    def test_constant_fail_reports_first_time(self):
        spec = DampingCondition(gamma=constant(1.0), lam=constant(1.0), theta=0.5,
                      kind="nonexpansive")
        report = check_damping_condition(spec, np.linspace(0, 10, 50))
        assert not report["pass"]
        assert report["conditions"]["ratio"]["first_violation_t"] == 0.0

    def test_exponential_schedules_cocoercive(self):
        spec = DampingCondition(gamma=exp_decay(2.0, 1.0), lam=exp_decay(1.0, -0.5), theta=0.1,
                      kind="cocoercive", beta=1.0)
        report = check_damping_condition(spec, np.linspace(0, 20, 200))
        assert report["pass"]
        assert report["conditions"]["ratio"]["min_value"] >= 1.1
        assert report["bounds"]["gamma_lo"] >= 2.0
        assert report["bounds"]["lam_hi"] <= 1.0

    def test_wrong_monotonicity_fails(self):
        spec = DampingCondition(gamma=exp_decay(2.0, -1.0), lam=constant(1.0), theta=0.1,
                      kind="nonexpansive")  # increasing damping
        report = check_damping_condition(spec, np.linspace(0, 5, 20))
        assert not report["conditions"]["monotonicity"]["pass"]

    def test_thresholds_by_kind(self):
        gam, lam = constant(3.0), constant(1.0)
        assert DampingCondition(gam, lam, 0.1, "cocoercive", beta=2.0).threshold == 0.5
        assert DampingCondition(gam, lam, 0.1, "nonexpansive").threshold == 2.0
        assert DampingCondition(gam, lam, 0.1, "averaged", alpha=0.25).threshold == 0.5
        assert DampingCondition(gam, lam, 0.1, "fb", delta=1.5).threshold == pytest.approx(4 / 3)

    def test_opt_relaxed_kind(self):
        spec = DampingCondition(gamma=constant(2.0), lam=constant(1.0), theta=0.1,
                      kind="opt-relaxed", beta=1.0, eta=1.5)
        report = check_damping_condition(spec, np.linspace(0, 5, 10))
        assert report["pass"]  # 4 > 1.5 + 1
        bad = DampingCondition(gamma=constant(1.5), lam=constant(1.0), theta=0.1,
                     kind="opt-relaxed", beta=1.0, eta=1.5)
        assert not check_damping_condition(bad, np.linspace(0, 5, 10))["pass"]


class TestSecondOrderField:
    def test_pure_damping_when_B_vanishes(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), cocoercivity_beta=1e9)
        condition = DampingCondition(gamma=constant(2.0), lam=constant(1.0), theta=0.1,
                    kind="cocoercive", beta=1e9)
        field = second_order_field(SecondOrderSpec.cocoercive(zero, condition))
        acc = field.fn(1.0, np.array([5.0]), np.array([2.0]))
        assert acc[0] == -4.0

    def test_avd_arithmetic(self):
        g = quadratic_fn(np.eye(1))
        field = second_order_field(SecondOrderSpec.avd(g, alpha=3.0))
        acc = field.fn(2.0, np.array([1.0]), np.array([0.0]))
        assert acc[0] == -1.0
        with pytest.raises(SpecError):
            field.fn(0.0, np.array([1.0]), np.array([0.0]))

    def test_fb_variant_equilibrium(self):
        p = get_problem("constrained_quadratic")
        condition = DampingCondition(gamma=constant(3.0), lam=constant(1.0), theta=0.1, kind="fb",
                    delta=1.5)
        spec = SecondOrderSpec.fb(A=p.components["A"], B=p.components["B"], eta=1.0,
                                  condition=condition)
        field = second_order_field(spec)
        acc = field.fn(0.0, p.known_solution, np.zeros(2))
        assert np.allclose(acc, 0.0, atol=1e-15)

    def test_yosida_field_uses_schedule(self):
        from splitflow.operators import identity_operator, yosida_eval
        A = identity_operator()
        spec = SecondOrderSpec.yosida(A, constant(2.0), alpha=3.0)
        field = second_order_field(spec)
        x, v = np.array([3.0]), np.array([1.0])
        want = -(3.0 / 2.0) * v - yosida_eval(A, 2.0, x)
        assert np.allclose(field.fn(2.0, x, v), want)


class TestLyapunov:
    def test_zero_at_rest_at_solution(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), cocoercivity_beta=1.0)
        condition = DampingCondition(gamma=constant(2.0), lam=constant(1.0), theta=0.1,
                    kind="cocoercive", beta=1.0)
        spec = SecondOrderSpec.cocoercive(zero, condition)
        from splitflow.integrate import Trajectory
        traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0]]),
                          velocities=np.array([[0.0]]), records={})
        V = second_order_lyapunov(traj, spec, np.array([1.0]))
        assert V[0] == 0.0

    def test_plug_in_arithmetic(self):
        # gamma=2, lam=1, beta=1, x - x* = 1, xd = -1: V = -1 + 1 + 2 = 2
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), cocoercivity_beta=1.0)
        condition = DampingCondition(gamma=constant(2.0), lam=constant(1.0), theta=0.1,
                    kind="cocoercive", beta=1.0)
        spec = SecondOrderSpec.cocoercive(zero, condition)
        from splitflow.integrate import Trajectory
        traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0]]),
                          velocities=np.array([[-1.0]]), records={})
        V = second_order_lyapunov(traj, spec, np.array([0.0]))
        assert V[0] == pytest.approx(2.0)


@pytest.fixture(scope="module")
def fb_second_order_run():
    """Criterion-9 style run: B is the forward-backward residual operator."""
    p = get_problem("constrained_quadratic")
    condition = DampingCondition(gamma=exp_decay(2.0, 1.0), lam=exp_decay(1.0, -0.5), theta=0.1,
                kind="fb", delta=1.5)
    spec = SecondOrderSpec.fb(A=p.components["A"], B=p.components["B"], eta=1.0, condition=condition)
    cfg = IntegratorConfig(method="rk4", dt=0.005, t_end=100.0, record_every=20)
    probes = second_order_probes(spec, xstar=p.known_solution)
    traj = integrate(second_order_field(spec), np.array([-1.0, 3.0]), cfg,
                     v0=np.zeros(2), probes=probes)
    return p, spec, condition, traj


class TestSecondOrderTrajectory:
    def test_a1_passes_on_run_grid(self, fb_second_order_run):
        _, _, condition, traj = fb_second_order_run
        assert check_damping_condition(condition, traj.times)["pass"]

    def test_lyapunov_nonincreasing(self, fb_second_order_run):
        p, spec, _, traj = fb_second_order_run
        V = second_order_lyapunov(traj, spec, p.known_solution)
        report = nonincreasing_check(traj.times, V, abs_slack=1e-8)
        assert report["pass"], report

    def test_velocity_vanishes(self, fb_second_order_run):
        _, _, _, traj = fb_second_order_run
        assert np.linalg.norm(traj.final_velocity) < 1e-4

    def test_limit_in_zero_set(self, fb_second_order_run):
        p, spec, _, traj = fb_second_order_run
        assert np.linalg.norm(spec.driving_operator(traj.final_state)) < 1e-5

    def test_energy_dissipation_tail(self, fb_second_order_run):
        # integral of speed^2 and accel^2: the second half contributes < 10%
        _, _, _, traj = fb_second_order_run
        for record in ("speed", "accel"):
            vals = traj.records[record] ** 2
            total = np.trapezoid(vals, traj.times)
            half = len(traj.times) // 2
            tail = np.trapezoid(vals[half:], traj.times[half:])
            assert tail < 0.10 * total

    def test_probe_names(self, fb_second_order_run):
        _, _, _, traj = fb_second_order_run
        assert {"lyapunov_V", "h", "hdot", "speed", "accel"} <= set(traj.records)


class TestGradientConstantOnArgmin:
    def test_distinct_limits_same_gradient(self):
        # duplicated-column lasso: two starts converge to different minimizers,
        # grad g at both limits must agree
        A_mat = np.array([[1.0, 1.0]])
        g = least_squares_fn(A_mat, np.array([2.0]))
        f = l1_prox(0.5)
        A, B = subdifferential_map(f), gradient_map(g)
        condition = DampingCondition(gamma=constant(3.0), lam=constant(1.0), theta=0.1, kind="fb",
                    delta=(4 * 0.5 - 0.4) / (2 * 0.5))
        spec = SecondOrderSpec.fb(A=A, B=B, eta=0.4, condition=condition)
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=80.0, record_every=100)
        limits = []
        for x0 in (np.array([3.0, 0.0]), np.array([0.0, 3.0])):
            traj = integrate(second_order_field(spec), x0, cfg, v0=np.zeros(2))
            limits.append(traj.final_state)
        assert np.linalg.norm(limits[0] - limits[1]) > 1e-3  # genuinely different
        assert np.linalg.norm(B(limits[0]) - B(limits[1])) < 1e-8


class TestEnvelopeSlope:
    def test_recovers_planted_decay(self):
        t = np.linspace(10.0, 1000.0, 20000)
        vals = 5.0 * t ** -2.0 * np.cos(t) ** 2 + 1e-300
        slope, r2 = envelope_slope(t, vals, window=2 * np.pi)
        assert abs(slope + 2.0) < 0.05
        assert r2 > 0.999
