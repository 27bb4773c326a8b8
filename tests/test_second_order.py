import numpy as np
import pytest

from splitflow.diagnostics import envelope_slope, nonincreasing_check
from splitflow.errors import SpecError
from splitflow.first_order import FBFlowSpec, fb_field
from splitflow.integrate import IntegratorConfig, integrate
from splitflow.operators import (SingleValuedMap, fb_delta, gradient_map, identity_operator,
                                 l1_prox, least_squares_fn, matrix_operator, quadratic_fn,
                                 rotation_map, subdifferential_map, zero_operator)
from splitflow.problems import get_problem
from splitflow.schedules import affine_clamped, constant, exp_decay
from splitflow.second_order import (DampingCondition, SecondOrderSpec, check_damping_condition,
                                    second_order_field, second_order_lyapunov,
                                    second_order_probes)


class TestCheckA1:
    def test_constant_pass(self):
        spec = DampingCondition(gamma=constant(3.0), lam=constant(1.0), theta=0.5)
        report = check_damping_condition(spec, 0.5, np.linspace(0, 10, 50))
        assert report["pass"]  # 9 >= 2 * 1.5

    def test_constant_fail_reports_first_time(self):
        spec = DampingCondition(gamma=constant(1.0), lam=constant(1.0), theta=0.5)
        report = check_damping_condition(spec, 0.5, np.linspace(0, 10, 50))
        assert not report["pass"]
        assert report["conditions"]["ratio"]["first_violation_t"] == 0.0

    def test_exponential_schedules_cocoercive(self):
        spec = DampingCondition(gamma=exp_decay(2.0, 1.0), lam=exp_decay(1.0, -0.5), theta=0.1)
        report = check_damping_condition(spec, 1.0, np.linspace(0, 20, 200))
        assert report["pass"]
        assert report["conditions"]["ratio"]["min_value"] >= 1.1
        assert report["bounds"]["gamma_lo"] >= 2.0
        assert report["bounds"]["lam_hi"] <= 1.0

    def test_wrong_monotonicity_fails(self):
        spec = DampingCondition(gamma=exp_decay(2.0, -1.0), lam=constant(1.0),
                                theta=0.1)  # increasing damping
        report = check_damping_condition(spec, 0.5, np.linspace(0, 5, 20))
        assert not report["conditions"]["monotonicity"]["pass"]

    @pytest.mark.parametrize("theta", [0.0, -0.1, np.nan])
    def test_theta_must_be_positive(self, theta):
        with pytest.raises(SpecError):
            DampingCondition(constant(3.0), constant(1.0), theta)

    @pytest.mark.parametrize("beta", [None, 0.0, np.nan])
    def test_beta_must_be_positive(self, beta):
        with pytest.raises(SpecError):
            check_damping_condition(DampingCondition(constant(3.0), constant(1.0), 0.1), beta,
                                    np.linspace(0, 5, 10))

    def test_required_bound_per_variant(self):
        # (1/spec.beta)*(1+theta) equals the former per-kind bound
        # (1+theta)*{1/beta, 2, 2/delta} bit for bit
        B = gradient_map(quadratic_fn(np.array([[2.0, 0.5], [0.5, 1.0]])))
        A = subdifferential_map(l1_prox(0.5))
        condition = DampingCondition(exp_decay(3.0, 1.0), exp_decay(1.0, -0.5), 0.1)
        beta, delta = B.cocoercivity_beta, fb_delta(B.cocoercivity_beta, 0.4)
        for spec, threshold in [
                (SecondOrderSpec.cocoercive(B, condition), 1.0 / beta),
                (SecondOrderSpec.nonexpansive(rotation_map(0.5), condition), 2.0),
                (SecondOrderSpec.fb(A, B, 0.4, condition), 2.0 / delta)]:
            report = check_damping_condition(condition, spec.beta, np.linspace(0, 5, 10))
            assert report["conditions"]["ratio"]["required"] == (1.0 + 0.1) * threshold


class TestSecondOrderField:
    def test_pure_damping_when_B_vanishes(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), cocoercivity_beta=1e9)
        condition = DampingCondition(gamma=constant(2.0), lam=constant(1.0), theta=0.1)
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
        condition = DampingCondition(gamma=constant(3.0), lam=constant(1.0), theta=0.1)
        spec = SecondOrderSpec.fb(A=p.components["A"], B=p.components["B"], eta=1.0,
                                  condition=condition)
        field = second_order_field(spec)
        acc = field.fn(0.0, p.known_solution, np.zeros(2))
        assert np.allclose(acc, 0.0, atol=1e-15)

    def test_yosida_field_uses_schedule(self):
        from splitflow.operators import yosida_eval
        A = identity_operator()
        spec = SecondOrderSpec.yosida(A, constant(2.0), alpha=3.0)
        field = second_order_field(spec)
        x, v = np.array([3.0]), np.array([1.0])
        want = -(3.0 / 2.0) * v - yosida_eval(A, 2.0, x)
        assert np.allclose(field.fn(2.0, x, v), want)

    def test_yosida_declares_schedule_breakpoints(self):
        # the relaxation kinks at t = 0.55, which a dt = 0.1 grid misses
        spec = SecondOrderSpec.yosida(identity_operator(), affine_clamped(0.5, 1.0, 0.5, 1.05),
                                      alpha=3.0)
        assert second_order_field(spec).breakpoints == (0.55,)
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_start=0.1, t_end=3.0)
        with pytest.raises(SpecError, match="breakpoint"):
            integrate(second_order_field(spec), np.array([1.0]), cfg, v0=np.zeros(1))

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_vanishing_damping_needs_positive_alpha(self, alpha):
        with pytest.raises(SpecError):
            SecondOrderSpec.avd(quadratic_fn(np.eye(1)), alpha=alpha)
        with pytest.raises(SpecError):
            SecondOrderSpec.yosida(identity_operator(), constant(1.0), alpha=alpha)


class TestConditionMatchesDrive:
    # Each schedule passes against beta = 2 but not against the drive's own beta.
    @pytest.mark.parametrize("build", [
        # gamma^2/lam = 1 suffices for beta = 2, but the drive 10*I is only
        # 0.1-cocoercive, so the theorem needs 11, and V rises from t ~ 0.23 on
        lambda c: SecondOrderSpec.cocoercive(matrix_operator(10.0 * np.eye(2)), c),
        # Id - T is only 1/2-cocoercive for a merely nonexpansive T: it needs 2.2
        lambda c: SecondOrderSpec.nonexpansive(rotation_map(0.5), c),
    ])
    def test_condition_beyond_the_drive_beta_rejected(self, build):
        condition = DampingCondition(constant(1.0), constant(1.0), 0.1)
        grid = np.linspace(0, 5, 10)
        assert check_damping_condition(condition, 2.0, grid)["pass"]
        spec = build(condition)
        report = check_damping_condition(condition, spec.beta, grid)
        assert not report["pass"]
        assert report["conditions"]["ratio"]["first_violation_t"] == 0.0


def _pinned_variants():
    """One spec per constructor on 2-D data; B = grad of a quadratic, beta = 1/L."""
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = quadratic_fn(Q)
    B = gradient_map(g)
    A = subdifferential_map(l1_prox(0.5))

    cond = DampingCondition(exp_decay(3.0, 1.0), exp_decay(1.0, -0.5), 0.1)
    return {
        "cocoercive": SecondOrderSpec.cocoercive(B, cond),
        "nonexpansive": SecondOrderSpec.nonexpansive(rotation_map(0.5), cond),
        "fb": SecondOrderSpec.fb(A, B, 0.4, cond),
        "avd": SecondOrderSpec.avd(g, alpha=3.0),
        "yosida": SecondOrderSpec.yosida(A, constant(0.5), alpha=3.0),
    }


SCHEDULED_PROBES = ["lyapunov_V", "h", "hdot", "speed", "accel"]

# variant -> (label, field.fn, beta, driving_operator, probes with xstar,
# probes without), at t = 2, x = (1, -2), v = (0.5, 0.25); a None driving_operator
# stands for SpecError
VARIANT_PINS = {
    "cocoercive": ("second-order-cocoercive", [-2.5, 0.6146647167633871], 0.4530818393219729,
                   [1.0, -1.5], SCHEDULED_PROBES, ["speed", "accel"]),
    "nonexpansive": ("second-order-nonexpansive", [-0.7878334942475597, -0.10858240017429532],
                     0.5, [-0.8364336390987788, -0.7242604148234575], SCHEDULED_PROBES,
                     ["speed", "accel"]),
    "fb": ("second-order-fb", [-2.1270670566473227, -0.037967934103798284],
           0.7792893218813454, [0.6000000000000001, -0.8], SCHEDULED_PROBES,
           ["speed", "accel"]),
    "avd": ("avd", [-1.75, 1.125], None, [1.0, -1.5],
            ["h", "hdot", "speed", "accel", "objective"], ["speed", "accel", "objective"]),
    "yosida": ("yosida-avd", [-1.25, 0.125], None, None, ["h", "hdot", "speed", "accel"],
               ["speed", "accel"]),
}


@pytest.mark.parametrize("variant", sorted(VARIANT_PINS))
def test_variant_pins(variant):
    label, acc, beta, drive, probes_ref, probes = VARIANT_PINS[variant]
    spec = _pinned_variants()[variant]
    x = np.array([1.0, -2.0])
    field = second_order_field(spec)
    assert field.label == label
    assert field.fn(2.0, x, np.array([0.5, 0.25])).tolist() == acc
    assert spec.beta == beta
    if drive is None:
        with pytest.raises(SpecError):
            spec.driving_operator(x)
    else:
        assert spec.driving_operator(x).tolist() == drive
    assert [name for name, _ in second_order_probes(spec, np.zeros(2))] == probes_ref
    assert [name for name, _ in second_order_probes(spec)] == probes


class TestLyapunov:
    def test_zero_at_rest_at_solution(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), cocoercivity_beta=1.0)
        condition = DampingCondition(gamma=constant(2.0), lam=constant(1.0), theta=0.1)
        spec = SecondOrderSpec.cocoercive(zero, condition)
        from splitflow.integrate import Trajectory
        traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0]]),
                          velocities=np.array([[0.0]]), records={})
        V = second_order_lyapunov(traj, spec, np.array([1.0]))
        assert V[0] == 0.0

    def test_plug_in_arithmetic(self):
        # gamma=2, lam=1, beta=1, x - x* = 1, xd = -1: V = -1 + 1 + 2 = 2
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), cocoercivity_beta=1.0)
        condition = DampingCondition(gamma=constant(2.0), lam=constant(1.0), theta=0.1)
        spec = SecondOrderSpec.cocoercive(zero, condition)
        from splitflow.integrate import Trajectory
        traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0]]),
                          velocities=np.array([[-1.0]]), records={})
        V = second_order_lyapunov(traj, spec, np.array([0.0]))
        assert V[0] == pytest.approx(2.0)

    def test_probe_self_dots_match_matmul_bit_for_bit(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), cocoercivity_beta=1.0)
        condition = DampingCondition(gamma=constant(2.0), lam=constant(1.0), theta=0.1)
        spec = SecondOrderSpec.cocoercive(zero, condition)
        rng = np.random.default_rng(8)
        for n in range(1, 17):
            ref = rng.standard_normal(n)
            probes = dict(second_order_probes(spec, ref))
            for _ in range(10):
                x, v = (rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n)
                        for _ in range(2))
                d = x - ref
                assert probes["h"](1.0, x, v) == 0.5 * float(d @ d)
                assert probes["lyapunov_V"](1.0, x, v) == (
                    float(d @ v) + 2.0 * 0.5 * float(d @ d) + 1.0 * (2.0 / 1.0) * float(v @ v))


@pytest.fixture(scope="module")
def fb_second_order_run():
    """Criterion-9 style run: B is the forward-backward residual operator."""
    p = get_problem("constrained_quadratic")
    condition = DampingCondition(gamma=exp_decay(2.0, 1.0), lam=exp_decay(1.0, -0.5), theta=0.1)
    spec = SecondOrderSpec.fb(A=p.components["A"], B=p.components["B"], eta=1.0, condition=condition)
    cfg = IntegratorConfig(method="rk4", dt=0.005, t_end=100.0, record_every=20)
    probes = second_order_probes(spec, xstar=p.known_solution)
    traj = integrate(second_order_field(spec), np.array([-1.0, 3.0]), cfg,
                     v0=np.zeros(2), probes=probes)
    return p, spec, condition, traj


class TestSecondOrderTrajectory:
    def test_a1_passes_on_run_grid(self, fb_second_order_run):
        _, spec, condition, traj = fb_second_order_run
        assert check_damping_condition(condition, spec.beta, traj.times)["pass"]

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
        condition = DampingCondition(gamma=constant(3.0), lam=constant(1.0), theta=0.1)
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
