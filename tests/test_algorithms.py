import numpy as np
import pytest

from splitflow.algorithms import (fb_step, inertial_fb_step, km_step, nesterov_step,
                                  prox_admm_step, run_sequence, tseng_step, write_sequence_csv)
from splitflow.diagnostics import fejer_check
from splitflow.first_order import (DRFlowSpec, FBFFlowSpec, FBFlowSpec, KMFlowSpec,
                                   check_relaxation, dr_field, dr_operator, fb_field, fb_probes,
                                   fbf_field, km_field)
from splitflow.errors import DivergenceError, SpecError
from splitflow.integrate import DIVERGENCE_THRESHOLD, FlowField, Trajectory, euler_unit_step
from splitflow.operators import (SingleValuedMap, box_prox, gradient_map, l1_prox,
                                 least_squares_fn, matrix_operator, prox_eval,
                                 quadratic_fn, soft_threshold, subdifferential_map,
                                 zero_operator)
from splitflow.primal_dual import (PDParams, PDState, _tau_check, pd_field_general,
                                   special_metric)
from splitflow.problems import get_problem
from splitflow.schedules import (Schedule, affine_clamped, constant, exp_decay, inv_power,
                                 over_t)

NAN = float("nan")


def nan_schedule():
    """A schedule that reads NaN everywhere and declares NaN bounds."""
    return Schedule(fn=lambda t: NAN, dfn=lambda t: 0.0, bounds=(NAN, NAN))


def neg_id():
    return SingleValuedMap(fn=lambda x: -np.asarray(x, dtype=float), lipschitz_L=1.0)


class TestKMStep:
    def test_lambda_zero_is_identity(self):
        x = np.array([2.0])
        assert km_step(neg_id(), 0.0, x)[0] == 2.0

    def test_divergence_example_oscillates(self):
        assert km_step(neg_id(), 1.0, np.array([1.0]))[0] == -1.0

    def test_half_relaxation(self):
        assert km_step(neg_id(), 0.5, np.array([1.0]))[0] == 0.0

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            km_step(neg_id(), 1.5, np.array([1.0]))


class TestFBStep:
    def test_lambda_zero_identity(self):
        p = get_problem("lasso1d")
        x = np.array([0.3])
        got = fb_step(p.components["A"], p.components["B"], 0.5, 0.0, x)
        assert got[0] == 0.3

    def test_equilibrium_fixed(self):
        p = get_problem("lasso1d")
        sol = p.known_solution
        got = fb_step(p.components["A"], p.components["B"], 0.5, 1.0, sol)
        assert abs(got[0] - sol[0]) < 1e-15

    def test_projection_instance_hand_computed(self):
        # A = normal cone of [0, inf), B = x - 2, gamma = 1, lam = 3/4, x = 0:
        # step = 0 + 0.75*(proj(2) - 0) = 1.5
        A = subdifferential_map(box_prox(0.0, np.inf))
        B = gradient_map(least_squares_fn(np.eye(1), np.array([2.0])))
        got = fb_step(A, B, 1.0, 0.75, np.array([0.0]))
        assert got[0] == 1.5

    def test_range_enforced(self):
        p = get_problem("lasso1d")
        with pytest.raises(ValueError):
            fb_step(p.components["A"], p.components["B"], 0.5, 2.0, np.ones(1))


class TestStepsShareTheFlowHypotheses:
    """km_step and fb_step accept exactly the lam and gamma their flows accept."""

    def test_relaxation_tolerance(self):
        p = get_problem("lasso1d")
        A, B = p.components["A"], p.components["B"]
        x = np.array([0.3])
        KMFlowSpec(T=neg_id(), lam=constant(-1e-13))
        FBFlowSpec(A=A, B=B, gamma=0.5, lam=constant(-1e-13))
        km_step(neg_id(), -1e-13, x)
        fb_step(A, B, 0.5, -1e-13, x)
        for reject in (lambda: KMFlowSpec(T=neg_id(), lam=constant(-1e-11)),
                       lambda: FBFlowSpec(A=A, B=B, gamma=0.5, lam=constant(-1e-11)),
                       lambda: km_step(neg_id(), -1e-11, x),
                       lambda: fb_step(A, B, 0.5, -1e-11, x)):
            with pytest.raises(SpecError):
                reject()

    def test_nan_relaxation(self):
        p = get_problem("lasso1d")
        A, B = p.components["A"], p.components["B"]
        x = np.array([0.3])
        for reject in (lambda: KMFlowSpec(T=neg_id(), lam=nan_schedule()),
                       lambda: FBFlowSpec(A=A, B=B, gamma=0.5, lam=nan_schedule()),
                       lambda: km_step(neg_id(), NAN, x),
                       lambda: fb_step(A, B, 0.5, NAN, x)):
            with pytest.raises(SpecError):
                reject()

    def test_fb_step_takes_any_positive_step(self):
        p = get_problem("lasso1d")  # beta = 1
        A, B = p.components["A"], p.components["B"]
        fb_step(A, B, 3.0, 0.5, np.array([0.3]))  # relaxed regime: delta = 0.5
        for gamma in (0.0, -1.0):
            with pytest.raises(SpecError):
                fb_step(A, B, gamma, 0.5, np.array([0.3]))
        with pytest.raises(SpecError):
            fb_step(A, SingleValuedMap(fn=lambda x: x), 0.5, 0.5, np.array([0.3]))


NAN_CONSTRUCTORS = {
    "constant": lambda: constant(NAN),
    "over_t": lambda: over_t(NAN),
    "inv_power-p": lambda: inv_power(NAN),
    "inv_power-scale": lambda: inv_power(1.0, NAN),
    "exp_decay-rate": lambda: exp_decay(0.0, 1.0, NAN),
    "exp_decay-base": lambda: exp_decay(NAN, 1.0),
    "exp_decay-amplitude": lambda: exp_decay(1.0, NAN),
    "affine_clamped-lo": lambda: affine_clamped(0.0, 1.0, NAN, 1.0),
    "affine_clamped-intercept": lambda: affine_clamped(NAN, 0.1, 0.0, 1.0),
    "affine_clamped-slope": lambda: affine_clamped(0.1, NAN, 0.0, 1.0),
    "DRFlowSpec-gamma": lambda: DRFlowSpec(A=zero_operator(), B=zero_operator(), gamma=NAN),
    "FBFFlowSpec-lam": lambda: FBFFlowSpec(A=zero_operator(), B=neg_id(), gamma=0.5,
                                           lam=NAN),
    "PDParams-c": lambda: PDParams(c=NAN, gamma_relax=1.0, tau=constant(0.26)),
    "_tau_check": lambda: _tau_check(get_problem("pd_lasso_analysis").components["structured"],
                                     PDParams(c=1.0, gamma_relax=1.0,
                                              tau=nan_schedule()))(NAN, 0.0),
    "check_relaxation": lambda: check_relaxation(NAN, 1.0),
}


@pytest.mark.parametrize("case", sorted(NAN_CONSTRUCTORS))
def test_flow_hypotheses_reject_nan(case):
    with pytest.raises(SpecError):
        NAN_CONSTRUCTORS[case]()


class TestTsengStep:
    def test_without_B_is_resolvent(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), lipschitz_L=0.0)
        A = subdifferential_map(l1_prox(1.0))
        x = np.array([3.0])
        got = tseng_step(A, zero, 0.5, 0.5, x)
        assert got[0] == soft_threshold(np.array([3.0]), 0.5)[0]

    def test_zero_at_equilibrium(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), lipschitz_L=0.0)
        got = tseng_step(zero_operator(), zero, 0.5, 0.5, np.array([0.7]))
        assert got[0] == 0.7

    def test_rotation_instance_matches_oracle(self):
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        x = np.array([1.0, 0.0])
        gamma, lam = 0.5, 0.5
        Bx = M @ x
        y = x - gamma * Bx
        oracle = y + lam * (Bx - M @ y)
        got = tseng_step(zero_operator(), matrix_operator(M), gamma, lam, x)
        assert np.allclose(got, oracle, atol=0)
        assert np.allclose(got, [0.75, 0.5])

    def test_range_enforced(self):
        with pytest.raises(SpecError):
            tseng_step(zero_operator(), matrix_operator(np.eye(2)), 1.0, 0.5, np.ones(2))
        with pytest.raises(SpecError):  # no Lipschitz bound
            tseng_step(zero_operator(), SingleValuedMap(fn=lambda x: x), 0.5, 0.5, np.ones(2))


class TestInertialFBStep:
    def test_fixed_point_stays(self):
        p = get_problem("lasso1d")
        f, g = p.components["f"], p.components["g"]
        sol = p.known_solution
        got = inertial_fb_step(f, g, 0.5, gamma_n=2.0, lam_n=1.0, x_curr=sol, x_prev=sol)
        assert abs(got[0] - sol[0]) < 1e-14

    def test_small_lambda_limit(self):
        p = get_problem("lasso1d")
        f, g = p.components["f"], p.components["g"]
        x, xp = np.array([1.0]), np.array([0.5])
        got = inertial_fb_step(f, g, 0.5, gamma_n=2.0, lam_n=1e-12, x_curr=x, x_prev=xp)
        assert abs(got[0] - x[0]) < 1e-10

    def test_quadratic_sequence_matches_scripted_oracle(self):
        # oracle: raw recurrence with the printed coefficients
        g = quadratic_fn(np.eye(1))
        f = l1_prox(0.2)
        eta, gamma_n, lam_n = 0.5, 2.0, 1.2
        w = lam_n / (1.0 + gamma_n)
        xo_prev, xo = np.array([2.0]), np.array([1.5])
        x_prev, x = xo_prev.copy(), xo.copy()
        for _ in range(15):
            pstep = np.sign(xo - eta * xo) * np.maximum(np.abs(xo - eta * xo) - eta * 0.2, 0)
            nxt = (1 - w) * xo + w * pstep + w * (xo - xo_prev)
            xo_prev, xo = xo, nxt
            got = inertial_fb_step(f, g, eta, gamma_n, lam_n, x, x_prev)
            x_prev, x = x, got
            assert np.allclose(x, xo, atol=1e-15)

    @pytest.mark.parametrize("eta, lam_n", [(2.5, 1.0), (0.5, 0.0), (0.5, np.nan)])
    def test_range_enforced(self, eta, lam_n):
        p = get_problem("lasso1d")  # L = 1
        with pytest.raises(SpecError):
            inertial_fb_step(p.components["f"], p.components["g"], eta, gamma_n=2.0,
                             lam_n=lam_n, x_curr=np.ones(1), x_prev=np.ones(1))


class TestNesterovStep:
    def test_minimizer_is_fixed(self):
        g = quadratic_fn(np.eye(2), np.array([1.0, -1.0]))
        xstar = np.array([1.0, -1.0])
        got = nesterov_step(g, 0.8, 3.0, 5, xstar, xstar)
        assert np.allclose(got, xstar)

    def test_first_iteration_is_plain_gradient_step(self):
        g = quadratic_fn(np.eye(1))
        x, xp = np.array([2.0]), np.array([5.0])
        got = nesterov_step(g, 0.5, 3.0, 1, x, xp)
        assert got[0] == 2.0 - 0.5 * 2.0

    def test_twenty_step_sequence_matches_scripted_oracle(self):
        Q = np.array([[2.0, 0.0], [0.0, 0.5]])
        b = np.array([1.0, 1.0])
        g = quadratic_fn(Q, b)
        gamma, alpha = 0.5, 3.0
        xo_prev = np.zeros(2)
        xo = np.zeros(2)
        x_prev, x = xo_prev.copy(), xo.copy()
        for n in range(1, 21):
            y = xo + (n - 1.0) / (n + alpha - 1.0) * (xo - xo_prev)
            nxt = y - gamma * (Q @ y - b)
            xo_prev, xo = xo, nxt
            got = nesterov_step(g, gamma, alpha, n, x, x_prev)
            x_prev, x = x, got
            assert np.allclose(x, xo, atol=1e-15)
        xstar = np.linalg.solve(Q, b)
        assert np.linalg.norm(x - xstar) < 1e-2

    def test_step_range_enforced(self):
        g = quadratic_fn(2.0 * np.eye(1))  # L = 2
        for gamma in (0.6, np.nan):
            with pytest.raises(SpecError):
                nesterov_step(g, gamma, 3.0, 1, np.zeros(1), np.zeros(1))


class TestProxADMMStep:
    def _setup(self):
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        tau = 0.9 / prob.A.norm_estimate ** 2
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(tau))
        M1, M2 = special_metric(prob, params)
        return p, prob, params, tau, M1(0.0), M2

    def test_equilibrium_fixed(self):
        p, prob, params, tau, M1, M2 = self._setup()
        s = p.known_solution
        nxt = prox_admm_step(prob, params, M1, M2, s)
        assert np.linalg.norm(nxt.x - s.x) < 1e-9
        assert np.linalg.norm(nxt.z - s.z) < 1e-9
        assert np.linalg.norm(nxt.y - s.y) < 1e-9

    def test_all_zero_problem_keeps_state(self):
        from splitflow.operators import matrix_linear_map, zero_fn, zero_prox
        from splitflow.primal_dual import StructuredProblem
        prob = StructuredProblem(f=zero_prox(), h=zero_fn(), g=zero_prox(),
                                 A=matrix_linear_map(np.eye(2)), n=2, m=2)
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(0.5))
        state = PDState(x=np.array([1.0, -1.0]), z=np.array([1.0, -1.0]),
                        y=np.zeros(2))
        nxt = prox_admm_step(prob, params, None, None, state)
        assert np.allclose(nxt.x, state.x, atol=1e-12)
        assert np.allclose(nxt.z, state.z, atol=1e-12)
        assert np.allclose(nxt.y, state.y, atol=1e-12)

    def test_linearized_metric_reduces_to_prox_composition(self):
        # with M1 = I/tau - c A*A and M2 = 0 the x-update is a single prox of f
        # and the z-update a single prox of g/c (primal-dual step structure)
        p, prob, params, tau, M1, M2 = self._setup()
        rng = np.random.default_rng(3)
        c = params.c
        A = prob.A
        for _ in range(10):
            x = rng.standard_normal(prob.n)
            z = rng.standard_normal(prob.m)
            y = rng.standard_normal(prob.m)
            state = PDState(x=x, z=z, y=y)
            got = prox_admm_step(prob, params, M1, M2, state)
            x_want = prox_eval(prob.f, tau,
                               x - tau * prob.h.gradient(x)
                               - tau * A.adjoint(c * (A(x) - z) + y))
            z_want = prox_eval(prob.g, 1.0 / c, A(x_want) + y / c)
            y_want = y + c * (A(x_want) - z_want)
            assert np.linalg.norm(got.x - x_want) < 1e-8
            assert np.linalg.norm(got.z - z_want) < 1e-8
            assert np.linalg.norm(got.y - y_want) < 1e-8


class TestUnitStepCorrespondence:
    """n discrete steps must equal n unit-step Euler integrations, bitwise."""

    def test_km(self):
        spec = KMFlowSpec(T=neg_id(), lam=constant(0.5))
        field = km_field(spec)
        x_flow = np.array([1.0])
        x_disc = np.array([1.0])
        for k in range(100):
            x_flow = euler_unit_step(field, x_flow, t=float(k))
            x_disc = km_step(spec.T, 0.5, x_disc)
            assert x_flow[0] == x_disc[0]

    def test_fb(self):
        p = get_problem("lasso10")
        beta = p.components["beta"]
        gamma, lam = beta, 0.75
        spec = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=gamma,
                          lam=constant(lam))
        field = fb_field(spec)
        x_flow = p.default_start.copy()
        x_disc = p.default_start.copy()
        for k in range(100):
            x_flow = euler_unit_step(field, x_flow, t=float(k))
            x_disc = fb_step(p.components["A"], p.components["B"], gamma, lam, x_disc)
            assert np.all(x_flow == x_disc)

    def test_tseng(self):
        p = get_problem("bilinear_saddle")
        spec = FBFFlowSpec(A=p.components["A"], B=p.components["B"], gamma=0.5, lam=0.5)
        field = fbf_field(spec)
        x_flow = np.array([1.0, 0.0])
        x_disc = np.array([1.0, 0.0])
        for k in range(100):
            x_flow = euler_unit_step(field, x_flow, t=float(k))
            x_disc = tseng_step(p.components["A"], p.components["B"], 0.5, 0.5, x_disc)
            assert np.all(x_flow == x_disc)

    def test_dr_reflected_as_km_on_the_dr_operator(self):
        p = get_problem("two_lines")
        A, Bm = p.components["A"], p.components["B_mono"]
        spec = DRFlowSpec(A=A, B=Bm, gamma=1.0)
        field = dr_field(spec)
        T_dr = SingleValuedMap(fn=lambda z: dr_operator(A, Bm, 1.0, z), lipschitz_L=1.0)
        z_flow = np.array([3.0, -2.0])
        z_disc = np.array([3.0, -2.0])
        for k in range(100):
            z_flow = euler_unit_step(field, z_flow, t=float(k))
            z_disc = km_step(T_dr, 1.0, z_disc)
            assert np.all(z_flow == z_disc)

    def test_prox_admm_is_a_unit_euler_step_of_the_general_pd_field(self):
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        params = PDParams(c=1.0, gamma_relax=1.0,
                          tau=constant(0.9 / prob.A.norm_estimate ** 2))
        M1, M2 = special_metric(prob, params)
        M1 = M1(0.0)
        field = pd_field_general(prob, params, lambda t: M1, None)
        u_flow = np.random.default_rng(3).standard_normal(prob.n + 2 * prob.m)
        state = PDState.from_vector(u_flow, prob.n, prob.m)
        for k in range(20):
            u_flow = euler_unit_step(field, u_flow, t=float(k))
            state = prox_admm_step(prob, params, M1, M2, state)
            assert np.array_equal(state.to_vector(), u_flow)


class TestDivergenceWitness:
    def test_discrete_oscillates_while_flow_converges(self):
        # x_{n+1} = -x_n forever for the discrete iteration with lam = 1,
        # while the flow from the same start reaches 0
        T = neg_id()
        x = np.array([1.0])
        for _ in range(50):
            x_next = km_step(T, 1.0, x)
            assert x_next[0] == -x[0]
            x = x_next
        assert abs(x[0]) == 1.0

        from splitflow.integrate import IntegratorConfig, integrate
        spec = KMFlowSpec(T=T, lam=constant(1.0))
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=20.0, record_every=100)
        traj = integrate(km_field(spec), np.array([1.0]), cfg)
        assert abs(traj.final_state[0]) < 1e-8


class TestSequenceRunner:
    def test_fb_iteration_converges_on_lasso(self):
        p = get_problem("lasso10")
        A, B = p.components["A"], p.components["B"]
        beta = p.components["beta"]
        gamma = beta
        delta = (4 * beta - gamma) / (2 * beta)
        lam = delta / 2.0

        seq = run_sequence(lambda n, x, xp: fb_step(A, B, gamma, lam, x),
                           p.default_start, 10000)
        res = np.linalg.norm(fb_step(A, B, gamma, 1.0, seq.final_state) - seq.final_state)
        assert res < 1e-6
        assert np.linalg.norm(seq.final_state - p.known_solution) < 1e-6

    def test_records_a_trajectory_that_flow_diagnostics_read(self):
        p = get_problem("lasso10")
        A, B, gamma, lam = p.components["A"], p.components["B"], p.components["beta"], 0.75
        spec = FBFlowSpec(A=A, B=B, gamma=gamma, lam=constant(lam))
        probes = fb_probes(spec, ref=p.known_solution)
        assert len(probes) >= 2
        seq = run_sequence(lambda n, x, xp: fb_step(A, B, gamma, lam, x), p.default_start, 50,
                           probes=probes, label="fb_step")
        assert isinstance(seq, Trajectory) and seq.label == "fb_step"
        assert np.array_equal(seq.times, np.arange(51.0))
        assert np.array_equal(seq.velocities[0], np.zeros(10))
        assert np.array_equal(seq.velocities[1:], np.diff(seq.states, axis=0))
        assert list(seq.records) == [name for name, _ in probes]
        for name, fn in probes:
            want = [fn(t, x, v) for t, x, v in zip(seq.times, seq.states, seq.velocities)]
            assert np.array_equal(seq.records[name], want)
        assert fejer_check(seq, p.known_solution)["pass"]

    def test_divergence_raises_with_the_finite_prefix(self):
        with pytest.raises(DivergenceError) as info, np.errstate(over="ignore"):
            run_sequence(lambda n, x, xp: 3.0 * x, np.ones(2), 2000,
                         probes=[("norm", lambda t, x, v: np.linalg.norm(x, axis=1))])
        traj = info.value.trajectory
        assert info.value.last_finite_t == 25.0 and len(traj.times) == 26
        assert np.abs(traj.states).max() <= DIVERGENCE_THRESHOLD
        assert np.all(np.isfinite(traj.records["norm"]))
        with pytest.raises(DivergenceError):
            run_sequence(lambda n, x, xp: x * np.nan, np.ones(2), 3)

    def test_divergence_stops_at_the_first_bad_iterate(self):
        # 3**25 < 1e12 < 3**26: the guard runs at every step, so the run makes
        # no update past the 26th
        calls = []

        def triple(n, x, x_prev):
            calls.append(n)
            return 3.0 * x

        with pytest.raises(DivergenceError, match="^trajectory diverged at t=26$") as info:
            run_sequence(triple, np.ones(2), 2000)
        assert calls == list(range(1, 27))
        assert info.value.last_finite_t == 25.0 and len(info.value.trajectory.times) == 26
        calls.clear()
        with pytest.raises(DivergenceError) as info:
            run_sequence(lambda n, x, x_prev: calls.append(n) or x * np.nan, np.ones(2), 3)
        assert calls == [1] and info.value.last_finite_t == 0.0
        assert list(info.value.trajectory.times) == [0.0]

    def test_update_may_reuse_its_output_buffer(self):
        buf, seen = np.empty(1), []

        def update(n, x, x_prev):
            seen.append(x_prev is x)
            buf[:] = x + 1.0
            return buf

        seq = run_sequence(update, np.zeros(1), 5)
        assert seq.states[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert seq.velocities[:, 0].tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        assert seen == [False] * 5

    def test_update_writing_into_its_input_raises(self):
        calls = []

        def update(n, x, x_prev):
            calls.append(n)
            x += 1.0
            return x

        start = np.zeros(2)
        with pytest.raises(ValueError, match="read-only"):
            run_sequence(update, start, 3)
        assert calls == [1]
        assert start.flags.writeable and np.array_equal(start, np.zeros(2))

    @pytest.mark.parametrize("x0", [[np.nan], [1.0, np.inf], [], np.eye(2)],
                             ids=["nan", "inf", "empty", "matrix"])
    def test_start_must_be_a_finite_vector(self, x0):
        with pytest.raises(ValueError):
            run_sequence(lambda n, x, xp: 0.5 * x, x0, 3)

    def test_scalar_start_is_a_one_vector(self, tmp_path):
        # as in integrate: the iterates are rows, so the CSV has x_0 and v_0
        seq = run_sequence(lambda n, x, xp: 0.5 * x, 1.0, 3)
        assert seq.states.shape == (4, 1)
        write_sequence_csv(seq, tmp_path / "seq.csv")
        lines = (tmp_path / "seq.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,x_0,v_0" and lines[-1] == "3,0.125,-0.125"

    def test_csv_schema(self, tmp_path):
        seq = run_sequence(lambda n, x, xp: 0.5 * x, np.array([1.0, 2.0]), 3,
                           probes=[("norm", lambda t, x, v: np.linalg.norm(x, axis=1))])
        path = tmp_path / "seq.csv"
        write_sequence_csv(seq, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "t,x_0,x_1,v_0,v_1,norm"
        assert [float(s) for s in lines[1].split(",")][0] == 0.0
        assert len(lines) == 5
