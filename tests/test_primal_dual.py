import numpy as np
import pytest

import splitflow.primal_dual as primal_dual

from splitflow.errors import DivergenceError, SolverError, SpecError
from splitflow.integrate import IntegratorConfig, integrate
from splitflow.operators import (LinearMap, ProxFunction, ball_prox, box_prox, l1_prox,
                                 least_squares_fn, matrix_linear_map,
                                 moreau_conjugate_prox, prox_eval, quadratic_fn,
                                 soft_threshold, squared_l2_prox, zero_fn, zero_prox)
from splitflow.primal_dual import (LinearizedMetric, PDParams, PDState, StructuredProblem,
                                   lagrangian_eval, pd_field_general,
                                   pd_field_special, pd_general_increment, pd_probes,
                                   saddle_residuals, solve_prox_quadratic, special_metric)
from splitflow.problems import get_problem
from splitflow.schedules import Schedule, affine_clamped, constant


def scalar_problem(f=None, h=None, g=None, a=1.0):
    return StructuredProblem(
        f=f or zero_prox(), h=h or zero_fn(), g=g or zero_prox(),
        A=matrix_linear_map(np.array([[a]])), n=1, m=1)


class TestSpecialField:
    def test_hand_computed_scalar_instance(self):
        # f = h = 0, g = z^2/2, A = 1, c = 1, tau = 0.5, relax = 1,
        # state (1, 1, 0): xd = 0, p = 0.5, yd = 0.5, zd = -0.5
        prob = scalar_problem(g=squared_l2_prox())
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(0.5))
        field = pd_field_special(prob, params)
        got = field.fn(0.0, np.array([1.0, 1.0, 0.0]))
        assert np.allclose(got, [0.0, -0.5, 0.5])

    def test_trivial_problem_equilibrium(self):
        prob = scalar_problem()
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(0.5))
        field = pd_field_special(prob, params)
        # x = z, y = 0 is stationary when f = h = g = 0 and A = Id
        got = field.fn(0.0, np.array([2.0, 2.0, 0.0]))
        assert np.allclose(got, 0.0)

    def test_saddle_point_gives_zero_field(self):
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        tau = 0.9 / prob.A.norm_estimate ** 2
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(tau))
        field = pd_field_special(prob, params)
        got = field.fn(0.0, p.known_solution.to_vector())
        assert np.linalg.norm(got) < 1e-9

    @pytest.mark.parametrize("gamma_relax", [0.0, 0.5, 1.0])
    def test_matches_the_seven_product_formula(self, gamma_relax):
        # the field as first written, with A applied four times and A* three times
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        c = 2.5
        tau = 0.9 / (c * prob.A.norm_estimate ** 2)
        params = PDParams(c=c, gamma_relax=gamma_relax, tau=constant(tau))
        field = pd_field_special(prob, params)
        A, n, m, gam = prob.A, prob.n, prob.m, gamma_relax
        rng = np.random.default_rng(21)
        for _ in range(20):
            u = rng.standard_normal(n + 2 * m) * 2
            x, z, y = u[:n], u[n:n + m], u[n + m:]
            w1 = (x - c * tau * A.adjoint(A(x)) + c * tau * A.adjoint(z)
                  - tau * A.adjoint(y) - tau * prob.h.gradient(x))
            xdot = prox_eval(prob.f, tau, w1) - x
            w2 = c * A(gam * xdot + x) + y
            ydot = (moreau_conjugate_prox(prob.g, c, w2) - y
                    - c * (gam - 1.0) * A(xdot))
            zdot = A(x + xdot) - ydot / c - z
            want = np.concatenate([xdot, zdot, ydot])
            assert np.max(np.abs(field.fn(0.0, u) - want)) < 1e-12

    def test_tau_constraint_enforced(self):
        # a constant tau is checked once, when the field is built
        prob = scalar_problem(a=2.0)  # ||A||^2 = 4
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(0.5))
        with pytest.raises(SpecError):
            pd_field_special(prob, params)


def solved_linearized_metric(prob, tau, c):
    """The linearized metric over a LinearMap distinct from prob.A with the same apply
    and adjoint, so that pd_field_general solves its x-line with
    solve_prox_quadratic rather than in closed form."""
    A2 = LinearMap(apply=prob.A.apply, adjoint=prob.A.adjoint,
                   norm_estimate=prob.A.norm_estimate)
    metric = LinearizedMetric(tau=tau, c=c, A=A2)
    return lambda t: metric


class TestGeneralField:
    def test_specialization_matches_special_field_pointwise(self):
        # the inner solver against the closed-form x-line of the special field
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        tau = 0.9 / prob.A.norm_estimate ** 2
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(tau))
        special = pd_field_special(prob, params)
        general = pd_field_general(prob, params, solved_linearized_metric(prob, tau, 1.0))
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = rng.standard_normal(prob.n + 2 * prob.m) * 2
            assert np.linalg.norm(general.fn(0.0, u) - special.fn(0.0, u)) < 1e-8

    def test_quadratic_blocks_match_closed_form(self):
        # f, g, h quadratic and A = Id: both resolvent lines are linear solves
        prob = StructuredProblem(f=squared_l2_prox(), h=quadratic_fn(np.eye(2)),
                                 g=squared_l2_prox(),
                                 A=matrix_linear_map(np.eye(2)), n=2, m=2)
        params = PDParams(c=0.5, gamma_relax=1.0, tau=constant(0.9))
        general = pd_field_general(prob, params)
        rng = np.random.default_rng(8)
        c = params.c
        for _ in range(10):
            u = rng.standard_normal(6)
            x, z, y = u[:2], u[2:4], u[4:6]
            # line 1: w  in (I + cI + 0)u1 + grad f... solve (2I + cI... :
            # u1 solves u1 + c*u1 + u1... explicitly: (df + cA*A)u1 = w1 with
            # df(u1) = u1 (f = ||.||^2/2), h grad = x
            w1 = c * z - y - x
            u1 = w1 / (1.0 + c)
            w2 = c * (1.0 * (u1 - x) + x) + y
            u2 = w2 / (1.0 + c)
            want = np.concatenate([u1 - x, u2 - z, c * ((x + u1 - x) - u2)])
            got = general.fn(0.0, u)
            assert np.linalg.norm(got - want) < 1e-8

    def test_trivial_equilibrium(self):
        prob = scalar_problem()
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(0.5))
        general = pd_field_general(prob, params)
        assert np.allclose(general.fn(0.0, np.array([2.0, 2.0, 0.0])), 0.0, atol=1e-12)

    def test_trajectory_equivalence_sup_norm(self):
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        tau = 0.9 / prob.A.norm_estimate ** 2
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(tau))
        M1 = solved_linearized_metric(prob, tau, 1.0)
        cfg = IntegratorConfig(method="rk4", dt=0.02, t_end=20.0, record_every=50)
        u0 = p.default_start.to_vector()
        t_special = integrate(pd_field_special(prob, params), u0, cfg)
        t_general = integrate(pd_field_general(prob, params, M1), u0, cfg)
        sup = np.max(np.linalg.norm(t_special.states - t_general.states, axis=1))
        assert sup < 1e-6

    @pytest.mark.parametrize("c", [1.0, 2.5])
    @pytest.mark.parametrize("gamma_relax", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("varying_tau", [False, True], ids=["constant-tau", "affine-tau"])
    def test_specialization_is_the_special_field_bit_for_bit(self, c, gamma_relax,
                                                             varying_tau):
        # pd_field_special is the metric-scheduled field under special_metric
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        tau_max = 0.9 / (c * prob.A.norm_estimate ** 2)
        tau = (affine_clamped(0.5 * tau_max, 0.01, 0.5 * tau_max, tau_max) if varying_tau
               else constant(tau_max))
        params = PDParams(c=c, gamma_relax=gamma_relax, tau=tau)
        special = pd_field_special(prob, params)
        general = pd_field_general(prob, params, *special_metric(prob, params))
        assert special.breakpoints == tau.breakpoints
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = float(rng.uniform(0.0, 100.0))
            u = rng.standard_normal(prob.n + 2 * prob.m) * 2
            assert general.fn(t, u).tobytes() == special.fn(t, u).tobytes()


PROX_FS = pytest.mark.parametrize("f", [l1_prox(0.7), box_prox(-0.5, 0.25), ball_prox(0.8)],
                                  ids=["l1", "box", "ball"])


class TestLinearizedMetric:
    c = 1.3

    def problem(self, f):
        rng = np.random.default_rng(5)
        A = matrix_linear_map(rng.standard_normal((3, 4)))
        h = least_squares_fn(rng.standard_normal((2, 4)), rng.standard_normal(2))
        return StructuredProblem(f=f, h=h, g=l1_prox(0.4), A=A, n=4, m=3)

    def params(self, prob, c=None):
        return PDParams(c=c or self.c, gamma_relax=0.5,
                        tau=constant(0.9 / (self.c * prob.A.norm_estimate ** 2)))

    def states(self, prob):
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = rng.standard_normal(prob.n + 2 * prob.m) * 2
            yield u[:prob.n], u[prob.n:prob.n + prob.m], u[prob.n + prob.m:]

    def assert_x_line_minimises(self, prob, params, M1, x, z, y, xdot):
        # u = x + xd is the fixed point of a prox-gradient step on
        # f(u) + <Q u, u>/2 - <w, u>, Q = c A*A + M1, w = A*(cz - y) - grad h(x) + M1 x
        eye = np.eye(prob.n)
        Q = np.column_stack([params.c * prob.A.adjoint(prob.A(e)) + M1(e) for e in eye])
        w = prob.A.adjoint(params.c * z - y) - prob.h.gradient(x) + M1(x)
        u, s = x + xdot, 1.0 / np.linalg.norm(Q, 2)
        assert np.max(np.abs(prox_eval(prob.f, s, u - s * (Q @ u - w)) - u)) < 1e-9

    @PROX_FS
    def test_x_line_needs_no_inner_solve_and_matches_it(self, f, monkeypatch):
        prob = self.problem(f)
        params = self.params(prob)
        M1 = special_metric(prob, params)[0](0.0)
        assert isinstance(M1, LinearizedMetric)
        plain = LinearMap(apply=M1.apply, adjoint=M1.adjoint, norm_estimate=M1.norm_estimate)

        def no_solve(*args, **kwargs):
            raise AssertionError("the linearized x-line ran the inner solve")

        for x, z, y in self.states(prob):
            with monkeypatch.context() as mp:
                mp.setattr(primal_dual, "solve_prox_quadratic", no_solve)
                closed = pd_general_increment(prob, params, M1, None, x, z, y)
            solved = pd_general_increment(prob, params, plain, None, x, z, y)
            for a, b in zip(closed, solved):
                assert np.max(np.abs(a - b)) < 1e-10

    @PROX_FS
    def test_metric_for_another_c_or_A_takes_the_inner_solve(self, f, monkeypatch):
        prob = self.problem(f)
        params = self.params(prob)
        twin = self.problem(f)  # the same matrix in another LinearMap counts as another A
        metrics = [special_metric(prob, self.params(prob, c=self.c / 2))[0](0.0),
                   special_metric(twin, params)[0](0.0)]
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_prox_quadratic(*args, **kwargs)

        monkeypatch.setattr(primal_dual, "solve_prox_quadratic", counted)
        for M1 in metrics:
            for x, z, y in self.states(prob):
                before = len(calls)
                xdot = pd_general_increment(prob, params, M1, None, x, z, y)[0]
                assert len(calls) == before + 1
                self.assert_x_line_minimises(prob, params, M1, x, z, y, xdot)

    @pytest.mark.parametrize("gamma_relax", [0.0, 0.5, 1.0])
    def test_general_and_special_x_rates_are_equal(self, gamma_relax):
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        params = PDParams(c=2.5, gamma_relax=gamma_relax,
                          tau=constant(0.9 / (2.5 * prob.A.norm_estimate ** 2)))
        special = pd_field_special(prob, params)
        general = pd_field_general(prob, params, *special_metric(prob, params))
        rng = np.random.default_rng(31)
        for _ in range(20):
            u = rng.standard_normal(prob.n + 2 * prob.m) * 2
            assert np.array_equal(general.fn(0.0, u)[:prob.n], special.fn(0.0, u)[:prob.n])

    def test_step_constraint_checked_at_every_evaluation(self):
        prob = scalar_problem(a=2.0)  # ||A||^2 = 4
        tau = Schedule(fn=lambda t: 0.25 if t < 1.0 else 0.5, dfn=lambda t: 0.0)
        params = PDParams(c=1.0, gamma_relax=1.0, tau=tau)
        M1, M2 = special_metric(prob, params)
        general = pd_field_general(prob, params, M1, M2)
        general.fn(0.0, np.zeros(3))
        with pytest.raises(SpecError):
            general.fn(1.0, np.zeros(3))
        with pytest.raises(SpecError):
            M1(1.0)


class TestSolveProxQuadratic:
    # f = ||u||_1 and Q = diag(1, 10, 1000) separate: u_i = soft(w_i, 1)/q_i
    q = np.array([1.0, 10.0, 1000.0])
    w = np.array([3.0, -25.0, 700.0])
    s_safe = 1.0 / 1000.0

    def solve(self, max_iter=20000, u0=(0.0, 0.0, 0.0)):
        """The solve, with every q_apply point and every (step, prox input) logged."""
        points, prox_calls = [], []
        l1 = l1_prox(1.0)

        def prox(s):
            def logged(v):
                prox_calls.append((s, v.copy()))
                return l1.prox(s)(v)
            return logged

        def q_apply(v):
            points.append(v.copy())
            return self.q * v

        u = solve_prox_quadratic(ProxFunction(value=l1.value, prox=prox), q_apply,
                                 float(self.q.max()), self.w, np.array(u0),
                                 max_iter=max_iter)
        return u, points, prox_calls

    def bases(self, points, prox_calls):
        """The iterate each prox step starts from: the latest of the q_apply
        points 0..i it reproduces (near the solution several points may)."""
        return [max(j for j, p in enumerate(points[:i + 1])
                    if np.array_equal(v, p - s * (self.q * p - self.w)))
                for i, (s, v) in enumerate(prox_calls)]

    def test_diagonal_l1_matches_separable_closed_form(self):
        u, _, _ = self.solve()
        assert np.max(np.abs(u - soft_threshold(self.w, 1.0) / self.q)) < 1e-9

    def test_rejected_trial_step_is_redone_at_the_safe_step(self):
        _, points, prox_calls = self.solve()
        # one q_apply at the start and one per prox evaluation
        assert len(points) == len(prox_calls) + 1
        bases = self.bases(points, prox_calls)
        redone = [i for i in range(1, len(bases)) if bases[i] == bases[i - 1]]
        assert redone, "no trial step was rejected"
        for i in redone:
            assert prox_calls[i - 1][0] > self.s_safe and prox_calls[i][0] == self.s_safe

    def test_trial_step_from_the_solution_is_accepted(self):
        # there the computed decrease is rounding noise, which the floor absorbs
        _, points, prox_calls = self.solve()
        bases = self.bases(points, prox_calls)
        solution = soft_threshold(self.w, 1.0) / self.q
        at_solution = [i for i, (s, _) in enumerate(prox_calls[:-1])
                       if s > self.s_safe and np.max(np.abs(points[bases[i]] - solution)) < 1e-12]
        assert at_solution, "no trial step started at the solution"
        for i in at_solution:
            assert bases[i + 1] == i + 1  # the next step starts from the trial's result

    @pytest.mark.parametrize("q_norm", [0.0, np.nan])
    def test_q_norm_must_be_positive(self, q_norm):
        with pytest.raises(ValueError, match="q_norm must be a positive"):
            solve_prox_quadratic(l1_prox(1.0), lambda v: v, q_norm, self.w, np.zeros(3))

    def test_ill_conditioned_start_takes_few_prox_evaluations(self):
        # without the floor, rounding-level rejections alternate s = 1 and
        # s_safe here for 4,479 prox evaluations
        u, _, prox_calls = self.solve(u0=(5.0, 5.0, 5.0))
        assert len(prox_calls) <= 100
        assert np.max(np.abs(u - soft_threshold(self.w, 1.0) / self.q)) < 1e-9

    @PROX_FS
    def test_identity_block_in_closed_form_matches_the_inner_solve(self, f):
        c = 1.7
        rng = np.random.default_rng(9)
        for _ in range(10):
            w, u0 = rng.standard_normal(4) * 3, rng.standard_normal(4)
            closed = prox_eval(f, 1.0 / c, w / c)  # the z-line's closed form
            solved = solve_prox_quadratic(f, lambda v: c * v, c, w, u0)
            assert np.max(np.abs(closed - solved)) < 1e-10

    def test_budget_exhausted_raises_with_finite_residual(self):
        with pytest.raises(SolverError) as err:
            self.solve(max_iter=2)
        assert np.isfinite(err.value.residual) and err.value.residual > 0

    def test_diverging_general_metric_run_reaches_the_divergence_guard(self):
        # the state grows past 5e11, where one ulp exceeds an absolute 1e-10
        # move; the stop test relative to the iterate lets each solve return
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        M1 = LinearMap(apply=lambda v: 0.01 * v, adjoint=lambda v: 0.01 * v,
                       norm_estimate=0.01)
        field = pd_field_general(prob, PDParams(c=1.0, gamma_relax=1.0, tau=constant(0.26)),
                                 M1=lambda t: M1)
        cfg = IntegratorConfig(method="rk4", dt=0.05, t_end=5.0)
        with pytest.raises(DivergenceError) as err:
            integrate(field, p.default_start.to_vector(), cfg)
        assert err.value.last_finite_t == pytest.approx(0.5)
        assert len(err.value.trajectory.times) == 11
        assert np.all(np.isfinite(err.value.trajectory.states))


class TestLagrangian:
    def test_coupling_arithmetic(self):
        prob = scalar_problem()
        got = lagrangian_eval(prob, PDState(x=np.array([1.0]), z=np.array([2.0]),
                                            y=np.array([3.0])))
        assert got == -3.0

    def test_coupling_vanishes_when_feasible(self):
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        s = p.known_solution
        want = prob.f.value(s.x) + prob.h.value(s.x) + prob.g.value(s.z)
        assert lagrangian_eval(prob, s) == pytest.approx(want, abs=1e-12)

    def test_quadratic_primal_value(self):
        prob = scalar_problem(h=quadratic_fn(np.eye(1)))
        x = np.array([2.0])
        got = lagrangian_eval(prob, PDState(x=x, z=x, y=np.array([5.0])))
        assert got == pytest.approx(2.0)

    def test_saddle_inequalities_on_random_probes(self):
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        s = p.known_solution
        l_star = lagrangian_eval(prob, s)
        rng = np.random.default_rng(13)
        for _ in range(100):
            y_pert = s.y + rng.standard_normal(prob.m)
            x_pert = s.x + rng.standard_normal(prob.n)
            z_pert = s.z + rng.standard_normal(prob.m)
            assert lagrangian_eval(prob, PDState(s.x, s.z, y_pert)) <= l_star + 1e-6
            assert l_star <= lagrangian_eval(prob, PDState(x_pert, z_pert, s.y)) + 1e-6


class TestProbesAndResiduals:
    def test_consistency_probe_is_machine_zero_along_run(self):
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        tau = 0.9 / prob.A.norm_estimate ** 2
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(tau))
        cfg = IntegratorConfig(method="rk4", dt=0.02, t_end=5.0, record_every=25)
        traj = integrate(pd_field_special(prob, params), p.default_start.to_vector(),
                         cfg, probes=pd_probes(prob, params))
        assert np.max(traj.records["pd_consistency"]) < 1e-12
        assert {"feas_norm", "lagrangian", "block_residuals"} <= set(traj.records)

    def test_saddle_residuals_vanish_at_solution(self):
        p = get_problem("pd_lasso_analysis")
        res = saddle_residuals(p.components["structured"], p.known_solution)
        assert max(res.values()) < 1e-9

    def test_special_metric_is_psd_on_probe(self):
        p = get_problem("pd_lasso_analysis")
        prob = p.components["structured"]
        tau = 0.9 / prob.A.norm_estimate ** 2
        params = PDParams(c=1.0, gamma_relax=1.0, tau=constant(tau))
        M1, _ = special_metric(prob, params)
        dense = np.column_stack([M1(0.0)(e) for e in np.eye(prob.n)])
        sym = 0.5 * (dense + dense.T)
        assert np.linalg.eigvalsh(sym).min() >= -1e-12
