import numpy as np
import pytest

from splitflow.algorithms import run_sequence
from splitflow.diagnostics import nonincreasing_check
from splitflow.errors import FitError, SpecError
from splitflow.integrate import IntegratorConfig, integrate
from splitflow.nonconvex import (NonconvexProblem, arclength_series,
                                 brute_force_critical_points, check_eta,
                                 critical_residual, lojasiewicz_fit, merit_eval,
                                 merit_series, merit_subgradient, merit_subgradient_norm,
                                 nonconvex_probes, proxgrad_field, proxgrad_increment,
                                 subgradient_norm_series)
from splitflow.operators import (SmoothFunction, l1_prox, one_minus_cos_fn,
                                 quadratic_fn, soft_threshold, zero_prox)
from splitflow.problems import get_problem


class TestCheckEta:
    def test_arithmetic(self):
        assert check_eta(1.0, 0.25) is True      # 0.8125
        assert check_eta(1.0, 0.31) is False     # 1.026
        assert check_eta(2.0, 0.125) is True     # scale invariance in eta*beta

    def test_problem_constructor_enforces_it(self):
        with pytest.raises(SpecError):
            NonconvexProblem(f=zero_prox(), g=one_minus_cos_fn(), eta=0.31)


class TestProxGradField:
    def test_smooth_quadratic_direct(self):
        p = NonconvexProblem(f=zero_prox(), g=quadratic_fn(np.eye(1)), eta=0.2)
        got = proxgrad_field(p).fn(0.0, np.array([1.0]))
        assert got[0] == pytest.approx(-0.2, abs=1e-15)

    def test_field_vanishes_at_critical_point(self):
        p = get_problem("nonconvex_cos").components["problem"]
        assert np.allclose(proxgrad_field(p).fn(0.0, np.zeros(1)), 0.0)

    def test_soft_threshold_arithmetic(self):
        # f = 0.1|x|, g = 1 - cos, eta = 0.25 at x = pi/2:
        # soft(pi/2 - 0.25, 0.025) - pi/2 = -0.275
        p = NonconvexProblem(f=l1_prox(0.1), g=one_minus_cos_fn(), eta=0.25)
        got = proxgrad_field(p).fn(0.0, np.array([np.pi / 2]))
        assert got[0] == pytest.approx(-0.275, abs=1e-14)
        # cross-check by a grid prox oracle
        grid = np.arange(-5.0, 5.0, 1e-5)
        vals = 0.25 * 0.1 * np.abs(grid) + 0.5 * (grid - (np.pi / 2 - 0.25)) ** 2
        oracle = grid[np.argmin(vals)] - np.pi / 2
        assert abs(oracle - got[0]) < 1e-4


class TestMerit:
    def test_trivial_zero(self):
        p = NonconvexProblem(f=zero_prox(), g=quadratic_fn(np.zeros((1, 1))), eta=0.25)
        assert merit_eval(p, np.array([1.0]), np.array([1.0])) == 0.0

    def test_plug_in_arithmetic(self):
        p = NonconvexProblem(f=zero_prox(), g=quadratic_fn(np.eye(1)), eta=0.25)
        got = merit_eval(p, np.array([1.0]), np.array([0.0]))
        assert got == pytest.approx(2.5)

    def test_quadratic_term_vanishes_at_diagonal(self):
        p = get_problem("nonconvex_cos").components["problem"]
        x = np.array([0.7])
        want = p.f.value(x) + p.g.value(x)
        assert merit_eval(p, x, x) == pytest.approx(want)


class TestSelfDotsMatchMatmul:
    def test_merit_and_subgradient_norm_bit_for_bit(self):
        p = NonconvexProblem(f=l1_prox(0.1), g=one_minus_cos_fn(), eta=0.25)
        rng = np.random.default_rng(4)
        for n in range(1, 17):
            for _ in range(10):
                u, v = (rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n)
                        for _ in range(2))
                d = u - v
                want = float(p.f.value(u) + p.g.value(u) + float(d @ d) / (2.0 * p.eta))
                assert merit_eval(p, u, v) == want
                b1, b2 = merit_subgradient(p, u, v)
                want = float(np.sqrt(float(b1 @ b1) + float(b2 @ b2)))
                assert merit_subgradient_norm(p, u, v) == want


class TestMeritSubgradient:
    def test_zero_at_stationarity(self):
        p = get_problem("nonconvex_cos").components["problem"]
        assert merit_subgradient_norm(p, np.zeros(1), np.zeros(1)) == 0.0

    def test_linear_g_first_block_cancels(self):
        g = SmoothFunction(value=lambda x: 3.0 * float(np.sum(x)),
                           gradient=lambda x: np.full_like(np.asarray(x, float), 3.0),
                           grad_lipschitz=0.0, convex=True)
        p = NonconvexProblem(f=zero_prox(), g=g, eta=0.5)
        d = np.array([0.4, -0.2])
        got = merit_subgradient_norm(p, np.array([1.0, 1.0]), d)
        assert got == pytest.approx(np.linalg.norm(d) / 0.5)

    def test_upper_bound_constant(self):
        rng = np.random.default_rng(0)
        p = get_problem("nonconvex_cos").components["problem"]
        bound = p.g.grad_lipschitz + 1.0 / p.eta
        for _ in range(200):
            x = rng.standard_normal(1) * 3
            v = rng.standard_normal(1) * 2
            assert merit_subgradient_norm(p, x, v) <= bound * np.linalg.norm(v) + 1e-10


class TestCriticalResidual:
    def test_zero_at_critical(self):
        p = get_problem("nonconvex_cos").components["problem"]
        assert critical_residual(p, np.zeros(1)) == 0.0

    def test_reduces_to_gradient_norm_without_f(self):
        p = NonconvexProblem(f=zero_prox(), g=quadratic_fn(np.eye(2)), eta=0.2)
        x = np.array([1.0, -2.0])
        assert critical_residual(p, x) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_origin_of_cos_problem_is_critical(self):
        # 0 in [-0.1, 0.1] + sin(0)
        p = NonconvexProblem(f=l1_prox(0.1), g=one_minus_cos_fn(), eta=0.25)
        assert critical_residual(p, np.zeros(1)) == 0.0


class TestBruteForceCriticals:
    def test_finds_known_critical_set(self):
        p = get_problem("nonconvex_cos").components["problem"]
        crits = brute_force_critical_points(p, -8.0, 8.0, step=1e-3)
        # sin(x) = -sgn(x)*0.1 near +-(2*pi - asin(0.1)), plus the kink at 0
        expected = [-(2 * np.pi - np.arcsin(0.1)), -(np.pi + np.arcsin(0.1)), 0.0,
                    np.pi + np.arcsin(0.1), 2 * np.pi - np.arcsin(0.1)]
        for e in expected:
            assert np.min(np.abs(crits - e)) < 1e-5

    def test_grid_is_scanned_in_one_stacked_call_to_the_same_hits(self):
        p = get_problem("nonconvex_cos").components["problem"]
        xs = np.arange(-8.0, 8.0 + 1e-3, 1e-3)
        per_point = np.array([critical_residual(p, np.array([x])) for x in xs])
        assert critical_residual(p, xs[:, None]).tobytes() == per_point.tobytes()
        # the hits of a scan that calls critical_residual once per grid point
        crits = brute_force_critical_points(p, -8.0, 8.0, step=1e-3)
        assert [x.hex() for x in crits.tolist()] == [
            "-0x1.8bb690a6baa0ap+2", "-0x1.9ef1fe7f41dcap+1", "-0x1.16a965e083ffap-36",
            "0x1.9ef1fe7f44ccap+1", "0x1.8bb690a6bc18ap+2"]


@pytest.fixture(scope="module")
def cos_run():
    p = get_problem("nonconvex_cos").components["problem"]
    cfg = IntegratorConfig(method="rk4", dt=0.005, t_end=200.0, record_every=100)
    traj = integrate(proxgrad_field(p), np.array([2.5]), cfg, probes=nonconvex_probes(p))
    return p, traj


class TestTrajectoryProperties:
    def test_merit_nonincreasing_with_quantified_decrease(self, cos_run):
        p, traj = cos_run
        H = merit_series(p, traj)
        assert nonincreasing_check(traj.times, H, abs_slack=1e-8)["pass"]
        # discrete surrogate of the decrease inequality, right-endpoint speeds
        coef = p.descent_coefficient
        speeds = np.linalg.norm(traj.velocities, axis=1)
        for k in range(len(H) - 1):
            dt = traj.times[k + 1] - traj.times[k]
            assert H[k + 1] - H[k] <= -coef * speeds[k + 1] ** 2 * dt + 1e-8

    def test_subgradient_bound_along_run(self, cos_run):
        p, traj = cos_run
        bound = p.g.grad_lipschitz + 1.0 / p.eta
        Z = subgradient_norm_series(p, traj)
        speeds = np.linalg.norm(traj.velocities, axis=1)
        assert np.all(Z <= bound * speeds + 1e-10)

    def test_arclength_tail_small(self, cos_run):
        p, traj = cos_run
        arc = arclength_series(traj)
        half = np.searchsorted(traj.times, traj.times[-1] / 2)
        assert arc[-1] - arc[half] < 0.05 * arc[-1]

    def test_velocity_vanishes(self, cos_run):
        _, traj = cos_run
        assert np.linalg.norm(traj.final_velocity) < 1e-5

    def test_limit_is_critical_and_near_brute_force_set(self, cos_run):
        p, traj = cos_run
        assert critical_residual(p, traj.final_state) < 1e-5
        crits = brute_force_critical_points(p, -8.0, 8.0, step=1e-3)
        assert np.min(np.abs(crits - traj.final_state[0])) < 1e-3

    def test_coercive_run_stays_in_initial_sublevel_set(self, cos_run):
        # f + g is coercive; sup ||x(t)|| is bounded by the radius of the
        # sublevel set at the initial merit value (grid search)
        p, traj = cos_run
        H0 = merit_series(p, traj)[0]
        grid = np.arange(-50.0, 50.0, 1e-2)
        vals = 0.1 * np.abs(grid) + (1.0 - np.cos(grid))
        radius = np.max(np.abs(grid[vals <= H0]))
        assert np.max(np.abs(traj.states)) <= radius

    def test_probes_present(self, cos_run):
        _, traj = cos_run
        assert {"merit_H", "merit_subgrad", "crit_residual", "speed",
                "arclength"} == set(traj.records)
        assert np.all(np.diff(traj.records["arclength"]) >= -1e-15)

    def test_arclength_probe_restarts_when_the_list_is_reused(self):
        # the probe is a function of the stacked records alone, in a flow run and
        # in a discrete run (the unit step) alike
        p = get_problem("nonconvex_cos").components["problem"]
        probes = nonconvex_probes(p)
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=20.0, record_every=10)
        runs = [integrate(proxgrad_field(p), np.array([2.5]), cfg, probes=probes)
                for _ in range(2)]
        prox = p.f.prox(p.eta)
        step = lambda n, x, x_prev: x + proxgrad_increment(prox, p.eta, p.g.gradient, x)
        runs += [run_sequence(step, np.array([2.5]), 200, probes=probes) for _ in range(2)]
        for first, second in (runs[:2], runs[2:]):
            assert np.array_equal(first.records["arclength"], second.records["arclength"])
        for traj in runs:
            assert np.array_equal(traj.records["arclength"], arclength_series(traj))


class TestLojasiewiczFit:
    def test_quadratic_flow_recovers_half(self):
        p = NonconvexProblem(f=zero_prox(), g=quadratic_fn(np.eye(1)), eta=0.2)
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=150.0, record_every=50)
        traj = integrate(proxgrad_field(p), np.array([3.0]), cfg)
        report = lojasiewicz_fit(traj, p)
        assert 0.4 <= report.exponent_estimate <= 0.6
        assert report.r2 > 0.99

    def test_cos_flow_exponent_in_range(self, cos_run):
        p, traj = cos_run
        report = lojasiewicz_fit(traj, p)
        assert 0.0 < report.exponent_estimate < 1.0
        assert report.r2 > 0.9

    def test_unconverged_tail_rejected(self):
        p = NonconvexProblem(f=zero_prox(), g=quadratic_fn(np.eye(1)), eta=0.2)
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=1.0, record_every=1)
        traj = integrate(proxgrad_field(p), np.array([3.0]), cfg)
        with pytest.raises(FitError):
            lojasiewicz_fit(traj, p)

    def test_an_infinite_subgradient_norm_in_the_window_is_rejected(self):
        # the fit's mask keeps Z > 0, so an inf passed it and reached the log-log fit
        g = quadratic_fn(np.eye(1))
        p = NonconvexProblem(f=zero_prox(), g=g, eta=0.2)
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=150.0, record_every=50)
        traj = integrate(proxgrad_field(p), np.array([3.0]), cfg)
        gap = merit_series(p, traj) - merit_series(p, traj)[-1]
        k = np.flatnonzero((gap >= 1e-10) & (gap <= 1e-2))[3]
        u = traj.states[k] + traj.velocities[k]
        # the same problem, with a gradient that overflows at the one point u
        spiked = SmoothFunction(value=g.value, grad_lipschitz=1.0,
                                gradient=lambda x: np.where(x == u, np.inf, x))
        q = NonconvexProblem(f=zero_prox(), g=spiked, eta=0.2)
        assert np.isinf(subgradient_norm_series(q, traj)[k])
        with pytest.raises(FitError, match="finite"):
            lojasiewicz_fit(traj, q)
