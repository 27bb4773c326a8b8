import json

import numpy as np
import pytest

from splitflow.config import config_from_dict
from splitflow.diagnostics import (proxgrad_gap_certificate, envelope_slope,
                                   fejer_check, objective_gap_check, nonincreasing_check,
                                   km_residual_rate_check, rate_fit)
from splitflow.errors import FitError, HypothesisError
from splitflow.first_order import FBFlowSpec, KMFlowSpec, fb_field, fb_probes, km_field, \
    km_probes
from splitflow.integrate import IntegratorConfig, Trajectory, integrate
from splitflow.operators import quadratic_fn, rotation_map
from splitflow.problems import get_problem
from splitflow.schedules import Schedule, constant


def make_traj(times, values_1d, records=None):
    states = np.asarray(values_1d, dtype=float).reshape(-1, 1)
    return Trajectory(times=np.asarray(times, dtype=float), states=states,
                      velocities=np.zeros_like(states), records=records or {})


class TestMonotoneChecks:
    def test_constant_series_passes(self):
        traj = make_traj([0, 1, 2], [1.0, 1.0, 1.0])
        assert fejer_check(traj, np.zeros(1))["pass"]

    def test_increasing_series_fails_at_first_rise(self):
        report = nonincreasing_check([0.0, 1.0, 2.0], [1.0, 2.0, 1.5])
        assert not report["pass"]
        assert report["first_violation_t"] == 1.0
        assert report["margin"] == pytest.approx(1.0)

    def test_km_rotation_run_passes(self):
        spec = KMFlowSpec(T=rotation_map(np.pi / 3), lam=constant(0.6))
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=20.0, record_every=10)
        traj = integrate(km_field(spec), np.array([1.0, 0.5]), cfg,
                         probes=km_probes(spec, ref=np.zeros(2)))
        assert fejer_check(traj, np.zeros(2))["pass"]

    def test_slack_tolerates_rounding(self):
        report = nonincreasing_check([0, 1], [1.0, 1.0 + 1e-10])
        assert report["pass"]

    @pytest.mark.parametrize("values,first", [([1.0, np.nan, 5.0], 1.0),
                                              ([1.0, 0.5, np.nan], 2.0),
                                              ([np.nan, 1.0, 0.5], 1.0)])
    def test_nan_counts_as_a_violation(self, values, first):
        report = nonincreasing_check([0.0, 1.0, 2.0], values)
        assert not report["pass"]
        assert report["first_violation_t"] == first

    def test_a_rise_to_inf_fails_and_a_fall_from_inf_passes(self):
        # the rounding allowance scales with the finite magnitudes alone
        report = nonincreasing_check([0.0, 1.0], [1.0, np.inf])
        assert not report["pass"]
        assert report["first_violation_t"] == 1.0
        assert nonincreasing_check([0.0, 1.0], [np.inf, 1.0])["pass"]


class TestIstaGapCheck:
    def test_boundary_series_passes_with_equality(self):
        times = np.linspace(1.0, 10.0, 10)
        gaps = 1.0 / times
        report = objective_gap_check(times, gaps, d0_sq_over_2gamma=1.0)
        assert report["pass"]

    def test_violating_series_fails(self):
        times = np.array([1.0, 2.0])
        gaps = np.array([2.0, 0.5])  # 2 > 1/1
        report = objective_gap_check(times, gaps, d0_sq_over_2gamma=1.0)
        assert not report["pass"]
        assert report["first_violation_t"] == 1.0

    def test_zero_gap_trivially_passes(self):
        times = np.linspace(0.0, 5.0, 6)
        report = objective_gap_check(times, np.zeros(6), d0_sq_over_2gamma=0.0)
        assert report["pass"]

    def test_nan_gap_fails(self):
        report = objective_gap_check([0.0, 1.0, 2.0], [1.0, np.nan, np.nan],
                                     d0_sq_over_2gamma=1.0)
        assert not report["pass"]
        assert report["first_violation_t"] == 1.0
        assert not report["monotone"]

    def test_nan_gap_fails_the_bound_alone(self):
        # a single positive time has no pair for the monotonicity check
        report = objective_gap_check([1.0], [np.nan], d0_sq_over_2gamma=1.0)
        assert report["monotone"]
        assert not report["pass"]

    def test_hypothesis_error_for_bad_step(self):
        p = get_problem("lasso1d")
        spec = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=0.5,
                          lam=constant(1.0))
        cfg = IntegratorConfig(method="rk4", dt=0.05, t_end=1.0)
        traj = integrate(fb_field(spec), np.array([1.0]), cfg)
        with pytest.raises(HypothesisError):
            proxgrad_gap_certificate(traj, p.components["f"], p.components["g"],
                                  gamma=0.5, xstar=p.known_solution)

    def test_certificate_passes_on_lasso_run(self):
        p = get_problem("lasso1d")
        gamma = 0.25  # gamma*L*(3 + gamma*L) = 0.8125 <= 1
        spec = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=gamma,
                          lam=constant(1.0))
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=50.0, record_every=10)
        traj = integrate(fb_field(spec), np.array([4.0]), cfg)
        report = proxgrad_gap_certificate(traj, p.components["f"], p.components["g"],
                                       gamma=gamma, xstar=p.known_solution)
        assert report["pass"], report
        assert report["monotone"]


class TestRateFit:
    def test_power_model_recovers_planted_exponent(self):
        t = np.linspace(1.0, 50.0, 100)
        fit = rate_fit(t, 5.0 / t ** 2, model="power")
        assert abs(fit.exponent - 2.0) < 0.01
        assert fit.r2 > 0.999
        assert abs(fit.coefficient - 5.0) < 0.05

    def test_exponential_model_recovers_planted_rate(self):
        t = np.linspace(0.0, 20.0, 100)
        fit = rate_fit(t, 3.0 * np.exp(-0.7 * t), model="exponential")
        assert abs(fit.exponent - 0.7) < 0.01
        assert fit.r2 > 0.999

    def test_strongly_monotone_fb_flow_is_exponential(self):
        p = get_problem("strongcvx_l1")
        beta = p.components["beta"]
        spec = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=beta,
                          lam=constant(0.75))
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=60.0, record_every=10)
        traj = integrate(fb_field(spec), p.default_start, cfg,
                         probes=fb_probes(spec, ref=p.known_solution))
        dist = traj.records["dist_to_ref"]
        mask = (traj.times >= 10.0) & (dist > 1e-13)
        fit = rate_fit(traj.times[mask], dist[mask], model="exponential")
        assert fit.r2 > 0.99

    def test_errors(self):
        with pytest.raises(FitError):
            rate_fit(np.linspace(1, 2, 5), np.ones(5))  # too few points
        with pytest.raises(FitError):
            rate_fit(np.linspace(1, 2, 20), np.linspace(-1, 1, 20))  # nonpositive

    @pytest.mark.parametrize("model", ["power", "exponential"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_nan_or_inf_value_is_rejected(self, bad, model):
        t = np.linspace(1.0, 50.0, 100)
        values = 5.0 / t ** 2
        values[40] = bad
        # a NaN fails the positivity test, an inf the finite test of the fit's logs
        message = "finite positive" if np.isnan(bad) else "finite coordinates"
        with pytest.raises(FitError, match=message):
            rate_fit(t, values, model=model)


class TestRate2Inequality:
    def _km_run(self, lam_value):
        spec = KMFlowSpec(T=rotation_map(np.pi / 2), lam=constant(lam_value))
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=50.0)
        return integrate(km_field(spec), np.array([1.0, 0.0]), cfg,
                         probes=km_probes(spec)), constant(lam_value)

    def test_zero_residual_trivially_passes(self):
        times = np.linspace(0.0, 5.0, 51)
        traj = Trajectory(times=times, states=np.zeros((51, 1)),
                          velocities=np.zeros((51, 1)),
                          records={"fp_residual": np.zeros(51)})
        assert km_residual_rate_check(traj, constant(0.5))["pass"]

    def test_rotation_run_passes_everywhere(self):
        traj, lam = self._km_run(0.5)
        report = km_residual_rate_check(traj, lam)
        assert report["pass"], report

    def test_corrupted_residual_fails(self):
        # a growing residual violates the averaged-tail bound
        traj, lam = self._km_run(0.5)
        bad = dict(traj.records)
        bad["fp_residual"] = 1.0 + traj.times
        corrupted = Trajectory(times=traj.times, states=traj.states,
                               velocities=traj.velocities, records=bad)
        report = km_residual_rate_check(corrupted, lam)
        assert not report["pass"]
        assert report["first_violation_t"] is not None

    def test_nan_residual_fails(self):
        traj, lam = self._km_run(0.5)
        bad = dict(traj.records)
        bad["fp_residual"] = traj.records["fp_residual"].copy()
        bad["fp_residual"][300] = np.nan
        corrupted = Trajectory(times=traj.times, states=traj.states,
                               velocities=traj.velocities, records=bad)
        report = km_residual_rate_check(corrupted, lam)
        assert not report["pass"]
        assert report["first_violation_t"] == traj.times[300]

    def test_lambda_hypothesis_enforced(self):
        traj, _ = self._km_run(0.5)
        with pytest.raises(HypothesisError):
            km_residual_rate_check(traj, constant(1.0))

    def test_nan_lambda_fails_the_hypothesis(self):
        traj, _ = self._km_run(0.5)
        with pytest.raises(HypothesisError):
            km_residual_rate_check(traj, Schedule(fn=lambda t: np.nan * t, dfn=lambda t: 0.0))


class TestEnvelopeAndJson:
    def test_envelope_needs_enough_windows(self):
        with pytest.raises(FitError):
            envelope_slope(np.linspace(0, 1, 10), np.ones(10), window=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_envelope_rejects_a_nan_or_inf_value(self, bad):
        t = np.linspace(1.0, 50.0, 500)
        values = 1.0 / t
        values[200] = bad
        message = "finite and positive" if np.isnan(bad) else "finite coordinates"
        with pytest.raises(FitError, match=message):
            envelope_slope(t, values, window=5.0)

    def test_report_serializes_with_required_keys(self):
        report = nonincreasing_check([0, 1], [1.0, 0.5], name="demo")
        payload = json.loads(json.dumps(report, default=float))
        assert {"check", "pass", "first_violation_t", "margin"} <= set(payload)


def _config_run(problem_name, flow, integrator):
    """The trajectory of a config run, with the problem it ran on."""
    cfg = config_from_dict({"problem": problem_name, "flow": flow, "integrator": integrator})
    problem, field, probes, x0, _, icfg, _ = cfg.run
    return problem, integrate(field, x0, icfg, probes=probes)


@pytest.fixture(scope="module")
def rotation_km_run():
    """The benchmark's rotation2d km run: lambda 0.7, RK4 dt 0.05 to the horizon."""
    horizon = get_problem("rotation2d").horizon
    return _config_run("rotation2d", {"name": "km", "lambda": {"family": "constant",
                                                               "value": 0.7}},
                       {"method": "rk4", "dt": 0.05, "t_end": horizon,
                        "record_every": int(round(horizon / 0.05 / 100))})


@pytest.fixture(scope="module")
def certified_lasso_run():
    """The benchmark's lasso1d-fb-certified run: gamma 0.25, relaxation 1."""
    return _config_run("lasso1d", {"name": "fb", "gamma": 0.25,
                                   "lambda": {"family": "constant", "value": 1.0}},
                       {"method": "rk4", "dt": 0.05, "t_end": 100.0, "record_every": 20})


class TestNegativeControls:
    """A check that passes at the true x* must fail at an x* shifted by a fraction of
    ||x0 - x*||, or a pass says nothing."""

    FRACTIONS = (1e-4, 1e-2, 0.5)

    @staticmethod
    def _shift(traj, xstar, frac, direction):
        return xstar + frac * np.linalg.norm(traj.states[0] - xstar) * direction

    def test_fejer_check_passes_at_the_fixed_point(self, rotation_km_run):
        problem, traj = rotation_km_run
        assert fejer_check(traj, problem.known_solution)["pass"]

    @pytest.mark.parametrize("frac", FRACTIONS)
    def test_fejer_check_fails_at_shifted_fixed_points(self, rotation_km_run, frac):
        problem, traj = rotation_km_run
        directions = np.random.default_rng(0).standard_normal((8, 2))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        passed = [fejer_check(traj, self._shift(traj, problem.known_solution, frac, d))["pass"]
                  for d in directions]
        assert not any(passed)

    def _certificate(self, run, xstar):
        problem, traj = run
        f, g = problem.components["f"], problem.components["g"]
        return proxgrad_gap_certificate(traj, f, g, 0.25, xstar)

    def test_gap_certificate_passes_at_the_minimizer(self, certified_lasso_run):
        problem, _ = certified_lasso_run
        assert self._certificate(certified_lasso_run, problem.known_solution)["pass"]

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("frac", FRACTIONS)
    def test_gap_certificate_fails_at_shifted_minimizers(self, certified_lasso_run, frac,
                                                         sign):
        problem, traj = certified_lasso_run
        xstar = self._shift(traj, problem.known_solution, frac, np.array([sign]))
        assert not self._certificate(certified_lasso_run, xstar)["pass"]
