import numpy as np
import pytest

from splitflow.diagnostics import fejer_check, record_monotone_check
from splitflow.errors import SpecError
from splitflow.first_order import (DRFlowSpec, FBFFlowSpec, FBFlowSpec, KMFlowSpec,
                                   dr_field, dr_operator, dr_probes, fb_field, fb_probes,
                                   fbf_field, fbf_probes, km_field, km_probes)
from splitflow.integrate import IntegratorConfig, integrate
from splitflow.operators import (SingleValuedMap, box_prox, gradient_map,
                                 identity_operator, l1_prox, least_squares_fn,
                                 matrix_operator, rotation_map, subdifferential_map,
                                 zero_operator)
from splitflow.problems import get_problem
from splitflow.schedules import constant


def neg_id():
    return SingleValuedMap(fn=lambda x: -np.asarray(x, dtype=float), lipschitz_L=1.0)


class TestKMField:
    def test_identity_gives_zero_field(self):
        spec = KMFlowSpec(T=SingleValuedMap(fn=lambda x: np.asarray(x, float).copy(),
                                            lipschitz_L=1.0), lam=constant(0.8))
        field = km_field(spec)
        assert np.allclose(field.fn(0.0, np.array([2.0, -1.0])), 0.0)

    def test_neg_identity_direct_evaluation(self):
        spec = KMFlowSpec(T=neg_id(), lam=constant(1.0))
        assert km_field(spec).fn(0.0, np.array([3.0]))[0] == -6.0

    def test_rotation_half_relaxation(self):
        spec = KMFlowSpec(T=rotation_map(np.pi / 2), lam=constant(0.5))
        got = km_field(spec).fn(0.0, np.array([1.0, 0.0]))
        assert np.allclose(got, [-0.5, 0.5])

    def test_lambda_bound_violation_is_hard_error(self):
        with pytest.raises(SpecError):
            KMFlowSpec(T=neg_id(), lam=constant(1.5))

    def test_averaged_extends_lambda_range(self):
        spec = KMFlowSpec(T=neg_id(), lam=constant(1.5), averaged_alpha=0.5)
        assert spec.lambda_cap == 2.0

    def test_expansive_map_rejected(self):
        bad = SingleValuedMap(fn=lambda x: 2.0 * np.asarray(x, float), lipschitz_L=2.0)
        with pytest.raises(SpecError):
            KMFlowSpec(T=bad, lam=constant(0.5))

    def test_nan_lipschitz_bound_rejected(self):
        bad = SingleValuedMap(fn=np.negative, lipschitz_L=np.nan)
        with pytest.raises(SpecError, match="nonexpansive"):
            KMFlowSpec(T=bad, lam=constant(0.5))


class TestFBField:
    def test_equilibrium_field_vanishes(self):
        p = get_problem("constrained_quadratic")
        spec = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=1.0,
                          lam=constant(1.0))
        field = fb_field(spec)
        assert np.allclose(field.fn(0.0, p.known_solution), 0.0, atol=1e-15)

    def test_direct_evaluation_quadratic(self):
        # A = 0, B = grad(||x||^2/2), gamma = lam = 1: J_0(x - x) - x = -x
        B = gradient_map(least_squares_fn(np.eye(1), np.zeros(1)))
        spec = FBFlowSpec(A=zero_operator(), B=B, gamma=1.0, lam=constant(1.0))
        assert fb_field(spec).fn(0.0, np.array([2.0]))[0] == -2.0

    def test_direct_evaluation_projection(self):
        A = subdifferential_map(box_prox(0.0, np.inf))
        B = gradient_map(least_squares_fn(np.eye(1), np.array([2.0])))
        spec = FBFlowSpec(A=A, B=B, gamma=1.0, lam=constant(1.0))
        assert fb_field(spec).fn(0.0, np.array([0.0]))[0] == 2.0

    def test_gamma_range_enforced(self):
        B = gradient_map(least_squares_fn(np.eye(1), np.zeros(1)))  # beta = 1
        with pytest.raises(SpecError):
            FBFlowSpec(A=zero_operator(), B=B, gamma=2.0, lam=constant(1.0))

    def test_lambda_capped_by_delta(self):
        B = gradient_map(least_squares_fn(np.eye(1), np.zeros(1)))
        with pytest.raises(SpecError):
            FBFlowSpec(A=zero_operator(), B=B, gamma=1.0, lam=constant(1.6))  # delta=1.5

    def test_tikhonov_sign_switch(self):
        B = gradient_map(least_squares_fn(np.eye(1), np.zeros(1)))
        x = np.array([2.0])
        for sign in (1.0, -1.0):
            spec = FBFlowSpec(A=zero_operator(), B=B, gamma=0.5, lam=constant(1.0),
                              epsilon=constant(0.1), tikhonov_sign=sign)
            got = fb_field(spec).fn(0.0, x)[0]
            want = (x[0] - 0.5 * x[0] + sign * 0.1 * x[0]) - x[0]
            assert got == pytest.approx(want, abs=1e-15)

    def test_gradient_constant_on_zero_set(self):
        # duplicated-column lasso: solutions form a segment, grad g is constant on it
        A_mat = np.array([[1.0, 1.0]])
        b, mu = np.array([2.0]), 0.5
        g = least_squares_fn(A_mat, b)
        f = l1_prox(mu)
        A = subdifferential_map(f)
        B = gradient_map(g)
        s = b[0] - mu  # optimal value of x1 + x2
        zeros = [np.array([s, 0.0]), np.array([0.0, s]), np.array([s / 2, s / 2])]
        grads = []
        for z in zeros:
            spec = FBFlowSpec(A=A, B=B, gamma=0.5, lam=constant(1.0))
            assert np.linalg.norm(fb_field(spec).fn(0.0, z)) < 1e-12
            grads.append(B(z))
        for gval in grads[1:]:
            assert np.linalg.norm(gval - grads[0]) < 1e-10


class TestFBFField:
    def test_reduces_to_resolvent_without_B(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), lipschitz_L=0.0)
        spec = FBFFlowSpec(A=identity_operator(), B=zero, gamma=1.0, lam=0.5)
        x = np.array([2.0])
        # J_{A}(x) - x = 1 - 2
        assert fbf_field(spec).fn(0.0, x)[0] == -1.0

    def test_rotation_instance_against_independent_oracle(self):
        # independent oracle: raw formulas, no package code
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        gamma, lam = 0.5, 0.5
        x = np.array([1.0, 0.0])
        Bx = M @ x
        y = x - gamma * Bx          # A = 0 so the resolvent is the identity
        By = M @ y
        oracle = -x + y + lam * (Bx - By)
        assert np.allclose(oracle, [-0.25, 0.5])  # frozen oracle value

        spec = FBFFlowSpec(A=zero_operator(), B=matrix_operator(M), gamma=gamma, lam=lam)
        got = fbf_field(spec).fn(0.0, x)
        assert np.allclose(got, oracle, atol=0)

    def test_equilibrium(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), lipschitz_L=0.0)
        spec = FBFFlowSpec(A=zero_operator(), B=zero, gamma=0.9, lam=1.0)
        x = np.array([0.3, -0.7])
        assert np.allclose(fbf_field(spec).fn(0.0, x), 0.0)

    def test_tseng_range_enforced(self):
        B = matrix_operator(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # L = 1
        with pytest.raises(SpecError):
            FBFFlowSpec(A=zero_operator(), B=B, gamma=1.0, lam=0.5)


class TestDRField:
    def test_zero_operators_give_zero_field(self):
        spec = DRFlowSpec(A=zero_operator(), B=zero_operator(), gamma=1.0)
        assert np.allclose(dr_field(spec).fn(0.0, np.array([1.0, 2.0])), 0.0)

    def test_identity_composition_by_hand(self):
        # A = 0, B = Id, gamma = 1: R_B(z) = 0, R_A(0) = 0, field = -z/2
        spec = DRFlowSpec(A=zero_operator(), B=identity_operator(), gamma=1.0)
        z = np.array([4.0])
        assert dr_field(spec).fn(0.0, z)[0] == -2.0

    def test_fixed_point_of_composition(self):
        p = get_problem("two_lines")
        A, Bm = p.components["A"], p.components["B_mono"]
        spec = DRFlowSpec(A=A, B=Bm, gamma=1.0)
        # z* with J_B(z*) = x* solves the inclusion; find it from x* = (2,0):
        # z = x + gamma*B(x) at the solution is a fixed point of the DR operator
        xstar = p.known_solution
        zstar = xstar + p.components["B"](xstar)
        JA, JB = A.resolvent(1.0), Bm.resolvent(1.0)
        assert np.linalg.norm(dr_operator(JA, JB, zstar) - zstar) < 1e-12
        assert np.linalg.norm(dr_field(spec).fn(0.0, zstar)) < 1e-12

    def test_coupled_requires_differentiable_single_valued_B(self):
        with pytest.raises(SpecError):
            DRFlowSpec(A=zero_operator(), B=zero_operator(), gamma=1.0, form="coupled")
        nd = SingleValuedMap(fn=lambda x: np.abs(x), lipschitz_L=1.0, differentiable=False)
        with pytest.raises(SpecError):
            DRFlowSpec(A=zero_operator(), B=nd, gamma=1.0, form="coupled")

    def test_coupled_reflected_equivalence_on_feasibility_problem(self):
        # z(t) = x(t) + gamma*B(x(t)) must track the reflected flow from
        # z0 = x0 + gamma*B(x0), sup-norm < 1e-6 over [0, 10]
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
        sup = np.max(np.linalg.norm(z_from_coupled - reflected.states, axis=1))
        assert sup < 1e-6


@pytest.fixture(scope="module")
def rotation_run():
    spec = KMFlowSpec(T=rotation_map(np.pi / 2), lam=constant(0.7))
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=50.0, record_every=10)
    probes = km_probes(spec, ref=np.zeros(2))
    return integrate(km_field(spec), np.array([1.0, 0.0]), cfg, probes=probes)


class TestKMTrajectoryProperties:
    def test_fejer_monotone(self, rotation_run):
        report = fejer_check(rotation_run, np.zeros(2))
        assert report["pass"], report

    def test_residual_monotone(self, rotation_run):
        report = record_monotone_check(rotation_run, "fp_residual")
        assert report["pass"], report

    def test_residual_converges(self, rotation_run):
        assert rotation_run.records["fp_residual"][-1] < 1e-6

    def test_probe_names_registered(self, rotation_run):
        assert set(rotation_run.records) == {"fp_residual", "dist_to_ref", "field_norm"}
