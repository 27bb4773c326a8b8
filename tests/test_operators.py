import numpy as np
import pytest

from splitflow import operators
from splitflow.operators import (affine_monotone_map, affine_prox, as_vector, ball_prox,
                                 box_prox, fb_delta, fb_residual, gradient_map, halfspace_prox,
                                 identity_operator, l1_prox, l1_quadratic_prox,
                                 least_squares_fn, linear_monotone_map, matrix_linear_map,
                                 matrix_operator, moreau_conjugate_prox, norm,
                                 one_minus_cos_fn, prox_eval, quadratic_fn,
                                 reflected_resolvent,
                                 resolvent_eval, rotation_map,
                                 squared_l2_prox, subdifferential_map, yosida_eval,
                                 zero_operator, zero_prox)
from splitflow.problems import get_problem


def golden_min_1d(fn, lo, hi, tol=1e-12):
    """Independent 1-D minimizer oracle by golden-section search."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = fn(d)
    return 0.5 * (lo + hi)


def prox_oracle_1d(value_fn, gamma, x, lo=-5.0, hi=5.0):
    return golden_min_1d(lambda y: value_fn(y) + (y - x) ** 2 / (2.0 * gamma), lo, hi)


# the entry points evaluate at the step they are given; the binder checks it
STEP_ENTRY_POINTS = {
    "prox_eval": lambda s: prox_eval(l1_prox(1.0), s, np.array([1.0])),
    "resolvent_eval": lambda s: resolvent_eval(identity_operator(), s, np.array([1.0])),
    "reflected_resolvent": lambda s: reflected_resolvent(identity_operator(), s,
                                                         np.array([1.0])),
    "yosida_eval": lambda s: yosida_eval(identity_operator(), s, np.array([1.0])),
    "moreau_conjugate_prox": lambda s: moreau_conjugate_prox(l1_prox(1.0), s,
                                                             np.array([1.0])),
}
NONPOSITIVE_STEPS = {"zero": 0.0, "neg-inf": -np.inf}


def soft_threshold_reference(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


THRESHOLDS = [0.0, 1e-300, 0.25, 3.0]


def edge_table(t):
    """100,000 seeded draws at magnitudes from 1e-300 to 1e300, then 16 edges of the
    threshold t: +-0, +-t and its two neighbours, +-inf, NaN and +-subnormals."""
    rng = np.random.default_rng(26)
    scale = rng.choice([1e-300, 1e-8, 0.25, 1.0, 3.0, 1e8, 1e300], 100_000)
    up, down = np.nextafter(t, np.inf), np.nextafter(t, -np.inf)
    edges = [0.0, -0.0, t, -t, up, -up, down, -down, np.inf, -np.inf, np.nan,
             5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310]
    with np.errstate(over="ignore"):
        return np.concatenate([rng.standard_normal(100_000) * scale, edges])


class TestProxEval:
    def test_zero_prox_is_identity(self):
        f = zero_prox()
        assert np.allclose(prox_eval(f, 1.0, np.array([3.0, -2.0])), [3.0, -2.0])

    def test_l1_matches_grid_oracle(self):
        # grid/golden minimization of |y| + (y-3)^2/2 gives 2
        oracle = prox_oracle_1d(abs, 1.0, 3.0)
        assert abs(oracle - 2.0) < 1e-6
        got = prox_eval(l1_prox(1.0), 1.0, np.array([3.0]))
        assert abs(got[0] - 2.0) < 1e-12

    def test_box_projection_gamma_independent(self):
        f = box_prox(-1.0, 1.0)
        assert prox_eval(f, 5.0, np.array([2.0]))[0] == pytest.approx(1.0, abs=0)
        assert prox_eval(f, 0.1, np.array([2.0]))[0] == pytest.approx(1.0, abs=0)

    @pytest.mark.parametrize("lo,hi", [(0.0, 2.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0),
                                       (-1.0, -0.0), (-np.inf, np.inf), (0.0, np.inf)])
    def test_box_projection_equals_np_clip_bit_for_bit(self, lo, hi):
        edge = [-0.0, 0.0, np.inf, -np.inf, np.nan, -1.5, 3.0, 5e-324, -5e-324, 2.0]
        rng = np.random.default_rng(5)
        for size in (1, 3, 8, 33):  # below, at and above a SIMD register's length
            for _ in range(20):
                x = rng.choice(edge, size=size)
                got = prox_eval(box_prox(lo, hi), 1.0, x)
                assert got.tobytes() == np.clip(x, lo, hi).tobytes()
                # with array bounds np.clip picks the bound's zero sign on a tie; a
                # bound of one entry is held 0-d (see box_prox), so at size 1 the
                # bits are those of the scalar bounds
                lo_v, hi_v = np.full(size, lo), np.full(size, hi)
                want = np.clip(x, lo_v, hi_v) if size > 1 else np.clip(x, lo, hi)
                got = prox_eval(box_prox(lo_v, hi_v), 1.0, x)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_box_projection_of_a_stack_gives_each_row_its_own_bits(self, n):
        # zero entries against zero bounds of either sign are the ties the clip
        # ufunc breaks by whether a bound steps through its loop
        entries = np.array([-0.0, 0.0, -1.0, 1.0])
        X = np.stack(np.meshgrid(*[entries] * n, indexing="ij"), -1).reshape(-1, n)
        bounds = [(lo, hi) for lo in (-0.0, 0.0, -1.0) for hi in (-0.0, 0.0, 1.0)]
        for lo, hi in bounds:
            for shape in ((), (1,), (n,)):
                clip = box_prox(np.full(shape, lo), np.full(shape, hi)).prox(1.0)
                got = clip(X)
                for r in range(X.shape[0]):
                    assert got[r].tobytes() == clip(X[r].copy()).tobytes(), (lo, hi, shape)

    def test_clip_ufunc_equals_np_clip_bit_for_bit(self):
        # operators calls the ufunc np.clip dispatches to; a numpy release that
        # moves it or changes what np.clip does fails here
        x = edge_table(0.25)
        lows, highs = (-0.0, 0.0, -0.25, -np.inf), (-0.0, 0.0, 0.25, np.inf)
        rng = np.random.default_rng(7)
        for X in (x, x.reshape(-1, 8)):
            for lo in lows:
                for hi in highs:
                    if lo > hi:
                        continue
                    for bound in (lambda v: v, np.array,
                                  lambda v: np.full(X.shape[-1], v)):
                        want = np.clip(X, bound(lo), bound(hi))
                        got = operators._clip(X, bound(lo), bound(hi))
                        assert got.tobytes() == want.tobytes(), (lo, hi)
            lo = rng.uniform(-1.0, 0.0, X.shape[-1])
            assert (operators._clip(X, lo, lo + 0.5).tobytes()
                    == np.clip(X, lo, lo + 0.5).tobytes())

    @pytest.mark.parametrize("t", THRESHOLDS)
    def test_soft_thresholding_has_the_reference_bits(self, t):
        # sign(x) * max(|x| - t, 0) is the reference arithmetic; the kernel is
        # copysign(x - clip(x, -t, t), sign(x)) (see operators)
        x = edge_table(t)
        l1 = l1_prox(t).prox(1.0)  # threshold 1.0 * t == t
        for X in (x, x.reshape(-1, 8), x.reshape(-1, 1)):
            want = soft_threshold_reference(X, t).tobytes()
            assert l1(X).tobytes() == want
        # l1_quadratic_prox at step 1: shift b, threshold t, divisor 1 + a
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0.0, 3.0, 8), rng.standard_normal(8)
        a[0], b[1] = 0.0, -0.0
        X = x.reshape(-1, 8)
        l1q = l1_quadratic_prox(t, a, b).prox(1.0)
        want = soft_threshold_reference(X - b, t) / (1.0 + a)
        assert l1q(X).tobytes() == want.tobytes()
        for r in range(0, X.shape[0], 97):
            assert l1q(X[r].copy()).tobytes() == want[r].tobytes()

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            prox_eval(zero_prox(), 0.0, np.array([1.0]))

    @pytest.mark.parametrize("evaluate,message", [
        *[(evaluate, "must be positive") for evaluate in STEP_ENTRY_POINTS.values()],
        # and at the steps 0 and -inf, given in place of the NaN
        *[(lambda _, evaluate=evaluate, s=s: evaluate(s), "must be positive")
          for evaluate in STEP_ENTRY_POINTS.values() for s in NONPOSITIVE_STEPS.values()],
        # a catalog parameter that is NaN is rejected where the function is built
        (l1_prox, "must be nonnegative"),
        (squared_l2_prox, "must be positive"),
        (ball_prox, "must be positive"),
        (identity_operator, "must be nonnegative"),
        (lambda v: l1_quadratic_prox(v, [1.0], [0.0]), "must be nonnegative"),
        (lambda v: halfspace_prox([1.0], v), "must be finite"),
        (lambda v: box_prox(v, 1.0), "lo <= hi"),
        # and so is one that makes f nonconvex or its set empty
        (lambda v: l1_quadratic_prox(-1.0, [1.0], [0.0]), "must be nonnegative"),
        (lambda v: box_prox(2.0, 0.0), "lo <= hi"),
        # a center with a NaN entry is rejected where the function is built
        (lambda v: ball_prox(1.0, [v]), "must be finite"),
        (lambda v: squared_l2_prox(1.0, [v]), "must be finite"),
    ], ids=[*STEP_ENTRY_POINTS,
            *["%s-%s" % (name, tag) for name in STEP_ENTRY_POINTS for tag in NONPOSITIVE_STEPS],
            "l1_prox", "squared_l2_prox", "ball_prox", "identity_operator", "l1_quadratic_prox",
            "halfspace_prox", "box_prox", "l1_quadratic_prox-negative", "box_prox-empty",
            "ball_prox-center", "squared_l2_prox-center"])
    def test_nan_step_rejected(self, evaluate, message):
        with pytest.raises(ValueError, match=message):
            evaluate(np.nan)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_analytic_catalog_agrees_with_golden_oracle(self, gamma):
        cases = [
            (l1_prox(0.7), lambda y: 0.7 * abs(y)),
            (squared_l2_prox(), lambda y: 0.5 * y * y),
            (l1_quadratic_prox(0.3, [2.0], [0.5]),
             lambda y: 0.3 * abs(y) + 1.0 * y * y + 0.5 * y),
        ]
        for f, val in cases:
            for x in (-1.7, 0.2, 2.4):
                want = prox_oracle_1d(val, gamma, x)
                got = prox_eval(f, gamma, np.array([x]))[0]
                assert abs(got - want) < 1e-6


class TestResolvent:
    def test_zero_operator_identity(self):
        A = zero_operator()
        x = np.array([1.0, -4.0])
        assert np.allclose(resolvent_eval(A, 3.0, x), x)

    def test_identity_operator_solves_p_plus_gamma_p(self):
        # p + gamma*p = x analytically, cross-checked by the golden prox oracle
        A = identity_operator()
        assert resolvent_eval(A, 1.0, np.array([2.0]))[0] == pytest.approx(1.0, abs=1e-15)
        oracle = prox_oracle_1d(lambda y: 0.5 * y * y, 1.0, 2.0)
        assert abs(oracle - 1.0) < 1e-6

    def test_point_indicator_resolvent(self):
        f = box_prox(0.0, 0.0)  # indicator of {0}
        A = subdifferential_map(f)
        assert resolvent_eval(A, 1.0, np.array([7.0]))[0] == 0.0

    def test_firm_nonexpansiveness_on_random_pairs(self):
        rng = np.random.default_rng(7)
        maps = [
            identity_operator(0.7),
            subdifferential_map(l1_prox(0.5)),
            subdifferential_map(ball_prox(1.0)),
            subdifferential_map(halfspace_prox(np.array([1.0, -2.0]), 0.5)),
            linear_monotone_map([[0.0, 1.0], [-1.0, 0.0]]),
        ]
        for A in maps:
            for _ in range(200):
                x = rng.standard_normal(2) * 3
                y = rng.standard_normal(2) * 3
                Jx = resolvent_eval(A, 1.3, x)
                Jy = resolvent_eval(A, 1.3, y)
                lhs = np.sum((Jx - Jy) ** 2)
                rhs = float((x - y) @ (Jx - Jy))
                assert lhs <= rhs + 1e-10

    @pytest.mark.parametrize("make", [linear_monotone_map,
                                      lambda M: affine_monotone_map(M, [1.0, -1.0])],
                             ids=["linear", "affine"])
    @pytest.mark.parametrize("M,message", [([[1.0, np.nan], [0.0, 1.0]], "non-finite"),
                                           ([[1.0, 3.0], [-1.0, -0.5]], "not monotone")],
                             ids=["nan", "not-monotone"])
    def test_monotone_map_rejects_a_bad_matrix(self, make, M, message):
        with pytest.raises(ValueError, match=message):
            make(M)

    def test_linear_map_is_the_affine_map_without_shift(self):
        # x - 0.0 keeps every bit of x, so both solve (I + gamma*M)p = x to one set of bits
        rng = np.random.default_rng(3)
        skew = rng.standard_normal((4, 4))
        M = skew - skew.T + np.diag([0.0, 0.5, 1.0, 2.0])
        X = rng.standard_normal((6, 4))
        X[0], X[1, 2] = -0.0, -0.0
        for gamma in (0.3, 2.0):
            linear = linear_monotone_map(M).resolvent(gamma)
            affine = affine_monotone_map(M, 0).resolvent(gamma)
            K = np.eye(4) + gamma * M
            assert linear(X).tobytes() == affine(X).tobytes()
            for x in X:
                assert linear(x).tobytes() == affine(x).tobytes()
                assert linear(x).tobytes() == np.linalg.solve(K, x).tobytes()


class TestReflectedAndYosida:
    def test_reflected_zero_operator(self):
        x = np.array([2.0, -1.0])
        assert np.allclose(reflected_resolvent(zero_operator(), 1.0, x), x)

    def test_reflected_identity(self):
        # 2*(x/2) - x = 0
        assert reflected_resolvent(identity_operator(), 1.0, np.array([2.0]))[0] == 0.0

    def test_reflected_halfline(self):
        A = subdifferential_map(box_prox(0.0, np.inf))
        assert reflected_resolvent(A, 1.0, np.array([-3.0]))[0] == 3.0

    def test_yosida_zero_operator(self):
        assert np.allclose(yosida_eval(zero_operator(), 2.0, np.array([5.0])), 0.0)

    @pytest.mark.parametrize("lam,expected", [(1.0, 1.0), (3.0, 0.5)])
    def test_yosida_identity(self, lam, expected):
        got = yosida_eval(identity_operator(), lam, np.array([2.0]))[0]
        assert got == pytest.approx(expected, abs=1e-15)

    def test_yosida_is_lipschitz_one_over_lam(self):
        rng = np.random.default_rng(3)
        A = subdifferential_map(l1_prox(1.0))
        lam = 0.7
        for _ in range(300):
            x, y = rng.standard_normal(3) * 4, rng.standard_normal(3) * 4
            dx = np.linalg.norm(yosida_eval(A, lam, x) - yosida_eval(A, lam, y))
            assert dx <= np.linalg.norm(x - y) / lam + 1e-10


class TestFbMap:
    def test_delta_report(self):
        assert fb_delta(1.0, 1.0) == pytest.approx(1.5)

    def test_averagedness_of_fb_map(self):
        # the map the FB flow uses, FB(x) = x + fb_residual(J, B, gamma, x) =
        # J_{gamma A}(x - gamma*B(x)); with S = delta*FB - (delta-1)*Id, S must be
        # nonexpansive
        rng = np.random.default_rng(11)
        beta, gamma = 1.0, 1.0
        delta = fb_delta(beta, gamma)
        A = subdifferential_map(l1_prox(0.3))
        B = gradient_map(least_squares_fn(np.eye(3), np.ones(3)))

        def S(x):
            fb = x + fb_residual(A.resolvent(gamma), B.fn, gamma, x)
            return delta * fb - (delta - 1.0) * x

        for _ in range(300):
            x, y = rng.standard_normal(3) * 3, rng.standard_normal(3) * 3
            assert np.linalg.norm(S(x) - S(y)) <= np.linalg.norm(x - y) + 1e-8

    @pytest.mark.parametrize("A", [
        subdifferential_map(l1_prox(0.3)),
        subdifferential_map(box_prox(-0.5, 0.5)),
        affine_monotone_map([[2.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.5]],
                            [1.0, 0.0, -1.0]),
    ], ids=["l1", "box", "affine"])
    def test_fb_residual_has_the_inline_bits(self, A):
        # every field, probe and step applies J(x - gamma*B(x) (+ shift)) - x through
        # fb_residual; it must keep the bits of that expression written out
        rng = np.random.default_rng(30)
        gamma = np.array(0.5)
        J = A.resolvent(gamma)
        B = least_squares_fn(rng.standard_normal((4, 3)), rng.standard_normal(4)).gradient
        for x in (rng.standard_normal(3), rng.standard_normal((6, 3))):
            want = J(x - gamma * B(x)) - x
            assert fb_residual(J, B, gamma, x).tobytes() == want.tobytes()
            shift = np.array(0.1) * x  # the fb-tikhonov field's eps(t) * x
            want = J(x - gamma * B(x) + shift) - x
            assert fb_residual(J, B, gamma, x, shift=shift).tobytes() == want.tobytes()


class TestMoreau:
    def test_conjugate_prox_for_self_conjugate_quadratic(self):
        rng = np.random.default_rng(1)
        g = squared_l2_prox()  # g = ||.||^2/2 is its own conjugate
        for c in (0.5, 1.0, 2.5):
            for _ in range(50):
                x = rng.standard_normal(4) * 3
                lhs = moreau_conjugate_prox(g, c, x)
                want = prox_eval(g, c, x)  # prox_{c g*} = prox_{c g} here
                assert np.allclose(lhs, want, atol=1e-10)


class TestLinearAndSmooth:
    def test_adjoint_identity_and_norm_bound(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((4, 6))
        A = matrix_linear_map(M)
        for _ in range(100):
            x, y = rng.standard_normal(6), rng.standard_normal(4)
            assert abs(float(A(x) @ y) - float(x @ A.adjoint(y))) < 1e-12
            u = x / np.linalg.norm(x)
            assert np.linalg.norm(A(u)) <= A.norm_estimate + 1e-12

    @pytest.mark.parametrize("make", [
        lambda: quadratic_fn(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([1.0, -2.0])),
        lambda: least_squares_fn(np.array([[1.0, 2.0], [0.0, 1.5]]), np.array([1.0, 1.0])),
        one_minus_cos_fn,
    ])
    def test_gradient_matches_finite_differences(self, make):
        g = make()
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(20):
            x = rng.standard_normal(2) * 2
            grad = g.gradient(x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (g.value(x + e) - g.value(x - e)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-4 * (1.0 + abs(grad[i]))

    def test_rotation_is_isometry(self):
        T = rotation_map(np.pi / 2)
        assert np.allclose(T(np.array([1.0, 0.0])), [0.0, 1.0])
        assert T.lipschitz_L == 1.0

    def test_skew_matrix_operator_has_no_beta(self):
        B = matrix_operator([[0.0, 1.0], [-1.0, 0.0]])
        assert B.cocoercivity_beta is None
        assert B.lipschitz_L == pytest.approx(1.0)

    def test_a_nearly_symmetric_matrix_operator_has_no_beta(self):
        # np.allclose's rtol of 1e-5 took this M as symmetric, with beta 0.500001; but
        # at x = (1, -1)/sqrt(2), <Mx, x> = 8.9e-17 lies below beta*||Mx||^2 = 8e-12
        M = np.array([[1.0, 1.0 + 4e-6], [1.0 - 4e-6, 1.0]])
        x = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert (M @ x) @ x < 0.5 * (M @ x) @ (M @ x)
        assert matrix_operator(M).cocoercivity_beta is None

    def test_symmetric_part_of_a_matrix_near_the_float_limit(self):
        # the symmetric part is M/2 + M^T/2, which does not overflow where M + M^T does
        M = np.array([[1e308, 0.0], [0.0, 1.0]])
        assert matrix_operator(M).cocoercivity_beta == 1.0 / 1e308
        assert quadratic_fn(M).grad_lipschitz == 1e308
        assert linear_monotone_map(M).resolvent(1.0)(np.ones(2))[1] == 0.5

    def test_quadratic_fn_rejects_a_non_symmetric_q(self):
        # its gradient was Qx - b with the Q given: (3, 2) at x = (1, 2), where the
        # central differences of its value read (2, 2.5)
        with pytest.raises(ValueError, match="quadratic_fn: Q is not symmetric"):
            quadratic_fn([[1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("make, name", [
        (quadratic_fn, "quadratic_fn: Q"),
        (matrix_operator, "matrix_operator: M"),
        (linear_monotone_map, "monotone map: M"),
    ], ids=["quadratic_fn", "matrix_operator", "linear_monotone_map"])
    def test_constructors_reject_a_non_square_matrix(self, make, name):
        with pytest.raises(ValueError, match="%s must be square" % name):
            make(np.ones((2, 3)))

    @pytest.mark.parametrize("make, name", [
        (lambda: quadratic_fn(np.eye(3), b=[1.0]), "quadratic_fn: b"),
        (lambda: least_squares_fn(np.ones((3, 2)), b=[1.0]), "least_squares_fn: b"),
        (lambda: affine_monotone_map(np.eye(3), q=[1.0]), "monotone map: q"),
        (lambda: l1_quadratic_prox(1.0, quad_diag=[1.0, 2.0], lin=[0.5]),
         "l1_quadratic_prox: lin"),
        (lambda: affine_prox(np.eye(2), [1.0, 2.0, 3.0]), "affine_prox: d"),
    ], ids=["quadratic_fn", "least_squares_fn", "affine_monotone_map", "l1_quadratic_prox",
            "affine_prox"])
    def test_a_vector_must_match_its_matrix(self, make, name):
        # each broadcast silently (quadratic_fn's gradient took b = [1] as (1, 1, 1)),
        # or, as affine_prox, raised numpy's "shapes (2,2) and (3,) not aligned"
        with pytest.raises(ValueError, match="%s has shape" % name):
            make()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("make, name", [
        (lambda v: affine_prox(np.eye(2), [v, 0.0]), "affine_prox: d"),
        (lambda v: least_squares_fn(np.eye(2), [v, 0.0]), "least_squares_fn: b"),
        (lambda v: quadratic_fn(np.eye(2), b=[v, 0.0]), "quadratic_fn: b"),
        (lambda v: l1_quadratic_prox(1.0, [v, 1.0], [0.0, 0.0]), "l1_quadratic_prox: quad_diag"),
        (lambda v: l1_quadratic_prox(1.0, [1.0, 1.0], [v, 0.0]), "l1_quadratic_prox: lin"),
    ], ids=["affine_prox", "least_squares_fn", "quadratic_fn", "quad_diag", "lin"])
    def test_a_non_finite_vector_is_named(self, make, name, bad):
        # before: as_vector's unnamed "vector entries must be finite"
        with pytest.raises(ValueError, match="%s has a non-finite entry" % name):
            make(bad)

    @pytest.mark.parametrize("q", [[np.nan, 0.0], np.inf], ids=["nan-entry", "inf-scalar"])
    def test_affine_monotone_map_rejects_a_non_finite_shift(self, q):
        # before: it built, and its resolvents returned [nan nan]
        with pytest.raises(ValueError, match="monotone map: q has a non-finite entry"):
            affine_monotone_map(np.eye(2), q)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("make, name", [
        (lambda M: quadratic_fn(M), "quadratic_fn: Q"),
        (lambda M: least_squares_fn(M, np.zeros(2)), "least_squares_fn: A"),
        (matrix_linear_map, "matrix_linear_map: M"),
        (matrix_operator, "matrix_operator: M"),
    ])
    def test_constructors_reject_a_non_finite_matrix(self, make, name, bad):
        # before: a NaN Lipschitz or norm bound for inf, LinAlgError for NaN in the
        # SVD, and for quadratic_fn a NaN entry gave grad_lipschitz 0.0
        with pytest.raises(ValueError, match="%s has a non-finite entry" % name):
            make(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_least_squares_rejects_a_lipschitz_constant_that_overflows(self):
        # ||A|| = 2e200 is a float, ||A||^2 is not
        with pytest.raises(ValueError, match="overflows"):
            least_squares_fn(np.full((2, 2), 1e200), np.zeros(2))


class TestVectors:
    def test_as_vector_rejects_bad_input(self):
        with pytest.raises(ValueError):
            as_vector(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))

    def test_soft_threshold(self):
        # the independent reference of the l1 prox's bit checks, against hand arithmetic
        assert np.array_equal(soft_threshold_reference(np.array([3.0, -0.5]), 1.0), [2.0, 0.0])

    def test_affine_projection(self):
        f = affine_prox(np.array([[1.0, 1.0]]), np.array([2.0]))
        p = prox_eval(f, 1.0, np.array([3.0, 3.0]))
        assert np.allclose(p, [1.0, 1.0])

    def test_projections_of_far_points_lie_in_their_set(self):
        # a set near the origin and points of norm 1e6-1e7: the projection's value
        # must take it as inside, though x - C^T (C C^T)^+ (Cx - d) rounds at ||x||
        rng = np.random.default_rng(3)
        for _ in range(200):
            C = np.eye(3) + 0.1 * rng.uniform(-1.0, 1.0, (3, 3))
            x = rng.standard_normal(3)
            x *= 10.0 ** rng.uniform(6.0, 7.0) / np.linalg.norm(x)
            f = affine_prox(C, np.zeros(3))
            assert f.value(prox_eval(f, 1.0, x)) == 0.0
            h = halfspace_prox([rng.uniform(0.5, 2.0)], 0.0)
            assert h.value(prox_eval(h, 1.0, np.array([1e6 * rng.uniform(1.0, 10.0)]))) == 0.0

    def test_affine_prox_rejects_a_gram_matrix_that_overflows(self):
        # C @ C.T holds +-inf; the pseudo-inverse of such a matrix may never return
        C = [[1e200, 0.0, 0.0], [-1e200, 0.0, 0.0], [0.0, 0.0, 1.0]]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            affine_prox(C, np.zeros(3))


class TestNorm:
    def test_equals_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in range(1, 65):
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
            assert norm(v) == np.linalg.norm(v), n
            assert norm(np.zeros(n)) == np.linalg.norm(np.zeros(n)) == 0.0

    def test_underflow_and_overflow_as_numpy(self):
        tiny = np.full(5, 1e-300)
        assert norm(tiny) == np.linalg.norm(tiny) == 0.0
        with np.errstate(over="ignore"):
            huge = np.full(5, 1e200)
            assert norm(huge) == np.linalg.norm(huge) == np.inf


def extreme_entries(rng, shape, decades=300):
    """Entries of random sign and magnitude 10^-decades..10^decades, a fifth of them +-0.0."""
    mags = 10.0 ** rng.uniform(-decades, decades, shape)
    signs = rng.choice([-1.0, 1.0], shape)
    return np.where(rng.random(shape) < 0.2, signs * 0.0, signs * mags)


def matrix_shapes():
    """Square, 1 x n, n x 1 and general shapes, each in C and Fortran order."""
    shapes = [(1, 1), (1, 2), (2, 1), (1, 5), (5, 1), (2, 2), (3, 4), (4, 3), (6, 6)]
    return [(m, n, order) for m, n in shapes for order in "CF"]


def assert_same_product(got, want, exact):
    """got equals want as numbers (-0.0 == 0.0, NaN == NaN); byte for byte when exact."""
    assert np.array_equal(got, want, equal_nan=True)
    if exact:
        assert got.tobytes() == want.tobytes()


class TestCatalogProductsMatchMatmul:
    """The catalog's .dot products against their @ formulas.

    .dot and @ can differ only in the sign of an exact zero, and only when the
    summed dimension is 1; with every summed dimension at least 2 they are
    byte-equal.  Vectors span 1e-300..1e300, so the products overflow and
    underflow; matrices span 1e-150..1e150, so that what the constructors
    square (the least-squares Lipschitz constant, the affine Gram matrix)
    stays finite.
    """

    @pytest.fixture(autouse=True)
    def _quiet(self):
        with np.errstate(all="ignore"):
            yield

    def cases(self, seed, shape_of=lambda m, n: (m, n)):
        rng = np.random.default_rng(seed)
        for m, n, order in matrix_shapes():
            for _ in range(20):
                M = np.asarray(extreme_entries(rng, shape_of(m, n), 150), order=order)
                yield rng, M

    def test_matrix_linear_map_apply_and_adjoint(self):
        for rng, M in self.cases(1):
            A = matrix_linear_map(M)
            x, y = extreme_entries(rng, M.shape[1]), extreme_entries(rng, M.shape[0])
            assert_same_product(A(x), M @ x, M.shape[1] >= 2)
            assert_same_product(A.adjoint(y), M.T @ y, M.shape[0] >= 2)

    def test_matrix_operator_and_quadratic_gradient(self):
        for rng, M in self.cases(2, lambda m, n: (n, n)):
            x, b = extreme_entries(rng, M.shape[1]), extreme_entries(rng, M.shape[1])
            exact = M.shape[1] >= 2
            assert_same_product(matrix_operator(M)(x), M @ x, exact)
            # quadratic_fn takes a symmetric Q only, in M's memory order
            Q = np.asarray(M + M.T, order="F" if M.flags.f_contiguous else "C")
            assert_same_product(quadratic_fn(Q, b).gradient(x), Q @ x - b, exact)

    def test_least_squares_gradient(self):
        for rng, M in self.cases(3):
            x, b = extreme_entries(rng, M.shape[1]), extreme_entries(rng, M.shape[0])
            assert_same_product(least_squares_fn(M, b).gradient(x), M.T @ (M @ x - b),
                                min(M.shape) >= 2)

    def test_affine_projection(self):
        for rng, C in self.cases(4):
            x, d = extreme_entries(rng, C.shape[1]), extreme_entries(rng, C.shape[0])
            # x0 + N (N^T x): N spans C's null space, x0 = C^+ d, at pinv(C @ C.T)'s rank r
            u, s, vt = np.linalg.svd(C)
            r = int(np.count_nonzero(s * s > 1e-15 * s[0] ** 2))
            N = np.ascontiguousarray(vt[r:].T)
            want = N @ (vt[r:] @ x) + vt[:r].T @ (u[:, :r].T @ d / s[:r])
            assert_same_product(prox_eval(affine_prox(C, d), 1.0, x), want,
                                min(C.shape[0], C.shape[1], r) >= 2 and C.shape[1] - r != 1)

    def test_rotation_and_two_lines_operator(self):
        rng = np.random.default_rng(5)
        B = get_problem("two_lines").components["B"]
        nrm = np.array([1.0, 1.0]) / np.sqrt(2.0)
        N, p0 = np.outer(nrm, nrm), np.array([1.0, 1.0])
        for _ in range(200):
            angle, x = rng.uniform(-4.0, 4.0), extreme_entries(rng, 2)
            R = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            assert_same_product(rotation_map(angle)(x), R @ x, True)
            assert_same_product(B(x), N @ (x - p0), True)


def same_bits(got, want):
    return got.dtype == np.float64 and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestEntryPointsConvertOnce:
    """The catalog oracles take float64 arrays; the entry points convert lists and ints."""

    PROXES = {
        "zero": zero_prox(), "l1": l1_prox(0.7), "squared_l2": squared_l2_prox(2.0, [1, 0, -1]),
        "box": box_prox(-1, 2), "ball": ball_prox(1.0, [0, 0, 1]),
        "halfspace": halfspace_prox([1, 1, 0], 1.0), "affine": affine_prox([[1, 1, 1]], [1]),
        "l1_quadratic": l1_quadratic_prox(0.3, [1, 2, 0], [1, 0, -1]),
    }
    OPERATORS = {
        "zero": zero_operator(), "identity": identity_operator(2.0),
        "subdifferential": subdifferential_map(l1_prox(0.5)),
        "linear": linear_monotone_map([[1, 2, 0], [-2, 1, 0], [0, 0, 3]]),
        "affine": affine_monotone_map([[2, 0, 0], [0, 1, 1], [0, -1, 1]], [1, 0, -1]),
    }
    STARTS = ([3, -1, 0], [0, 0, 0], [1, 1, -2])

    @staticmethod
    def assert_list_and_int_calls_match(evaluate, start):
        want = evaluate(np.array(start, dtype=float))
        assert same_bits(evaluate(list(start)), want)
        assert same_bits(evaluate(np.array(start)), want)

    @pytest.mark.parametrize("name", sorted(PROXES))
    def test_prox_eval(self, name):
        f = self.PROXES[name]
        for start in self.STARTS:
            self.assert_list_and_int_calls_match(lambda x: prox_eval(f, 0.5, x), start)
            self.assert_list_and_int_calls_match(lambda x: moreau_conjugate_prox(f, 2.0, x),
                                                 start)

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_resolvent_entry_points(self, name):
        A = self.OPERATORS[name]
        for start in self.STARTS:
            for evaluate in (lambda x: resolvent_eval(A, 0.5, x),
                             lambda x: reflected_resolvent(A, 0.5, x),
                             lambda x: yosida_eval(A, 0.5, x)):
                self.assert_list_and_int_calls_match(evaluate, start)


class TestCenters:
    """A center must have x's size: a short one broadcast to every coordinate."""

    MAKERS = {"squared_l2_prox": lambda c: squared_l2_prox(1.0, c),
              "ball_prox": lambda c: ball_prox(1.0, c)}

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((4, 3))], ids=["vector", "stack"])
    @pytest.mark.parametrize("center", [[5.0], [1.0, 2.0, 3.0, 4.0]], ids=["short", "long"])
    @pytest.mark.parametrize("name", list(MAKERS))
    def test_a_center_of_another_size_is_refused_by_value_and_prox(self, name, center, x):
        # before: squared_l2_prox(1.0, [1.0]).prox(1.0)(zeros(3)) gave (0.5, 0.5, 0.5)
        # and ball_prox(1.0, [5.0]) projected zeros(3) onto (4.42, 4.42, 4.42)
        f = self.MAKERS[name](center)
        with pytest.raises(ValueError, match="%s: center has" % name):
            f.value(x)
        with pytest.raises(ValueError, match="%s: center has" % name):
            f.prox(1.0)(x)

    @pytest.mark.parametrize("name", list(MAKERS))
    def test_a_center_of_x_size_and_the_origin_are_kept(self, name):
        x = np.array([[0.0, 0.0, 0.0], [3.0, -1.0, 2.0]])
        centered, origin = self.MAKERS[name]([1.0, 1.0, 1.0]), self.MAKERS[name](None)
        shifted = centered.prox(1.0)(x)
        assert np.array_equal(shifted, origin.prox(1.0)(x - 1.0) + 1.0)
        assert np.array_equal(centered.value(x), origin.value(x - 1.0))
        assert origin.prox(1.0)(np.zeros(5)).shape == (5,)
