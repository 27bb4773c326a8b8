import numpy as np
import pytest

from splitflow.errors import SpecError
from splitflow.operators import (SingleValuedMap, affine_prox, as_vector, ball_prox,
                                 box_prox, fb_delta, fb_map, gradient_map, halfspace_prox,
                                 identity_operator, l1_prox, l1_quadratic_prox,
                                 least_squares_fn, linear_monotone_map, matrix_linear_map,
                                 matrix_operator, moreau_conjugate_prox, norm,
                                 one_minus_cos_fn, prox_eval, quadratic_fn,
                                 reflected_resolvent,
                                 resolvent_eval, rotation_map, soft_threshold,
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
                # np.clip itself picks the bound's zero sign on a tie with array
                # bounds, so those agree by value (NaN where x is NaN)
                lo_v, hi_v = np.full(size, lo), np.full(size, hi)
                np.testing.assert_array_equal(prox_eval(box_prox(lo_v, hi_v), 1.0, x),
                                              np.clip(x, lo_v, hi_v))

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            prox_eval(zero_prox(), 0.0, np.array([1.0]))

    @pytest.mark.parametrize("evaluate,message", [
        (lambda s: prox_eval(l1_prox(1.0), s, np.array([1.0])), "must be positive"),
        (lambda s: resolvent_eval(identity_operator(), s, np.array([1.0])), "must be positive"),
        (lambda s: yosida_eval(identity_operator(), s, np.array([1.0])), "must be positive"),
        (lambda s: moreau_conjugate_prox(l1_prox(1.0), s, np.array([1.0])),
         "must be positive"),
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
    ], ids=["prox_eval", "resolvent_eval", "yosida_eval",
            "moreau_conjugate_prox", "l1_prox", "squared_l2_prox", "ball_prox",
            "identity_operator", "l1_quadratic_prox", "halfspace_prox", "box_prox",
            "l1_quadratic_prox-negative", "box_prox-empty", "ball_prox-center",
            "squared_l2_prox-center"])
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
    def test_trivial_identity(self):
        zero = SingleValuedMap(fn=lambda x: np.zeros_like(x), cocoercivity_beta=1e9,
                               lipschitz_L=0.0)
        x = np.array([1.5, -0.5])
        assert np.allclose(fb_map(zero_operator(), zero, 1.0, x), x)

    def test_equilibrium_is_fixed(self):
        A = subdifferential_map(box_prox(0.0, np.inf))
        B = gradient_map(least_squares_fn(np.eye(1), np.array([1.0])))
        assert fb_map(A, B, 1.0, np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_delta_report(self):
        assert fb_delta(1.0, 1.0) == pytest.approx(1.5)

    def test_gamma_range_enforced_with_override(self):
        A = zero_operator()
        B = gradient_map(least_squares_fn(np.eye(1), np.zeros(1)))  # beta = 1
        with pytest.raises(SpecError):
            fb_map(A, B, 2.0, np.array([1.0]))
        fb_map(A, B, 2.0, np.array([1.0]), allow_relaxed=True)
        with pytest.raises(SpecError):
            fb_map(A, B, 0.0, np.array([1.0]), allow_relaxed=True)
        with pytest.raises(SpecError):
            fb_map(A, SingleValuedMap(fn=lambda x: x), 1.0, np.array([1.0]))  # no beta

    def test_averagedness_of_fb_map(self):
        # with S = delta*FB - (delta-1)*Id, S must be nonexpansive
        rng = np.random.default_rng(11)
        beta, gamma = 1.0, 1.0
        delta = fb_delta(beta, gamma)
        A = subdifferential_map(l1_prox(0.3))
        B = gradient_map(least_squares_fn(np.eye(3), np.ones(3)))

        def S(x):
            return delta * fb_map(A, B, gamma, x) - (delta - 1.0) * x

        for _ in range(300):
            x, y = rng.standard_normal(3) * 3, rng.standard_normal(3) * 3
            assert np.linalg.norm(S(x) - S(y)) <= np.linalg.norm(x - y) + 1e-8


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


class TestVectors:
    def test_as_vector_rejects_bad_input(self):
        with pytest.raises(ValueError):
            as_vector(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))

    def test_soft_threshold(self):
        assert np.allclose(soft_threshold(np.array([3.0, -0.5]), 1.0), [2.0, 0.0])

    def test_affine_projection(self):
        f = affine_prox(np.array([[1.0, 1.0]]), np.array([2.0]))
        p = prox_eval(f, 1.0, np.array([3.0, 3.0]))
        assert np.allclose(p, [1.0, 1.0])


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
            assert_same_product(quadratic_fn(M, b).gradient(x), M @ x - b, exact)

    def test_least_squares_gradient(self):
        for rng, M in self.cases(3):
            x, b = extreme_entries(rng, M.shape[1]), extreme_entries(rng, M.shape[0])
            assert_same_product(least_squares_fn(M, b).gradient(x), M.T @ (M @ x - b),
                                min(M.shape) >= 2)

    def test_affine_projection(self):
        for rng, C in self.cases(4):
            x, d = extreme_entries(rng, C.shape[1]), extreme_entries(rng, C.shape[0])
            gram_inv = np.linalg.pinv(C @ C.T)
            assert_same_product(prox_eval(affine_prox(C, d), 1.0, x),
                                x - C.T @ (gram_inv @ (C @ x - d)), min(C.shape) >= 2)

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
