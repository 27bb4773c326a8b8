"""Test-problem corpus with machine-precision reference solutions.

Reference solutions are produced by oracle solvers that are independent of
the flow code: FISTA warm starts polished by an active-set KKT solve for
l1+quadratic problems, and a Condat-Vu run polished the same way for the
structured primal-dual problem.  Each oracle polishes the active pattern of
every iterate, once per distinct pattern, and stops at the first iterate that
lies within 1e-10 of a polish passing its gate; 4000 FISTA and 20000 Condat-Vu
iterations are the budgets.  Every shipped solution is gated by a first-order
residual check.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import SolverError
from .nonconvex import NonconvexProblem, critical_residual
from .operators import (MonotoneMap, SingleValuedMap, SmoothFunction, _per_row, _rows_dot,
                        _solve, affine_prox, box_prox, difference_matrix, gradient_map,
                        l1_prox, least_squares_fn, matrix_linear_map, matrix_operator,
                        one_minus_cos_fn, quadratic_fn, resolvent_eval, rotation_map,
                        soft_threshold, subdifferential_map, zero_operator)
from .primal_dual import PDState, StructuredProblem, saddle_residuals

Array = np.ndarray


@dataclasses.dataclass(frozen=True)
class ProblemDef:
    name: str
    kind: str  # fixed-point | inclusion | convex-composite | nonconvex-composite | structured-pd | saddle
    components: dict
    known_solution: object
    default_start: object
    horizon: float
    note: str = ""


# ---------------------------------------------------------------------------
# oracle solvers (independent of the flow machinery)

# An iterate within this max-norm distance of the polish of its own active
# pattern certifies that polish.  It is 1000 times below the pattern
# thresholds (1e-7 for x in FISTA, 1e-6 for x and Ax in Condat-Vu), so the
# pattern can no longer flip and a longer run would return the same array.
_CERTIFY_TOL = 1e-10


def _polish_until_certified(iterates, pattern, polish, gap):
    """The polish of the first iterate that lies within _CERTIFY_TOL of it.

    pattern(iterate) is the iterate's active pattern as one array,
    polish(pattern) the exact solution on it (raising SolverError when the gate
    fails), and gap(iterate, solution) their max-norm distance.  The polish is
    solved once per distinct pattern and reused while the pattern holds.  When
    the iterates run out, which is the oracle's budget, the polish of the last
    iterate is returned, or its SolverError raised.
    """
    held, solution = None, None
    for it in iterates:
        p = pattern(it)
        if held is None or not np.array_equal(p, held):
            held = p
            try:
                solution = polish(p)
            except SolverError:
                solution = None
        if solution is not None and gap(it, solution) <= _CERTIFY_TOL:
            return solution
    return polish(pattern(it))


def _sign_pattern(v: Array, tol: float) -> Array:
    """sign(v) where |v| > tol, 0 elsewhere."""
    return np.where(np.abs(v) > tol, np.sign(v), 0.0)


def _max_gap(u: Array, v: Array) -> float:
    return float(np.max(np.abs(u - v)))


def _fista_iterates(Q: Array, b: Array, mu: float):
    """4000 FISTA iterates x on x^T Q x / 2 - b^T x + mu*||x||_1 from the origin."""
    L = float(np.linalg.norm(Q, 2))
    step = 1.0 / L
    x = np.zeros(len(b))
    z = x.copy()
    t_acc = 1.0
    for _ in range(4000):
        x_next = soft_threshold(z - step * (Q @ z - b), step * mu)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc ** 2))
        z = x_next + ((t_acc - 1.0) / t_next) * (x_next - x)
        x, t_acc = x_next, t_next
        yield x


def _polish_l1_quadratic(Q: Array, b: Array, mu: float, pattern: Array) -> Array:
    """Exact minimizer on the support and signs of pattern, or SolverError when the
    complementary inclusions or the stationarity residual fail."""
    support = np.flatnonzero(pattern)
    signs = pattern[support]
    x_exact = np.zeros(len(b))
    if support.size:
        rhs = b[support] - mu * signs
        x_exact[support] = np.linalg.solve(Q[np.ix_(support, support)], rhs)
    grad = Q @ x_exact - b
    off = np.setdiff1d(np.arange(len(b)), support)
    if support.size and np.any(np.sign(x_exact[support]) != signs):
        raise SolverError("active-set polish produced inconsistent signs")
    if off.size and np.max(np.abs(grad[off])) > mu + 1e-10:
        raise SolverError("active-set polish violates the off-support inclusion")
    if support.size and np.max(np.abs(grad[support] + mu * signs)) > 1e-10:
        raise SolverError("stationarity residual too large after polish")
    return x_exact


def solve_l1_quadratic(Q: Array, b: Array, mu: float) -> Array:
    """argmin x^T Q x / 2 - b^T x + mu*||x||_1 to machine precision.

    FISTA from the origin; after each iteration the active pattern (entries
    beyond 1e-7) is polished by solving the KKT system on the support exactly,
    and the complementary inclusions are verified.  It stops at the first
    iterate within 1e-10 of its verified polish.  The budget is 4000
    iterations; when it runs out, the polish of the last iterate is returned
    or raises SolverError.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    b = np.asarray(b, dtype=float)
    return _polish_until_certified(
        _fista_iterates(Q, b, mu), lambda x: _sign_pattern(x, 1e-7),
        lambda pattern: _polish_l1_quadratic(Q, b, mu, pattern), _max_gap)


def _condat_vu_iterates(prob: StructuredProblem, A: Array, b: Array, mu: float, nu: float):
    """20000 Condat-Vu iterates PDState(x, Ax, y) from the origin."""
    sigma = 1.0
    tau = 1.0 / (sigma * prob.A.norm_estimate ** 2 + 0.5 * prob.h.grad_lipschitz + 0.1)
    x = np.zeros(prob.n)
    y = np.zeros(prob.m)
    for _ in range(20000):
        x_next = soft_threshold(x - tau * ((x - b) + A.T @ y), tau * mu)
        w = y + sigma * (A @ (2.0 * x_next - x))
        y = np.clip(w, -nu, nu)
        x = x_next
        yield PDState(x=x, z=A @ x, y=y)


def _polish_pd_saddle(prob: StructuredProblem, A: Array, b: Array, mu: float, nu: float,
                      pattern: Array) -> PDState:
    """Exact saddle point on pattern = (signs of x, signs of z with 0 on the free rows),
    or SolverError when its saddle residuals exceed 1e-9."""
    n, m = prob.n, prob.m
    support = np.flatnonzero(pattern[:n])
    sx = pattern[:n][support]
    free = np.flatnonzero(pattern[n:] == 0.0)       # rows with z_j = 0
    active = np.setdiff1d(np.arange(m), free)
    sz = pattern[n:][active]

    # unknowns: x on the support, y on the free rows
    k1, k2 = support.size, free.size
    size = k1 + k2
    mat = np.zeros((size, size))
    rhs = np.zeros(size)
    mat[:k1, :k1] = np.eye(k1)
    mat[:k1, k1:] = A[np.ix_(free, support)].T
    rhs[:k1] = b[support] - mu * sx - A[np.ix_(active, support)].T @ (nu * sz)
    mat[k1:, :k1] = A[np.ix_(free, support)]
    sol = np.linalg.lstsq(mat, rhs, rcond=None)[0] if size else np.zeros(0)
    x_exact = np.zeros(n)
    x_exact[support] = sol[:k1]
    y_exact = np.zeros(m)
    y_exact[free] = sol[k1:]
    y_exact[active] = nu * sz
    z_exact = A @ x_exact

    state = PDState(x=x_exact, z=z_exact, y=y_exact)
    res = saddle_residuals(prob, state)
    if max(res.values()) > 1e-9:
        raise SolverError("pattern polish failed, residuals %r" % res)
    return state


def solve_pd_saddle(prob: StructuredProblem, mu: float, nu: float) -> PDState:
    """Saddle point of f + h + g(A.) for f = mu*||.||_1, h = ||x-b||^2/2, g = nu*||.||_1.

    Condat-Vu from the origin; after each iteration the active pattern
    (entries of x and Ax beyond 1e-6) is polished by solving the KKT system on
    it exactly, and the polish is gated by its saddle residuals.  It stops at
    the first iterate whose x, Ax and y lie within 1e-10 of its gated polish.
    The budget is 20000 iterations; when it runs out, the polish of the last
    iterate is returned or raises SolverError.  b is read off grad h at the
    origin.
    """
    n = prob.n
    A = prob.A(np.eye(n)).T  # row i of the stack is A e_i
    b = -prob.h.gradient(np.zeros(n))
    return _polish_until_certified(
        _condat_vu_iterates(prob, A, b, mu, nu),
        lambda s: _sign_pattern(np.concatenate([s.x, s.z]), 1e-6),
        lambda pattern: _polish_pd_saddle(prob, A, b, mu, nu, pattern),
        lambda s, t: _max_gap(s.to_vector(), t.to_vector()))


# ---------------------------------------------------------------------------
# corpus


def _seeded_orthogonal(rng, n: int) -> Array:
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def affine_monotone_map(M: Array, q: Array) -> MonotoneMap:
    """A(x) = Mx + q with M + M^T PSD; resolvent solves (I + gamma*M)p = x - gamma*q."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    q = np.asarray(q, dtype=float)
    eye = np.eye(M.shape[0])
    return MonotoneMap(resolvent=lambda gamma, x: _solve(eye + gamma * M, x - gamma * q))


def _composite_problem(name: str, f, g, xstar: Array, start: Array, horizon: float,
                       note: str) -> ProblemDef:
    """min f + g as the inclusion 0 in A(x) + B(x), A = df and B = grad g."""
    B = gradient_map(g)
    return ProblemDef(
        name=name, kind="convex-composite",
        components={"f": f, "g": g, "A": subdifferential_map(f), "B": B,
                    "beta": B.cocoercivity_beta},
        known_solution=xstar, default_start=start, horizon=horizon, note=note)


def _lasso_problem(name: str, A_mat: Array, b: Array, mu: float, horizon: float,
                   note: str) -> ProblemDef:
    return _composite_problem(name, l1_prox(mu), least_squares_fn(A_mat, b),
                              solve_l1_quadratic(A_mat.T @ A_mat, A_mat.T @ b, mu),
                              np.ones(A_mat.shape[1]), horizon, note)


@functools.lru_cache(maxsize=4)
def corpus(seed: int = 0):
    """The shipped problem corpus (>= 8 problems, each with a solvable flow)."""
    rng = np.random.default_rng(seed)
    problems = []

    problems.append(ProblemDef(
        name="rotation2d", kind="fixed-point",
        components={"T": rotation_map(np.pi / 2.0)},
        known_solution=np.zeros(2), default_start=np.array([1.0, 0.0]),
        horizon=50.0, note="plane rotation by pi/2; unique fixed point at the origin"))

    problems.append(ProblemDef(
        name="neg_identity", kind="fixed-point",
        components={"T": SingleValuedMap(fn=np.negative, lipschitz_L=1.0)},
        known_solution=np.zeros(1), default_start=np.array([1.0]),
        horizon=20.0, note="T = -Id; the discrete iteration with lam=1 oscillates"))

    # 1-D lasso; the solution is the soft threshold soft(b, mu)
    problems.append(_lasso_problem("lasso1d", np.array([[1.0]]), np.array([1.5]), 0.4,
                                   horizon=100.0, note="soft-threshold closed form"))

    U = _seeded_orthogonal(rng, 10)
    V = _seeded_orthogonal(rng, 10)
    svals = np.linspace(1.0, 2.0, 10)
    A10 = U @ np.diag(svals) @ V.T
    b10 = rng.standard_normal(10) * 2.0
    problems.append(_lasso_problem("lasso10", A10, b10, 0.5, horizon=200.0,
                                   note="well-conditioned 10-D lasso, oracle-polished solution"))

    c_box = np.array([3.0, -1.0])
    problems.append(_composite_problem(
        "constrained_quadratic", box_prox(0.0, 2.0), least_squares_fn(np.eye(2), c_box),
        np.clip(c_box, 0.0, 2.0), np.array([1.0, 1.0]), 60.0,
        "projection of the unconstrained minimizer onto the box"))

    R = _seeded_orthogonal(rng, 5)
    Q5 = R @ np.diag(np.linspace(1.0, 3.0, 5)) @ R.T
    b5 = rng.standard_normal(5) * 3.0
    problems.append(_composite_problem(
        "strongcvx_l1", l1_prox(0.5), quadratic_fn(Q5, b5), solve_l1_quadratic(Q5, b5, 0.5),
        np.ones(5), 120.0, "strongly convex quadratic + l1; exponential flow regime"))

    K = np.array([[0.0, 1.0], [-1.0, 0.0]])
    problems.append(ProblemDef(
        name="bilinear_saddle", kind="saddle",
        components={"A": zero_operator(), "B": matrix_operator(K)},
        known_solution=np.zeros(2), default_start=np.array([1.0, 0.0]),
        horizon=200.0,
        note="monotone Lipschitz saddle operator; not cocoercive, norms are conserved "
             "by the plain flow"))

    problems.append(ProblemDef(
        name="nonconvex_cos", kind="nonconvex-composite",
        components={"problem": NonconvexProblem(f=l1_prox(0.1), g=one_minus_cos_fn(),
                                                eta=0.25)},
        known_solution=np.zeros(1), default_start=np.array([2.5]),
        horizon=200.0, note="1 - cos + 0.1|x|; the origin is the attracting critical point"))

    problems.append(_banana_box_problem())

    n_pd = 4
    b_pd = np.array([1.0, 3.0, 0.5, 2.0])
    mu_pd, nu_pd = 0.1, 0.5
    D = difference_matrix(n_pd)
    structured = StructuredProblem(
        f=l1_prox(mu_pd), h=least_squares_fn(np.eye(n_pd), b_pd), g=l1_prox(nu_pd),
        A=matrix_linear_map(D), n=n_pd, m=n_pd - 1)
    problems.append(ProblemDef(
        name="pd_lasso_analysis", kind="structured-pd",
        components={"structured": structured},
        known_solution=solve_pd_saddle(structured, mu_pd, nu_pd),
        default_start=PDState(x=np.zeros(n_pd), z=np.zeros(n_pd - 1), y=np.zeros(n_pd - 1)),
        horizon=500.0, note="difference-analysis lasso; saddle point oracle-polished"))

    # two-line feasibility: A = normal cone of {x2 = 0}, B = Id - proj onto {x1 + x2 = 2}
    line1 = np.array([[0.0, 1.0]])
    nrm = np.array([1.0, 1.0]) / np.sqrt(2.0)
    p0 = np.array([1.0, 1.0])  # a point on the second line
    N = np.outer(nrm, nrm)

    def b_two_lines(x):
        return N.dot(x - p0) if x.ndim == 1 else _rows_dot(N, x - p0)

    problems.append(ProblemDef(
        name="two_lines", kind="inclusion",
        components={
            "A": subdifferential_map(affine_prox(line1, np.array([0.0]))),
            "B": SingleValuedMap(fn=b_two_lines, cocoercivity_beta=1.0, lipschitz_L=1.0),
            "B_mono": affine_monotone_map(N, -N @ p0),
            "beta": 1.0,
        },
        known_solution=np.array([2.0, 0.0]), default_start=np.array([-1.0, 3.0]),
        horizon=40.0, note="feasibility of two lines; B is the gradient of half the "
                           "squared distance to the second line"))

    # the corpus is cached and shared, so its solutions and starts are read-only
    for p in problems:
        _freeze(p.known_solution)
        _freeze(p.default_start)
    return tuple(problems)


def _freeze(value):
    """Mark an array read-only in place, or each field of a PDState."""
    for a in (value.x, value.z, value.y) if isinstance(value, PDState) else (value,):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False


def _banana_box_problem() -> ProblemDef:
    """Curved-valley quadratic-coupling objective restricted to a box.

    g(x) = (1-x0)^2 + 2*(x1 - x0^2)^2 on [-1.5, 1.5]^2; the gradient Lipschitz
    bound is the max Hessian norm over the box (attained at a corner).

    A vector's entries are numpy scalars, whose ** 2 is C pow(); a stack's
    columns are arrays, whose ** 2 squares, to other bits at about 0.1% of
    points.  np.float_power is pow() on both, so the value squares with it
    alone, and so does the gradient on a stack.
    """
    c = 2.0
    lo, hi = -1.5, 1.5

    def val(x):
        x0, x1 = x[..., 0], x[..., 1]
        return _per_row(np.float_power(1.0 - x0, 2)
                        + c * np.float_power(x1 - np.float_power(x0, 2), 2), x)

    def grad(x):
        if x.ndim == 1:
            return np.array([-2.0 * (1.0 - x[0]) - 4.0 * c * x[0] * (x[1] - x[0] ** 2),
                             2.0 * c * (x[1] - x[0] ** 2)])
        x0, x1 = x[..., 0], x[..., 1]
        r = x1 - np.float_power(x0, 2)
        return np.stack([-2.0 * (1.0 - x0) - 4.0 * c * x0 * r, 2.0 * c * r], axis=-1)

    corner = np.array([[2.0 - 4.0 * c * lo + 12.0 * c * hi ** 2, -4.0 * c * hi],
                       [-4.0 * c * hi, 2.0 * c]])
    beta = float(np.linalg.norm(corner, 2))
    g = SmoothFunction(value=val, gradient=grad, grad_lipschitz=beta, convex=False)
    eta = 0.25 / beta  # eta*beta*(3 + eta*beta) = 0.8125
    return ProblemDef(
        name="banana_box", kind="nonconvex-composite",
        components={"problem": NonconvexProblem(f=box_prox(lo, hi), g=g, eta=eta)},
        known_solution=np.array([1.0, 1.0]), default_start=np.array([-1.0, 1.0]),
        horizon=20000.0,
        note="curved valley in a box; slow flow, run with coarse dt (the field is "
             "1-Lipschitz-scale)")


def get_problem(name: str, seed: int = 0) -> ProblemDef:
    for p in corpus(seed):
        if p.name == name:
            return p
    raise KeyError("unknown problem %r; known: %s"
                   % (name, ", ".join(p.name for p in corpus(seed))))


def state_residual(p: ProblemDef, state) -> float:
    """First-order residual of a candidate solution, by problem kind."""
    if p.kind == "structured-pd":
        return max(saddle_residuals(p.components["structured"], state).values())
    x = np.asarray(state, dtype=float)
    if p.kind == "fixed-point":
        return float(np.linalg.norm(p.components["T"](x) - x))
    if p.kind in ("inclusion", "convex-composite"):
        A, B = p.components["A"], p.components["B"]
        gamma = min(1.0, p.components.get("beta", 1.0))
        return float(np.linalg.norm(resolvent_eval(A, gamma, x - gamma * B(x)) - x))
    if p.kind == "saddle":
        return float(np.linalg.norm(p.components["B"](x)))
    if p.kind == "nonconvex-composite":
        return critical_residual(p.components["problem"], x)
    raise ValueError("unknown problem kind %r" % p.kind)


def solution_residual(p: ProblemDef) -> float:
    """Residual of the shipped reference solution (nan when none is shipped)."""
    if p.known_solution is None:
        return np.nan
    return state_residual(p, p.known_solution)
