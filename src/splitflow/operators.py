"""Vectors, proximal maps, resolvents, and the algebra built on them.

Everything lives in R^n with dense float64 coordinates.  Set-valued monotone
operators are represented purely through their resolvent oracle; proximable
functions through a value oracle plus a prox oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .errors import SolverError, SpecError

Array = np.ndarray


def as_vector(x) -> Array:
    """Coerce to a finite 1-D float64 array of positive dimension."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector, got shape %s" % (v.shape,))
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


@dataclasses.dataclass(frozen=True)
class ProxFunction:
    """A proper convex lsc function accessed through value and prox oracles.

    value(x) may return +inf outside the domain.  prox(gamma, x) returns the
    minimizer of f(y) + ||y-x||^2/(2*gamma).
    """

    value: Callable[[Array], float]
    prox: Callable[[float, Array], Array]


@dataclasses.dataclass(frozen=True)
class MonotoneMap:
    """A maximally monotone operator, visible only through its resolvent.

    resolvent(gamma, x) = (Id + gamma*A)^{-1}(x).  No strong monotonicity
    constant is stored: every flow here uses plain monotonicity alone.
    """

    resolvent: Callable[[float, Array], Array]


@dataclasses.dataclass(frozen=True)
class SingleValuedMap:
    """A single-valued operator with optional cocoercivity/Lipschitz data."""

    fn: Callable[[Array], Array]
    cocoercivity_beta: Optional[float] = None
    lipschitz_L: Optional[float] = None
    differentiable: bool = True

    def __call__(self, x: Array) -> Array:
        return self.fn(x)


@dataclasses.dataclass(frozen=True)
class SmoothFunction:
    """A differentiable function with a known gradient Lipschitz constant.

    grad_lipschitz stores L with ||grad(x)-grad(y)|| <= L||x-y||; callers that
    use the cocoercivity convention derive beta = 1/L themselves.
    """

    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    grad_lipschitz: float
    convex: bool = True


@dataclasses.dataclass(frozen=True)
class LinearMap:
    """A linear operator with adjoint access and an operator-norm bound."""

    apply: Callable[[Array], Array]
    adjoint: Callable[[Array], Array]
    norm_estimate: float

    def __call__(self, x: Array) -> Array:
        return self.apply(x)


# ---------------------------------------------------------------------------
# core operations


def prox_eval(f: ProxFunction, gamma: float, x: Array) -> Array:
    """Evaluate prox_{gamma f}(x)."""
    if not gamma > 0:  # also rejects NaN
        raise ValueError("prox parameter gamma must be positive, got %r" % gamma)
    return f.prox(gamma, np.asarray(x, dtype=float))


def resolvent_eval(A: MonotoneMap, gamma: float, x: Array) -> Array:
    """Evaluate J_{gamma A}(x) = (Id + gamma*A)^{-1}(x)."""
    if not gamma > 0:  # also rejects NaN
        raise ValueError("resolvent parameter gamma must be positive, got %r" % gamma)
    return A.resolvent(gamma, np.asarray(x, dtype=float))


def reflected_resolvent(A: MonotoneMap, gamma: float, x: Array) -> Array:
    """Evaluate 2*J_{gamma A}(x) - x (nonexpansive)."""
    x = np.asarray(x, dtype=float)
    return 2.0 * resolvent_eval(A, gamma, x) - x


def yosida_eval(A: MonotoneMap, lam: float, x: Array) -> Array:
    """Evaluate the Yosida regularization (x - J_{lam A}(x))/lam, (1/lam)-Lipschitz."""
    if not lam > 0:  # also rejects NaN
        raise ValueError("Yosida parameter lam must be positive, got %r" % lam)
    x = np.asarray(x, dtype=float)
    return (x - resolvent_eval(A, lam, x)) / lam


def fb_delta(beta: float, gamma: float) -> float:
    """Averagedness constant delta = (4*beta - gamma)/(2*beta) of the forward-backward map."""
    return (4.0 * beta - gamma) / (2.0 * beta)


def check_fb_step(B: SingleValuedMap, gamma: float, relaxed: bool = False) -> float:
    """The forward-backward step hypothesis: B cocoercive and 0 < gamma < 2*beta, the
    upper bound dropped in a relaxed regime.  Returns beta; raises SpecError otherwise."""
    beta = B.cocoercivity_beta
    if beta is None:
        raise SpecError("forward-backward step needs a cocoercive B")
    if not (gamma > 0 and (relaxed or gamma < 2.0 * beta)):
        raise SpecError("forward-backward step gamma=%g outside (0, %g)"
                        % (gamma, np.inf if relaxed else 2.0 * beta))
    return beta


def fb_map(A: MonotoneMap, B: SingleValuedMap, gamma: float, x: Array,
           allow_relaxed: bool = False) -> Array:
    """One forward-backward pass J_{gamma A}(x - gamma*B(x)).

    check_fb_step(B, gamma, relaxed=allow_relaxed) must hold; with 0 < gamma
    < 2*beta the map is 1/delta-averaged with delta = fb_delta(beta, gamma).
    """
    check_fb_step(B, gamma, relaxed=allow_relaxed)
    x = np.asarray(x, dtype=float)
    return resolvent_eval(A, gamma, x - gamma * B(x))


def prox_numeric(value_fn: Callable[[Array], float], gamma: float, x: Array,
                 tol: float = 1e-10, max_evals: int = 10 ** 5) -> Array:
    """Numeric fallback prox: minimize f(y) + ||y-x||^2/(2*gamma) by value queries only.

    Hypothesis: f is separable, or separable plus a differentiable convex part.
    Cyclic coordinate minimization; each coordinate is bracketed then shrunk by
    golden-section search.  The optimality residual is the displacement of one
    full extra sweep started from the candidate; exceeding tol after the
    evaluation budget raises SolverError carrying the best residual.  A sweep
    that does not move shows only that no coordinate alone can improve: for
    f(y) = 10|y0 - y1| at x = (1, -1), gamma = 1 it stops at (-1, -1), not 0.
    """
    if not gamma > 0:  # also rejects NaN
        raise ValueError("prox parameter gamma must be positive, got %r" % gamma)
    x = as_vector(x)
    n = x.size
    budget = [max_evals]

    def objective(y):
        budget[0] -= 1
        d = y - x
        return value_fn(y) + float(d @ d) / (2.0 * gamma)

    def line_min(y, i):
        # golden-section on coordinate i with outward bracket expansion, then a
        # parabolic-vertex refinement: value queries alone plateau at sqrt(eps)
        # around smooth minima, while a parabola through a moderate-width
        # triple recovers them to ~1e-11 (the quadratic penalty is exact).
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        base = y.copy()

        def phi(s):
            base[i] = y[i] + s
            val = objective(base)
            return val

        step = max(1.0, abs(x[i]))
        f0 = phi(0.0)
        a, b = -step, step
        fa, fb = phi(a), phi(b)
        # expand until the center is no worse than both ends (convexity => bracket)
        while (fa < f0 or fb < f0) and budget[0] > 0:
            step *= 2.0
            a, b = -step, step
            fa, fb = phi(a), phi(b)
        lo, hi = a, b
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, fd = phi(c), phi(d)
        scale = 1.0 + abs(y[i])
        width_tol = 1e-13 * scale
        snap = None
        while hi - lo > width_tol and budget[0] > 0:
            if snap is None and hi - lo <= 1e-5 * scale:
                snap = (lo, hi)
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = phi(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = phi(d)
        s_gold = 0.5 * (lo + hi)
        s_best = s_gold
        if snap is not None and budget[0] > 4:
            s1, s3 = snap
            s2 = 0.5 * (s1 + s3)
            f1, f2, f3 = phi(s1), phi(s2), phi(s3)
            num = (s2 - s1) ** 2 * (f2 - f3) - (s2 - s3) ** 2 * (f2 - f1)
            den = (s2 - s1) * (f2 - f3) - (s2 - s3) * (f2 - f1)
            if den != 0.0:
                s_par = s2 - 0.5 * num / den
                if s1 <= s_par <= s3:
                    fg, fp = phi(s_gold), phi(s_par)
                    noise = 8.0 * np.finfo(float).eps * (abs(fg) + abs(fp) + 1.0)
                    # plateau => smooth minimum => trust the parabola vertex
                    if abs(fg - fp) <= noise or fp < fg:
                        s_best = s_par
        base[i] = y[i] + s_best
        return base[i]

    def sweep(y):
        out = y.copy()
        for i in range(n):
            out[i] = line_min(out, i)
        return out

    y = x.copy()
    residual = np.inf
    while budget[0] > 0:
        y_next = sweep(y)
        residual = float(np.linalg.norm(y_next - y))
        y = y_next
        if residual <= tol:
            return y
    raise SolverError("prox_numeric exhausted its evaluation budget", residual=residual)


# ---------------------------------------------------------------------------
# analytic prox catalog


def zero_prox() -> ProxFunction:
    """f = 0; prox is the identity."""
    return ProxFunction(value=lambda x: 0.0,
                        prox=lambda gamma, x: np.asarray(x, dtype=float).copy())


def soft_threshold(x: Array, thresh: float) -> Array:
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def l1_prox(weight: float = 1.0) -> ProxFunction:
    """f = weight * ||x||_1; prox is soft thresholding."""
    if not weight >= 0:
        raise ValueError("l1 weight must be nonnegative")
    return ProxFunction(
        value=lambda x: weight * float(np.sum(np.abs(x))),
        prox=lambda gamma, x: soft_threshold(np.asarray(x, dtype=float), gamma * weight),
    )


def squared_l2_prox(scale: float = 1.0, center=None) -> ProxFunction:
    """f = (scale/2) * ||x - center||^2."""
    if not scale > 0:
        raise ValueError("squared_l2 scale must be positive")

    def value(x):
        d = np.asarray(x, dtype=float) - (0.0 if center is None else center)
        return 0.5 * scale * float(d @ d)

    def prox(gamma, x):
        x = np.asarray(x, dtype=float)
        c = 0.0 if center is None else np.asarray(center, dtype=float)
        return (x + gamma * scale * c) / (1.0 + gamma * scale)

    return ProxFunction(value=value, prox=prox)


def box_prox(lo, hi) -> ProxFunction:
    """Indicator of the box [lo, hi]; prox is the clip, independent of gamma."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.0 if np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12) else np.inf

    return ProxFunction(value=value,
                        prox=lambda gamma, x: np.clip(np.asarray(x, dtype=float), lo, hi))


def ball_prox(radius: float = 1.0, center=None) -> ProxFunction:
    """Indicator of the Euclidean ball; prox is the radial projection."""
    if not radius > 0:
        raise ValueError("ball radius must be positive")

    def project(gamma, x):
        x = np.asarray(x, dtype=float)
        c = 0.0 if center is None else np.asarray(center, dtype=float)
        d = x - c
        nd = np.linalg.norm(d)
        if nd <= radius:
            return x.copy()
        return c + d * (radius / nd)

    def value(x):
        x = np.asarray(x, dtype=float)
        c = 0.0 if center is None else np.asarray(center, dtype=float)
        return 0.0 if np.linalg.norm(x - c) <= radius + 1e-12 else np.inf

    return ProxFunction(value=value, prox=project)


def halfspace_prox(normal, offset: float) -> ProxFunction:
    """Indicator of {x : <normal, x> <= offset}."""
    a = as_vector(normal)
    a_sq = float(a @ a)
    if a_sq == 0:
        raise ValueError("halfspace normal must be nonzero")

    def project(gamma, x):
        x = np.asarray(x, dtype=float)
        excess = float(a @ x) - offset
        if excess <= 0:
            return x.copy()
        return x - (excess / a_sq) * a

    def value(x):
        return 0.0 if float(a @ np.asarray(x, dtype=float)) <= offset + 1e-12 else np.inf

    return ProxFunction(value=value, prox=project)


def affine_prox(C, d) -> ProxFunction:
    """Indicator of {x : Cx = d}; prox is the affine projection."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    d = as_vector(d)
    gram_inv = np.linalg.pinv(C @ C.T)

    def project(gamma, x):
        x = np.asarray(x, dtype=float)
        return x - C.T @ (gram_inv @ (C @ x - d))

    def value(x):
        r = C @ np.asarray(x, dtype=float) - d
        return 0.0 if np.linalg.norm(r) <= 1e-10 else np.inf

    return ProxFunction(value=value, prox=project)


def l1_quadratic_prox(weight: float, quad_diag, lin) -> ProxFunction:
    """f = weight*||x||_1 + sum_i (a_i/2) x_i^2 + b_i x_i, separable closed-form prox."""
    a = as_vector(quad_diag)
    b = as_vector(lin)
    if np.any(a < 0):
        raise ValueError("quadratic diagonal must be nonnegative for convexity")

    def value(x):
        x = np.asarray(x, dtype=float)
        return weight * float(np.sum(np.abs(x))) + 0.5 * float(a @ (x * x)) + float(b @ x)

    def prox(gamma, x):
        x = np.asarray(x, dtype=float)
        return soft_threshold(x - gamma * b, gamma * weight) / (1.0 + gamma * a)

    return ProxFunction(value=value, prox=prox)


def moreau_conjugate_prox(g: ProxFunction, c: float, w: Array) -> Array:
    """prox_{c g*}(w) via the Moreau identity w - c*prox_{g/c}(w/c)."""
    if not c > 0:  # also rejects NaN
        raise ValueError("conjugate prox parameter c must be positive")
    w = np.asarray(w, dtype=float)
    return w - c * prox_eval(g, 1.0 / c, w / c)


# ---------------------------------------------------------------------------
# operator catalog


def zero_operator() -> MonotoneMap:
    """A = 0; the resolvent is the identity."""
    return MonotoneMap(resolvent=lambda gamma, x: np.asarray(x, dtype=float).copy())


def identity_operator(scale: float = 1.0) -> MonotoneMap:
    """A = scale * Id (the subdifferential of (scale/2)||x||^2)."""
    if not scale >= 0:
        raise ValueError("identity_operator scale must be nonnegative")
    return MonotoneMap(
        resolvent=lambda gamma, x: np.asarray(x, dtype=float) / (1.0 + gamma * scale))


def subdifferential_map(f: ProxFunction) -> MonotoneMap:
    """The subdifferential of a proximable convex function; resolvent = prox."""
    return MonotoneMap(resolvent=lambda gamma, x: prox_eval(f, gamma, x))


def linear_monotone_map(M) -> MonotoneMap:
    """A = M with M + M^T positive semidefinite; resolvent solves (I + gamma*M)p = x."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    sym = 0.5 * (M + M.T)
    eigmin = float(np.min(np.linalg.eigvalsh(sym)))
    if eigmin < -1e-10:
        raise ValueError("matrix is not monotone: min symmetric eigenvalue %g" % eigmin)
    eye = np.eye(M.shape[0])

    def res(gamma, x):
        return np.linalg.solve(eye + gamma * M, np.asarray(x, dtype=float))

    return MonotoneMap(resolvent=res)


def matrix_operator(M) -> SingleValuedMap:
    """B(x) = Mx with Lipschitz constant ||M||; cocoercive only when M is symmetric PSD."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    L = float(np.linalg.norm(M, 2))
    beta = None
    if np.allclose(M, M.T, atol=1e-12):
        eigs = np.linalg.eigvalsh(M)
        if np.min(eigs) >= -1e-12 and np.max(eigs) > 0:
            beta = 1.0 / float(np.max(eigs))
    return SingleValuedMap(fn=lambda x: M @ np.asarray(x, dtype=float),
                           cocoercivity_beta=beta, lipschitz_L=L)


def rotation_map(angle: float) -> SingleValuedMap:
    """Plane rotation by the given angle; nonexpansive (an isometry)."""
    R = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    return SingleValuedMap(fn=lambda x: R @ np.asarray(x, dtype=float),
                           cocoercivity_beta=None, lipschitz_L=1.0)


def gradient_map(g: SmoothFunction) -> SingleValuedMap:
    """The gradient of g as an operator; beta = 1/L when g is convex (Baillon-Haddad)."""
    beta = (1.0 / g.grad_lipschitz) if (g.convex and g.grad_lipschitz > 0) else None
    return SingleValuedMap(fn=g.gradient, cocoercivity_beta=beta,
                           lipschitz_L=g.grad_lipschitz)


# ---------------------------------------------------------------------------
# smooth function catalog


def quadratic_fn(Q, b=None, constant: float = 0.0) -> SmoothFunction:
    """g(x) = x^T Q x / 2 - b^T x + constant with symmetric Q."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = Q.shape[0]
    bv = np.zeros(n) if b is None else as_vector(b)
    eigs = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    L = float(np.max(np.abs(eigs)))
    return SmoothFunction(
        value=lambda x: 0.5 * float(np.asarray(x) @ (Q @ np.asarray(x))) - float(bv @ np.asarray(x)) + constant,
        gradient=lambda x: Q @ np.asarray(x, dtype=float) - bv,
        grad_lipschitz=L,
        convex=bool(np.min(eigs) >= -1e-12),
    )


def least_squares_fn(A, b) -> SmoothFunction:
    """g(x) = ||Ax - b||^2 / 2."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = as_vector(b)
    L = float(np.linalg.norm(A, 2)) ** 2
    return SmoothFunction(
        value=lambda x: 0.5 * float(np.sum((A @ np.asarray(x) - b) ** 2)),
        gradient=lambda x: A.T @ (A @ np.asarray(x, dtype=float) - b),
        grad_lipschitz=L,
    )


def one_minus_cos_fn() -> SmoothFunction:
    """g(x) = sum_i (1 - cos x_i), nonconvex with gradient Lipschitz constant 1."""
    return SmoothFunction(
        value=lambda x: float(np.sum(1.0 - np.cos(np.asarray(x, dtype=float)))),
        gradient=lambda x: np.sin(np.asarray(x, dtype=float)),
        grad_lipschitz=1.0,
        convex=False,
    )


def zero_fn() -> SmoothFunction:
    return SmoothFunction(value=lambda x: 0.0,
                          gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                          grad_lipschitz=0.0)


def matrix_linear_map(M) -> LinearMap:
    """Dense-matrix LinearMap with exact 2-norm estimate."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return LinearMap(
        apply=lambda x: M @ np.asarray(x, dtype=float),
        adjoint=lambda y: M.T @ np.asarray(y, dtype=float),
        norm_estimate=float(np.linalg.norm(M, 2)),
    )


def difference_matrix(n: int) -> Array:
    """(n-1) x n forward-difference matrix."""
    return np.eye(n - 1, n, 1) - np.eye(n - 1, n)
