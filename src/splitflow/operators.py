"""Vectors, proximal maps, resolvents, and the algebra built on them.

Everything lives in R^n with dense float64 coordinates.  Set-valued monotone
operators are represented purely through their resolvent oracle; proximable
functions through a value oracle plus a prox oracle.

Small products on the step path go through ndarray.dot: every matrix-vector
product of the catalog (M.dot(x)) and every self-dot (v.dot(v)).  On vectors
of a few entries a product costs numpy's dispatch, not arithmetic, and
ndarray.dot dispatches in half the time of @ or less.  The two give the same
bits except when the summed dimension is 1 (a 1-column matrix, or two
1-entry vectors): there .dot returns the bare product, so an exact zero can
come out as -0.0 where @ adds it to +0.0.  A self-dot is never -0.0, so
self-dots are always safe.  Cross dots (u @ v of two different vectors) stay
@, since a 1-D flow's -0.0 would change the CSV outputs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .errors import SpecError

Array = np.ndarray


def as_vector(x) -> Array:
    """Coerce to a finite 1-D float64 array of positive dimension."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector, got shape %s" % (v.shape,))
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def norm(v) -> float:
    """The Euclidean norm of a 1-D float vector.

    np.linalg.norm(v) bit for bit (it too takes the square root of v.dot(v)),
    without its Python dispatch.
    """
    return math.sqrt(float(v.dot(v)))


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
        value=lambda x: weight * float(np.abs(x).sum()),
        prox=lambda gamma, x: soft_threshold(np.asarray(x, dtype=float), gamma * weight),
    )


def squared_l2_prox(scale: float = 1.0, center=None) -> ProxFunction:
    """f = (scale/2) * ||x - center||^2."""
    if not scale > 0:
        raise ValueError("squared_l2 scale must be positive")
    c = 0.0 if center is None else as_vector(center)

    def value(x):
        d = np.asarray(x, dtype=float) - c
        return 0.5 * scale * float(d.dot(d))

    def prox(gamma, x):
        x = np.asarray(x, dtype=float)
        return (x + gamma * scale * c) / (1.0 + gamma * scale)

    return ProxFunction(value=value, prox=prox)


def box_prox(lo, hi) -> ProxFunction:
    """Indicator of the box [lo, hi]; prox is the clip, independent of gamma."""
    if not np.all(np.less_equal(lo, hi)):  # also rejects NaN bounds
        raise ValueError("box needs lo <= hi")

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.0 if (x >= lo - 1e-12).all() and (x <= hi + 1e-12).all() else np.inf

    def clip(gamma, x):
        # np.clip's result, bit for bit for scalar bounds (x is kept where it
        # equals a bound, so -0.0 stays -0.0), at half its dispatch cost
        return np.minimum(hi, np.maximum(lo, np.asarray(x, dtype=float)))

    return ProxFunction(value=value, prox=clip)


def ball_prox(radius: float = 1.0, center=None) -> ProxFunction:
    """Indicator of the Euclidean ball; prox is the radial projection."""
    if not radius > 0:
        raise ValueError("ball radius must be positive")
    c = 0.0 if center is None else as_vector(center)

    def project(gamma, x):
        x = np.asarray(x, dtype=float)
        d = x - c
        nd = norm(d)
        if nd <= radius:
            return x.copy()
        return c + d * (radius / nd)

    def value(x):
        return 0.0 if norm(np.asarray(x, dtype=float) - c) <= radius + 1e-12 else np.inf

    return ProxFunction(value=value, prox=project)


def halfspace_prox(normal, offset: float) -> ProxFunction:
    """Indicator of {x : <normal, x> <= offset}."""
    a = as_vector(normal)
    a_sq = float(a @ a)
    if a_sq == 0:
        raise ValueError("halfspace normal must be nonzero")
    if not math.isfinite(offset):
        raise ValueError("halfspace offset must be finite")

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
    CT = C.T
    gram_inv = np.linalg.pinv(C @ CT)

    def project(gamma, x):
        x = np.asarray(x, dtype=float)
        return x - CT.dot(gram_inv.dot(C.dot(x) - d))

    def value(x):
        r = C @ np.asarray(x, dtype=float) - d
        return 0.0 if norm(r) <= 1e-10 else np.inf

    return ProxFunction(value=value, prox=project)


def l1_quadratic_prox(weight: float, quad_diag, lin) -> ProxFunction:
    """f = weight*||x||_1 + sum_i (a_i/2) x_i^2 + b_i x_i, separable closed-form prox."""
    a = as_vector(quad_diag)
    b = as_vector(lin)
    if not weight >= 0:
        raise ValueError("l1 weight must be nonnegative")
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
    return SingleValuedMap(fn=lambda x: M.dot(np.asarray(x, dtype=float)),
                           cocoercivity_beta=beta, lipschitz_L=L)


def rotation_map(angle: float) -> SingleValuedMap:
    """Plane rotation by the given angle; nonexpansive (an isometry)."""
    R = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    return SingleValuedMap(fn=lambda x: R.dot(np.asarray(x, dtype=float)),
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
        gradient=lambda x: Q.dot(np.asarray(x, dtype=float)) - bv,
        grad_lipschitz=L,
        convex=bool(np.min(eigs) >= -1e-12),
    )


def least_squares_fn(A, b) -> SmoothFunction:
    """g(x) = ||Ax - b||^2 / 2."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = as_vector(b)
    AT = A.T
    L = float(np.linalg.norm(A, 2)) ** 2
    return SmoothFunction(
        value=lambda x: 0.5 * float(np.sum((A @ np.asarray(x) - b) ** 2)),
        gradient=lambda x: AT.dot(A.dot(np.asarray(x, dtype=float)) - b),
        grad_lipschitz=L,
    )


def one_minus_cos_fn() -> SmoothFunction:
    """g(x) = sum_i (1 - cos x_i), nonconvex with gradient Lipschitz constant 1."""
    return SmoothFunction(
        value=lambda x: float((1.0 - np.cos(np.asarray(x, dtype=float))).sum()),
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
    MT = M.T
    return LinearMap(
        apply=lambda x: M.dot(np.asarray(x, dtype=float)),
        adjoint=lambda y: MT.dot(np.asarray(y, dtype=float)),
        norm_estimate=float(np.linalg.norm(M, 2)),
    )


def difference_matrix(n: int) -> Array:
    """(n-1) x n forward-difference matrix."""
    return np.eye(n - 1, n, 1) - np.eye(n - 1, n)
