"""Vectors, proximal maps, resolvents, and the algebra built on them.

Everything lives in R^n with dense float64 coordinates.  Set-valued monotone
operators are represented purely through their resolvent oracle; proximable
functions through a value oracle plus a prox oracle.

The oracle contract: an oracle (prox, resolvent, value, fn, gradient, apply,
adjoint) receives a 1-D float64 array, or a stack of them with a leading
record axis, shape (R, n), returns a new array, and never modifies its
argument.  On a stack it returns one result per row (a value oracle a
float64 array of shape (R,), where a vector gets a float), each with the
bits the row alone would get.  The step path hands oracles vectors; the
probes of a trajectory hand them its stacked records, once.  A caller's
vector is converted to float64 once, where it enters the package:
as_vector, prox_eval, resolvent_eval, reflected_resolvent, yosida_eval and
moreau_conjugate_prox here, integrate, run_sequence and euler_unit_step for
flows, and the public diagnostic and merit functions.
Nothing beneath them converts again, so an elementwise closure that only
forwards its argument is the callable itself (np.sin, np.negative).

Small products on the step path go through ndarray.dot: every self-dot
(v.dot(v)), and every matrix-vector product of the catalog, whose one path is
_matvec(M), the oracle x -> M x.  On vectors of a few entries a product costs
numpy's dispatch, not arithmetic, and ndarray.dot dispatches in half the time
of @ or less.  The two give the same bits except when the summed dimension is
1 (a 1-column matrix, or two 1-entry vectors): there .dot returns the bare
product, so an exact zero can come out as -0.0 where @ adds it to +0.0.  A
self-dot is never -0.0, so self-dots are always safe.  Cross dots (u @ v of
two different vectors) stay @, since a 1-D flow's -0.0 would change the CSV
outputs.  On a stack _matvec gives each row its .dot bits, the one-column
case included, where a bound M.dot would contract the record axis (without
an error when R == n); dots of a stack go through np.vecdot.

A prox or a resolvent is a binder: f.prox(gamma) and A.resolvent(gamma)
check the step (ValueError for gamma <= 0 or NaN, before any evaluation) and
return the map x -> prox_{gamma f}(x) or J_{gamma A}(x), with every constant
derived from the step computed once (a threshold, a shift, a divisor,
I + gamma*M).  A flow field and a probe bind their oracles when they are
built, a discrete step at every call.  prox_eval, resolvent_eval,
reflected_resolvent, yosida_eval and moreau_conjugate_prox convert the
caller's vector, bind, and evaluate: the entry points for a caller's vector.
The binder is the one place a step is checked, so a bad step given to an entry
point raises the binder's ValueError before anything is evaluated.
A bound map is an oracle, so it takes an ndarray: the zero maps bind
np.ndarray.copy, which raises TypeError on a list, a Python float or a numpy
scalar that the entry points would have converted.

A scalar that multiplies, divides or clips a vector on the step path is a
0-d float64 array (the binders' constants, the bound pair lo, hi of a clip,
a field's step and constant relaxation): numpy 2.4 dispatches such a ufunc
0.2-0.8 us faster than with a Python float (2-vCPU host), to the same bits.
A scalar that changes with t stays a Python float, since making a 0-d array
of it costs about as much.  A binder checks its step once and reads it with
float(), so that the constants it derives are Python-float products, with
the bits the two-argument oracles had.

Every clip of the catalog is one call of the clip ufunc that np.clip itself
dispatches to (_clip), without np.clip's Python wrapper.  The box projection
is _clip(x, lo, hi); soft thresholding at t is copysign(x - _clip(x, -t, t),
sign(x)), the bits of sign(x) * max(|x| - t, 0) in four dispatches where
that takes five (_shrink, the one home of that arithmetic).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Tuple

import numpy as np
from numpy._core.umath import clip as _clip

from .errors import SpecError

Array = np.ndarray


_TWO = np.array(2.0)


def _positive(gamma) -> float:
    """A binder's step gamma as a Python float; ValueError unless gamma > 0 (NaN too)."""
    if not gamma > 0:
        raise ValueError("step gamma must be positive, got %r" % (gamma,))
    return float(gamma)


def _step_free(oracle):
    """The binder of a prox or resolvent that does not depend on its step: it checks
    the step and returns oracle."""
    def bind(gamma):
        _positive(gamma)
        return oracle

    return bind


def as_vector(x) -> Array:
    """Coerce to a finite 1-D float64 array of positive dimension."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector, got shape %s" % (v.shape,))
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def norm(v):
    """The Euclidean norm of a 1-D float vector, or of each row of a stack.

    np.linalg.norm(v) bit for bit (it too takes the square root of v.dot(v)),
    without its Python dispatch; a row's norm has the same bits.
    """
    if v.ndim == 1:
        return math.sqrt(float(v.dot(v)))
    return np.sqrt(np.vecdot(v, v))


def _matvec(M) -> Callable[[Array], Array]:
    """The oracle x -> M x: M.dot on a vector, and on a stack the bits M.dot gives
    each row.  np.matvec gives them when M has no column or two or more.  With
    one column .dot sums nothing: a 1x1 M gives the bare product, and a k x 1 M
    goes to BLAS gemv, which skips a zero x and fuses the multiply with its +0.0
    start, so that neither the bare product nor np.matvec (which adds it to
    +0.0, as @ does) has its zero signs; such an M is applied row by row."""
    dot = M.dot

    def rows(X):
        if M.shape[1] != 1:
            return np.matvec(M, X)
        if M.shape[0] == 1:
            return X * M[0]
        return np.array([dot(x) for x in X]).reshape(X.shape[:-1] + M.shape[:1])

    return lambda x: dot(x) if x.ndim == 1 else rows(x)


def _solve(K, x) -> Array:
    """K^{-1} x for a vector x, or for each row of a stack.  A stack is solved
    against K broadcast to one matrix per row: a single solve with R right-hand
    sides would round differently from R solves with one."""
    if x.ndim == 1:
        return np.linalg.solve(K, x)
    return np.linalg.solve(np.broadcast_to(K, x.shape[:-1] + K.shape), x[..., None])[..., 0]


def _per_row(value, x):
    """A value oracle's result: a float for a vector x, the (R,) array for a stack."""
    return float(value) if x.ndim == 1 else value


def _indicator(inside, x):
    """0 where inside holds and +inf elsewhere, as _per_row gives it."""
    return _per_row(np.where(inside, 0.0, np.inf), x)


@dataclasses.dataclass(frozen=True)
class ProxFunction:
    """A proper convex lsc function accessed through value and prox oracles.

    value(x) may return +inf outside the domain.  prox(gamma) checks gamma > 0
    and returns the map x -> argmin_y f(y) + ||y-x||^2/(2*gamma).
    """

    value: Callable[[Array], float]
    prox: Callable[[float], Callable[[Array], Array]]


@dataclasses.dataclass(frozen=True)
class MonotoneMap:
    """A maximally monotone operator, visible only through its resolvent.

    resolvent(gamma) checks gamma > 0 and returns the map
    x -> (Id + gamma*A)^{-1}(x).  No strong monotonicity constant is stored:
    every flow here uses plain monotonicity alone.
    """

    resolvent: Callable[[float], Callable[[Array], Array]]


@dataclasses.dataclass(frozen=True)
class SingleValuedMap:
    """A single-valued operator with optional cocoercivity/Lipschitz data."""

    fn: Callable[[Array], Array]
    cocoercivity_beta: Optional[float] = None
    lipschitz_L: Optional[float] = None
    differentiable: bool = True

    def __call__(self, x: Array) -> Array:
        return self.fn(x)


def _nonexpansive(T: SingleValuedMap) -> bool:
    """T has no Lipschitz bound, or one of at most 1 (to 1e-10); a NaN bound has not."""
    return T.lipschitz_L is None or T.lipschitz_L <= 1.0 + 1e-10


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
    return f.prox(gamma)(np.asarray(x, dtype=float))


def resolvent_eval(A: MonotoneMap, gamma: float, x: Array) -> Array:
    """Evaluate J_{gamma A}(x) = (Id + gamma*A)^{-1}(x)."""
    return A.resolvent(gamma)(np.asarray(x, dtype=float))


def _reflect(J: Callable[[Array], Array], x: Array) -> Array:
    """2*J(x) - x for a bound resolvent J: the reflected resolvent (nonexpansive)."""
    return _TWO * J(x) - x


def reflected_resolvent(A: MonotoneMap, gamma: float, x: Array) -> Array:
    """Evaluate 2*J_{gamma A}(x) - x (nonexpansive)."""
    return _reflect(A.resolvent(gamma), np.asarray(x, dtype=float))


def yosida_eval(A: MonotoneMap, lam: float, x: Array) -> Array:
    """Evaluate the Yosida regularization (x - J_{lam A}(x))/lam, (1/lam)-Lipschitz."""
    J = A.resolvent(lam)
    x = np.asarray(x, dtype=float)
    return (x - J(x)) / lam


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


# ---------------------------------------------------------------------------
# analytic prox catalog


def _zero(x):
    """The value oracle of f = 0."""
    return _per_row(np.zeros(x.shape[:-1]), x)


def zero_prox() -> ProxFunction:
    """f = 0; prox is the identity."""
    return ProxFunction(value=_zero, prox=_step_free(np.ndarray.copy))


def _shrink(thresh) -> Callable[[Array], Array]:
    """The soft-thresholding map x -> sign(x) * max(|x| - thresh, 0), bit for bit: x
    less its clip to [-thresh, thresh] is |x| - thresh outside it and +0.0 inside,
    and copysign gives it the sign of sign(x) (+-0.0 at a zero x, NaN's at NaN)."""
    lo, hi = np.array(-thresh), np.array(thresh)
    return lambda x: np.copysign(x - _clip(x, lo, hi), np.sign(x))


def soft_threshold(x: Array, thresh: float) -> Array:
    """sign(x) * max(|x| - thresh, 0), elementwise."""
    return _shrink(thresh)(x)


def l1_prox(weight: float = 1.0) -> ProxFunction:
    """f = weight * ||x||_1; prox is soft thresholding."""
    if not weight >= 0:
        raise ValueError("l1 weight must be nonnegative")

    def prox(gamma):
        return _shrink(_positive(gamma) * weight)

    return ProxFunction(value=lambda x: _per_row(weight * np.abs(x).sum(axis=-1), x),
                        prox=prox)


def squared_l2_prox(scale: float = 1.0, center=None) -> ProxFunction:
    """f = (scale/2) * ||x - center||^2."""
    if not scale > 0:
        raise ValueError("squared_l2 scale must be positive")
    c = 0.0 if center is None else as_vector(center)

    def value(x):
        d = x - c
        return _per_row(0.5 * scale * np.vecdot(d, d), x)

    def prox(gamma):
        gs = _positive(gamma) * scale
        shift, div = np.asarray(gs * c), np.array(1.0 + gs)
        return lambda x: (x + shift) / div

    return ProxFunction(value=value, prox=prox)


def box_prox(lo, hi) -> ProxFunction:
    """Indicator of the box [lo, hi]; prox is the clip, independent of gamma.

    The clip is np.clip(x, lo, hi) bit for bit, through the clip ufunc.  Where a
    zero x meets a bound that is a zero of the other sign, that ufunc keeps x
    when neither bound steps through its loop (0-d bounds, as np.minimum(hi,
    np.maximum(lo, x)) does) and takes the bound otherwise.  So a bound of one
    entry is held 0-d: as shape (1,) it would step through a vector's loop but
    not a stack's, and give a row of a stack other zero signs than the row alone.
    """
    if not np.all(np.less_equal(lo, hi)):  # also rejects NaN bounds
        raise ValueError("box needs lo <= hi")
    lo, hi = np.squeeze(np.asarray(lo, dtype=float)), np.squeeze(np.asarray(hi, dtype=float))

    def value(x):
        return _indicator(((x >= lo - 1e-12) & (x <= hi + 1e-12)).all(axis=-1), x)

    return ProxFunction(value=value, prox=_step_free(lambda x: _clip(x, lo, hi)))


def ball_prox(radius: float = 1.0, center=None) -> ProxFunction:
    """Indicator of the Euclidean ball; prox is the radial projection.

    Its value takes x as inside when ||x - center|| exceeds radius by at most
    1e-12 * max(1, radius + ||center||), the magnitudes a projection rounds at.
    """
    if not radius > 0:
        raise ValueError("ball radius must be positive")
    c = 0.0 if center is None else as_vector(center)
    bound = radius + 1e-12 * max(1.0, radius + float(np.linalg.norm(c)))

    def project(x):
        d = x - c
        nd = norm(d)
        inside = nd <= radius
        scale = radius / np.where(inside, radius, nd)  # no division by a zero norm
        return np.where(np.expand_dims(inside, -1), x, c + d * np.expand_dims(scale, -1))

    def value(x):
        return _indicator(norm(x - c) <= bound, x)

    return ProxFunction(value=value, prox=_step_free(project))


def _projection(C: Array, d: Array) -> Callable[[Array], Array]:
    """The projection x -> x0 + N(N^T x) onto {x : Cx = d}, or onto the least-squares
    solutions where Cx = d has none: N an orthonormal basis of C's null space and x0
    the least-norm solution C^+ d.

    The rounding error of N^T x lies in the null space, which C annihilates, so
    Cx - d rounds at the magnitude of the projection, not at that of x: a point
    far from a set near the origin projects as accurately as a point near it.
    C's rank is the one np.linalg.pinv(C @ C.T) sees: the singular values whose
    square exceeds 1e-15 times the largest square.
    """
    u, sv, vt = np.linalg.svd(C)
    rank = int(np.count_nonzero(sv * sv > 1e-15 * sv[0] ** 2))
    x0 = vt[:rank].T.dot(u[:, :rank].T.dot(d) / sv[:rank])
    Nt = vt[rank:]
    N_dot, Nt_dot = _matvec(np.ascontiguousarray(Nt.T)), _matvec(Nt)
    return lambda x: N_dot(Nt_dot(x)) + x0


def halfspace_prox(normal, offset: float) -> ProxFunction:
    """Indicator of {x : <normal, x> <= offset}.

    Its value takes x as inside when <normal, x> exceeds offset by at most
    1e-12 * ||normal|| * max(1, ||x||): within distance 1e-12 of the set near
    the origin, and within 1e-12 * ||x|| of it far away, where <normal, x> rounds.
    A point outside is projected onto the boundary hyperplane (see _projection).
    """
    a = as_vector(normal)
    a_sq = float(a @ a)
    if a_sq == 0:
        raise ValueError("halfspace normal must be nonzero")
    if not math.isfinite(offset):
        raise ValueError("halfspace offset must be finite")
    slack = 1e-12 * math.sqrt(a_sq)
    onto = _projection(a[None, :], np.array([offset]))

    def project(x):
        return np.where(np.expand_dims(np.vecdot(a, x), -1) <= offset, x, onto(x))

    def value(x):
        return _indicator(np.vecdot(a, x) <= offset + slack * np.maximum(1.0, norm(x)), x)

    return ProxFunction(value=value, prox=_step_free(project))


def affine_prox(C, d) -> ProxFunction:
    """Indicator of {x : Cx = d}; prox is the affine projection.

    Its value takes x as inside when ||Cx - d|| <= 1e-10 * ||C|| * max(1, ||x||),
    as halfspace_prox's does: relative to the magnitudes Cx - d rounds at (on the
    set ||d|| <= ||C|| ||x||), and unchanged when C and d are scaled together.
    The projection is _projection's.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    d = as_vector(d)
    gram = C @ C.T
    if not np.all(np.isfinite(gram)):  # np.linalg.svd may not return on inf or NaN
        raise ValueError("C @ C.T is not finite; rescale the constraint Cx = d")
    slack = 1e-10 * float(np.linalg.norm(C, 2))

    def value(x):
        return _indicator(norm(np.matvec(C, x) - d) <= slack * np.maximum(1.0, norm(x)), x)

    return ProxFunction(value=value, prox=_step_free(_projection(C, d)))


def l1_quadratic_prox(weight: float, quad_diag, lin) -> ProxFunction:
    """f = weight*||x||_1 + sum_i (a_i/2) x_i^2 + b_i x_i, separable closed-form prox."""
    a = as_vector(quad_diag)
    b = _entries(as_vector(lin), a.size, "l1_quadratic_prox: lin")
    if not weight >= 0:
        raise ValueError("l1 weight must be nonnegative")
    if np.any(a < 0):
        raise ValueError("quadratic diagonal must be nonnegative for convexity")

    def value(x):
        return _per_row(weight * np.abs(x).sum(axis=-1) + 0.5 * np.vecdot(a, x * x)
                        + np.vecdot(b, x), x)

    def prox(gamma):
        g = _positive(gamma)
        shift, shrink, div = g * b, _shrink(g * weight), 1.0 + g * a
        return lambda x: shrink(x - shift) / div

    return ProxFunction(value=value, prox=prox)


def moreau_conjugate_prox(g: ProxFunction, c: float, w: Array) -> Array:
    """prox_{c g*}(w) via the Moreau identity w - c*prox_{g/c}(w/c)."""
    prox = g.prox(1.0 / _positive(c))
    w = np.asarray(w, dtype=float)
    return w - c * prox(w / c)


# ---------------------------------------------------------------------------
# operator catalog


def zero_operator() -> MonotoneMap:
    """A = 0; the resolvent is the identity."""
    return MonotoneMap(resolvent=_step_free(np.ndarray.copy))


def identity_operator(scale: float = 1.0) -> MonotoneMap:
    """A = scale * Id (the subdifferential of (scale/2)||x||^2)."""
    if not scale >= 0:
        raise ValueError("identity_operator scale must be nonnegative")

    def resolvent(gamma):
        div = np.array(1.0 + _positive(gamma) * scale)
        return lambda x: x / div

    return MonotoneMap(resolvent=resolvent)


def subdifferential_map(f: ProxFunction) -> MonotoneMap:
    """The subdifferential of a proximable convex function; resolvent = prox."""
    return MonotoneMap(resolvent=f.prox)


def affine_monotone_map(M, q) -> MonotoneMap:
    """A(x) = Mx + q with M + M^T positive semidefinite; the resolvent solves
    (I + gamma*M)p = x - gamma*q."""
    M, eigs, _ = _symmetric_part(M, "monotone map: M")
    if eigs[0] < -1e-10:
        raise ValueError("matrix is not monotone: min symmetric eigenvalue %g" % eigs[0])
    q = _entries(np.asarray(q, dtype=float), len(M), "monotone map: q")
    eye = np.eye(len(M))

    def resolvent(gamma):
        g = _positive(gamma)
        K, shift = eye + g * M, g * q
        return lambda x: _solve(K, x - shift)

    return MonotoneMap(resolvent=resolvent)


def linear_monotone_map(M) -> MonotoneMap:
    """A = M with M + M^T positive semidefinite: affine_monotone_map(M, 0), whose
    shift x - 0.0 keeps every bit of x (a -0.0 and a NaN too)."""
    return affine_monotone_map(M, 0.0)


def matrix_operator(M) -> SingleValuedMap:
    """B(x) = Mx with Lipschitz constant ||M||; cocoercive with beta = 1/lambda_max only
    when M is symmetric (see _symmetric_part) and positive semidefinite to 1e-12."""
    M, eigs, symmetric = _symmetric_part(M, "matrix_operator: M")
    cocoercive = symmetric and eigs[0] >= -1e-12 and eigs[-1] > 0
    return SingleValuedMap(fn=_matvec(M), lipschitz_L=float(np.linalg.norm(M, 2)),
                           cocoercivity_beta=1.0 / float(eigs[-1]) if cocoercive else None)


def rotation_map(angle: float) -> SingleValuedMap:
    """Plane rotation by the given angle; nonexpansive (an isometry)."""
    R = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    return SingleValuedMap(fn=_matvec(R), cocoercivity_beta=None, lipschitz_L=1.0)


def gradient_map(g: SmoothFunction) -> SingleValuedMap:
    """The gradient of g as an operator; beta = 1/L when g is convex (Baillon-Haddad)."""
    beta = (1.0 / g.grad_lipschitz) if (g.convex and g.grad_lipschitz > 0) else None
    return SingleValuedMap(fn=g.gradient, cocoercivity_beta=beta,
                           lipschitz_L=g.grad_lipschitz)


# ---------------------------------------------------------------------------
# smooth function catalog


def _finite_matrix(M, name: str) -> Array:
    """M as a 2-D float64 array; ValueError naming it if an entry is inf or NaN."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(M)):
        raise ValueError("%s has a non-finite entry" % name)
    return M


def _symmetric_part(M, name: str) -> Tuple[Array, Array, bool]:
    """M as _finite_matrix gives it, the ascending eigenvalues of (M + M^T)/2, and whether
    M is symmetric: max|M - M^T| <= 1e-12 * max|M|.  ValueError naming M unless square."""
    M = _finite_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError("%s must be square, got shape %s" % (name, M.shape))
    symmetric = np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
    return M, np.linalg.eigvalsh(0.5 * M + 0.5 * M.T), bool(symmetric)


def _entries(v: Array, n: int, name: str) -> Array:
    """v; ValueError naming it unless it is a scalar or a vector of n entries."""
    if v.ndim and v.shape != (n,):
        raise ValueError("%s has shape %s, expected (%d,)" % (name, v.shape, n))
    return v


def quadratic_fn(Q, b=None, constant: float = 0.0) -> SmoothFunction:
    """g(x) = x^T Q x / 2 - b^T x + constant with symmetric Q (see _symmetric_part)."""
    Q, eigs, symmetric = _symmetric_part(Q, "quadratic_fn: Q")
    if not symmetric:
        raise ValueError("quadratic_fn: Q is not symmetric")
    bv = np.zeros(len(Q)) if b is None else _entries(as_vector(b), len(Q), "quadratic_fn: b")
    Q_dot = _matvec(Q)
    return SmoothFunction(
        value=lambda x: _per_row(0.5 * np.vecdot(x, np.matvec(Q, x)) - np.vecdot(bv, x)
                                 + constant, x),
        gradient=lambda x: Q_dot(x) - bv,
        grad_lipschitz=float(np.max(np.abs(eigs))),
        convex=bool(eigs[0] >= -1e-12),
    )


def least_squares_fn(A, b) -> SmoothFunction:
    """g(x) = ||Ax - b||^2 / 2."""
    A = _finite_matrix(A, "least_squares_fn: A")
    b = _entries(as_vector(b), A.shape[0], "least_squares_fn: b")
    A_dot, AT_dot = _matvec(A), _matvec(A.T)
    try:
        L = float(np.linalg.norm(A, 2)) ** 2
    except OverflowError:
        raise ValueError("||A||^2 overflows a float; rescale A and b") from None
    return SmoothFunction(
        value=lambda x: _per_row(0.5 * np.sum((np.matvec(A, x) - b) ** 2, axis=-1), x),
        gradient=lambda x: AT_dot(A_dot(x) - b), grad_lipschitz=L)


def one_minus_cos_fn() -> SmoothFunction:
    """g(x) = sum_i (1 - cos x_i), nonconvex with gradient Lipschitz constant 1."""
    return SmoothFunction(
        value=lambda x: _per_row((1.0 - np.cos(x)).sum(axis=-1), x),
        gradient=np.sin,
        grad_lipschitz=1.0,
        convex=False,
    )


def zero_fn() -> SmoothFunction:
    return SmoothFunction(value=_zero, gradient=np.zeros_like, grad_lipschitz=0.0)


def matrix_linear_map(M) -> LinearMap:
    """Dense-matrix LinearMap with exact 2-norm estimate."""
    M = _finite_matrix(M, "matrix_linear_map: M")
    return LinearMap(apply=_matvec(M), adjoint=_matvec(M.T),
                     norm_estimate=float(np.linalg.norm(M, 2)))


def difference_matrix(n: int) -> Array:
    """(n-1) x n forward-difference matrix."""
    return np.eye(n - 1, n, 1) - np.eye(n - 1, n)
