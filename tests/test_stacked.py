"""Stacked evaluation: every catalog oracle, corpus component and schedule takes a
leading record axis, and each row of the result has the bits the row alone gets.

integrate calls each probe once on a trajectory's stacked records, so the
probes and the oracles beneath them have to give every record the value a
call on that record alone gives.  The stack heights are 1, 2, n and n + 1:
at R == n a bound M.dot would contract the record axis without an error.

The property tests draw their cases from numpy generators seeded 0 to 39
(Draws), one test id per seed, so that each test checks the same cases on every
run, whatever else the suite imports and whatever literals the package holds.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

from splitflow import config
from splitflow.integrate import IntegratorConfig, integrate
from splitflow.nonconvex import NonconvexProblem
from splitflow.operators import (LinearMap, MonotoneMap, ProxFunction, SingleValuedMap,
                                 SmoothFunction, affine_prox, ball_prox, box_prox,
                                 gradient_map, halfspace_prox, identity_operator, l1_prox,
                                 l1_quadratic_prox, least_squares_fn, linear_monotone_map,
                                 matrix_linear_map, matrix_operator, one_minus_cos_fn,
                                 prox_eval, quadratic_fn, resolvent_eval, rotation_map,
                                 squared_l2_prox, subdifferential_map, zero_fn, zero_operator,
                                 zero_prox)
from splitflow.primal_dual import LinearizedMetric, StructuredProblem
from splitflow.problems import affine_monotone_map, corpus
from splitflow.schedules import affine_clamped, constant, exp_decay, inv_power, over_t
from splitflow.second_order import (DampingCondition, SecondOrderSpec, second_order_field,
                                    second_order_probes)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# the ranges entries are drawn from
ENTRIES = (-1e3, 1e3)
POSITIVE = (1e-3, 1e3)


class Draws:
    """The inputs of one example, from a numpy generator seeded with its number."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def floats(self, lo, hi, shape=None):
        """A float in [lo, hi], or an array of them of the given shape.  An entry is,
        with probability 1/5, one of the edges that lie in [lo, hi]: lo, hi, +-0.0, the
        least subnormal +-5e-324, the subnormal +-2.2e-308 and the tiny normal
        +-1e-300.  Otherwise it spreads over the range's magnitudes: log-uniform on
        [lo, hi] when 0 < lo, and for a range that holds 0, uniform on [lo, hi] and
        scaled by 10**-k, k uniform in 0..6."""
        rng, size = self.rng, 1 if shape is None else shape
        edges = [v for v in (lo, hi, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                             1e-300, -1e-300) if lo <= v <= hi]
        if lo > 0:
            spread = np.clip(lo * (hi / lo) ** rng.random(size), lo, hi)
        else:
            assert hi >= 0
            spread = rng.uniform(lo, hi, size) * 10.0 ** -rng.integers(0, 7, size)
        x = np.where(rng.random(size) < 0.2, rng.choice(edges, size), spread)
        return float(x[0]) if shape is None else x

    def integers(self, lo, hi):
        """An int in [lo, hi]."""
        return int(self.rng.integers(lo, hi + 1))

    def choice(self, options):
        return options[self.rng.integers(len(options))]


# the seeds of a property test's examples
SEEDS = range(40)


def vector(draw, n, bounds=ENTRIES):
    return draw.floats(*bounds, n)


def stack(draw, n, bounds=ENTRIES):
    """R x n entries, R one of 1, 2, n and n + 1."""
    return draw.floats(*bounds, (draw.choice(sorted({1, 2, n, n + 1})), n))


def oracles(obj, n):
    """(name, oracle of one argument, input dimension) for each oracle of obj."""
    if isinstance(obj, ProxFunction):
        yield "value", obj.value, n
        yield "prox", obj.prox(0.7), n
    elif isinstance(obj, MonotoneMap):
        yield "resolvent", obj.resolvent(0.7), n
    elif isinstance(obj, SingleValuedMap):
        yield "fn", obj.fn, n
    elif isinstance(obj, SmoothFunction):
        yield "value", obj.value, n
        yield "gradient", obj.gradient, n
    elif isinstance(obj, LinearMap):
        yield "apply", obj.apply, n
        yield "adjoint", obj.adjoint, obj.apply(np.zeros(n)).size
    elif isinstance(obj, NonconvexProblem):
        yield from oracles(obj.f, n)
        yield from oracles(obj.g, n)
    elif isinstance(obj, StructuredProblem):
        for part, dim in ((obj.f, obj.n), (obj.h, obj.n), (obj.g, obj.m), (obj.A, obj.n)):
            yield from oracles(part, dim)


def assert_rows_have_their_own_bits(oracle, X):
    got = oracle(X)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape[0] == X.shape[0] and got.ndim <= 2
    for r in range(X.shape[0]):
        want = np.asarray(oracle(X[r].copy()), dtype=np.float64)
        assert got[r].shape == want.shape
        assert got[r].tobytes() == want.tobytes(), (r, got[r], want)


def square(draw, n):
    return draw.floats(*ENTRIES, (n, n))


def symmetric(draw, n):
    S = square(draw, n)
    return S + S.T


def monotone(draw, n):
    """S S^T + K - K^T: its symmetric part is positive semidefinite."""
    S, K = square(draw, n), square(draw, n)
    return S @ S.T / 1e3 + K - K.T


def wide(draw, n):
    """A k x n matrix, 1 <= k <= n."""
    return draw.floats(*ENTRIES, (draw.integers(1, n), n))


def box(draw, n):
    lo = vector(draw, n)
    return box_prox(lo, lo + np.abs(vector(draw, n)))


def halfspace(draw, n):
    normal = vector(draw, n)
    normal[0] = draw.floats(*POSITIVE)  # nonzero
    return halfspace_prox(normal, draw.floats(*ENTRIES))


def affine(draw, n):
    C = wide(draw, n)
    return affine_prox(C, vector(draw, C.shape[0]))


def least_squares(draw, n):
    A = wide(draw, n)
    return least_squares_fn(A, vector(draw, A.shape[0]))


# each catalog constructor with parameters drawn for dimension n
CATALOG = {
    "zero_prox": lambda draw, n: zero_prox(),
    "l1_prox": lambda draw, n: l1_prox(draw.floats(*POSITIVE)),
    "squared_l2_prox": lambda draw, n: squared_l2_prox(draw.floats(*POSITIVE), vector(draw, n)),
    "box_prox": box,
    "ball_prox": lambda draw, n: ball_prox(draw.floats(*POSITIVE), vector(draw, n)),
    "halfspace_prox": halfspace,
    "affine_prox": affine,
    "l1_quadratic_prox": lambda draw, n: l1_quadratic_prox(
        draw.floats(*POSITIVE), np.abs(vector(draw, n)), vector(draw, n)),
    "zero_operator": lambda draw, n: zero_operator(),
    "identity_operator": lambda draw, n: identity_operator(draw.floats(*POSITIVE)),
    "subdifferential_map": lambda draw, n: subdifferential_map(l1_prox(draw.floats(*POSITIVE))),
    "linear_monotone_map": lambda draw, n: linear_monotone_map(monotone(draw, n)),
    "affine_monotone_map": lambda draw, n: affine_monotone_map(monotone(draw, n),
                                                               vector(draw, n)),
    "matrix_operator": lambda draw, n: matrix_operator(square(draw, n)),
    "rotation_map": lambda draw, n: rotation_map(draw.floats(-4.0, 4.0)),
    "gradient_map": lambda draw, n: gradient_map(quadratic_fn(symmetric(draw, n),
                                                              vector(draw, n))),
    "quadratic_fn": lambda draw, n: quadratic_fn(symmetric(draw, n), vector(draw, n),
                                                 draw.floats(*ENTRIES)),
    "least_squares_fn": least_squares,
    "one_minus_cos_fn": lambda draw, n: one_minus_cos_fn(),
    "zero_fn": lambda draw, n: zero_fn(),
    "matrix_linear_map": lambda draw, n: matrix_linear_map(wide(draw, n)),
    "linearized_metric": lambda draw, n: LinearizedMetric(
        tau=draw.floats(*POSITIVE), c=draw.floats(*POSITIVE),
        A=matrix_linear_map(square(draw, n))),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_oracles_give_each_row_its_own_bits(name, seed):
    draw = Draws(seed)
    n = 2 if name == "rotation_map" else draw.integers(1, 4)
    obj = CATALOG[name](draw, n)
    with np.errstate(all="ignore"):
        for _, oracle, dim in oracles(obj, n):
            assert_rows_have_their_own_bits(oracle, stack(draw, dim))


# the catalog's binders: prox(gamma) and resolvent(gamma) return the map at that step
BINDERS = ("affine_monotone_map", "affine_prox", "ball_prox", "box_prox", "halfspace_prox",
           "identity_operator", "l1_prox", "l1_quadratic_prox", "linear_monotone_map",
           "squared_l2_prox", "subdifferential_map", "zero_operator", "zero_prox")


def bind_and_check(obj, gamma):
    """(obj's map bound at gamma, the checked entry point prox_eval/resolvent_eval at gamma)."""
    if isinstance(obj, ProxFunction):
        return obj.prox(gamma), lambda x: prox_eval(obj, gamma, x)
    assert isinstance(obj, MonotoneMap)
    return obj.resolvent(gamma), lambda x: resolvent_eval(obj, gamma, x)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", BINDERS)
def test_bound_maps_equal_the_checked_entry_points(name, seed):
    draw = Draws(seed)
    # on vectors and on stacks, bound at a Python float and at a 0-d array, and
    # evaluated twice: a bound map keeps nothing from one call to the next
    n = draw.integers(1, 4)
    obj = CATALOG[name](draw, n)
    gamma = draw.floats(*POSITIVE)
    bound, checked = bind_and_check(obj, gamma)
    bound_0d, _ = bind_and_check(obj, np.array(gamma))
    with np.errstate(all="ignore"):
        for x in (vector(draw, n), stack(draw, n)):
            want = checked(x)
            assert want.dtype == np.float64 and want.shape == x.shape
            for got in (bound(x), bound(x), bound_0d(x)):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("gamma", [0.0, -0.0, -0.5, -np.inf, np.nan])
@pytest.mark.parametrize("name", BINDERS)
def test_binding_at_a_step_that_is_not_positive_raises(name, gamma, seed):
    draw = Draws(seed)
    obj = CATALOG[name](draw, draw.integers(1, 4))
    binder = obj.prox if isinstance(obj, ProxFunction) else obj.resolvent
    with pytest.raises(ValueError, match="must be positive"):
        binder(gamma)  # no map is returned, so nothing is evaluated
    with pytest.raises(ValueError, match="must be positive"):
        binder(np.array(gamma))


ORACLE_KINDS = (ProxFunction, MonotoneMap, SingleValuedMap, SmoothFunction, LinearMap,
                NonconvexProblem, StructuredProblem)


def corpus_components():
    out = []
    for problem in corpus(0):
        n = np.size(problem.default_start)  # a PDState's n comes from the problem
        for key, obj in problem.components.items():
            if isinstance(obj, ORACLE_KINDS):
                out.append(pytest.param(obj, n, id="%s-%s" % (problem.name, key)))
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("obj, n", corpus_components())
def test_corpus_components_give_each_row_its_own_bits(obj, n, seed):
    draw = Draws(seed)
    for _, oracle, dim in oracles(obj, n):
        assert_rows_have_their_own_bits(oracle, stack(draw, dim, (-3.0, 3.0)))


# The indicators take a point as inside up to a tolerance relative to the
# magnitudes their projections round at, so their sets and the points projected
# are drawn at every scale from 1 to 1e6: SMALL entries times SCALES.
SMALL = (-10.0, 10.0)
SCALES = (1.0, 1e3, 1e6)


def near_ball(draw, n, s):
    return ball_prox(s * draw.floats(0.1, 10.0), s * vector(draw, n, SMALL))


def near_halfspace(draw, n, s):
    normal = vector(draw, n, SMALL)
    normal[0] = draw.floats(1.0, 10.0)
    return halfspace_prox(normal, s * draw.floats(*SMALL))


def near_affine(draw, n, s):
    """Cx = d with C = c([I 0] + a small perturbation), full row rank so that the set is
    nonempty, c drawn from SCALES too, and d = c*s*v so that the set lies at scale s."""
    k, c = draw.integers(1, n), draw.choice(SCALES)
    small = draw.floats(-0.1, 0.1, (k, n))
    return affine_prox(c * (np.eye(k, n) + small), c * s * vector(draw, k, SMALL))


# the value closures, against the prox they sit beside: prox(gamma)(x) minimizes
# f(y) + ||y - x||^2/(2 gamma); True marks an indicator
OPTIMALITY = {
    "squared_l2_prox": (lambda draw, n, s: CATALOG["squared_l2_prox"](draw, n), False),
    "ball_prox": (near_ball, True),
    "halfspace_prox": (near_halfspace, True),
    "affine_prox": (near_affine, True),
    "l1_quadratic_prox": (lambda draw, n, s: CATALOG["l1_quadratic_prox"](draw, n), False),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(OPTIMALITY))
def test_prox_is_optimal_against_its_value(name, seed):
    draw = Draws(seed)
    make, indicator = OPTIMALITY[name]
    n, s = draw.integers(1, 4), draw.choice(SCALES)
    f = make(draw, n, s)
    gamma = draw.floats(0.05, 5.0)
    X = s * stack(draw, n, SMALL)

    def objective(Y):
        D = Y - X
        return f.value(Y) + np.vecdot(D, D) / (2.0 * gamma)

    P = f.prox(gamma)(X)
    best = objective(P)
    assert best.shape == (X.shape[0],) and np.all(np.isfinite(best))
    for scale in (1e-3, 1e-1, 10.0):  # rivals near the prox and far from it
        Y = P + scale * s * draw.floats(*SMALL, X.shape)
        if indicator:
            Y = f.prox(1.0)(Y)  # a point of the set
        rival = objective(Y)
        assert np.all(best <= rival + 1e-9 * (1.0 + np.abs(best) + np.abs(rival)))


def clamped(draw):
    lo = draw.floats(*ENTRIES)
    return affine_clamped(draw.floats(*ENTRIES), draw.floats(-10.0, 10.0), lo,
                          lo + draw.floats(*POSITIVE))


SCHEDULES = {
    "constant": lambda draw: constant(draw.floats(*ENTRIES)),
    "affine_clamped": clamped,
    "inv_power": lambda draw: inv_power(draw.floats(0.1, 3.0), draw.floats(*POSITIVE)),
    "over_t": lambda draw: over_t(draw.floats(*POSITIVE)),
    "exp_decay": lambda draw: exp_decay(draw.floats(*ENTRIES), draw.floats(*ENTRIES),
                                        draw.floats(0.01, 5.0)),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_schedules_read_at_array_times_as_at_each_time(name, seed):
    draw = Draws(seed)
    s = SCHEDULES[name](draw)
    t = draw.floats(1e-3, 1e3, draw.integers(1, 6))
    for read in (s, s.derivative):
        got = read(t)
        assert got.dtype == np.float64 and got.shape == t.shape
        want = np.array([read(float(tk)) for tk in t])
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the built-in probes on the benchmark's corpus configs


@pytest.fixture(scope="module")
def corpus_configs(tmp_path_factory):
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    runs = workloads.CorpusRuns(str(tmp_path_factory.mktemp("corpus")), seed=0)
    return [config.load_config(path) for _, path, _, _ in runs.configs]


def short_run(cfg, records=40):
    """The config's field, start, grid (cut to at most `records` records) and probes."""
    problem, field, probes, x0, v0, icfg, spec = cfg.run
    span = records * icfg.record_every * icfg.dt
    if icfg.t_end - icfg.t_start > span:
        icfg = dataclasses.replace(icfg, t_end=icfg.t_start + span)
    return field, x0, v0, icfg, probes


def assert_records_are_per_record_calls(traj, probes):
    T, X, V = traj.times, traj.states, traj.velocities
    assert probes and list(traj.records) == [name for name, _ in probes]
    for name, fn in probes:
        if name == "arclength":  # a running sum: the trapezoid added record by record
            speed = [float(np.linalg.norm(v)) for v in V]
            acc, want = 0.0, [0.0]
            for k in range(1, len(T)):
                acc += 0.5 * (T[k] - T[k - 1]) * (speed[k] + speed[k - 1])
                want.append(acc)
            want = np.array(want)
        else:
            want = np.concatenate([fn(T[k:k + 1], X[k:k + 1], V[k:k + 1])
                                   for k in range(len(T))])
        assert traj.records[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("index", range(17))
def test_probes_on_stacked_records_equal_per_record_calls(corpus_configs, index):
    assert len(corpus_configs) == 17
    field, x0, v0, icfg, probes = short_run(corpus_configs[index])
    assert_records_are_per_record_calls(integrate(field, x0, icfg, v0=v0, probes=probes),
                                        probes)


def second_order_variants():
    """Each SecondOrderSpec variant, with schedules that vary on the run's grid."""
    B = matrix_operator(np.array([[2.0, 0.5], [0.5, 1.0]]))
    condition = DampingCondition(gamma=affine_clamped(3.0, -0.1, 2.5, 3.0),
                                 lam=inv_power(0.5, 0.4), theta=0.1)
    return {"cocoercive": SecondOrderSpec.cocoercive(B, condition),
            "nonexpansive": SecondOrderSpec.nonexpansive(rotation_map(0.4), condition),
            "fb": SecondOrderSpec.fb(subdifferential_map(l1_prox(0.3)), B, 0.4, condition),
            "avd": SecondOrderSpec.avd(quadratic_fn(np.diag([1.0, 0.1])), 3.0),
            "yosida": SecondOrderSpec.yosida(linear_monotone_map([[1.0, 1.0], [-1.0, 1.0]]),
                                             affine_clamped(0.5, 0.2, 0.5, 1.2), 3.0)}


@pytest.mark.parametrize("variant", sorted(second_order_variants()))
def test_second_order_probes_on_stacked_records_equal_per_record_calls(variant):
    spec = second_order_variants()[variant]
    probes = second_order_probes(spec, xstar=np.array([0.5, -0.25]))
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_start=1.0, t_end=6.0, record_every=20)
    traj = integrate(second_order_field(spec), np.array([1.0, -2.0]), cfg,
                     v0=np.array([0.5, 0.25]), probes=probes)
    assert_records_are_per_record_calls(traj, probes)
