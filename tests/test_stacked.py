"""Stacked evaluation: every catalog oracle, corpus component and schedule takes a
leading record axis, and each row of the result has the bits the row alone gets.

integrate calls each probe once on a trajectory's stacked records, so the
probes and the oracles beneath them have to give every record the value a
call on that record alone gives.  The stack heights are 1, 2, n and n + 1:
at R == n a bound M.dot would contract the record axis without an error.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
# signed zeros are among the entries hypothesis draws first
ENTRIES = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


def vector(data, n, elements=ENTRIES):
    return data.draw(arrays(np.float64, n, elements=elements))


def stack(data, n, elements=ENTRIES):
    """R x n entries, R one of 1, 2, n and n + 1."""
    rows = data.draw(st.sampled_from(sorted({1, 2, n, n + 1})))
    return data.draw(arrays(np.float64, (rows, n), elements=elements))


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


def square(data, n):
    return data.draw(arrays(np.float64, (n, n), elements=ENTRIES))


def monotone(data, n):
    """S S^T + K - K^T: its symmetric part is positive semidefinite."""
    S, K = square(data, n), square(data, n)
    return S @ S.T / 1e3 + K - K.T


def wide(data, n):
    """A k x n matrix, 1 <= k <= n."""
    return data.draw(arrays(np.float64, (data.draw(st.integers(1, n)), n), elements=ENTRIES))


def box(data, n):
    lo = vector(data, n)
    return box_prox(lo, lo + np.abs(vector(data, n)))


def halfspace(data, n):
    normal = vector(data, n)
    normal[0] = data.draw(POSITIVE)  # nonzero
    return halfspace_prox(normal, data.draw(ENTRIES))


def affine(data, n):
    C = wide(data, n)
    return affine_prox(C, vector(data, C.shape[0]))


def least_squares(data, n):
    A = wide(data, n)
    return least_squares_fn(A, vector(data, A.shape[0]))


# each catalog constructor with parameters drawn for dimension n
CATALOG = {
    "zero_prox": lambda data, n: zero_prox(),
    "l1_prox": lambda data, n: l1_prox(data.draw(POSITIVE)),
    "squared_l2_prox": lambda data, n: squared_l2_prox(data.draw(POSITIVE), vector(data, n)),
    "box_prox": box,
    "ball_prox": lambda data, n: ball_prox(data.draw(POSITIVE), vector(data, n)),
    "halfspace_prox": halfspace,
    "affine_prox": affine,
    "l1_quadratic_prox": lambda data, n: l1_quadratic_prox(
        data.draw(POSITIVE), np.abs(vector(data, n)), vector(data, n)),
    "zero_operator": lambda data, n: zero_operator(),
    "identity_operator": lambda data, n: identity_operator(data.draw(POSITIVE)),
    "subdifferential_map": lambda data, n: subdifferential_map(l1_prox(data.draw(POSITIVE))),
    "linear_monotone_map": lambda data, n: linear_monotone_map(monotone(data, n)),
    "affine_monotone_map": lambda data, n: affine_monotone_map(monotone(data, n),
                                                               vector(data, n)),
    "matrix_operator": lambda data, n: matrix_operator(square(data, n)),
    "rotation_map": lambda data, n: rotation_map(data.draw(st.floats(-4.0, 4.0))),
    "gradient_map": lambda data, n: gradient_map(quadratic_fn(square(data, n), vector(data, n))),
    "quadratic_fn": lambda data, n: quadratic_fn(square(data, n), vector(data, n),
                                                 data.draw(ENTRIES)),
    "least_squares_fn": least_squares,
    "one_minus_cos_fn": lambda data, n: one_minus_cos_fn(),
    "zero_fn": lambda data, n: zero_fn(),
    "matrix_linear_map": lambda data, n: matrix_linear_map(wide(data, n)),
    "linearized_metric": lambda data, n: LinearizedMetric(
        tau=data.draw(POSITIVE), c=data.draw(POSITIVE), A=matrix_linear_map(square(data, n))),
}


@pytest.mark.parametrize("name", sorted(CATALOG))
@SETTINGS
@given(data=st.data())
def test_catalog_oracles_give_each_row_its_own_bits(name, data):
    n = 2 if name == "rotation_map" else data.draw(st.integers(1, 4))
    obj = CATALOG[name](data, n)
    with np.errstate(all="ignore"):
        for _, oracle, dim in oracles(obj, n):
            assert_rows_have_their_own_bits(oracle, stack(data, dim))


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


@pytest.mark.parametrize("name", BINDERS)
@SETTINGS
@given(data=st.data())
def test_bound_maps_equal_the_checked_entry_points(name, data):
    # on vectors and on stacks, bound at a Python float and at a 0-d array, and
    # evaluated twice: a bound map keeps nothing from one call to the next
    n = data.draw(st.integers(1, 4))
    obj = CATALOG[name](data, n)
    gamma = data.draw(POSITIVE)
    bound, checked = bind_and_check(obj, gamma)
    bound_0d, _ = bind_and_check(obj, np.array(gamma))
    with np.errstate(all="ignore"):
        for x in (vector(data, n), stack(data, n)):
            want = checked(x)
            assert want.dtype == np.float64 and want.shape == x.shape
            for got in (bound(x), bound(x), bound_0d(x)):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gamma", [0.0, -0.0, -0.5, -np.inf, np.nan])
@pytest.mark.parametrize("name", BINDERS)
@settings(SETTINGS, max_examples=3)
@given(data=st.data())
def test_binding_at_a_step_that_is_not_positive_raises(name, gamma, data):
    obj = CATALOG[name](data, data.draw(st.integers(1, 4)))
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


@pytest.mark.parametrize("obj, n", corpus_components())
@SETTINGS
@given(data=st.data())
def test_corpus_components_give_each_row_its_own_bits(obj, n, data):
    entries = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    for _, oracle, dim in oracles(obj, n):
        assert_rows_have_their_own_bits(oracle, stack(data, dim, entries))


# The indicators take a point as inside up to a tolerance relative to the
# magnitudes their projections round at, so their sets and the points projected
# are drawn at every scale from 1 to 1e6: SMALL entries times SCALES.
SMALL = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
SCALES = st.sampled_from((1.0, 1e3, 1e6))


def near_ball(data, n, s):
    return ball_prox(s * data.draw(st.floats(0.1, 10.0)), s * vector(data, n, SMALL))


def near_halfspace(data, n, s):
    normal = vector(data, n, SMALL)
    normal[0] = data.draw(st.floats(1.0, 10.0))
    return halfspace_prox(normal, s * data.draw(SMALL))


def near_affine(data, n, s):
    """Cx = d with C = c([I 0] + a small perturbation), full row rank so that the set is
    nonempty, c drawn from SCALES too, and d = c*s*v so that the set lies at scale s."""
    k, c = data.draw(st.integers(1, n)), data.draw(SCALES)
    small = data.draw(arrays(np.float64, (k, n), elements=st.floats(-0.1, 0.1)))
    return affine_prox(c * (np.eye(k, n) + small), c * s * vector(data, k, SMALL))


# the value closures, against the prox they sit beside: prox(gamma)(x) minimizes
# f(y) + ||y - x||^2/(2 gamma); True marks an indicator
OPTIMALITY = {
    "squared_l2_prox": (lambda data, n, s: CATALOG["squared_l2_prox"](data, n), False),
    "ball_prox": (near_ball, True),
    "halfspace_prox": (near_halfspace, True),
    "affine_prox": (near_affine, True),
    "l1_quadratic_prox": (lambda data, n, s: CATALOG["l1_quadratic_prox"](data, n), False),
}


@pytest.mark.parametrize("name", sorted(OPTIMALITY))
@SETTINGS
@given(data=st.data())
def test_prox_is_optimal_against_its_value(name, data):
    make, indicator = OPTIMALITY[name]
    n, s = data.draw(st.integers(1, 4)), data.draw(SCALES)
    f = make(data, n, s)
    gamma = data.draw(st.floats(min_value=0.05, max_value=5.0))
    X = s * stack(data, n, SMALL)

    def objective(Y):
        D = Y - X
        return f.value(Y) + np.vecdot(D, D) / (2.0 * gamma)

    P = f.prox(gamma)(X)
    best = objective(P)
    assert best.shape == (X.shape[0],) and np.all(np.isfinite(best))
    for scale in (1e-3, 1e-1, 10.0):  # rivals near the prox and far from it
        Y = P + scale * s * data.draw(arrays(np.float64, X.shape, elements=SMALL))
        if indicator:
            Y = f.prox(1.0)(Y)  # a point of the set
        rival = objective(Y)
        assert np.all(best <= rival + 1e-9 * (1.0 + np.abs(best) + np.abs(rival)))


def clamped(data):
    lo = data.draw(ENTRIES)
    return affine_clamped(data.draw(ENTRIES), data.draw(st.floats(-10.0, 10.0)), lo,
                          lo + data.draw(POSITIVE))


SCHEDULES = {
    "constant": lambda data: constant(data.draw(ENTRIES)),
    "affine_clamped": clamped,
    "inv_power": lambda data: inv_power(data.draw(st.floats(0.1, 3.0)), data.draw(POSITIVE)),
    "over_t": lambda data: over_t(data.draw(POSITIVE)),
    "exp_decay": lambda data: exp_decay(data.draw(ENTRIES), data.draw(ENTRIES),
                                        data.draw(st.floats(0.01, 5.0))),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
@SETTINGS
@given(data=st.data())
def test_schedules_read_at_array_times_as_at_each_time(name, data):
    s = SCHEDULES[name](data)
    t = data.draw(arrays(np.float64, data.draw(st.integers(1, 6)),
                         elements=st.floats(min_value=1e-3, max_value=1e3)))
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
