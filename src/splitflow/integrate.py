"""Fixed-step integration of first- and second-order flow fields.

Second-order fields are integrated as first-order systems on the doubled
state (x, v).  Grids are uniform; schedule breakpoints must land on grid
nodes so that the recorded times stay exactly t_start + k*record_every*dt.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DivergenceError, SpecError
from .operators import as_vector

Array = np.ndarray

DIVERGENCE_THRESHOLD = 1e12
# u.dot(u) below this bounds every |u_i| by about half the threshold
_GUARD_SQ = (DIVERGENCE_THRESHOLD / 2.0) ** 2
_CSV_BLOCK = 64  # rows formatted per write, which bounds the writer's memory


@dataclasses.dataclass(frozen=True)
class FlowField:
    """A time-dependent vector field defining one dynamical system.

    order 1: fn(t, x) -> dx/dt.  order 2: fn(t, x, v) -> dv/dt.  fn obeys the
    oracle contract of operators: x and v are 1-D float64 arrays, the result
    is a new array, and fn never modifies its arguments.  integrate converts
    the start once and records an order-1 fn's results without copying them.
    The fields of second_order also take stacked records (x, v of shape
    (R, n), t of shape (R, 1)), which the accel probe hands them.
    """

    order: int
    fn: Callable
    label: str = ""
    dim: Optional[int] = None
    breakpoints: Tuple[float, ...] = ()


@dataclasses.dataclass(frozen=True)
class IntegratorConfig:
    method: str  # "euler" | "rk4"
    dt: float
    t_end: float
    t_start: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        if self.method not in ("euler", "rk4"):
            raise SpecError("unknown method %r (expected 'euler' or 'rk4')" % self.method)
        if not self.dt > 0:  # also rejects NaN, as the t_end check below does
            raise SpecError("dt must be positive")
        if self.t_start < 0:
            raise SpecError("t_start must be nonnegative")
        if not self.t_end > self.t_start:
            raise SpecError("t_end must exceed t_start")
        if self.record_every < 1:
            raise SpecError("record_every must be a positive integer")
        span = self.t_end - self.t_start
        raw = span / self.dt
        if raw > 1e8:
            raise SpecError("step count %g exceeds the 1e8 cap" % raw)
        steps = int(round(raw))
        if abs(steps - raw) > 1e-6:
            raise SpecError("(t_end - t_start)/dt = %r is not an integer step count" % raw)
        if steps % self.record_every != 0:
            raise SpecError("step count %d is not divisible by record_every=%d"
                            % (steps, self.record_every))

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))


@dataclasses.dataclass
class Trajectory:
    """Recorded grid of an integration run or a discrete run; one loop records both.

    For order-1 flows velocities[k] is the field evaluated at (times[k],
    states[k]) exactly; for order-2 flows it is the integrated velocity.  For
    a discrete run (algorithms.run_sequence) times are the step counts and
    velocities the increments states[k] - states[k-1], zero at k = 0.  Both
    stop at the first state that fails the shared divergence guard.
    """

    times: Array
    states: Array
    velocities: Array
    records: Dict[str, Array]
    label: str = ""

    @property
    def final_state(self) -> Array:
        return self.states[-1]

    @property
    def final_velocity(self) -> Array:
        return self.velocities[-1]


def _check_start(field: FlowField, x: Array, v: Optional[Array], cfg: IntegratorConfig):
    """integrate's start and grid rules, each a SpecError: x has the field's dim, v
    is given for an order-2 field and only for one, with x's size, and every
    schedule breakpoint inside the run lands on the grid."""
    if field.dim is not None and x.size != field.dim:
        raise SpecError("x0 has dimension %d, field expects %d" % (x.size, field.dim))
    if field.order == 1 and v is not None:
        raise SpecError("v0 supplied for an order-1 field")
    if field.order == 2 and (v is None or v.size != x.size):
        raise SpecError("order-2 field needs v0 of the dimension of x0")
    for b in field.breakpoints:
        k = (b - cfg.t_start) / cfg.dt
        if cfg.t_start < b < cfg.t_end and abs(k - round(k)) > 1e-9:
            raise SpecError(
                "schedule breakpoint t=%g does not land on the integration grid "
                "(dt=%g); choose dt so breakpoints align" % (b, cfg.dt))


def _drive(advance, velocity, u, t_start, dt, n_steps, every, probes, label) -> Trajectory:
    """The stepping loop of integrate and algorithms.run_sequence.

    Steps u = advance(k, t, u) for k = 1..n_steps, t = t_start + (k-1)*dt, and
    records t, u and velocity(t, u) at t_start and every `every` steps; with
    velocity None, u is an order-2 state (x, v) side by side, recorded whole.
    The recorded arrays are kept, not copied: advance returns a new array and
    nothing modifies one in place.  The divergence guard first tests
    u.dot(u) <= (1e12/2)**2, one dot product, which bounds every |u_i| by
    about 5e11.  Only when that fails (a large sum, NaN or inf) does it apply
    the exact test max|u_i| <= 1e12, so DivergenceError (with the last finite
    time and the partial trajectory) comes at the same step as with the exact
    test alone.  The probes run once, on the stacked records of the run or of
    its finite prefix (see _probe_records).
    """
    times, states, vels = [], [], []

    def record(t, u):
        times.append(t)
        states.append(u)
        if velocity is not None:
            vels.append(velocity(t, u))

    def partial() -> Trajectory:
        T, X = np.array(times), np.array(states)
        if velocity is None:  # split (x, v) once, into C-contiguous halves
            n = X.shape[1] // 2
            X, V = X[:, :n].copy(), X[:, n:].copy()
        else:
            V = np.array(vels)
        return Trajectory(times=T, states=X, velocities=V,
                          records=_probe_records(probes, T, X, V), label=label)

    t = t_start
    record(t, u)
    for k in range(1, n_steps + 1):
        u = advance(k, t, u)
        t = t_start + k * dt
        # NaN fails both tests: it propagates through the dot and through max
        if not u.dot(u) <= _GUARD_SQ and not np.abs(u).max() <= DIVERGENCE_THRESHOLD:
            raise DivergenceError("trajectory diverged at t=%g" % t,
                                  last_finite_t=t - dt, trajectory=partial())
        if k % every == 0:
            record(t, u)
    return partial()


def _probe_records(probes, T, X, V) -> Dict[str, Array]:
    """Each probe called once on the stacked records, lent read-only: t of shape (R,),
    x and v of shape (R, n).  A result that is not a float64 array of shape (R,)
    raises ValueError naming the probe."""
    lent = [a.view() for a in (T, X, V)]
    for a in lent:
        a.flags.writeable = False
    records = {}
    for name, fn in probes:
        vals = fn(*lent)
        if not (isinstance(vals, np.ndarray) and vals.dtype == np.float64
                and vals.shape == T.shape):
            raise ValueError("probe %r returned %s of shape %s, not float64 of shape %s"
                             % (name, getattr(vals, "dtype", type(vals).__name__),
                                np.shape(vals), T.shape))
        records[name] = vals
    return records


def integrate(field: FlowField, x0, cfg: IntegratorConfig, v0=None,
              probes: Sequence[Tuple[str, Callable]] = ()) -> Trajectory:
    """Integrate a flow field on a fixed grid, recording states and probe values.

    probes is a sequence of (name, fn).  Each fn is called once, after the
    run, on the records every cfg.record_every steps: fn(t, x, v) with t of
    shape (R,) and x, v of shape (R, n), read-only, returning a float64 array
    of shape (R,) (anything else raises ValueError naming the probe).  A start
    or grid that breaks _check_start, which config's build_run runs at load
    too, raises SpecError before the first step; DivergenceError (carrying the last finite time and the partial trajectory,
    with its probes) comes when a coordinate passes 1e12.
    """
    x = as_vector(x0)
    v = None if v0 is None else as_vector(v0)
    _check_start(field, x, v, cfg)
    n = x.size
    if field.order == 1:
        deriv = velocity = field.fn
        u = x
    else:
        def deriv(t, u):
            return np.concatenate([u[n:], field.fn(t, u[:n], u[n:])])

        velocity = None  # the state holds x and v
        u = np.concatenate([x, v])

    dt, half = cfg.dt, 0.5 * cfg.dt
    # the step's products take 0-d arrays, which numpy multiplies with a
    # vector in less dispatch than a Python float, to the same bits; the
    # time arithmetic stays in Python floats
    h, h_half, h_sixth, two = (np.array(c) for c in (dt, half, dt / 6.0, 2.0))

    if cfg.method == "euler":
        def advance(k, t, u):
            return u + h * deriv(t, u)
    else:
        def advance(k, t, u):
            t_mid = t + half
            k1 = deriv(t, u)
            k2 = deriv(t_mid, u + h_half * k1)
            k3 = deriv(t_mid, u + h_half * k2)
            k4 = deriv(t + dt, u + h * k3)
            return u + h_sixth * (k1 + two * k2 + two * k3 + k4)

    return _drive(advance, velocity, u, cfg.t_start, dt, cfg.n_steps, cfg.record_every,
                  probes, field.label)


def euler_unit_step(field: FlowField, x, t: float = 0.0) -> Array:
    """One explicit Euler step of size 1: x + field.fn(t, x).  Order-1 fields only."""
    if field.order != 1:
        raise ValueError("euler_unit_step applies to order-1 fields")
    x = np.asarray(x, dtype=float)
    return x + field.fn(t, x)


def open_replaced(path):
    """Open path for writing as a new text file, removing any file already there.

    Removing and re-creating replaces a file without truncating it, which can
    block while the old file's last data is still being written back.  The new
    file gets default permissions, and a symlink at path is replaced, not
    followed.
    """
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    return open(path, "w", encoding="utf-8")


def _write_csv(traj: Trajectory, path):
    """The trajectory CSV schema: header t, x_0.., v_0.., record names; 17 significant digits."""
    times, states, velocities, records = traj.times, traj.states, traj.velocities, traj.records
    n = states.shape[1]
    names = (["t"] + ["x_%d" % i for i in range(n)] + ["v_%d" % i for i in range(n)]
             + list(records.keys()))
    table = np.column_stack([times, states, velocities] + list(records.values()))
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open_replaced(path) as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start:start + _CSV_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_trajectory_csv(traj: Trajectory, path):
    """CSV export: header t, x_0.., v_0.., probe names; 17 significant digits."""
    _write_csv(traj, path)
