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

    order 1: fn(t, x) -> dx/dt.  order 2: fn(t, x, v) -> dv/dt.
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
    """Recorded grid of an integration run.

    For order-1 flows velocities[k] is the field evaluated at (times[k],
    states[k]) exactly; for order-2 flows it is the integrated velocity.  For
    a discrete run (algorithms.run_sequence) times are the step counts and
    velocities the backward increments states[k] - states[k-1], zero at k = 0.
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


def _check_breakpoints(field: FlowField, cfg: IntegratorConfig):
    for b in field.breakpoints:
        if b <= cfg.t_start or b >= cfg.t_end:
            continue
        k = (b - cfg.t_start) / cfg.dt
        if abs(k - round(k)) > 1e-9:
            raise SpecError(
                "schedule breakpoint t=%g does not land on the integration grid "
                "(dt=%g); choose dt so breakpoints align" % (b, cfg.dt))


def integrate(field: FlowField, x0, cfg: IntegratorConfig, v0=None,
              probes: Sequence[Tuple[str, Callable]] = ()) -> Trajectory:
    """Integrate a flow field on a fixed grid, recording states and probe values.

    probes is a sequence of (name, fn) with fn(t, x, v) -> float, evaluated
    every cfg.record_every steps.  Raises DivergenceError (carrying the last
    finite time and the partial trajectory) when a coordinate passes 1e12.

    The divergence guard has two stages.  A step first tests u.dot(u) <=
    (1e12/2)**2, one dot product; when that holds, every |u_i| is at most
    about 5e11 and the step is safe.  Only when it fails (a large sum, NaN or
    inf) does the step apply the exact test max|u_i| <= 1e12, so the raise
    comes at the same step as with the exact test alone.
    """
    x = as_vector(x0)
    if field.dim is not None and x.size != field.dim:
        raise ValueError("x0 has dimension %d, field expects %d" % (x.size, field.dim))
    if field.order == 2:
        if v0 is None:
            raise ValueError("order-2 field needs v0")
        v = as_vector(v0)
        if v.size != x.size:
            raise ValueError("v0 dimension mismatch")
    else:
        if v0 is not None:
            raise ValueError("v0 supplied for an order-1 field")
        v = None
    _check_breakpoints(field, cfg)

    if field.order == 1:
        deriv = lambda t, u: np.asarray(field.fn(t, u), dtype=float)
        u = x.copy()
    else:
        n = x.size

        def deriv(t, u):
            a = np.asarray(field.fn(t, u[:n], u[n:]), dtype=float)
            return np.concatenate([u[n:], a])

        u = np.concatenate([x, v])

    dt = cfg.dt
    times, states, vels = [], [], []
    rec_vals: Dict[str, list] = {name: [] for name, _ in probes}

    def record(t, u):
        if field.order == 1:
            xs, vs = u, deriv(t, u)
        else:
            xs, vs = u[: x.size], u[x.size:]
        times.append(t)
        states.append(xs.copy())
        vels.append(vs.copy())
        for name, fn in probes:
            rec_vals[name].append(float(fn(t, xs, vs)))

    def partial() -> Trajectory:
        return Trajectory(
            times=np.array(times), states=np.array(states), velocities=np.array(vels),
            records={k: np.array(vv) for k, vv in rec_vals.items()}, label=field.label)

    t_start, half = cfg.t_start, 0.5 * dt
    every, euler = cfg.record_every, cfg.method == "euler"
    # the step's products take 0-d arrays, which numpy multiplies with a
    # vector in less dispatch than a Python float, to the same bits; the
    # time arithmetic stays in Python floats
    h, h_half, h_sixth, two = (np.array(c) for c in (dt, half, dt / 6.0, 2.0))
    t = t_start
    record(t, u)
    for k in range(1, cfg.n_steps + 1):
        if euler:
            u = u + h * deriv(t, u)
        else:
            t_mid = t + half
            k1 = deriv(t, u)
            k2 = deriv(t_mid, u + h_half * k1)
            k3 = deriv(t_mid, u + h_half * k2)
            k4 = deriv(t + dt, u + h * k3)
            u = u + h_sixth * (k1 + two * k2 + two * k3 + k4)
        t = t_start + k * dt
        # NaN fails both tests: it propagates through the dot and through max
        if not u.dot(u) <= _GUARD_SQ and not np.abs(u).max() <= DIVERGENCE_THRESHOLD:
            raise DivergenceError("trajectory diverged at t=%g" % t,
                                  last_finite_t=t - dt, trajectory=partial())
        if k % every == 0:
            record(t, u)
    return partial()


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
