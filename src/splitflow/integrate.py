"""Fixed-step integration of first- and second-order flow fields.

Second-order fields are integrated as first-order systems on the doubled
state (x, v).  Grids are uniform; schedule breakpoints must land on grid
nodes so that the recorded times stay exactly t_start + k*record_every*dt.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DivergenceError, SpecError
from .operators import as_vector

Array = np.ndarray

DIVERGENCE_THRESHOLD = 1e12


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

    def __call__(self, t, x, v=None):
        if self.order == 1:
            return self.fn(t, x)
        if v is None:
            raise ValueError("order-2 field needs a velocity argument")
        return self.fn(t, x, v)


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
        if self.dt <= 0:
            raise SpecError("dt must be positive")
        if self.t_start < 0:
            raise SpecError("t_start must be nonnegative")
        if self.t_end <= self.t_start:
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
    states[k]) exactly; for order-2 flows it is the integrated velocity.
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

    t = cfg.t_start
    record(t, u)
    for k in range(cfg.n_steps):
        if cfg.method == "euler":
            u = u + dt * deriv(t, u)
        else:
            k1 = deriv(t, u)
            k2 = deriv(t + 0.5 * dt, u + (0.5 * dt) * k1)
            k3 = deriv(t + 0.5 * dt, u + (0.5 * dt) * k2)
            k4 = deriv(t + dt, u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = cfg.t_start + (k + 1) * dt
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > DIVERGENCE_THRESHOLD:
            raise DivergenceError("trajectory diverged at t=%g" % t,
                                  last_finite_t=t - dt, trajectory=partial())
        if (k + 1) % cfg.record_every == 0:
            record(t, u)
    return partial()


def euler_unit_step(field: FlowField, x, t: float = 0.0) -> Array:
    """One explicit Euler step of size 1: x + field(t, x).  Order-1 fields only."""
    if field.order != 1:
        raise ValueError("euler_unit_step applies to order-1 fields")
    x = np.asarray(x, dtype=float)
    return x + field.fn(t, x)


def _write_csv(path, times, states, velocities, records):
    """The trajectory CSV schema: header t, x_0.., v_0.., record names; 17 significant digits."""
    n = states.shape[1]
    names = (["t"] + ["x_%d" % i for i in range(n)] + ["v_%d" % i for i in range(n)]
             + list(records.keys()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for k in range(len(times)):
            row = [times[k]] + list(states[k]) + list(velocities[k])
            row += [records[name][k] for name in records]
            fh.write(",".join("%.17g" % val for val in row) + "\n")


def write_trajectory_csv(traj: Trajectory, path):
    """CSV export: header t, x_0.., v_0.., probe names; 17 significant digits."""
    _write_csv(path, traj.times, traj.states, traj.velocities, traj.records)
