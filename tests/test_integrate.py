import math

import numpy as np
import pytest

from splitflow.algorithms import run_sequence, write_sequence_csv
from splitflow.errors import DivergenceError, SpecError
from splitflow.first_order import FBFlowSpec, fb_field, fb_probes
from splitflow.integrate import (FlowField, IntegratorConfig, Trajectory, euler_unit_step,
                                 integrate, write_trajectory_csv)
from splitflow.operators import l1_prox, matrix_operator, subdifferential_map
from splitflow.schedules import constant


def decay_field(rate=2.0):
    return FlowField(order=1, fn=lambda t, x: -rate * x, label="decay")


class TestIntegrate:
    def test_constant_trajectory_for_zero_field(self):
        field = FlowField(order=1, fn=lambda t, x: np.zeros_like(x))
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=1.0)
        traj = integrate(field, np.array([1.0, 1.0]), cfg)
        assert np.allclose(traj.states, 1.0)

    def test_rk4_matches_exponential_decay(self):
        # the relaxed fixed-point flow with T = -Id and lam = 1 is xdot = -2x
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=1.0)
        traj = integrate(decay_field(), np.array([1.0]), cfg)
        assert abs(traj.final_state[0] - math.exp(-2.0)) < 1e-8

    def test_damped_oscillator_closed_form(self):
        # xdd = -xd - x from (1, 0): roots (-1 +- i*sqrt(3))/2
        field = FlowField(order=2, fn=lambda t, x, v: -v - x)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=1.0)
        traj = integrate(field, np.array([1.0]), cfg, v0=np.array([0.0]))
        w = math.sqrt(3.0) / 2.0
        want = math.exp(-0.5) * (math.cos(w) + math.sin(w) / (2.0 * w))
        assert abs(traj.final_state[0] - want) < 1e-6

    def test_rk4_global_error_scales_fourth_order(self):
        errs = []
        for dt in (0.01, 0.005):
            cfg = IntegratorConfig(method="rk4", dt=dt, t_end=1.0)
            traj = integrate(decay_field(), np.array([1.0]), cfg)
            errs.append(abs(traj.final_state[0] - math.exp(-2.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_euler_h1_equals_unit_steps_bitwise(self):
        field = decay_field(0.3)
        cfg = IntegratorConfig(method="euler", dt=1.0, t_end=5.0)
        traj = integrate(field, np.array([1.0]), cfg)
        x = np.array([1.0])
        for k in range(5):
            x = euler_unit_step(field, x, t=float(k))
        assert traj.final_state[0] == x[0]  # bit-identical

    def test_record_grid_alignment(self):
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=1.0, record_every=10)
        traj = integrate(decay_field(), np.array([1.0]), cfg)
        expect = np.array([k * 10 * 0.01 for k in range(11)])
        assert np.max(np.abs(traj.times - expect)) < 1e-12

    def test_order1_velocities_are_field_values(self):
        field = decay_field(1.7)
        cfg = IntegratorConfig(method="rk4", dt=0.05, t_end=1.0, record_every=4)
        traj = integrate(field, np.array([2.0]), cfg)
        for k in range(len(traj.times)):
            assert traj.velocities[k][0] == field.fn(traj.times[k], traj.states[k])[0]

    def test_probes_recorded(self):
        field = decay_field()
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=1.0, record_every=2)
        traj = integrate(field, np.array([1.0]), cfg,
                         probes=[("norm", lambda t, x, v: np.linalg.norm(x, axis=1))])
        assert len(traj.records["norm"]) == len(traj.times) == 6

    def test_divergence_detected_with_partial_output(self):
        field = FlowField(order=1, fn=lambda t, x: x ** 3)
        cfg = IntegratorConfig(method="euler", dt=0.5, t_end=50.0)
        with pytest.raises(DivergenceError) as err:
            integrate(field, np.array([2.0]), cfg)
        assert err.value.last_finite_t < 50.0
        assert err.value.trajectory is not None
        assert len(err.value.trajectory.times) >= 1

    # the field turns bad from t = 1.5, which euler's step from t = 1.5 and the
    # last rk4 stage of the step from t = 1.0 carry into u; t = 0 and 1.0 are recorded
    @pytest.mark.parametrize("method, last_finite_t", [("euler", 1.5), ("rk4", 1.0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.4e13])
    def test_divergence_on_nan_inf_and_large_states(self, method, last_finite_t, bad):
        field = FlowField(order=1, fn=lambda t, x: np.array([0.0, bad if t >= 1.5 else 0.0]))
        cfg = IntegratorConfig(method=method, dt=0.5, t_end=5.0, record_every=2)
        with pytest.raises(DivergenceError) as err:
            integrate(field, np.array([1.0, 1.0]), cfg)
        assert err.value.last_finite_t == last_finite_t
        assert list(err.value.trajectory.times) == [0.0, 1.0]
        assert np.all(np.isfinite(err.value.trajectory.states))

    # constant-rate euler fields: a coordinate is exactly k * dt * rate after k steps
    def test_large_norm_with_every_coordinate_in_range_does_not_raise(self):
        # each coordinate ends at 0.9e12, so ||u||^2 = 3.24e24 fails the (5e11)^2
        # pre-test at the last steps and the exact test must pass them
        field = FlowField(order=1, fn=lambda t, x: np.full(4, 0.9e11))
        cfg = IntegratorConfig(method="euler", dt=1.0, t_end=10.0)
        traj = integrate(field, np.zeros(4), cfg)
        assert np.array_equal(traj.final_state, np.full(4, 0.9e12))
        assert float(traj.final_state @ traj.final_state) > (0.5e12) ** 2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_divergence_raised_at_the_crossing_step(self, sign):
        # 1.5e11 per step: 6 steps reach 9e11, the 7th 1.05e12 > 1e12
        dt, rate = 0.5, 3e11
        field = FlowField(order=1, fn=lambda t, x: np.array([sign * rate, 0.0, 1.0]))
        cfg = IntegratorConfig(method="euler", dt=dt, t_end=10.0)
        crossing = math.floor(1e12 / (dt * rate)) + 1
        with pytest.raises(DivergenceError) as err:
            integrate(field, np.zeros(3), cfg)
        assert err.value.last_finite_t == (crossing - 1) * dt == 3.0
        assert len(err.value.trajectory.times) == crossing
        assert err.value.trajectory.final_state[0] == sign * 9e11

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_and_inf_fields_raise_at_the_first_step(self, method, bad):
        field = FlowField(order=1, fn=lambda t, x: np.array([0.0, bad]))
        cfg = IntegratorConfig(method=method, dt=0.25, t_start=1.0, t_end=2.0)
        with pytest.raises(DivergenceError) as err:
            integrate(field, np.array([1.0, 1.0]), cfg)
        assert err.value.last_finite_t == 1.0
        assert list(err.value.trajectory.times) == [1.0]

    def test_divergence_threshold_is_inclusive(self):
        # one euler step of 2e12 * 0.5 lands exactly on the 1e12 threshold
        field = FlowField(order=1, fn=lambda t, x: np.array([2e12 if t == 0.0 else 0.0]))
        cfg = IntegratorConfig(method="euler", dt=0.5, t_end=1.0)
        traj = integrate(field, np.array([0.0]), cfg)
        assert traj.final_state[0] == 1e12

    def test_breakpoint_alignment_enforced(self):
        field = FlowField(order=1, fn=lambda t, x: -x, breakpoints=(0.25,))
        cfg = IntegratorConfig(method="rk4", dt=0.2, t_end=1.0)
        with pytest.raises(SpecError):
            integrate(field, np.array([1.0]), cfg)
        cfg_ok = IntegratorConfig(method="rk4", dt=0.25, t_end=1.0)
        integrate(field, np.array([1.0]), cfg_ok)

    def test_v0_handling(self):
        field = decay_field()
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            integrate(field, np.array([1.0]), cfg, v0=np.array([0.0]))
        field2 = FlowField(order=2, fn=lambda t, x, v: -x)
        with pytest.raises(ValueError):
            integrate(field2, np.array([1.0]), cfg)


class TestIntegratorConfig:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4", dt=0.3, t_end=1.0)  # non-integer steps
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4", dt=0.1, t_end=1.0, record_every=3)
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4", dt=-0.1, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(method="midpoint", dt=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4", dt=1e-10, t_end=1e3)  # > 1e8 steps


class TestCsvExport:
    def test_header_and_seventeen_digit_roundtrip(self, tmp_path):
        field = decay_field()
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=1.0, record_every=5)
        traj = integrate(field, np.array([1.0 / 3.0]), cfg,
                         probes=[("norm", lambda t, x, v: np.linalg.norm(x, axis=1))])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "t,x_0,v_0,norm"
        for k, line in enumerate(lines[1:]):
            fields = [float(s) for s in line.split(",")]
            assert fields[0] == traj.times[k]          # 17 significant digits
            assert fields[1] == traj.states[k][0]      # round-trip exactly
            assert fields[2] == traj.velocities[k][0]
            assert fields[3] == traj.records["norm"][k]

    def test_rewrite_replaces_the_file_instead_of_truncating_it(self, tmp_path):
        traj = integrate(decay_field(), np.array([1.0]),
                         IntegratorConfig(method="euler", dt=0.5, t_end=1.0))
        path = tmp_path / "traj.csv"
        path.write_text("old\n", encoding="utf-8")
        keep = tmp_path / "old.csv"
        keep.hardlink_to(path)
        write_trajectory_csv(traj, path)
        first = path.read_bytes()
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == first
        assert first.startswith(b"t,x_0,v_0\n")
        # a truncating write would have changed the linked file too
        assert keep.read_text(encoding="utf-8") == "old\n"


def oracle_csv(traj: Trajectory) -> str:
    """The CSV schema written one value at a time: "%.17g" of each, joined by commas."""
    n = traj.states.shape[1]
    names = (["t"] + ["x_%d" % i for i in range(n)] + ["v_%d" % i for i in range(n)]
             + list(traj.records))
    lines = [",".join(names)]
    for k in range(len(traj.times)):
        row = [traj.times[k]] + list(traj.states[k]) + list(traj.velocities[k])
        row += [traj.records[name][k] for name in traj.records]
        lines.append(",".join("%.17g" % val for val in row))
    return "\n".join(lines) + "\n"


EDGE_VALUES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308]


def edge_trajectory(rows: int, n_records: int) -> Trajectory:
    rng = np.random.default_rng(rows + 100 * n_records)
    states = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-20, 20, (rows, 3))
    velocities = rng.standard_normal((rows, 3))
    states.flat[:len(EDGE_VALUES)] = EDGE_VALUES[:states.size]
    velocities.flat[-len(EDGE_VALUES):] = EDGE_VALUES[-velocities.size:]
    records = {}
    for j in range(n_records):
        rec = rng.standard_normal(rows)
        rec[j % rows] = EDGE_VALUES[j % len(EDGE_VALUES)]
        records["probe_%d" % j] = rec
    return Trajectory(times=np.arange(rows) * 0.1, states=states, velocities=velocities,
                      records=records)


class TestCsvWriterMatchesPerValueFormatting:
    # row counts on both sides of one and of several 64-row blocks
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 511, 512, 513, 1025])
    @pytest.mark.parametrize("n_records", [0, 4])
    def test_trajectory_csv(self, tmp_path, rows, n_records):
        traj = edge_trajectory(rows, n_records)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text(encoding="utf-8") == oracle_csv(traj)

    def test_edge_values_are_written(self, tmp_path):
        traj = edge_trajectory(1, 0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert line == "0,-0,nan,inf,-inf,4.9406564584124654e-324,1e+308"

    def test_sequence_csv(self, tmp_path):
        seq = run_sequence(lambda n, x, x_prev: 0.5 * x + np.array([1.0, -0.0]),
                           np.array([3.0, -0.0]), 600,
                           probes=[("norm", lambda t, x, v: np.linalg.norm(x, axis=1)),
                                   ("step", lambda t, x, v: v[:, 0])])
        path = tmp_path / "seq.csv"
        write_sequence_csv(seq, path)
        assert path.read_text(encoding="utf-8") == oracle_csv(seq)


def reference_states(field, u0, cfg):
    """The fixed-step loop with Python-float step constants, on the stacked state."""
    if field.order == 1:
        deriv = field.fn
    else:
        n = u0.size // 2

        def deriv(t, u):
            return np.concatenate([u[n:], field.fn(t, u[:n], u[n:])])

    dt, half, u, t = cfg.dt, 0.5 * cfg.dt, u0.copy(), cfg.t_start
    states = [u]
    for k in range(1, cfg.n_steps + 1):
        if cfg.method == "euler":
            u = u + dt * deriv(t, u)
        else:
            k1 = deriv(t, u)
            k2 = deriv(t + half, u + half * k1)
            k3 = deriv(t + half, u + half * k2)
            k4 = deriv(t + dt, u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = cfg.t_start + k * dt
        states.append(u)
    return np.array(states)


class TestStepConstantsMatchPythonFloats:
    """integrate's 0-d array step constants give the bits of Python-float constants."""

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_states_equal_the_reference_loop_bit_for_bit(self, method, order):
        rng = np.random.default_rng(order)
        # dt / 6 and dt * (1 / 6) differ at dt = 0.03, so a constant built another way shows
        cfg = IntegratorConfig(method=method, dt=0.03, t_start=0.3, t_end=1.5)
        for n in range(1, 17):
            K = rng.standard_normal((n, n))
            if order == 1:
                field = FlowField(order=1, fn=lambda t, x: np.sin(t) * np.tanh(K @ x) - x / t)
                u0 = rng.standard_normal(n) * 3.0
                traj = integrate(field, u0, cfg)
                got = traj.states
            else:
                field = FlowField(order=2,
                                  fn=lambda t, x, v: -(3.0 / t) * v - np.tanh(K @ x))
                x0, v0 = rng.standard_normal(n) * 3.0, rng.standard_normal(n)
                u0 = np.concatenate([x0, v0])
                traj = integrate(field, x0, cfg, v0=v0)
                got = np.hstack([traj.states, traj.velocities])
            want = reference_states(field, u0, cfg)
            assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("method, last_finite_t", [("euler", 1.0), ("rk4", 0.5)])
    def test_guard_overflow_raises_at_the_same_step(self, method, last_finite_t):
        # a state past 1.3e154 overflows the guard's self-dot to inf; the exact
        # test then sees the coordinate above 1e12 and raises at that step
        field = FlowField(order=1, fn=lambda t, x: np.array([1e160 if t >= 1.0 else 0.0, 0.0]))
        cfg = IntegratorConfig(method=method, dt=0.5, t_end=5.0)
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            with pytest.raises(DivergenceError) as err:
                integrate(field, np.array([1.0, 1.0]), cfg)
        assert err.value.last_finite_t == last_finite_t
        assert np.all(np.isfinite(err.value.trajectory.states))


class TestStartsConvertOnce:
    """integrate, run_sequence and euler_unit_step convert a list or int start once."""

    @staticmethod
    def assert_same_records(got, want):
        for name in ("times", "states", "velocities"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
        assert list(got.records) == list(want.records)
        for name in want.records:
            assert got.records[name].tobytes() == want.records[name].tobytes()

    def fb_flow(self):
        """The fb field of a small l1 problem, checking that it is handed float64 vectors."""
        A = subdifferential_map(l1_prox(0.3))
        B = matrix_operator([[2.0, 1.0], [1.0, 3.0]])
        spec = FBFlowSpec(A=A, B=B, gamma=0.4, lam=constant(1.0))
        fn = fb_field(spec).fn

        def checked(t, x):
            assert x.dtype == np.float64 and x.shape == (2,)
            return fn(t, x)

        return FlowField(order=1, fn=checked), fb_probes(spec, ref=[0, 1])

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_integrate(self, method):
        field, probes = self.fb_flow()
        cfg = IntegratorConfig(method=method, dt=0.1, t_end=2.0, record_every=2)
        want = integrate(field, np.array([3.0, -1.0]), cfg, probes=probes)
        for x0 in ([3, -1], np.array([3, -1])):
            self.assert_same_records(integrate(field, x0, cfg, probes=probes), want)
        B = matrix_operator([[2.0, 1.0], [1.0, 3.0]])

        def second_fn(t, x, v):
            assert x.dtype == v.dtype == np.float64
            return -v - B(x)

        second = FlowField(order=2, fn=second_fn)
        want = integrate(second, np.array([3.0, -1.0]), cfg, v0=np.array([0.0, 2.0]))
        for x0, v0 in (([3, -1], [0, 2]), (np.array([3, -1]), np.array([0, 2]))):
            self.assert_same_records(integrate(second, x0, cfg, v0=v0), want)

    def test_run_sequence_and_euler_unit_step(self):
        field, probes = self.fb_flow()

        def update(n, x, x_prev):
            assert x.dtype == np.float64
            return euler_unit_step(field, x, t=float(n))

        want = run_sequence(update, np.array([3.0, -1.0]), 20, probes=probes)
        for x0 in ([3, -1], np.array([3, -1])):
            self.assert_same_records(run_sequence(update, x0, 20, probes=probes), want)
            got = euler_unit_step(field, x0)
            assert got.dtype == np.float64 and got.tobytes() == want.states[1].tobytes()


class TestProbesRunOnceOnTheStackedRecords:
    """integrate and run_sequence call each probe once, after the loop, on every record."""

    CFG = IntegratorConfig(method="rk4", dt=0.1, t_end=1.0, record_every=2)

    @staticmethod
    def runs(probes):
        """An order-1 run, an order-2 run and a discrete run, each with the probes."""
        second = FlowField(order=2, fn=lambda t, x, v: -v - x)
        cfg = TestProbesRunOnceOnTheStackedRecords.CFG
        return [lambda: integrate(decay_field(), np.array([1.0, -2.0]), cfg, probes=probes),
                lambda: integrate(second, np.array([1.0, -2.0]), cfg, v0=np.array([0.5, 0.0]),
                                  probes=probes),
                lambda: run_sequence(lambda n, x, xp: 0.5 * x, np.array([1.0, -2.0]), 5,
                                     probes=probes)]

    @pytest.mark.parametrize("run", range(3), ids=["order-1", "order-2", "discrete"])
    def test_each_probe_is_called_once_on_read_only_stacks(self, run):
        calls = []

        def probe(t, x, v):
            calls.append((t, x, v))
            return np.linalg.norm(x, axis=1)

        traj = self.runs([("norm", probe)])[run]()
        assert len(calls) == 1
        t, x, v = calls[0]
        assert t.shape == (6,) and x.shape == v.shape == (6, 2)
        assert not (t.flags.writeable or x.flags.writeable or v.flags.writeable)
        assert np.array_equal(t, traj.times) and np.array_equal(x, traj.states)
        assert np.array_equal(v, traj.velocities)
        for a in (traj.states, traj.velocities):  # an order-2 state is split once
            assert a.flags.c_contiguous and a.flags.writeable

    @pytest.mark.parametrize("run", range(3), ids=["order-1", "order-2", "discrete"])
    @pytest.mark.parametrize("probe", [
        lambda t, x, v: float(np.linalg.norm(x[0])),      # the old per-record contract
        lambda t, x, v: np.linalg.norm(x, axis=1)[:, None],
        lambda t, x, v: np.linalg.norm(x, axis=1)[1:],
        lambda t, x, v: np.linalg.norm(x, axis=1).astype(np.float32),
        lambda t, x, v: list(np.linalg.norm(x, axis=1)),
    ], ids=["scalar", "column", "short", "float32", "list"])
    def test_a_result_other_than_a_float64_row_array_names_the_probe(self, run, probe):
        with pytest.raises(ValueError, match="probe 'bad' returned"):
            self.runs([("fine", lambda t, x, v: t.copy()), ("bad", probe)])[run]()

    def test_a_diverging_run_probes_its_finite_prefix_once(self):
        calls = []

        def probe(t, x, v):
            calls.append(len(t))
            return np.abs(x).max(axis=1)

        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
            run_sequence(lambda n, x, xp: 3.0 * x, np.ones(2), 2000, probes=[("max", probe)])
        traj = err.value.trajectory
        assert calls == [26] and traj.records["max"].tolist() == [3.0 ** k for k in range(26)]
