"""The benchmark's three workloads: configs, experiments and correctness gates.

A workload writes and validates its configs when it is constructed, then
hands out experiments in units.  One corpus-runs unit is one experiment:
its units cycle through its seventeen configs and then the avd-dense
trajectory on a coarser grid.  One avd-dense unit is one long trajectory,
and one multistart-sweep unit is one start (six experiments).
``Experiment.run`` is the timed part: config to outputs on disk.
``Experiment.check`` reads those outputs back and tests them against a
residual that does not come from the flow's own probes.

splitflow is always reached through module attributes at call time
(``config.run_experiment``, ``splitflow.integrate``, ...), so that the span
tracer in ``spans.py`` sees every call when it is installed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from typing import Callable, List

import numpy as np

import splitflow
import splitflow.algorithms as algorithms
import splitflow.cli as cli
import splitflow.config as config
import splitflow.diagnostics as diagnostics
import splitflow.primal_dual as primal_dual
import splitflow.problems as problems
import splitflow.second_order as second_order
from splitflow.first_order import FBFFlowSpec, FBFlowSpec, fb_field, fbf_field
from splitflow.integrate import IntegratorConfig, euler_unit_step
from splitflow.operators import quadratic_fn, resolvent_eval
from splitflow.primal_dual import PDParams, PDState, special_metric
from splitflow.schedules import constant

CORPUS_SEED = 0  # the problem corpus is fixed; --seed moves only the multistart starts

# The eleven per-problem solver configs of the test suite's corpus check, each
# at its problem's horizon with about 100 records.  The gate tolerance is the
# one that check uses.
_SOLVERS = [
    ("rotation2d", {"name": "km", "lambda": {"family": "constant", "value": 0.7}}, 0.05),
    ("neg_identity", {"name": "km", "lambda": {"family": "constant", "value": 1.0}}, 0.05),
    ("lasso1d", {"name": "fb", "gamma": 1.0,
                 "lambda": {"family": "constant", "value": 1.0}}, 0.05),
    ("lasso10", {"name": "fb", "gamma": 0.25,
                 "lambda": {"family": "constant", "value": 0.75}}, 0.05),
    ("constrained_quadratic", {"name": "fb", "gamma": 1.0,
                               "lambda": {"family": "constant", "value": 1.0}}, 0.05),
    ("strongcvx_l1", {"name": "fb", "gamma": 1.0 / 3.0,
                      "lambda": {"family": "constant", "value": 0.75}}, 0.05),
    ("bilinear_saddle", {"name": "fbf", "gamma": 0.5, "lambda": 0.5}, 0.05),
    ("nonconvex_cos", {"name": "proxgrad"}, 0.05),
    ("banana_box", {"name": "proxgrad"}, 1.0),
    ("pd_lasso_analysis", {"name": "pd", "c": 1.0,
                           "tau": {"family": "constant", "value": 0.26}}, 0.05),
    ("two_lines", {"name": "fb", "gamma": 1.0,
                   "lambda": {"family": "constant", "value": 1.0}}, 0.05),
]

# One config for each registered flow the eleven above leave out, and one fb
# run with relaxation 1 and gamma = beta / 4 (lasso1d has beta = 1), the step
# for which the CLI certifies the objective gap, as criterion 6 does.
_EXTRA = [  # (key, problem, flow, integrator)
    ("lasso10-fb-tikhonov", "lasso10",
     {"name": "fb-tikhonov", "gamma": 0.25, "lambda": {"family": "constant", "value": 0.75},
      "epsilon": {"family": "exp-decay", "base": 0.0, "amp": 0.5, "rate": 0.1}},
     {"method": "rk4", "dt": 0.05, "t_end": 200.0, "record_every": 40}),
    ("two_lines-dr-reflected", "two_lines", {"name": "dr-reflected", "gamma": 1.0},
     {"method": "rk4", "dt": 0.05, "t_end": 40.0, "record_every": 8}),
    ("two_lines-dr-coupled", "two_lines", {"name": "dr-coupled", "gamma": 1.0},
     {"method": "rk4", "dt": 0.05, "t_end": 40.0, "record_every": 8}),
    ("constrained_quadratic-second-order-fb", "constrained_quadratic",
     {"name": "second-order-fb", "eta": 1.0, "theta": 0.5,
      "gamma": {"family": "constant", "value": 2.0},
      "lambda": {"family": "constant", "value": 1.0}},
     {"method": "rk4", "dt": 0.05, "t_end": 60.0, "record_every": 12}),
    # avd minimises g alone, so its gate is ||grad g||, which decays like t^-1.5
    ("lasso1d-avd", "lasso1d", {"name": "avd", "alpha": 3.0},
     {"method": "rk4", "dt": 0.05, "t_start": 1.0, "t_end": 101.0, "record_every": 20}),
    ("lasso1d-fb-certified", "lasso1d",
     {"name": "fb", "gamma": 0.25, "lambda": {"family": "constant", "value": 1.0}},
     {"method": "rk4", "dt": 0.05, "t_end": 100.0, "record_every": 20}),
]

STATE_TOL = 1e-5
AVD_GRAD_TOL = 2e-3

# avd-dense: xdd + (3/t) xd + x = 0 from (1, 0), every RK4 step recorded.  The
# exact solution is t^-1 (a J1(t) + b Y1(t)), so the envelope of x^2/2 decays
# like t^-3.
AVD_DENSE = {"alpha": 3.0, "x0": [1.0], "v0": [0.0], "fit_from": 10.0,
             "window": 2.0 * math.pi,
             "integrator": {"method": "rk4", "dt": 0.0025, "t_start": 1.0,
                            "t_end": 101.0, "record_every": 1}}
AVD_SLOPE_BAND = (-3.25, -2.75)
# corpus-runs carries the same trajectory on a coarser grid: 10,000 steps
AVD_DENSE_CORPUS = dict(AVD_DENSE, integrator=dict(AVD_DENSE["integrator"], dt=0.01))

# multistart-sweep: per start, short runs that share problem, flow and grid
MS_STARTS = 16
MS_PROXGRAD = {
    "nonconvex_cos": ({"method": "rk4", "dt": 0.05, "t_end": 25.0, "record_every": 5}, 1e-4),
    # banana_box crawls along its valley for t ~ 1e4; a short run only reaches it
    "banana_box": ({"method": "rk4", "dt": 1.0, "t_end": 400.0, "record_every": 4}, 1.0),
}
MS_FB_STEPS, MS_FB_TOL = 200, 1e-8
MS_TSENG_STEPS, MS_TSENG_TOL = 200, 1e-6
MS_ADMM_STEPS, MS_ADMM_TOL = 100, 1e-9
MS_PD_GENERAL = ({"method": "rk4", "dt": 0.5, "t_end": 20.0, "record_every": 1}, 0.1)


@dataclasses.dataclass
class Experiment:
    """One timed unit of work.

    run() does the work and returns what check() needs besides the files in
    out_dir; check(info) returns (passed, detail).
    """

    key: str
    steps: int  # integration steps plus discrete iterations
    out_dir: str
    run: Callable[[], dict]
    check: Callable[[dict], tuple]


def digest(out_dir: str) -> str:
    """sha256 over the names and bytes of every file an experiment wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def read_csv(path: str):
    """(column names, rows x columns array) of a trajectory or sequence CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def final_x(path: str) -> np.ndarray:
    """The x columns of the last row of a trajectory or sequence CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().rstrip("\n").split("\n")
    header = lines[0].split(",")
    last = [float(v) for v in lines[-1].split(",")]
    return np.array([val for name, val in zip(header, last) if name.startswith("x_")])


def _n_steps(integrator: dict) -> int:
    return IntegratorConfig(method=integrator["method"], dt=integrator["dt"],
                            t_start=integrator.get("t_start", 0.0),
                            t_end=integrator["t_end"]).n_steps


def _write_json(path: str, obj) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def _pd_residual(problem, u) -> float:
    s = problem.components["structured"]
    return problems.state_residual(problem, PDState.from_vector(u, s.n, s.m))


def build_corpus():
    """The list-problems work: corpus with oracle solves, then each residual gate."""
    for p in problems.corpus(CORPUS_SEED):
        res = problems.solution_residual(p)
        if not res < 1e-8:
            raise RuntimeError("reference solution of %s fails its gate: %r" % (p.name, res))


# ---------------------------------------------------------------------------
# corpus-runs


class CorpusRuns:
    name = "corpus-runs"

    def __init__(self, root: str, seed: int):
        self.root = root
        self.configs = []  # (key, path, cfg dict, tolerance)
        cfg_dir = os.path.join(root, "configs")
        entries = []
        for problem, flow, dt in _SOLVERS:
            horizon = problems.get_problem(problem, CORPUS_SEED).horizon
            integ = {"method": "rk4", "dt": dt, "t_end": horizon,
                     "record_every": max(1, int(round(horizon / dt / 100)))}
            entries.append(("%s-%s" % (problem, flow["name"]), problem, flow, integ))
        entries.extend(_EXTRA)
        for key, problem, flow, integ in entries:
            raw = {"problem": problem, "flow": flow, "integrator": integ}
            path = _write_json(os.path.join(cfg_dir, key + ".json"), raw)
            config.load_config(path)  # full validation, as `splitflow check` does
            tol = AVD_GRAD_TOL if flow["name"] == "avd" else STATE_TOL
            self.configs.append((key, path, raw, tol))
        self.avd = AvdDense(os.path.join(root, "avd"), seed, AVD_DENSE_CORPUS)

    def unit(self, index: int) -> List[Experiment]:
        """One experiment; units cycle through the configs, then the avd trajectory."""
        k = index % (len(self.configs) + 1)
        if k == len(self.configs):
            return self.avd.unit(0)
        return [self._experiment(*self.configs[k])]

    def trace_units(self) -> List[int]:
        return list(range(len(self.configs) + 1))

    def _experiment(self, key, path, raw, tol) -> Experiment:
        out_dir = os.path.join(self.root, "out", key)
        problem = problems.get_problem(raw["problem"], CORPUS_SEED)
        flow = raw["flow"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["run", path, "--out-dir", out_dir])
            return {"code": code, "line": buf.getvalue().strip()}

        def check(info):
            if info["code"] != 0 or "passed=True" not in info["line"]:
                return False, "cli exit %d: %s" % (info["code"], info["line"])
            x = final_x(os.path.join(out_dir, "trajectory.csv"))
            if problem.kind == "structured-pd":
                res = _pd_residual(problem, x)
            elif flow["name"] == "avd":
                res = float(np.linalg.norm(problem.components["g"].gradient(x)))
            elif flow["name"] == "dr-reflected":
                # the flow moves the governing variable z; the solution is J_{gamma B}(z)
                res = problems.state_residual(
                    problem, resolvent_eval(problem.components["B_mono"], flow["gamma"], x))
            else:
                res = problems.state_residual(problem, x)
            return bool(res <= tol), "residual %.3g (tol %.0e)" % (res, tol)

        return Experiment(key=key, steps=_n_steps(raw["integrator"]), out_dir=out_dir,
                          run=run, check=check)


# ---------------------------------------------------------------------------
# avd-dense


def envelope_fit(times, values, window: float):
    """Log-log slope of the per-window maxima; written apart from diagnostics."""
    idx = np.floor((times - times[0]) / window).astype(int)
    starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    env_v = np.maximum.reduceat(values, starts)
    env_t = np.add.reduceat(times, starts) / np.diff(np.r_[starts, len(times)])
    return float(np.polyfit(np.log(env_t), np.log(env_v), 1)[0])


class AvdDense:
    name = "avd-dense"

    def __init__(self, root: str, seed: int, params: dict = AVD_DENSE):
        self.root = root
        path = _write_json(os.path.join(root, "avd_dense.json"), params)
        with open(path, "r", encoding="utf-8") as fh:
            self.params = json.load(fh)
        self.icfg = config.integrator_from_dict(self.params["integrator"])  # validates the grid
        second_order.SecondOrderSpec.avd(quadratic_fn(np.eye(1)), alpha=self.params["alpha"])

    def unit(self, index: int) -> List[Experiment]:
        prm, icfg = self.params, self.icfg
        out_dir = os.path.join(self.root, "out", "avd-dense")
        csv_path = os.path.join(out_dir, "trajectory.csv")
        os.makedirs(out_dir, exist_ok=True)

        def run():
            spec = second_order.SecondOrderSpec.avd(quadratic_fn(np.eye(1)), alpha=prm["alpha"])
            traj = splitflow.integrate(second_order.second_order_field(spec),
                                       np.array(prm["x0"]), icfg, v0=np.array(prm["v0"]),
                                       probes=second_order.second_order_probes(
                                           spec, xstar=np.zeros(1)))
            splitflow.write_trajectory_csv(traj, csv_path)
            tail = traj.times >= prm["fit_from"]
            slope, _ = diagnostics.envelope_slope(traj.times[tail],
                                                  traj.records["objective"][tail],
                                                  window=prm["window"])
            energy = traj.records["objective"][tail] + 0.5 * traj.records["speed"][tail] ** 2
            fit = diagnostics.rate_fit(traj.times[tail], energy, model="power")
            return {"slope": slope, "energy_exponent": fit.exponent}

        def check(info):
            header, rows = read_csv(csv_path)
            times, objective = rows[:, 0], rows[:, header.index("objective")]
            tail = times >= prm["fit_from"]
            slope = envelope_fit(times[tail], objective[tail], prm["window"])
            lo, hi = AVD_SLOPE_BAND
            ok = lo <= slope <= hi and lo <= info["slope"] <= hi
            return ok, ("envelope slope %.4f (library %.4f), band [%g, %g]; energy decays "
                        "like t^-%.3f" % (slope, info["slope"], lo, hi, info["energy_exponent"]))

        return [Experiment(key="avd-dense", steps=icfg.n_steps, out_dir=out_dir,
                           run=run, check=check)]

    def trace_units(self) -> List[int]:
        return [0]


# ---------------------------------------------------------------------------
# multistart-sweep


class MultistartSweep:
    name = "multistart-sweep"

    def __init__(self, root: str, seed: int):
        self.root = root
        rng = np.random.default_rng(seed)
        starts = []
        for _ in range(MS_STARTS):
            starts.append({
                "nonconvex_cos": rng.uniform(-2.5, 2.5, 1).tolist(),
                "banana_box": rng.uniform(-1.4, 1.4, 2).tolist(),
                "lasso10": (2.0 * rng.standard_normal(10)).tolist(),
                "bilinear_saddle": rng.standard_normal(2).tolist(),
                "pd_lasso_analysis": rng.standard_normal(10).tolist(),
            })
        cfg_dir = os.path.join(root, "configs")
        path = _write_json(os.path.join(cfg_dir, "starts.json"), starts)
        with open(path, "r", encoding="utf-8") as fh:
            self.starts = json.load(fh)
        self.config_paths = []
        for k, start in enumerate(self.starts):
            paths = {}
            for problem, (integ, _) in MS_PROXGRAD.items():
                raw = {"problem": problem, "flow": {"name": "proxgrad"},
                       "integrator": integ, "x0": start[problem]}
                paths[problem] = _write_json(
                    os.path.join(cfg_dir, "start%02d-%s.json" % (k, problem)), raw)
                config.load_config(paths[problem])
            self.config_paths.append(paths)

        self.lasso = problems.get_problem("lasso10", CORPUS_SEED)
        self.saddle = problems.get_problem("bilinear_saddle", CORPUS_SEED)
        self.pd = problems.get_problem("pd_lasso_analysis", CORPUS_SEED)
        prob = self.pd.components["structured"]
        self.pd_params = PDParams(c=1.0, gamma_relax=1.0,
                                  tau=constant(0.9 / prob.A.norm_estimate ** 2))
        self.pd_icfg = config.integrator_from_dict(MS_PD_GENERAL[0])

    def unit(self, index: int) -> List[Experiment]:
        k = index % MS_STARTS
        start, paths = self.starts[k], self.config_paths[k]
        exps = [self._proxgrad(k, problem, paths[problem], tol)
                for problem, (_, tol) in MS_PROXGRAD.items()]
        exps += [self._fb(k, start), self._tseng(k, start), self._admm(k, start),
                 self._pd_general(k, start)]
        return exps

    def trace_units(self) -> List[int]:
        return list(range(MS_STARTS))

    def _out(self, k, tag):
        out_dir = os.path.join(self.root, "out", "start%02d-%s" % (k, tag))
        os.makedirs(out_dir, exist_ok=True)
        return out_dir

    def _proxgrad(self, k, problem_name, path, tol) -> Experiment:
        out_dir = self._out(k, problem_name)
        problem = problems.get_problem(problem_name, CORPUS_SEED)

        def run():
            config.run_experiment(config.load_config(path), out_dir=out_dir)
            return {}

        def check(info):
            res = problems.state_residual(problem,
                                          final_x(os.path.join(out_dir, "trajectory.csv")))
            return bool(res <= tol), "residual %.3g (tol %.0e)" % (res, tol)

        return Experiment(key="start%02d-%s" % (k, problem_name),
                          steps=_n_steps(MS_PROXGRAD[problem_name][0]), out_dir=out_dir,
                          run=run, check=check)

    def _sequence(self, k, tag, problem, update, x0, n_steps, tol, euler_field,
                  residual=None) -> Experiment:
        """A discrete run through run_sequence and write_sequence_csv.

        On the first start, the iterates on disk must equal unit Euler steps of
        euler_field bit for bit.
        """
        out_dir = self._out(k, tag)
        csv_path = os.path.join(out_dir, "sequence.csv")
        residual = residual or (lambda x: problems.state_residual(problem, x))

        def run():
            seq = algorithms.run_sequence(update, np.array(x0), n_steps, label=tag)
            algorithms.write_sequence_csv(seq, csv_path)
            return {}

        def check(info):
            header, rows = read_csv(csv_path)
            iterates = rows[:, [i for i, name in enumerate(header) if name.startswith("x_")]]
            res = residual(iterates[-1])
            detail = "residual %.3g (tol %.0e)" % (res, tol)
            if k == 0 and euler_field is not None:
                x = np.array(x0)
                euler = [x]
                for n in range(n_steps):
                    x = euler_unit_step(euler_field, x, t=float(n))
                    euler.append(x)
                if not np.array_equal(np.array(euler), iterates):
                    return False, detail + "; iterates differ from unit Euler steps"
                detail += "; equal to %d unit Euler steps bit for bit" % n_steps
            return bool(res <= tol), detail

        return Experiment(key="start%02d-%s" % (k, tag), steps=n_steps, out_dir=out_dir,
                          run=run, check=check)

    def _fb(self, k, start) -> Experiment:
        A, B = self.lasso.components["A"], self.lasso.components["B"]
        gamma, lam = self.lasso.components["beta"], 0.75
        field = fb_field(FBFlowSpec(A=A, B=B, gamma=gamma, lam=constant(lam)))
        return self._sequence(k, "lasso10-fb_step", self.lasso,
                              lambda n, x, x_prev: algorithms.fb_step(A, B, gamma, lam, x),
                              start["lasso10"], MS_FB_STEPS, MS_FB_TOL, field)

    def _tseng(self, k, start) -> Experiment:
        A, B = self.saddle.components["A"], self.saddle.components["B"]
        gamma, lam = 0.5, 0.5
        field = fbf_field(FBFFlowSpec(A=A, B=B, gamma=gamma, lam=lam))
        return self._sequence(k, "bilinear_saddle-tseng_step", self.saddle,
                              lambda n, x, x_prev: algorithms.tseng_step(A, B, gamma, lam, x),
                              start["bilinear_saddle"], MS_TSENG_STEPS, MS_TSENG_TOL, field)

    def _admm(self, k, start) -> Experiment:
        prob, params = self.pd.components["structured"], self.pd_params
        M1, M2 = special_metric(prob, params)
        M1 = M1(0.0)

        def update(n, u, u_prev):
            state = PDState.from_vector(u, prob.n, prob.m)
            return algorithms.prox_admm_step(prob, params, M1, M2, state).to_vector()

        return self._sequence(k, "pd_lasso_analysis-prox_admm_step", self.pd, update,
                              start["pd_lasso_analysis"], MS_ADMM_STEPS, MS_ADMM_TOL, None,
                              residual=lambda u: _pd_residual(self.pd, u))

    def _pd_general(self, k, start) -> Experiment:
        out_dir = self._out(k, "pd-general")
        csv_path = os.path.join(out_dir, "trajectory.csv")
        prob, params, icfg = self.pd.components["structured"], self.pd_params, self.pd_icfg
        tol = MS_PD_GENERAL[1]

        def run():
            M1, M2 = special_metric(prob, params)
            field = primal_dual.pd_field_general(prob, params, M1, M2)
            traj = splitflow.integrate(field, np.array(start["pd_lasso_analysis"]), icfg)
            splitflow.write_trajectory_csv(traj, csv_path)
            return {}

        def check(info):
            res = _pd_residual(self.pd, final_x(csv_path))
            return bool(res <= tol), "saddle residual %.3g (tol %.0e)" % (res, tol)

        return Experiment(key="start%02d-pd-general" % k, steps=icfg.n_steps,
                          out_dir=out_dir, run=run, check=check)


WORKLOADS = {cls.name: cls for cls in (CorpusRuns, AvdDense, MultistartSweep)}
