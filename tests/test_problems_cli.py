import copy
import csv
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import splitflow.config as config
import splitflow.problems as problems

from splitflow.cli import main
from splitflow.config import (ExperimentConfig, config_from_dict, list_flows, load_config,
                              run_experiment, save_config)
from splitflow.errors import SolverError, SpecError
from splitflow.integrate import IntegratorConfig, integrate
from splitflow.operators import SingleValuedMap, _shrink, l1_prox, subdifferential_map
from splitflow.primal_dual import PDState
from splitflow.problems import (ProblemDef, affine_monotone_map, corpus, get_problem,
                                solution_residual, state_residual)


class TestCorpus:
    def test_size_and_names_unique(self):
        probs = corpus()
        assert len(probs) >= 8
        names = [p.name for p in probs]
        assert len(set(names)) == len(names)

    def test_every_known_solution_validates(self):
        for p in corpus():
            if p.known_solution is None:
                continue
            assert solution_residual(p) < 1e-8, p.name

    def test_bilinear_saddle_flags(self):
        p = get_problem("bilinear_saddle")
        B = p.components["B"]
        assert B.cocoercivity_beta is None
        assert B.lipschitz_L is not None

    def test_kinds_cover_the_taxonomy(self):
        kinds = {p.kind for p in corpus()}
        assert {"fixed-point", "convex-composite", "nonconvex-composite",
                "structured-pd", "saddle", "inclusion"} <= kinds

    def test_unknown_problem_rejected(self):
        with pytest.raises(KeyError):
            get_problem("not_a_problem")

    def test_solutions_and_starts_are_read_only(self):
        def arrays(value):
            return [value.x, value.z, value.y] if isinstance(value, PDState) else [value]

        before = {}
        for p in corpus():
            for field in ("known_solution", "default_start"):
                for i, a in enumerate(arrays(getattr(p, field))):
                    before[p.name, field, i] = a.copy()
                    with pytest.raises(ValueError):
                        a[0] = 9.0
                    with pytest.raises(ValueError):
                        a += 1.0
        for (name, field, i), want in before.items():
            got = arrays(getattr(get_problem(name), field))[i]
            assert np.array_equal(got, want), (name, field)

    # sha256 over each problem's name and reference-solution bytes, read off the
    # oracles when they always ran their full 4000 and 20000 iterations
    SOLUTION_SHA256 = {
        0: "e344cb06beda95f3efc2db621fa9cefeff960f83187c566235554e0793e47e34",
        1: "6d40916e65b78a3e809e5395b5270d06cdcf63df9c26672077c16b1870519df6",
        2: "cd6c90381f8db415002971519665d82dc74e8570e092b2ea27d0400508a1f97d",
        3: "f1a3bede3b13887b5c0f16159ea312c21e691d5c6a0ac422104b59cb60e59a01",
        4: "d934cd2bf737968ed5236202343d891777ac04752d82194a72f6313b5b415ef8",
    }

    @pytest.mark.parametrize("seed", sorted(SOLUTION_SHA256))
    def test_reference_solutions_are_pinned(self, seed):
        h = hashlib.sha256()
        for p in corpus(seed):
            s = p.known_solution
            h.update(p.name.encode() + b"\0")
            for a in ((s.x, s.z, s.y) if isinstance(s, PDState) else (s,)):
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        assert h.hexdigest() == self.SOLUTION_SHA256[seed]

    def test_oracles_stop_at_their_certificate(self, monkeypatch):
        calls = []

        def counted(thresh):  # each oracle binds its threshold once, before its loop
            shrink = _shrink(thresh)

            def count_and_shrink(x):
                calls.append(1)
                return shrink(x)

            return count_and_shrink

        monkeypatch.setattr(problems, "_shrink", counted)
        problems.corpus.__wrapped__(0)  # uncached
        assert 0 < len(calls) <= 1000  # the full budgets make 3*4000 + 20000 calls

    def test_set_up_leaves_numpy_ma_unimported(self):
        # np.setdiff1d reaches np.ma.is_masked, and importing numpy.ma adds
        # 13-20 ms and about 1 MB to a CLI process (2-vCPU host); only a fresh
        # interpreter shows whether set-up imports it
        code = ("import sys, splitflow.cli\n"
                "from splitflow import problems\n"
                "problems.corpus(0)\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_spent_budget_returns_or_raises_the_last_polish(self):
        seen = []

        def polish(pattern):
            seen.append(float(pattern[0]))
            return 2.0 * pattern  # never within 1e-10 of an iterate

        iterates = [np.array([1.0]), np.array([3.0]), np.array([-1.0])]
        out = problems._polish_until_certified(iter(iterates), np.sign, polish,
                                               lambda x, y: float(np.max(np.abs(x - y))))
        assert out.tolist() == [-2.0]
        assert seen == [1.0, -1.0, -1.0]  # once per pattern, then the last one again

        def gate_fails(pattern):
            raise SolverError("gate")

        with pytest.raises(SolverError, match="gate"):
            problems._polish_until_certified(iter(iterates), np.sign, gate_fails,
                                             lambda x, y: 0.0)

    # one registered flow per problem solves it within its documented horizon
    SOLVERS = {
        "rotation2d": ({"name": "km", "lambda": {"family": "constant", "value": 0.7}},
                       0.05),
        "neg_identity": ({"name": "km", "lambda": {"family": "constant", "value": 1.0}},
                         0.05),
        "lasso1d": ({"name": "fb", "gamma": 1.0,
                     "lambda": {"family": "constant", "value": 1.0}}, 0.05),
        "lasso10": ({"name": "fb", "gamma": 0.25,
                     "lambda": {"family": "constant", "value": 0.75}}, 0.05),
        "constrained_quadratic": ({"name": "fb", "gamma": 1.0,
                                   "lambda": {"family": "constant", "value": 1.0}},
                                  0.05),
        "strongcvx_l1": ({"name": "fb", "gamma": 1.0 / 3.0,
                          "lambda": {"family": "constant", "value": 0.75}}, 0.05),
        "bilinear_saddle": ({"name": "fbf", "gamma": 0.5, "lambda": 0.5}, 0.05),
        "nonconvex_cos": ({"name": "proxgrad"}, 0.05),
        "banana_box": ({"name": "proxgrad"}, 1.0),
        "pd_lasso_analysis": ({"name": "pd", "c": 1.0,
                               "tau": {"family": "constant", "value": 0.26}}, 0.05),
        "two_lines": ({"name": "fb", "gamma": 1.0,
                       "lambda": {"family": "constant", "value": 1.0}}, 0.05),
    }

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_each_problem_solved_by_a_registered_flow(self, name):
        p = get_problem(name)
        flow, dt = self.SOLVERS[name]
        cfg = ExperimentConfig(
            problem=name, flow=flow,
            integrator={"method": "rk4", "dt": dt, "t_end": p.horizon,
                        "record_every": max(1, int(round(p.horizon / dt / 100)))})
        problem, field, probes, x0, v0, icfg, spec = cfg.run
        traj = integrate(field, x0, icfg, v0=v0)
        final = traj.final_state
        if p.kind == "structured-pd":
            s = p.components["structured"]
            final = PDState.from_vector(final, s.n, s.m)
        assert state_residual(p, final) < 1e-5


def count_build_run(monkeypatch) -> list:
    """Wrap splitflow.config.build_run; the returned list gets one entry per call."""
    calls, inner = [], config.build_run

    def counting(cfg):
        calls.append(cfg)
        return inner(cfg)

    monkeypatch.setattr(config, "build_run", counting)
    return calls


def lasso10_fb_config(tmp_path, **overrides):
    raw = {"problem": "lasso10",
           "flow": {"name": "fb", "gamma": 0.25,
                    "lambda": {"family": "constant", "value": 0.75}},
           "integrator": {"method": "rk4", "dt": 0.01, "t_end": 5.0, "record_every": 50}}
    raw.update(overrides)
    path = tmp_path / "lasso10.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def km_config(tmp_path, lam=0.7, **overrides):
    cfg = {
        "problem": "rotation2d",
        "flow": {"name": "km", "lambda": {"family": "constant", "value": lam}},
        "integrator": {"method": "rk4", "dt": 0.01, "t_end": 5.0, "record_every": 10},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestConfig:
    def test_minimal_km_config_loads(self, tmp_path):
        cfg = load_config(km_config(tmp_path))
        assert cfg.problem == "rotation2d"

    def test_lambda_out_of_bounds_rejected(self, tmp_path):
        with pytest.raises(SpecError):
            load_config(km_config(tmp_path, lam=1.5))

    def test_unknown_flow_rejected(self, tmp_path):
        path = km_config(tmp_path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["flow"]["name"] = "warp-drive"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(SpecError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(SpecError):
            config_from_dict({"problem": "rotation2d", "flow": {}, "integrator": {},
                              "typo": 1})

    def test_parse_error_carries_line_info(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}", encoding="utf-8")
        with pytest.raises(SpecError) as err:
            load_config(path)
        assert "line" in str(err.value)

    def test_round_trip_is_identical(self, tmp_path):
        cfg = load_config(km_config(tmp_path))
        out = tmp_path / "copy.json"
        save_config(cfg, out)
        again = load_config(out)
        assert cfg == again

    def test_full_lasso_fb_config_round_trips(self, tmp_path):
        raw = {
            "problem": "lasso10",
            "flow": {"name": "fb", "gamma": 0.25,
                     "lambda": {"family": "constant", "value": 0.75}},
            "integrator": {"method": "rk4", "dt": 0.01, "t_end": 10.0,
                           "record_every": 20},
            "out": "runs/lasso10",
        }
        path = tmp_path / "lasso.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg = load_config(path)
        out = tmp_path / "copy.json"
        save_config(cfg, out)
        assert load_config(out) == cfg
        assert json.loads(out.read_text(encoding="utf-8")) == cfg.to_dict()

    def test_tikhonov_flow_loads_and_runs(self, tmp_path):
        raw = {
            "problem": "lasso1d",
            "flow": {"name": "fb-tikhonov", "gamma": 0.5,
                     "lambda": {"family": "constant", "value": 1.0},
                     "epsilon": {"family": "inv-power", "p": 2.0, "scale": 0.1}},
            "integrator": {"method": "rk4", "dt": 0.01, "t_end": 5.0,
                           "record_every": 10},
        }
        path = tmp_path / "tikh.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg = load_config(path)
        summary = run_experiment(cfg, out_dir=str(tmp_path / "run"))
        assert summary["passed"]

    def test_tikhonov_requires_epsilon(self, tmp_path):
        raw = {
            "problem": "lasso1d",
            "flow": {"name": "fb-tikhonov", "gamma": 0.5,
                     "lambda": {"family": "constant", "value": 1.0}},
            "integrator": {"method": "rk4", "dt": 0.01, "t_end": 5.0},
        }
        path = tmp_path / "tikh2.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(SpecError):
            load_config(path)

    def test_second_order_fb_config_validates_schedule_condition(self, tmp_path):
        raw = {
            "problem": "constrained_quadratic",
            "flow": {"name": "second-order-fb", "eta": 1.0, "theta": 0.1,
                     "gamma": {"family": "exp-decay", "base": 2.0, "amp": 1.0},
                     "lambda": {"family": "exp-decay", "base": 1.0, "amp": -0.5}},
            "integrator": {"method": "rk4", "dt": 0.01, "t_end": 10.0,
                           "record_every": 10},
        }
        path = tmp_path / "so.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg = load_config(path)
        summary = run_experiment(cfg, out_dir=str(tmp_path / "run"))
        assert summary["passed"]
        # violating the ratio condition is rejected at load
        raw["flow"]["gamma"] = {"family": "constant", "value": 0.5}
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(SpecError):
            load_config(path)

    def test_relaxation_reaching_zero_warns(self, tmp_path):
        raw = {
            "problem": "rotation2d",
            "flow": {"name": "km",
                     "lambda": {"family": "affine-clamped", "intercept": 0.5,
                                "slope": -0.1, "lo": 0.0, "hi": 0.5}},
            "integrator": {"method": "rk4", "dt": 0.01, "t_end": 10.0,
                           "record_every": 10},
        }
        path = tmp_path / "warn.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.warns(UserWarning, match="integral condition"):
            load_config(path)

    def test_load_and_run_build_the_run_once(self, tmp_path, monkeypatch):
        calls = count_build_run(monkeypatch)
        run_experiment(load_config(km_config(tmp_path)), out_dir=str(tmp_path / "run"))
        assert len(calls) == 1

    def test_config_is_immutable(self, tmp_path):
        cfg = load_config(km_config(tmp_path))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3
        reseeded = dataclasses.replace(cfg, seed=3)
        assert (cfg.seed, reseeded.seed) == (0, 3) and reseeded.run is not cfg.run

    KM = {"problem": "rotation2d",
          "flow": {"name": "km", "lambda": {"family": "constant", "value": 0.7}},
          "integrator": {"method": "rk4", "dt": 0.01, "t_end": 1.0, "record_every": 10}}

    @pytest.mark.parametrize("key, value", [("flow", [1, 2]), ("seed", 2.0), ("seed", True),
                                            ("out", 5), ("problem", None), ("seed", None)])
    def test_a_constructed_config_is_checked_as_a_loaded_one(self, key, value):
        with pytest.raises(SpecError, match="config key %r must be" % key):
            ExperimentConfig(**{**self.KM, key: value})

    @pytest.mark.parametrize("extra", [{}, {"seed": 3, "out": "runs/km", "x0": (1.0, 0.5)}])
    def test_a_constructed_config_round_trips(self, tmp_path, extra):
        cfg = ExperimentConfig(**self.KM, **extra)
        save_config(cfg, tmp_path / "cfg.json")
        again = load_config(tmp_path / "cfg.json")
        assert again == cfg and again.to_dict() == cfg.to_dict()

    def test_config_does_not_alias_its_input(self, tmp_path):
        raw = json.loads(km_config(tmp_path, x0=[1.0, 0.0]).read_text(encoding="utf-8"))
        before = json.loads(json.dumps(raw))
        cfg = config_from_dict(raw)
        raw["flow"]["lambda"]["value"] = 5.0
        raw["integrator"]["dt"] = 1.0
        raw["x0"][0] = 9.0
        assert cfg.to_dict() == before

    def test_config_sections_are_read_only(self, tmp_path):
        cfg = load_config(km_config(tmp_path, x0=[1.0, 0.0]))
        before = cfg.to_dict()
        with pytest.raises(TypeError):
            cfg.flow["lambda"]["value"] = 5.0
        with pytest.raises(TypeError):
            cfg.integrator["dt"] = 1.0
        with pytest.raises(TypeError):
            cfg.x0[0] = 9.0
        # to_dict hands out fresh plain values, so editing them changes nothing either
        out = cfg.to_dict()
        out["flow"]["lambda"]["value"] = 5.0
        out["x0"][0] = 9.0
        assert cfg.to_dict() == before and isinstance(before["x0"], list)
        assert copy.deepcopy(cfg) is cfg

    def test_run_start_is_a_read_only_copy(self, tmp_path):
        # the problem is cached and shared, so its default start must not be
        # reachable through a run
        cfg = load_config(km_config(tmp_path))
        x0 = cfg.run[3]
        with pytest.raises(ValueError):
            x0[0] = 9.0
        assert x0 is not get_problem("rotation2d").default_start
        fresh = load_config(km_config(tmp_path))
        assert np.array_equal(fresh.run[3], [1.0, 0.0])
        raw = {"problem": "constrained_quadratic",
               "flow": {"name": "second-order-fb", "eta": 1.0, "theta": 0.5,
                        "gamma": {"family": "constant", "value": 2.0},
                        "lambda": {"family": "constant", "value": 1.0}},
               "integrator": {"method": "rk4", "dt": 0.01, "t_end": 1.0}}
        v0 = config_from_dict(raw).run[4]
        with pytest.raises(ValueError):
            v0[0] = 9.0

    def test_avd_requires_positive_t_start(self, tmp_path):
        raw = {
            "problem": "strongcvx_l1",
            "flow": {"name": "avd", "alpha": 3.0},
            "integrator": {"method": "rk4", "dt": 0.01, "t_end": 10.0},
        }
        path = tmp_path / "avd.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(SpecError):
            load_config(path)


class TestRunExperiment:
    def test_km_rotation_emits_artifacts(self, tmp_path):
        cfg = load_config(km_config(tmp_path))
        out = tmp_path / "run"
        summary = run_experiment(cfg, out_dir=str(out))
        header = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,x_0,x_1,v_0,v_1,fp_residual,dist_to_ref,field_norm"
        diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        assert diag["passed"] is True
        assert not diag["diverged"]
        assert "final_residual" in diag
        assert "flow=km" in summary["line"]
        assert (out / "summary.txt").exists()

    def test_nonconvex_run_merit_nonincreasing(self, tmp_path):
        raw = {
            "problem": "nonconvex_cos",
            "flow": {"name": "proxgrad"},
            "integrator": {"method": "rk4", "dt": 0.01, "t_end": 40.0,
                           "record_every": 20},
        }
        path = tmp_path / "nc.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg = load_config(path)
        out = tmp_path / "run"
        summary = run_experiment(cfg, out_dir=str(out))
        diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        checks = {c["check"]: c for c in diag["checks"]}
        assert checks["merit_H"]["pass"]
        assert summary["passed"]

    def test_ista_style_run_produces_pass_report(self, tmp_path):
        raw = {
            "problem": "lasso1d",
            "flow": {"name": "fb", "gamma": 0.25,
                     "lambda": {"family": "constant", "value": 1.0}},
            "integrator": {"method": "rk4", "dt": 0.01, "t_end": 80.0,
                           "record_every": 10},
        }
        path = tmp_path / "ista.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "run"
        summary = run_experiment(load_config(path), out_dir=str(out))
        diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        assert diag["passed"] and summary["passed"]
        assert diag["final_residual"] < 1e-5
        checks = {c["check"]: c for c in diag["checks"]}
        assert checks["objective-gap-certificate"]["pass"]

    # one short run per registered flow: (problem, flow, check names in order,
    # main residual record)
    FLOW_TABLE = {
        "km": ("rotation2d", {"name": "km", "lambda": {"family": "constant", "value": 0.7}},
               ["fejer", "fp_residual"], "fp_residual"),
        "fb": ("lasso1d", {"name": "fb", "gamma": 0.25,
                           "lambda": {"family": "constant", "value": 1.0}},
               ["fejer", "objective-gap-certificate"], "fp_residual"),
        "fb-tikhonov": ("lasso1d", {"name": "fb-tikhonov", "gamma": 0.25,
                                    "lambda": {"family": "constant", "value": 1.0},
                                    "epsilon": {"family": "inv-power", "p": 2.0, "scale": 0.1}},
                        [], "fp_residual"),
        "fbf": ("bilinear_saddle", {"name": "fbf", "gamma": 0.5, "lambda": 0.5},
                [], "fp_residual"),
        "dr-reflected": ("two_lines", {"name": "dr-reflected", "gamma": 1.0},
                         ["fejer"], "fp_residual"),
        "dr-coupled": ("two_lines", {"name": "dr-coupled", "gamma": 1.0}, [], "fp_residual"),
        "proxgrad": ("nonconvex_cos", {"name": "proxgrad"}, ["merit_H"], "crit_residual"),
        "second-order-fb": ("constrained_quadratic",
                            {"name": "second-order-fb", "eta": 1.0, "theta": 0.5,
                             "gamma": {"family": "constant", "value": 2.0},
                             "lambda": {"family": "constant", "value": 1.0}},
                            [], None),
        "avd": ("lasso1d", {"name": "avd", "alpha": 3.0}, [], None),
        "pd": ("pd_lasso_analysis",
               {"name": "pd", "c": 1.0, "tau": {"family": "constant", "value": 0.26}},
               [], "feas_norm"),
    }

    def test_flow_table_covers_every_registered_flow(self):
        assert {case[1]["name"] for case in self.FLOW_TABLE.values()} == set(list_flows())

    @pytest.mark.parametrize("key", sorted(FLOW_TABLE))
    def test_checks_and_main_residual_per_flow(self, tmp_path, key):
        problem, flow, checks, residual = self.FLOW_TABLE[key]
        integ = {"method": "rk4", "dt": 0.05, "t_end": 5.0, "record_every": 10}
        if flow["name"] == "avd":
            integ.update(t_start=1.0, t_end=6.0)
        raw = {"problem": problem, "flow": flow, "integrator": integ}
        out = tmp_path / "run"
        run_experiment(config_from_dict(raw), out_dir=str(out))
        diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        assert [c["check"] for c in diag["checks"]] == checks
        assert sorted(diag["rate_fits"]) == ([] if residual is None else ["exponential", "power"])
        lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        if residual is None:
            assert np.isnan(diag["final_residual"])
        else:
            last = lines[-1].split(",")
            assert float(last[header.index(residual)]) == diag["final_residual"]

    @staticmethod
    def _dr_reflected_checks(tmp_path, monkeypatch, components):
        """dr-reflected checks on a 1-D inclusion 0 in d(0.4|x|) + x - 1, x* = 0.6."""
        problem = ProblemDef(name="shifted_l1", kind="inclusion",
                             components=dict(A=subdifferential_map(l1_prox(0.4)), **components),
                             known_solution=np.array([0.6]), default_start=np.array([5.0]),
                             horizon=20.0)
        monkeypatch.setattr("splitflow.config.get_problem", lambda name, seed=0: problem)
        raw = {"problem": "shifted_l1", "flow": {"name": "dr-reflected", "gamma": 1.0},
               "integrator": {"method": "rk4", "dt": 0.01, "t_end": 20.0, "record_every": 10}}
        run_experiment(config_from_dict(raw), out_dir=str(tmp_path))
        return json.loads((tmp_path / "diagnostics.json").read_text(encoding="utf-8"))["checks"]

    def test_dr_reflected_fejer_toward_the_fixed_point(self, tmp_path, monkeypatch):
        # z runs from 5 to z* = x* + gamma*B(x*) = 0.2, passing x* = 0.6 near t = 5
        B = SingleValuedMap(fn=lambda x: x - 1.0, cocoercivity_beta=1.0, lipschitz_L=1.0)
        checks = self._dr_reflected_checks(
            tmp_path, monkeypatch, {"B": B, "B_mono": affine_monotone_map(np.eye(1), [-1.0])})
        assert [c["check"] for c in checks] == ["fejer"]
        assert checks[0]["pass"]
        assert checks[0]["final_value"] < 1e-3  # from z*, not x*

    def test_dr_reflected_without_single_valued_B_has_no_fejer_check(self, tmp_path,
                                                                       monkeypatch):
        checks = self._dr_reflected_checks(
            tmp_path, monkeypatch, {"B_mono": affine_monotone_map(np.eye(1), [-1.0])})
        assert checks == []

    def test_divergent_run_keeps_partial_outputs(self, tmp_path):
        # xdot = x under Euler with dt 1 doubles the state each step
        from splitflow.errors import DivergenceError
        from splitflow.integrate import FlowField, IntegratorConfig, integrate
        cfg = IntegratorConfig(method="euler", dt=1.0, t_end=200.0)
        with pytest.raises(DivergenceError) as err:
            integrate(FlowField(order=1, fn=lambda t, x: x), 1e6 * np.ones(10), cfg)
        assert err.value.trajectory is not None


class TestCli:
    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        assert "rotation2d" in out and "pd_lasso_analysis" in out

    def test_list_flows(self, capsys):
        assert main(["list-flows"]) == 0
        out = capsys.readouterr().out
        for name in ("km", "fb", "fbf", "dr-reflected", "pd", "proxgrad"):
            assert name in out

    def test_check_valid_config(self, tmp_path, capsys):
        path = km_config(tmp_path)
        assert main(["check", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_check_invalid_config_exits_2(self, tmp_path, capsys):
        path = km_config(tmp_path, lam=1.5)
        assert main(["check", str(path)]) == 2

    def test_run_writes_outputs_and_exits_0(self, tmp_path, capsys):
        path = km_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["run", str(path), "--out-dir", str(out_dir), "--seed", "0"])
        assert code == 0
        assert (out_dir / "trajectory.csv").exists()
        assert (out_dir / "diagnostics.json").exists()
        assert "final_residual" in capsys.readouterr().out

    def test_missing_config_exits_2(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 2

    def test_divergent_config_exits_3(self, tmp_path):
        # explicit Euler far beyond its stability step blows up the fb flow
        raw = {
            "problem": "lasso10",
            "flow": {"name": "fb", "gamma": 0.25,
                     "lambda": {"family": "constant", "value": 0.75}},
            "integrator": {"method": "euler", "dt": 10.0, "t_end": 400.0,
                           "record_every": 1},
        }
        path = tmp_path / "div.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        out_dir = tmp_path / "o"
        code = main(["run", str(path), "--out-dir", str(out_dir)])
        assert code == 3
        # partial outputs retained
        assert (out_dir / "trajectory.csv").exists()
        diag = json.loads((out_dir / "diagnostics.json").read_text(encoding="utf-8"))
        assert diag["diverged"] is True

    BAD_CONFIGS = {
        "unknown-problem": {"problem": "not_a_problem"},
        "fb-without-gamma": {"problem": "lasso10",
                             "flow": {"name": "fb",
                                      "lambda": {"family": "constant", "value": 0.75}}},
        "schedule-without-value": {"flow": {"name": "km", "lambda": {"family": "constant"}}},
        "integrator-without-dt": {"integrator": {"method": "rk4", "t_end": 5.0}},
        "dt-off-grid": {"integrator": {"method": "rk4", "dt": 0.3, "t_end": 1.0}},
        "unknown-method": {"integrator": {"method": "rk5", "dt": 0.01, "t_end": 5.0}},
        "schedule-value-not-a-number": {"flow": {"name": "km",
                                                 "lambda": {"family": "constant",
                                                            "value": "x"}}},
        "gamma-not-a-number": {"problem": "lasso10",
                               "flow": {"name": "fb", "gamma": "x",
                                        "lambda": {"family": "constant", "value": 0.75}}},
        "flow-not-an-object": {"flow": "km"},
        "integrator-not-an-object": {"integrator": "x"},
        "x0-not-numeric": {"x0": [1, "a"]},
        # a run records every probe its flow defines: no key drops one
        "probes-key": {"probes": ["fp_residual"]},
        "negative-seed": {"seed": -1},
        "dt-not-a-number": {"integrator": {"method": "rk4", "dt": "nan", "t_end": 5.0}},
        "seed-not-an-integer": {"seed": "q"},
        "seed-not-integral": {"seed": 1.5},
        "seed-a-float": {"seed": 2.0},  # as in the constructor: numpy rejects a float seed
        "seed-boolean": {"seed": True},
        "record-every-not-integral": {"integrator": {"method": "rk4", "dt": 0.01,
                                                     "t_end": 5.0, "record_every": 2.5}},
        "x0-wrong-size": {"x0": [1, 2, 3]},  # rotation2d is 2-D
        # integrate's start and grid rules hold at load, under check as under run
        "breakpoint-off-grid": {"flow": {"name": "km",
                                         "lambda": {"family": "affine-clamped", "intercept": 0.2,
                                                    "slope": 0.07, "lo": 0.2, "hi": 0.8}},
                                "integrator": {"method": "rk4", "dt": 0.4, "t_end": 20.0}},
        "v0-on-a-first-order-flow": {"v0": [1.0, 2.0]},
        "v0-junk": {"v0": ["junk"]},
        "second-order-fb-without-cocoercive-B": {
            "problem": "bilinear_saddle",
            "flow": {"name": "second-order-fb", "eta": 0.5, "theta": 0.5,
                     "gamma": {"family": "constant", "value": 2.0},
                     "lambda": {"family": "constant", "value": 1.0}}},
        "v0-wrong-size": {"problem": "lasso1d", "flow": {"name": "avd", "alpha": 3.0},
                          "integrator": {"method": "rk4", "dt": 0.05, "t_start": 1.0,
                                         "t_end": 5.0},
                          "v0": [0, 0]},
        # a NaN or infinite number is rejected where it is read, not left to diverge
        "fbf-lambda-nan": {"problem": "bilinear_saddle",
                           "flow": {"name": "fbf", "gamma": 0.5, "lambda": "nan"}},
        "dr-reflected-gamma-nan": {"problem": "two_lines",
                                   "flow": {"name": "dr-reflected", "gamma": "nan"}},
        "dr-reflected-gamma-inf": {"problem": "two_lines",
                                   "flow": {"name": "dr-reflected", "gamma": "inf"}},
        "dr-coupled-gamma-nan": {"problem": "two_lines",
                                 "flow": {"name": "dr-coupled", "gamma": "nan"}},
        "dr-coupled-gamma-inf": {"problem": "two_lines",
                                 "flow": {"name": "dr-coupled", "gamma": "inf"}},
        "avd-alpha-nan": {"problem": "lasso1d", "flow": {"name": "avd", "alpha": "nan"},
                          "integrator": {"method": "rk4", "dt": 0.05, "t_start": 1.0,
                                         "t_end": 5.0}},
        "pd-c-nan": {"problem": "pd_lasso_analysis",
                     "flow": {"name": "pd", "c": "nan",
                              "tau": {"family": "constant", "value": 0.26}}},
        "pd-tau-value-nan": {"problem": "pd_lasso_analysis",
                             "flow": {"name": "pd", "c": 1.0,
                                      "tau": {"family": "constant", "value": "nan"}}},
        "km-lambda-value-nan": {"flow": {"name": "km",
                                         "lambda": {"family": "constant", "value": "nan"}}},
        "fb-lambda-value-nan": {"problem": "lasso1d",
                                "flow": {"name": "fb", "gamma": 0.25,
                                         "lambda": {"family": "constant", "value": "nan"}}},
        "inv-power-p-nan": {"problem": "lasso1d",
                            "flow": {"name": "fb-tikhonov", "gamma": 0.25,
                                     "lambda": {"family": "constant", "value": 1.0},
                                     "epsilon": {"family": "inv-power", "p": "nan",
                                                 "scale": 0.1}}},
        # a section accepts exactly the keys its reader reads: a misspelled key is an error
        "flow-key-misspelled": {"problem": "lasso1d",
                                "flow": {"name": "fb", "gamma": 0.25,
                                         "lambda": {"family": "constant", "value": 1.0},
                                         "epsilon_": {"family": "constant", "value": 0.1}}},
        # fb is the unperturbed flow; its Tikhonov keys belong to fb-tikhonov
        "fb-with-epsilon": {"problem": "lasso1d",
                            "flow": {"name": "fb", "gamma": 0.25,
                                     "lambda": {"family": "constant", "value": 1.0},
                                     "epsilon": {"family": "inv-power", "p": 2.0,
                                                 "scale": 0.1}}},
        "fb-with-tikhonov-sign": {"problem": "lasso1d",
                                  "flow": {"name": "fb", "gamma": 0.25,
                                           "lambda": {"family": "constant", "value": 1.0},
                                           "tikhonov_sign": -1.0}},
        "integrator-key-misspelled": {"integrator": {"method": "rk4", "dt": 0.01,
                                                     "t_end": 5.0, "record_evry": 10}},
        "schedule-key-misspelled": {"flow": {"name": "km",
                                             "lambda": {"family": "inv-power", "p": 1.0,
                                                        "scal": 0.5}}},
        # JSON integers that no float holds
        "dt-past-float-range": {"integrator": {"method": "rk4", "dt": 10 ** 400, "t_end": 5.0}},
        "schedule-value-past-float-range": {
            "flow": {"name": "km", "lambda": {"family": "constant", "value": 10 ** 400}}},
        "x0-past-float-range": {"x0": [10 ** 400, 0.0]},
        # json.load takes one frame per level, the config's read-only copy of a
        # section two per list level: 600 levels fail only in the copy
        "flow-value-nested-too-deeply": {
            "flow": {"name": "km", "lambda": {"family": "constant", "value": 0.5},
                     "deep": functools.reduce(lambda inner, _: [inner], range(600), [])}},
    }

    @pytest.mark.parametrize("key", sorted(BAD_CONFIGS))
    def test_bad_config_exits_2_without_traceback(self, tmp_path, capsys, key):
        # rejected at load, so `run` integrates nothing and writes no trajectory
        path = km_config(tmp_path, **self.BAD_CONFIGS[key])
        out_dir = tmp_path / "out"
        for argv in (["check", str(path)], ["run", str(path), "--out-dir", str(out_dir)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "hypothesis error" in err
            assert "Traceback" not in err
        assert not (out_dir / "trajectory.csv").exists()

    def test_config_too_deep_for_json_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err

    def test_run_builds_the_run_once(self, tmp_path, monkeypatch, capsys):
        calls = count_build_run(monkeypatch)
        assert main(["run", str(km_config(tmp_path)), "--out-dir", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_seed_option_runs_at_that_seed(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        path = lasso10_fb_config(tmp_path)
        assert main(["run", str(path), "--out-dir", str(out_dir), "--seed", "3"]) == 0
        with open(out_dir / "trajectory.csv", encoding="utf-8") as fh:
            last = list(csv.DictReader(fh))[-1]
        x = np.array([float(last["x_%d" % i]) for i in range(10)])
        ref = get_problem("lasso10", 3).known_solution
        assert float(last["dist_to_ref"]) == pytest.approx(np.linalg.norm(x - ref), rel=1e-12)
        assert not np.allclose(ref, get_problem("lasso10", 0).known_solution)

    def test_divergence_removes_an_earlier_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert main(["run", str(lasso10_fb_config(tmp_path)), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "summary.txt").exists()
        diverging = lasso10_fb_config(tmp_path, x0=[1e13] * 10)
        assert main(["run", str(diverging), "--out-dir", str(out_dir)]) == 3
        diag = json.loads((out_dir / "diagnostics.json").read_text(encoding="utf-8"))
        assert diag["diverged"] is True
        assert not (out_dir / "summary.txt").exists()

    @pytest.mark.parametrize("case", ["out-dir-is-a-file", "out-dir-below-a-file",
                                      "config-is-a-directory", "config-not-utf8"])
    def test_unusable_path_exits_2_without_traceback(self, tmp_path, capsys, case):
        path, a_file = km_config(tmp_path), tmp_path / "a_file"
        a_file.write_text("x", encoding="utf-8")
        argv = {"out-dir-is-a-file": ["run", str(path), "--out-dir", str(a_file)],
                "out-dir-below-a-file": ["run", str(path), "--out-dir", str(a_file / "sub")],
                "config-is-a-directory": ["check", str(tmp_path)],
                "config-not-utf8": ["check", str(path)]}[case]
        if case == "config-not-utf8":
            path.write_bytes(path.read_text(encoding="utf-8").encode("utf-16"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_inner_solver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def stall(cfg, out_dir=None):
            raise SolverError("inner prox-quadratic solve stalled", residual=1.5e-3)

        monkeypatch.setattr("splitflow.cli.run_experiment", stall)
        assert main(["run", str(km_config(tmp_path))]) == 3
        err = capsys.readouterr().err
        assert "0.0015" in err
        assert "Traceback" not in err
