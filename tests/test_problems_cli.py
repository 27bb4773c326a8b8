import json

import numpy as np
import pytest

from splitflow.cli import main
from splitflow.config import (ExperimentConfig, build_run, config_from_dict, list_flows,
                              load_config, run_experiment, save_config)
from splitflow.errors import SolverError, SpecError
from splitflow.integrate import IntegratorConfig, integrate
from splitflow.primal_dual import PDState
from splitflow.problems import corpus, get_problem, solution_residual, state_residual


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
        problem, field, probes, x0, v0, icfg, spec = build_run(cfg)
        traj = integrate(field, x0, icfg, v0=v0)
        final = traj.final_state
        if p.kind == "structured-pd":
            s = p.components["structured"]
            final = PDState.from_vector(final, s.n, s.m)
        assert state_residual(p, final) < 1e-5


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
            "probes": ["fp_residual", "dist_to_ref"],
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

    # one short run per registered flow, plus fb with an epsilon schedule (which
    # builds the Tikhonov field) and a probes filter that drops the residual:
    # (problem, flow, probes, check names in order, main residual record)
    FLOW_TABLE = {
        "km": ("rotation2d", {"name": "km", "lambda": {"family": "constant", "value": 0.7}},
               None, ["fejer", "fp_residual"], "fp_residual"),
        "km-filtered": ("rotation2d",
                        {"name": "km", "lambda": {"family": "constant", "value": 0.7}},
                        ["dist_to_ref"], ["fejer"], None),
        "fb": ("lasso1d", {"name": "fb", "gamma": 0.25,
                           "lambda": {"family": "constant", "value": 1.0}},
               None, ["fejer", "objective-gap-certificate"], "fp_residual"),
        "fb-epsilon": ("lasso1d", {"name": "fb", "gamma": 0.25,
                                   "lambda": {"family": "constant", "value": 1.0},
                                   "epsilon": {"family": "inv-power", "p": 2.0, "scale": 0.1}},
                       None, [], "fp_residual"),
        "fb-tikhonov": ("lasso1d", {"name": "fb-tikhonov", "gamma": 0.25,
                                    "lambda": {"family": "constant", "value": 1.0},
                                    "epsilon": {"family": "inv-power", "p": 2.0, "scale": 0.1}},
                        None, [], "fp_residual"),
        "fbf": ("bilinear_saddle", {"name": "fbf", "gamma": 0.5, "lambda": 0.5},
                None, [], "fp_residual"),
        "dr-reflected": ("two_lines", {"name": "dr-reflected", "gamma": 1.0},
                         None, ["fejer"], "fp_residual"),
        "dr-coupled": ("two_lines", {"name": "dr-coupled", "gamma": 1.0},
                       None, [], "fp_residual"),
        "proxgrad": ("nonconvex_cos", {"name": "proxgrad"}, None, ["merit_H"], "crit_residual"),
        "second-order-fb": ("constrained_quadratic",
                            {"name": "second-order-fb", "eta": 1.0, "theta": 0.5,
                             "gamma": {"family": "constant", "value": 2.0},
                             "lambda": {"family": "constant", "value": 1.0}},
                            None, [], None),
        "avd": ("lasso1d", {"name": "avd", "alpha": 3.0}, None, [], None),
        "pd": ("pd_lasso_analysis",
               {"name": "pd", "c": 1.0, "tau": {"family": "constant", "value": 0.26}},
               None, [], "feas_norm"),
    }

    def test_flow_table_covers_every_registered_flow(self):
        assert {case[1]["name"] for case in self.FLOW_TABLE.values()} == set(list_flows())

    @pytest.mark.parametrize("key", sorted(FLOW_TABLE))
    def test_checks_and_main_residual_per_flow(self, tmp_path, key):
        problem, flow, probes, checks, residual = self.FLOW_TABLE[key]
        integ = {"method": "rk4", "dt": 0.05, "t_end": 5.0, "record_every": 10}
        if flow["name"] == "avd":
            integ.update(t_start=1.0, t_end=6.0)
        raw = {"problem": problem, "flow": flow, "integrator": integ}
        if probes is not None:
            raw["probes"] = probes
        out = tmp_path / "run"
        run_experiment(config_from_dict(raw), out_dir=str(out))
        diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        assert [c["check"] for c in diag["checks"]] == checks
        lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        if residual is None:
            assert np.isnan(diag["final_residual"])
        else:
            last = lines[-1].split(",")
            assert float(last[header.index(residual)]) == diag["final_residual"]

    def test_divergent_run_keeps_partial_outputs(self, tmp_path):
        # relaxed regime flag allows a step far outside the convergent range
        from splitflow.errors import DivergenceError
        from splitflow.first_order import FBFlowSpec, fb_field
        from splitflow.integrate import IntegratorConfig, integrate, \
            write_trajectory_csv
        from splitflow.schedules import constant as const_sched
        p = get_problem("lasso10")
        spec = FBFlowSpec(A=p.components["A"], B=p.components["B"], gamma=50.0,
                          lam=const_sched(1.0), allow_relaxed=True)
        cfg = IntegratorConfig(method="euler", dt=1.0, t_end=200.0)
        with pytest.raises(DivergenceError) as err:
            integrate(fb_field(spec), 1e6 * np.ones(10), cfg)
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
    }

    @pytest.mark.parametrize("key", sorted(BAD_CONFIGS))
    def test_bad_config_exits_2_without_traceback(self, tmp_path, capsys, key):
        path = km_config(tmp_path, **self.BAD_CONFIGS[key])
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "hypothesis error" in err
        assert "Traceback" not in err

    def test_inner_solver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def stall(cfg, out_dir=None):
            raise SolverError("inner prox-quadratic solve stalled", residual=1.5e-3)

        monkeypatch.setattr("splitflow.cli.run_experiment", stall)
        assert main(["run", str(km_config(tmp_path))]) == 3
        err = capsys.readouterr().err
        assert "0.0015" in err
        assert "Traceback" not in err
