"""Experiment configuration: JSON schema, validation, and run orchestration.

A config names a corpus problem, a flow with its parameters (schedules as
named families), an integrator grid, and the probes to record.  Loading fully
validates the run: every referenced name must exist and every schedule bound
must hold on the run's grid.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from typing import Callable, Optional

import numpy as np

from .diagnostics import (fejer_check, nonincreasing_check, proxgrad_gap_certificate,
                          rate_fit, record_monotone_check)
from .errors import DivergenceError, FitError, SpecError
from .first_order import (DRFlowSpec, FBFFlowSpec, FBFlowSpec, KMFlowSpec, dr_field,
                          dr_probes, fb_field, fb_probes, fbf_field, fbf_probes,
                          km_field, km_probes)
from .integrate import IntegratorConfig, integrate, write_trajectory_csv
from .nonconvex import nonconvex_probes, proxgrad_field
from .primal_dual import PDParams, PDState, _check_tau, pd_field_special, pd_probes
from .problems import ProblemDef, get_problem
from .schedules import (Schedule, affine_clamped, constant, exp_decay, inv_power,
                        over_t)
from .second_order import (DampingCondition, SecondOrderSpec, check_damping_condition,
                           second_order_field, second_order_probes)

SCHEDULE_FAMILIES = ("constant", "affine-clamped", "inv-power", "over-t", "exp-decay")


def build_schedule(spec: dict) -> Schedule:
    if not isinstance(spec, dict) or "family" not in spec:
        raise SpecError("schedule spec must be a dict with a 'family' key, got %r" % (spec,))
    family = spec["family"]
    if family == "constant":
        return constant(float(spec["value"]))
    if family == "affine-clamped":
        return affine_clamped(float(spec["intercept"]), float(spec["slope"]),
                              float(spec["lo"]), float(spec["hi"]))
    if family == "inv-power":
        return inv_power(float(spec["p"]), float(spec.get("scale", 1.0)))
    if family == "over-t":
        return over_t(float(spec["alpha"]))
    if family == "exp-decay":
        return exp_decay(float(spec["base"]), float(spec["amp"]),
                         float(spec.get("rate", 1.0)))
    raise SpecError("unknown schedule family %r; known: %s"
                    % (family, ", ".join(SCHEDULE_FAMILIES)))


@dataclasses.dataclass
class ExperimentConfig:
    problem: str
    flow: dict
    integrator: dict
    probes: Optional[list] = None
    x0: Optional[list] = None
    v0: Optional[list] = None
    out: Optional[str] = None
    seed: int = 0

    def to_dict(self) -> dict:
        out = {"problem": self.problem, "flow": self.flow, "integrator": self.integrator}
        for key in ("probes", "x0", "v0", "out"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.seed != 0:
            out["seed"] = self.seed
        return out


def integrator_from_dict(d: dict) -> IntegratorConfig:
    return IntegratorConfig(method=d.get("method", "rk4"), dt=float(d["dt"]),
                            t_start=float(d.get("t_start", 0.0)), t_end=float(d["t_end"]),
                            record_every=int(d.get("record_every", 1)))


# ---------------------------------------------------------------------------
# flow registry


@dataclasses.dataclass(frozen=True)
class _FlowDef:
    """Everything the config layer knows about one flow name.

    build(problem, params, icfg) -> (field, probes, spec) runs the flow's
    load-time checks; residual names the record whose final value the run
    reports and fits; checks(traj, problem, spec) -> the run's reports, in order.
    """

    build: Callable
    residual: Optional[str] = None
    checks: Callable = lambda traj, problem, spec: []


def _components(problem: ProblemDef, *keys) -> list:
    for key in keys:
        if key not in problem.components:
            raise SpecError("flow needs component %r, which problem %r does not provide"
                            % (key, problem.name))
    return [problem.components[key] for key in keys]


def _grid(icfg: IntegratorConfig):
    """The grid on which schedule bounds are probed at load."""
    return np.linspace(icfg.t_start, icfg.t_end, 101)


def _warn_if_relaxation_vanishes(spec, icfg):
    if min(spec._lam_at(t) for t in _grid(icfg)) <= 1e-12:
        # inf lam > 0 is the condition a finite horizon can certify; the
        # integral alternative cannot be checked numerically
        warnings.warn("relaxation schedule reaches 0 on the run grid; "
                      "convergence would rest on an integral condition that "
                      "a finite horizon cannot verify")


def _fejer(traj, problem):
    """Fejer monotonicity, which only holds for the unperturbed flows."""
    if problem.known_solution is None:
        return []
    return [fejer_check(traj, problem.known_solution)]


def _build_km(problem, params, icfg):
    T, = _components(problem, "T")
    spec = KMFlowSpec(T=T, lam=build_schedule(params["lambda"]),
                      averaged_alpha=params.get("averaged_alpha"))
    _warn_if_relaxation_vanishes(spec, icfg)
    return km_field(spec), km_probes(spec, ref=problem.known_solution), spec


def _km_checks(traj, problem, spec):
    out = _fejer(traj, problem)
    if "fp_residual" in traj.records:
        out.append(record_monotone_check(traj, "fp_residual"))
    return out


def _build_fb(problem, params, icfg):
    A, B = _components(problem, "A", "B")
    eps = params.get("epsilon")
    spec = FBFlowSpec(A=A, B=B, gamma=float(params["gamma"]),
                      lam=build_schedule(params["lambda"]),
                      epsilon=build_schedule(eps) if eps is not None else None,
                      tikhonov_sign=float(params.get("tikhonov_sign", 1.0)))
    _warn_if_relaxation_vanishes(spec, icfg)
    return fb_field(spec), fb_probes(spec, ref=problem.known_solution), spec


def _build_fb_tikhonov(problem, params, icfg):
    if "epsilon" not in params:
        raise SpecError("fb-tikhonov needs an 'epsilon' schedule")
    return _build_fb(problem, params, icfg)


def _fb_checks(traj, problem, spec):
    """Fejer and, with relaxation 1 and a short step, the objective-gap bound."""
    if spec.epsilon is not None:  # a Tikhonov perturbation voids both
        return []
    out = _fejer(traj, problem)
    comps = problem.components
    if (spec.lam.bounds == (1.0, 1.0) and problem.known_solution is not None
            and "f" in comps and "g" in comps):
        q = spec.gamma * comps["g"].grad_lipschitz
        if q * (3.0 + q) <= 1.0:
            out.append(proxgrad_gap_certificate(traj, comps["f"], comps["g"], spec.gamma,
                                                problem.known_solution))
    return out


def _build_fbf(problem, params, icfg):
    A, B = _components(problem, "A", "B")
    spec = FBFFlowSpec(A=A, B=B, gamma=float(params["gamma"]), lam=float(params["lambda"]))
    return fbf_field(spec), fbf_probes(spec, ref=problem.known_solution), spec


def _build_dr(problem, params, form):
    A, B = _components(problem, "A", "B_mono" if form == "reflected" else "B")
    spec = DRFlowSpec(A=A, B=B, gamma=float(params["gamma"]), form=form)
    ref = problem.known_solution if form == "coupled" else None
    return dr_field(spec), dr_probes(spec, ref=ref), spec


def _build_proxgrad(problem, params, icfg):
    p, = _components(problem, "problem")
    return proxgrad_field(p), nonconvex_probes(p), p


def _proxgrad_checks(traj, problem, spec):
    if "merit_H" not in traj.records:
        return []
    return [nonincreasing_check(traj.times, traj.records["merit_H"], name="merit_H")]


def _build_second_order_fb(problem, params, icfg):
    A, B = _components(problem, "A", "B")
    eta = float(params["eta"])
    beta = B.cocoercivity_beta
    condition = DampingCondition(
        gamma=build_schedule(params["gamma"]), lam=build_schedule(params["lambda"]),
        theta=float(params["theta"]), kind="fb",
        delta=(4.0 * beta - eta) / (2.0 * beta))
    spec = SecondOrderSpec.fb(A=A, B=B, eta=eta, condition=condition)
    report = check_damping_condition(condition, _grid(icfg))
    if not report["pass"]:
        raise SpecError("schedule condition fails on the run grid: %r"
                        % report["conditions"])
    return (second_order_field(spec),
            second_order_probes(spec, xstar=problem.known_solution), spec)


def _build_avd(problem, params, icfg):
    g, = _components(problem, "g")
    spec = SecondOrderSpec.avd(g=g, alpha=float(params["alpha"]))
    if icfg.t_start <= 0:
        raise SpecError("vanishing-damping flows need t_start > 0")
    return second_order_field(spec), second_order_probes(spec, xstar=problem.known_solution), spec


def _build_pd(problem, params, icfg):
    prob, = _components(problem, "structured")
    pd_params = PDParams(c=float(params["c"]), gamma_relax=float(params.get("gamma_relax", 1.0)),
                         tau=build_schedule(params["tau"]))
    for t in _grid(icfg):
        _check_tau(prob, pd_params, t)
    return pd_field_special(prob, pd_params), pd_probes(prob, pd_params), pd_params


# The one place to register a flow.  Builders and checks look the public field,
# probe and diagnostic functions up in this module when they run, so that a
# wrapper installed on those bindings (the benchmark's tracer) sees every call.
_FLOW_DEFS = {
    "km": _FlowDef(_build_km, "fp_residual", _km_checks),
    "fb": _FlowDef(_build_fb, "fp_residual", _fb_checks),
    "fb-tikhonov": _FlowDef(_build_fb_tikhonov, "fp_residual", _fb_checks),
    "fbf": _FlowDef(_build_fbf, "fp_residual"),
    "dr-reflected": _FlowDef(lambda p, prm, icfg: _build_dr(p, prm, "reflected"),
                             "fp_residual", lambda traj, p, spec: _fejer(traj, p)),
    "dr-coupled": _FlowDef(lambda p, prm, icfg: _build_dr(p, prm, "coupled"), "fp_residual"),
    "proxgrad": _FlowDef(_build_proxgrad, "crit_residual", _proxgrad_checks),
    "second-order-fb": _FlowDef(_build_second_order_fb),
    "avd": _FlowDef(_build_avd),
    "pd": _FlowDef(_build_pd, "feas_norm"),
}


def list_flows():
    return sorted(_FLOW_DEFS)


def build_run(cfg: ExperimentConfig):
    """Resolve a config into (problem, field, probes, x0, v0, integrator, spec).

    Every defect of the config raises SpecError: an unknown name, a missing key,
    a value out of range or a schedule bound that fails on the run grid.
    """
    try:
        problem = get_problem(cfg.problem, seed=cfg.seed)
    except KeyError as exc:
        raise SpecError(exc.args[0]) from None
    name = cfg.flow.get("name")
    if name not in _FLOW_DEFS:
        raise SpecError("unknown flow %r; known: %s" % (name, ", ".join(list_flows())))
    try:
        icfg = integrator_from_dict(cfg.integrator)
        field, probes, spec = _FLOW_DEFS[name].build(problem, cfg.flow, icfg)
    except KeyError as exc:
        raise SpecError("config is missing key %s" % exc) from None
    if cfg.probes is not None:
        keep = set(cfg.probes)
        unknown = keep - {pname for pname, _ in probes}
        if unknown:
            raise SpecError("unknown probes %s for flow %r"
                            % (sorted(unknown), name))
        probes = [pr for pr in probes if pr[0] in keep]

    if cfg.x0 is not None:
        x0 = np.asarray(cfg.x0, dtype=float)
    else:
        start = problem.default_start
        x0 = start.to_vector() if isinstance(start, PDState) else np.asarray(start, dtype=float)
    v0 = None
    if field.order == 2:
        v0 = np.asarray(cfg.v0, dtype=float) if cfg.v0 is not None else np.zeros_like(x0)
    return problem, field, probes, x0, v0, icfg, spec


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError("config %s does not parse: line %d: %s"
                        % (path, exc.lineno, exc.msg)) from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    known = {"problem", "flow", "integrator", "probes", "x0", "v0", "out", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise SpecError("unknown config keys: %s" % sorted(unknown))
    for key in ("problem", "flow", "integrator"):
        if key not in raw:
            raise SpecError("config is missing the %r section" % key)
    cfg = ExperimentConfig(problem=raw["problem"], flow=raw["flow"],
                           integrator=raw["integrator"], probes=raw.get("probes"),
                           x0=raw.get("x0"), v0=raw.get("v0"), out=raw.get("out"),
                           seed=int(raw.get("seed", 0)))
    build_run(cfg)  # full validation
    return cfg


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run orchestration


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run a validated config; write trajectory CSV, diagnostics JSON, summary line.

    On divergence the partial trajectory is written before the error is
    re-raised.  Returns the summary dict.
    """
    problem, field, probes, x0, v0, icfg, spec = build_run(cfg)
    out = out_dir or cfg.out or "."
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "trajectory.csv")
    diag_path = os.path.join(out, "diagnostics.json")
    summary_path = os.path.join(out, "summary.txt")

    try:
        traj = integrate(field, x0, icfg, v0=v0, probes=probes)
    except DivergenceError as exc:
        if exc.trajectory is not None and len(exc.trajectory.times):
            write_trajectory_csv(exc.trajectory, csv_path)
        with open(diag_path, "w", encoding="utf-8") as fh:
            json.dump({"diverged": True, "last_finite_t": exc.last_finite_t}, fh, indent=2)
        raise

    write_trajectory_csv(traj, csv_path)
    flow = _FLOW_DEFS[cfg.flow["name"]]
    # a probes filter may have dropped the residual record
    res_name = flow.residual if flow.residual in traj.records else None
    final_residual = float(traj.records[res_name][-1]) if res_name else np.nan
    diagnostics = {"diverged": False, "checks": flow.checks(traj, problem, spec)}

    fitted = {}
    if res_name is not None:
        vals = traj.records[res_name]
        mask = (vals > 0) & (traj.times > 0)
        if int(np.sum(mask)) >= 10:
            try:
                for model in ("power", "exponential"):
                    fit = rate_fit(traj.times[mask], vals[mask], model=model)
                    fitted[model] = {"exponent": fit.exponent, "r2": fit.r2}
            except FitError:
                pass
    diagnostics["rate_fits"] = fitted
    diagnostics["final_residual"] = final_residual
    diagnostics["passed"] = all(c.get("pass", True) for c in diagnostics["checks"])

    with open(diag_path, "w", encoding="utf-8") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True, default=float)

    best_rate = ""
    if fitted:
        model = max(fitted, key=lambda mdl: fitted[mdl]["r2"])
        best_rate = "%s(exponent=%.3g, r2=%.4f)" % (model, fitted[model]["exponent"],
                                                    fitted[model]["r2"])
    summary = {"flow": cfg.flow.get("name"), "problem": cfg.problem,
               "final_residual": final_residual, "rate": best_rate,
               "passed": diagnostics["passed"], "out": out}
    line = ("flow=%(flow)s problem=%(problem)s final_residual=%(final_residual).3e "
            "rate=%(rate)s passed=%(passed)s" % summary)
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    summary["line"] = line
    return summary
