"""Experiment configuration: JSON schema, validation, and run orchestration.

A config names a corpus problem, a flow with its parameters (schedules as
named families) and an integrator grid.  A run records every probe its flow
defines, so its residual, rate fits and checks always read their records.
Constructing a config fully validates and resolves its run, once: every
referenced name must exist, every schedule hypothesis must hold on the run's
grid, and the start and grid must pass integrate's own rules
(integrate._check_start).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import types
import warnings
from collections.abc import Mapping
from typing import Callable, Optional

import numpy as np

from .diagnostics import (_gap_step_holds, fejer_check, proxgrad_gap_certificate, rate_fit,
                          record_monotone_check)
from .errors import DivergenceError, FitError, SpecError
from .first_order import (DRFlowSpec, FBFFlowSpec, FBFlowSpec, KMFlowSpec, check_relaxation,
                          dr_field, dr_probes, fb_field, fb_probes, fbf_field, fbf_probes,
                          km_field, km_probes)
from .integrate import (IntegratorConfig, _check_start, integrate, open_replaced,
                        write_trajectory_csv)
from .nonconvex import nonconvex_probes, proxgrad_field
from .operators import SingleValuedMap, as_vector
from .primal_dual import PDParams, PDState, _tau_check, pd_field_special, pd_probes
from .problems import ProblemDef, get_problem
from .schedules import (Schedule, affine_clamped, constant, exp_decay, inv_power,
                        over_t)
from .second_order import (DampingCondition, SecondOrderSpec, check_damping_condition,
                           second_order_field, second_order_probes)

_REQUIRED = object()


class _Section(dict):
    """A copy of one config section that records the keys its reader looks up;
    done(value) returns value once no other key is left, so that a section
    accepts exactly the keys its reader reads and a misspelling is an error."""

    def __init__(self, raw: dict, what: str):
        super().__init__(raw)
        self.what, self.looked_up = what, set()

    def get(self, key, default=None):
        self.looked_up.add(key)
        return super().get(key, default)

    def done(self, value):
        unknown = sorted(set(self) - self.looked_up)
        if unknown:
            raise SpecError("unknown %s keys: %s" % (self.what, unknown))
        return value


def _read(section: dict, key: str, kind: Callable = float, default=_REQUIRED):
    """section[key] converted by kind, or default when absent or null; a missing
    required key, a value kind rejects, a boolean or non-integral number read
    as int, or a NaN, infinite or out-of-range number read as float raises
    SpecError naming the key."""
    value = section.get(key)
    if value is None:
        if default is _REQUIRED:
            raise SpecError("config is missing key %r" % key)
        return default
    if kind is int and (isinstance(value, bool)
                        or isinstance(value, float) and not value.is_integer()):
        raise SpecError("config key %r must be an integer, got %r" % (key, value))
    try:
        out = kind(value)
    except SpecError:
        raise
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
        raise SpecError("config key %r has a malformed value %r" % (key, value)) from None
    if kind is float and not math.isfinite(out):
        raise SpecError("config key %r must be finite, got %r" % (key, value))
    return out


_SCHEDULES = {
    "constant": lambda s: constant(_read(s, "value")),
    "affine-clamped": lambda s: affine_clamped(_read(s, "intercept"), _read(s, "slope"),
                                               _read(s, "lo"), _read(s, "hi")),
    "inv-power": lambda s: inv_power(_read(s, "p"), _read(s, "scale", default=1.0)),
    "over-t": lambda s: over_t(_read(s, "alpha")),
    "exp-decay": lambda s: exp_decay(_read(s, "base"), _read(s, "amp"),
                                     _read(s, "rate", default=1.0)),
}


def build_schedule(spec: Mapping) -> Schedule:
    if not isinstance(spec, Mapping) or "family" not in spec:
        raise SpecError("schedule spec must be a dict with a 'family' key, got %r" % (spec,))
    section = _Section(spec, "schedule")
    family = _read(section, "family", str)
    if family not in _SCHEDULES:
        raise SpecError("unknown schedule family %r; known: %s"
                        % (family, ", ".join(_SCHEDULES)))
    return section.done(_SCHEDULES[family](section))


def _frozen(value):
    """A read-only deep copy: mappings become read-only mappings, lists, tuples and
    arrays become tuples."""
    if isinstance(value, Mapping):
        return types.MappingProxyType({key: _frozen(val) for key, val in value.items()})
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(val) for val in value)
    return value


def _thawed(value):
    """The plain dicts and lists of a _frozen value."""
    if isinstance(value, Mapping):
        return {key: _thawed(val) for key, val in value.items()}
    if isinstance(value, tuple):
        return [_thawed(val) for val in value]
    return value


# config key -> (accepted type, what it must be, default); an absent optional
# key is None, and x0 and v0 are converted where they are read
_SECTIONS = {"problem": (str, "a string", _REQUIRED), "flow": (Mapping, "an object", _REQUIRED),
             "integrator": (Mapping, "an object", _REQUIRED),
             "out": (str, "a string", None),
             "seed": (int, "an integer", 0)}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A config, immutable once built: constructing it validates and resolves its
    run (run = build_run(self)); a changed config is made by dataclasses.replace.

    The sections are deep-frozen copies of the caller's values (read-only
    mappings and tuples), so neither a later edit of the caller's dicts nor an
    edit through the config can make to_dict disagree with the run.
    """

    problem: str
    flow: Mapping
    integrator: Mapping
    x0: Optional[tuple] = None
    v0: Optional[tuple] = None
    out: Optional[str] = None
    seed: int = 0
    run: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key, (kind, what, default) in _SECTIONS.items():
            value = getattr(self, key)
            if value is None and default is None:
                continue  # an absent optional key
            if not isinstance(value, kind) or isinstance(value, bool):
                raise SpecError("config key %r must be %s, got %r" % (key, what, value))
        for key in ("flow", "integrator", "x0", "v0"):
            object.__setattr__(self, key, _frozen(getattr(self, key)))
        object.__setattr__(self, "run", build_run(self))

    def __deepcopy__(self, memo):
        return self  # immutable, and read-only mappings cannot be deep-copied

    def to_dict(self) -> dict:
        """The config as plain JSON values (fresh dicts and lists)."""
        out = {"problem": self.problem, "flow": _thawed(self.flow),
               "integrator": _thawed(self.integrator)}
        for key in ("x0", "v0", "out"):
            val = getattr(self, key)
            if val is not None:
                out[key] = _thawed(val)
        if self.seed != 0:
            out["seed"] = self.seed
        return out


def integrator_from_dict(d: dict) -> IntegratorConfig:
    s = _Section(d, "integrator")
    return s.done(IntegratorConfig(method=_read(s, "method", str, "rk4"), dt=_read(s, "dt"),
                                   t_start=_read(s, "t_start", default=0.0),
                                   t_end=_read(s, "t_end"),
                                   record_every=_read(s, "record_every", int, 1)))


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
    grid, cap = _grid(icfg), spec.lambda_cap
    lam = spec.lam(grid)  # one read; the scalar check raises at the first bad time
    for value, t in zip(lam.tolist(), grid.tolist()):
        check_relaxation(value, cap, t)
    if np.min(lam) <= 1e-12:
        # inf lam > 0 is the condition a finite horizon can certify; the
        # integral alternative cannot be checked numerically
        warnings.warn("relaxation schedule reaches 0 on the run grid; "
                      "convergence would rest on an integral condition that "
                      "a finite horizon cannot verify")


def _fejer(traj, ref):
    """Fejer monotonicity toward ref, none without one; it only holds for the
    unperturbed flows."""
    return [] if ref is None else [fejer_check(traj, ref)]


def _build_km(problem, params, icfg):
    T, = _components(problem, "T")
    spec = KMFlowSpec(T=T, lam=_read(params, "lambda", build_schedule),
                      averaged_alpha=_read(params, "averaged_alpha", default=None))
    _warn_if_relaxation_vanishes(spec, icfg)
    return km_field(spec), km_probes(spec, ref=problem.known_solution), spec


def _km_checks(traj, problem, spec):
    return _fejer(traj, problem.known_solution) + [record_monotone_check(traj, "fp_residual")]


def _build_fb(problem, params, icfg, tikhonov=False):
    A, B = _components(problem, "A", "B")
    spec = FBFlowSpec(A=A, B=B, gamma=_read(params, "gamma"),
                      lam=_read(params, "lambda", build_schedule),
                      epsilon=_read(params, "epsilon", build_schedule) if tikhonov else None,
                      tikhonov_sign=_read(params, "tikhonov_sign", default=1.0) if tikhonov
                      else 1.0)
    _warn_if_relaxation_vanishes(spec, icfg)
    return fb_field(spec), fb_probes(spec, ref=problem.known_solution), spec


def _fb_checks(traj, problem, spec):
    """Fejer and, with relaxation 1 and a short step, the objective-gap bound."""
    out = _fejer(traj, problem.known_solution)
    comps = problem.components
    if (spec.lam.bounds == (1.0, 1.0) and problem.known_solution is not None
            and "f" in comps and "g" in comps and _gap_step_holds(spec.gamma, comps["g"])):
        out.append(proxgrad_gap_certificate(traj, comps["f"], comps["g"], spec.gamma,
                                            problem.known_solution))
    return out


def _build_fbf(problem, params, icfg):
    A, B = _components(problem, "A", "B")
    spec = FBFFlowSpec(A=A, B=B, gamma=_read(params, "gamma"), lam=_read(params, "lambda"))
    return fbf_field(spec), fbf_probes(spec, ref=problem.known_solution), spec


def _build_dr(problem, params, form):
    A, B = _components(problem, "A", "B_mono" if form == "reflected" else "B")
    spec = DRFlowSpec(A=A, B=B, gamma=_read(params, "gamma"), form=form)
    ref = problem.known_solution if form == "coupled" else None
    return dr_field(spec), dr_probes(spec, ref=ref), spec


def _dr_reflected_checks(traj, problem, spec):
    """Fejer monotonicity of z toward the fixed point z* = x* + gamma*B(x*) of the
    reflected flow, with the problem's single-valued B; none without one."""
    B, xstar = problem.components.get("B"), problem.known_solution
    has_target = isinstance(B, SingleValuedMap) and xstar is not None
    return _fejer(traj, xstar + spec.gamma * B(xstar) if has_target else None)


def _build_proxgrad(problem, params, icfg):
    p, = _components(problem, "problem")
    return proxgrad_field(p), nonconvex_probes(p), p


def _proxgrad_checks(traj, problem, spec):
    return [record_monotone_check(traj, "merit_H")]


def _build_second_order_fb(problem, params, icfg):
    A, B = _components(problem, "A", "B")
    eta = _read(params, "eta")
    condition = DampingCondition(
        gamma=_read(params, "gamma", build_schedule), lam=_read(params, "lambda", build_schedule),
        theta=_read(params, "theta"))
    spec = SecondOrderSpec.fb(A=A, B=B, eta=eta, condition=condition)
    report = check_damping_condition(condition, spec.beta, _grid(icfg))
    if not report["pass"]:
        raise SpecError("schedule condition fails on the run grid: %r"
                        % report["conditions"])
    return (second_order_field(spec),
            second_order_probes(spec, xstar=problem.known_solution), spec)


def _build_avd(problem, params, icfg):
    g, = _components(problem, "g")
    spec = SecondOrderSpec.avd(g=g, alpha=_read(params, "alpha"))
    if icfg.t_start <= 0:
        raise SpecError("vanishing-damping flows need t_start > 0")
    return second_order_field(spec), second_order_probes(spec, xstar=problem.known_solution), spec


def _build_pd(problem, params, icfg):
    prob, = _components(problem, "structured")
    pd_params = PDParams(c=_read(params, "c"), tau=_read(params, "tau", build_schedule),
                         gamma_relax=_read(params, "gamma_relax", default=1.0))
    grid, check = _grid(icfg), _tau_check(prob, pd_params)
    for tau, t in zip(pd_params.tau(grid).tolist(), grid.tolist()):  # tau read once
        check(tau, t)
    return pd_field_special(prob, pd_params), pd_probes(prob, pd_params), pd_params


# The one place to register a flow.  Builders and checks look the public field,
# probe and diagnostic functions up in this module when they run, so that a
# wrapper installed on those bindings (the benchmark's tracer) sees every call.
_FLOW_DEFS = {
    "km": _FlowDef(_build_km, "fp_residual", _km_checks),
    "fb": _FlowDef(_build_fb, "fp_residual", _fb_checks),
    # a Tikhonov perturbation voids both fb checks
    "fb-tikhonov": _FlowDef(lambda p, prm, icfg: _build_fb(p, prm, icfg, tikhonov=True),
                            "fp_residual"),
    "fbf": _FlowDef(_build_fbf, "fp_residual"),
    "dr-reflected": _FlowDef(lambda p, prm, icfg: _build_dr(p, prm, "reflected"),
                             "fp_residual", _dr_reflected_checks),
    "dr-coupled": _FlowDef(lambda p, prm, icfg: _build_dr(p, prm, "coupled"), "fp_residual"),
    "proxgrad": _FlowDef(_build_proxgrad, "crit_residual", _proxgrad_checks),
    "second-order-fb": _FlowDef(_build_second_order_fb),
    "avd": _FlowDef(_build_avd),
    "pd": _FlowDef(_build_pd, "feas_norm"),
}


def list_flows():
    return sorted(_FLOW_DEFS)


def build_run(cfg: ExperimentConfig):
    """Resolve a config into (problem, field, probes, x0, v0, integrator, spec), where
    probes are all the probes the flow's builder returns.

    Every defect of the config raises SpecError: an unknown name, a missing or malformed
    key, a value out of range, a schedule hypothesis failing on the grid, or a start or
    grid that integrate rejects (a v0 on a first-order flow, say; see _check_start).
    """
    if cfg.seed < 0:
        raise SpecError("seed must be nonnegative, got %d" % cfg.seed)
    try:
        problem = get_problem(cfg.problem, seed=cfg.seed)
    except KeyError as exc:
        raise SpecError(exc.args[0]) from None
    flow = _Section(cfg.flow, "flow")
    name = _read(flow, "name", str)
    if name not in _FLOW_DEFS:
        raise SpecError("unknown flow %r; known: %s" % (name, ", ".join(list_flows())))
    icfg = integrator_from_dict(cfg.integrator)
    field, probes, spec = flow.done(_FLOW_DEFS[name].build(problem, flow, icfg))

    # the problem, and so its default start, is shared by every config on it:
    # the run gets its own read-only copies of the start vectors
    start = problem.default_start
    start = start.to_vector() if isinstance(start, PDState) else np.array(start, dtype=float)
    x0 = _read(vars(cfg), "x0", as_vector, start)
    v0 = _read(vars(cfg), "v0", as_vector, np.zeros_like(x0) if field.order == 2 else None)
    for key, vec in (("x0", x0), ("v0", v0)):
        if vec is not None:
            if vec.shape != start.shape:
                raise SpecError("%s has shape %s, the start %s" % (key, vec.shape, start.shape))
            vec.flags.writeable = False
    _check_start(field, x0, v0, icfg)
    return problem, field, probes, x0, v0, icfg, spec


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return config_from_dict(raw)
    except json.JSONDecodeError as exc:
        raise SpecError("config %s does not parse: line %d: %s"
                        % (path, exc.lineno, exc.msg)) from exc
    except UnicodeDecodeError as exc:
        raise SpecError("config %s is not UTF-8: %s" % (path, exc.reason)) from exc
    except RecursionError:  # from json.load or from copying a deep section
        raise SpecError("config %s is nested too deeply" % path) from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise SpecError("config must be a JSON object, got %r" % (raw,))
    unknown = set(raw) - set(_SECTIONS) - {"x0", "v0"}
    if unknown:
        raise SpecError("unknown config keys: %s" % sorted(unknown))
    for key, (_, _, default) in _SECTIONS.items():
        if default is _REQUIRED and raw.get(key) is None:
            raise SpecError("config is missing the %r section" % key)
    # a null value stands for an absent key
    return ExperimentConfig(**{key: val for key, val in raw.items() if val is not None})


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run orchestration


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run a config's resolved run; write trajectory CSV, diagnostics JSON, summary line.

    On divergence the partial trajectory is written, and the summary of an
    earlier run in the same directory removed, before the error is re-raised.
    Returns the summary dict.
    """
    problem, field, probes, x0, v0, icfg, spec = cfg.run
    out = out_dir or cfg.out or "."
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "trajectory.csv")
    diag_path = os.path.join(out, "diagnostics.json")
    summary_path = os.path.join(out, "summary.txt")

    try:
        traj = integrate(field, x0, icfg, v0=v0, probes=probes)
    except DivergenceError as exc:
        write_trajectory_csv(exc.trajectory, csv_path)  # the start is always recorded
        with open_replaced(diag_path) as fh:
            json.dump({"diverged": True, "last_finite_t": exc.last_finite_t}, fh, indent=2)
        if os.path.exists(summary_path):
            os.remove(summary_path)
        raise

    write_trajectory_csv(traj, csv_path)
    flow = _FLOW_DEFS[cfg.flow["name"]]
    diagnostics = {"diverged": False, "checks": flow.checks(traj, problem, spec)}

    final_residual, fitted = np.nan, {}
    if flow.residual is not None:
        vals = traj.records[flow.residual]
        final_residual = float(vals[-1])
        mask = (vals > 0) & (traj.times > 0)  # rate_fit rejects the other points
        try:
            for model in ("power", "exponential"):
                fit = rate_fit(traj.times[mask], vals[mask], model=model)
                fitted[model] = {"exponent": fit.exponent, "r2": fit.r2}
        except FitError:
            pass
    diagnostics["rate_fits"] = fitted
    diagnostics["final_residual"] = final_residual
    diagnostics["passed"] = all(c["pass"] for c in diagnostics["checks"])

    with open_replaced(diag_path) as fh:
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
    with open_replaced(summary_path) as fh:
        fh.write(line + "\n")
    summary["line"] = line
    return summary
