"""Span tracing of splitflow's public entry points, installed from outside the package.

``Tracer.install`` replaces each traced function at every module attribute of
the package that is bound to it, because a ``from .x import f`` binding keeps
the original otherwise.  Field and probe builders are wrapped so that the
callables they return are traced.  While an experiment is active, each call
records one span (name, start, end, parent, experiment id) into flat arrays
kept in memory; ``aggregate`` turns one repetition's spans into the per-layer
metrics and runs the trace self-checks.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

from splitflow.errors import DivergenceError, SolverError
from splitflow.integrate import integrate

FIELD_LABELS = ("km", "fb", "fb-tikhonov", "fbf", "dr-reflected", "dr-coupled", "proxgrad",
                "second-order-fb", "avd", "pd-special", "pd-general")
ALGORITHM_STEPS = ("fb_step", "tseng_step", "prox_admm_step")
DIAGNOSTICS = ("fejer_check", "record_monotone_check", "nonincreasing_check",
               "proxgrad_gap_certificate", "rate_fit", "envelope_slope")
OPERATORS = ("prox_eval", "resolvent_eval", "moreau_conjugate_prox")

# (defining module, function, span name)
SPAN_TARGETS = (
    [("splitflow.cli", "main", "cli.main"),
     ("splitflow.config", "load_config", "config.load"),
     ("splitflow.config", "build_run", "config.build_run"),
     ("splitflow.integrate", "integrate", "integrate"),
     ("splitflow.integrate", "write_trajectory_csv", "io.csv"),
     ("splitflow.algorithms", "write_sequence_csv", "io.csv"),
     ("splitflow.algorithms", "run_sequence", "algorithms.run_sequence"),
     ("splitflow.primal_dual", "solve_prox_quadratic", "primal_dual.inner_solve"),
     ("splitflow.problems", "corpus", "problems.corpus"),
     ("splitflow.problems", "solution_residual", "problems.residual_check")]
    + [("splitflow.operators", fn, "operators." + fn) for fn in OPERATORS]
    + [("splitflow.algorithms", fn, "algorithms." + fn) for fn in ALGORITHM_STEPS]
    + [("splitflow.diagnostics", fn, "diagnostics." + fn) for fn in DIAGNOSTICS])

FIELD_BUILDERS = (("splitflow.first_order", ("km_field", "fb_field", "fbf_field", "dr_field")),
                  ("splitflow.nonconvex", ("proxgrad_field",)),
                  ("splitflow.second_order", ("second_order_field",)),
                  ("splitflow.primal_dual", ("pd_field_special", "pd_field_general")))
PROBE_BUILDERS = (("splitflow.first_order", ("km_probes", "fb_probes", "fbf_probes",
                                             "dr_probes")),
                  ("splitflow.nonconvex", ("nonconvex_probes",)),
                  ("splitflow.second_order", ("second_order_probes",)),
                  ("splitflow.primal_dual", ("pd_probes",)))


class Tracer:
    """Flat, append-only span storage plus counters for one repetition at a time."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.experiment = None  # spans are recorded only while this is an int
        self._patches = []
        self.reset()

    def reset(self):
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.exp = array("i"), array("i"), array("i")
        self.stack = [-1]
        self.counts = collections.Counter()
        self.expected_field_evals = {}  # integrate span -> closed-form evaluation count

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def traced(self, name: str, fn, after=None, on_error=None):
        """fn wrapped to record a span; after(span, out, *args, **kw) runs on success."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.experiment is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.exp.append(self.experiment)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = time.perf_counter()
                self.stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            self.end[idx] = time.perf_counter()
            self.stack.pop()
            if after is not None:
                after(idx, out, *args, **kwargs)
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch_everywhere(self, module_name: str, attr: str, make):
        original = getattr(sys.modules[module_name], attr)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "splitflow" or mod_name.startswith("splitflow.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, replacement)

    def install(self):
        import splitflow.algorithms  # noqa: F401  (load every module that binds a target)
        import splitflow.cli  # noqa: F401

        hooks = {"integrate": self._after_integrate, "io.csv": self._after_csv}
        errors = {"integrate": self._count_error(DivergenceError, "integrate.divergences"),
                  "primal_dual.inner_solve": self._count_error(SolverError,
                                                               "primal_dual.inner_failures")}
        for module_name, attr, span in SPAN_TARGETS:
            self._patch_everywhere(module_name, attr, lambda f, s=span: self.traced(
                s, f, after=hooks.get(s), on_error=errors.get(s)))
        for module_name, attrs in FIELD_BUILDERS:
            for attr in attrs:
                self._patch_everywhere(module_name, attr, self._field_builder)
        for module_name, attrs in PROBE_BUILDERS:
            for attr in attrs:
                self._patch_everywhere(module_name, attr, self._probe_builder)

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches = []

    def _field_builder(self, builder):
        @functools.wraps(builder)
        def build(*args, **kwargs):
            field = builder(*args, **kwargs)
            return dataclasses.replace(field, fn=self.traced("field." + field.label, field.fn))
        return build

    def _probe_builder(self, builder):
        @functools.wraps(builder)
        def build(*args, **kwargs):
            return [(name, self.traced("probes", fn)) for name, fn in builder(*args, **kwargs)]
        return build

    # -- counts recorded at the boundaries ----------------------------------

    def _count_error(self, kind, counter):
        def on_error(exc):
            if isinstance(exc, kind):
                self.counts[counter] += 1
        return on_error

    def _after_integrate(self, idx, traj, *args, **kwargs):
        bound = _INTEGRATE_SIG.bind(*args, **kwargs)
        field, cfg = bound.arguments["field"], bound.arguments["cfg"]
        records = len(traj.times)
        self.counts["integrate.steps"] += cfg.n_steps
        self.counts["integrate.records"] += records
        per_step = 4 if cfg.method == "rk4" else 1
        self.expected_field_evals[idx] = (per_step * cfg.n_steps
                                          + (records if field.order == 1 else 0))

    def _after_csv(self, idx, out, data, path):
        rows = len(data.times) if hasattr(data, "times") else data.iterates.shape[0]
        self.counts["io.csv_rows"] += rows
        self.counts["io.csv_bytes"] += os.path.getsize(path)

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {"start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "experiment": np.frombuffer(self.exp, dtype=np.int32)}

    def write(self, path: str):
        """Write the recorded spans (and the name table) as a compressed npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


_INTEGRATE_SIG = inspect.signature(integrate)


def aggregate(tracer: Tracer) -> tuple:
    """(counts, times, failures) of one repetition's spans.

    counts hold exact work counts; times hold seconds.  failures lists every
    trace self-check that did not hold: self times must be non-negative,
    child spans must lie within their parent, and each integrate call must
    make exactly its closed-form number of field evaluations.
    """
    a = tracer.arrays()
    n = len(a["start"])
    ids = {name: i for i, name in enumerate(tracer.names)}
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    failures = []
    if n and float(np.min(self_time)) < -1e-9:
        failures.append("negative self time %.3g s" % float(np.min(self_time)))
    p = parent[has_parent]
    if (np.any(a["start"][has_parent] < a["start"][p])
            or np.any(a["end"][has_parent] > a["end"][p])):
        failures.append("a child span lies outside its parent")
    if np.any(a["experiment"][has_parent] != a["experiment"][p]):
        failures.append("a child span belongs to another experiment")

    def mask(span):
        return name == ids[span] if span in ids else np.zeros(n, dtype=bool)

    def total(span, of=dur):
        return float(np.sum(of[mask(span)]))

    def calls(span):
        return int(np.count_nonzero(mask(span)))

    counts = dict(tracer.counts)
    times = {}

    field_mask = np.zeros(n, dtype=bool)
    for label in FIELD_LABELS:
        m = mask("field." + label)
        field_mask |= m
        counts["field.%s.evals" % label] = int(np.count_nonzero(m))
        times["field.%s.s" % label] = float(np.sum(dur[m]))
    direct = np.bincount(parent[field_mask & has_parent], minlength=n)
    counts["integrate.field_evals"] = int(np.sum(direct[mask("integrate")]))
    for idx, expected in tracer.expected_field_evals.items():
        if direct[idx] != expected:
            failures.append("integrate span %d made %d field evaluations, closed form %d"
                            % (idx, direct[idx], expected))

    counts["config.load_calls"] = calls("config.load")
    times["config.load_s"] = total("config.load")
    counts["config.build_run_calls"] = calls("config.build_run")
    times["config.build_run_s"] = total("config.build_run")
    times["cli.main_s"] = total("cli.main")
    times["cli.self_s"] = total("cli.main", self_time)

    counts["integrate.calls"] = calls("integrate")
    counts.setdefault("integrate.steps", 0)
    counts.setdefault("integrate.records", 0)
    counts.setdefault("integrate.divergences", 0)
    times["integrate.s"] = total("integrate")
    times["integrate.self_s"] = total("integrate", self_time)
    counts["probes.evals"] = calls("probes")
    times["probes.s"] = total("probes")

    for op in OPERATORS:
        counts["operators.%s.calls" % op] = calls("operators." + op)
        times["operators.%s.s" % op] = total("operators." + op)

    solves = mask("primal_dual.inner_solve")
    counts["primal_dual.inner_solves"] = int(np.count_nonzero(solves))
    in_solve = has_parent & solves[np.where(has_parent, parent, 0)]
    counts["primal_dual.inner_iters"] = int(np.count_nonzero(in_solve
                                                             & mask("operators.prox_eval")))
    counts.setdefault("primal_dual.inner_failures", 0)
    times["primal_dual.inner_s"] = float(np.sum(dur[solves]))

    for step in ALGORITHM_STEPS:
        counts["algorithms.%s.calls" % step] = calls("algorithms." + step)
        times["algorithms.%s.s" % step] = total("algorithms." + step)
    times["algorithms.run_sequence_s"] = total("algorithms.run_sequence")

    counts.setdefault("io.csv_rows", 0)
    counts.setdefault("io.csv_bytes", 0)
    times["io.csv_s"] = total("io.csv")

    diag = np.zeros(n, dtype=bool)
    for fn in DIAGNOSTICS:
        diag |= mask("diagnostics." + fn)
        times["diagnostics.%s.s" % fn] = total("diagnostics." + fn)
    top = diag & ~(has_parent & diag[np.where(has_parent, parent, 0)])
    counts["diagnostics.calls"] = int(np.count_nonzero(top))
    times["diagnostics.s"] = float(np.sum(dur[top]))

    times["problems.corpus_s"] = total("problems.corpus")
    times["problems.residual_checks_s"] = total("problems.residual_check")
    return counts, times, failures


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


ERROR_COUNTS = ("integrate.divergences", "primal_dual.inner_failures")


def layer_metrics(counts: dict, times: dict) -> dict:
    """The per-layer metrics, by name, from one repetition's counts and times.

    The ERROR_COUNTS are left out: they are 0 on a correct program.
    """
    c, t = counts, times
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("problems.corpus_s", t["problems.corpus_s"], "s")
    put("problems.residual_checks_s", t["problems.residual_checks_s"], "s")

    put("config.load_calls", c["config.load_calls"], "count")
    put("config.load_s", t["config.load_s"], "s")
    put("config.build_run_calls", c["config.build_run_calls"], "count")
    put("config.build_run_s", t["config.build_run_s"], "s")
    put("cli.main_s", t["cli.main_s"], "s")
    put("cli.self_s", t["cli.self_s"], "s")
    put("integrate.calls", c["integrate.calls"], "count")
    put("integrate.steps", c["integrate.steps"], "count")
    put("integrate.records", c["integrate.records"], "count")
    put("integrate.s", t["integrate.s"], "s")
    put("integrate.self_s", t["integrate.self_s"], "s")
    put("integrate.self_us_per_step",
        _ratio(t["integrate.self_s"], c["integrate.steps"], 1e6), "us")
    put("integrate.field_evals_per_step",
        _ratio(c["integrate.field_evals"], c["integrate.steps"]), "ratio")
    for label in FIELD_LABELS:
        evals, secs = c["field.%s.evals" % label], t["field.%s.s" % label]
        put("field.%s.evals" % label, evals, "count")
        put("field.%s.s" % label, secs, "s")
        put("field.%s.us_per_eval" % label, _ratio(secs, evals, 1e6), "us")
    put("probes.evals", c["probes.evals"], "count")
    put("probes.s", t["probes.s"], "s")
    put("probes.us_per_eval", _ratio(t["probes.s"], c["probes.evals"], 1e6), "us")
    for op in OPERATORS:
        put("operators.%s.calls" % op, c["operators.%s.calls" % op], "count")
        put("operators.%s.s" % op, t["operators.%s.s" % op], "s")
    put("primal_dual.inner_solves", c["primal_dual.inner_solves"], "count")
    put("primal_dual.inner_iters", c["primal_dual.inner_iters"], "count")
    put("primal_dual.inner_iters_per_solve",
        _ratio(c["primal_dual.inner_iters"], c["primal_dual.inner_solves"]), "ratio")
    put("primal_dual.inner_s", t["primal_dual.inner_s"], "s")
    for step in ALGORITHM_STEPS:
        n_calls = c["algorithms.%s.calls" % step]
        put("algorithms.%s.calls" % step, n_calls, "count")
        put("algorithms.%s.us_per_call" % step,
            _ratio(t["algorithms.%s.s" % step], n_calls, 1e6), "us")
    put("algorithms.run_sequence_s", t["algorithms.run_sequence_s"], "s")
    put("io.csv_rows", c["io.csv_rows"], "count")
    put("io.csv_bytes", c["io.csv_bytes"], "B")
    put("io.csv_s", t["io.csv_s"], "s")
    put("io.csv_mb_per_s", _ratio(c["io.csv_bytes"] / 1e6, t["io.csv_s"]), "MB/s")
    put("diagnostics.calls", c["diagnostics.calls"], "count")
    put("diagnostics.s", t["diagnostics.s"], "s")
    for fn in DIAGNOSTICS:
        put("diagnostics.%s.s" % fn, t["diagnostics.%s.s" % fn], "s")
    return out
