"""The benchmark's span tracer must find, patch and restore every binding it names,
and the benchmark's workloads must pass their own gates.

bench/spans.py and bench/workloads.py look splitflow functions up by name and
call them with keywords; a rename or a removed parameter in the package would
otherwise surface only when the benchmark runs.
"""

import collections
import importlib
import os
import subprocess
import sys

import numpy as np

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if mod is not None and (name == "splitflow" or name.startswith("splitflow."))
            for attr, value in list(vars(mod).items()) if callable(value)}


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans
    import workloads
    tracer = spans.Tracer()
    before = _bindings()
    try:
        tracer.install()
        assert workloads.second_order.second_order_field is not before[
            ("splitflow.second_order", "second_order_field")]
        assert len(tracer._patches) >= len(spans.SPAN_TARGETS)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_workloads_pass_their_gates(monkeypatch, tmp_path):
    # builds and validates every corpus-runs and multistart-sweep config, then runs
    # corpus unit 0 and multistart unit 0, whose first start carries the
    # bit-for-bit unit-Euler gate of the discrete steps
    monkeypatch.syspath_prepend(BENCH)
    import workloads
    corpus = workloads.CorpusRuns(str(tmp_path / "corpus"), seed=1)
    sweep = workloads.MultistartSweep(str(tmp_path / "sweep"), seed=1)
    experiments = corpus.unit(0) + sweep.unit(0)
    assert len(experiments) == 7
    for exp in experiments:
        passed, detail = exp.check(exp.run())
        assert passed, "%s: %s" % (exp.key, detail)


def test_benchmark_gate_selftest_passes():
    # bench/selftest.py perturbs experiment outputs and checks that the gates
    # count each perturbed run as failed and each clean run as passed
    done = subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_bindings_are_distinct_functions(monkeypatch):
    # the tracer wraps every binding of a traced function once per entry that
    # names it, so two names bound to one function would record each call twice
    monkeypatch.syspath_prepend(BENCH)
    import spans
    targets = [(module, attr) for module, attr, _ in spans.SPAN_TARGETS]
    targets += [(module, attr) for module, attrs in spans.FIELD_BUILDERS + spans.PROBE_BUILDERS
                for attr in attrs]
    functions = [getattr(importlib.import_module(module), attr) for module, attr in targets]
    assert all(callable(fn) for fn in functions)
    assert len(set(map(id, functions))) == len(targets) == 37


def test_traced_units_pass_the_trace_self_checks(monkeypatch, tmp_path):
    # corpus unit 0 and multistart unit 0 under the span tracer, as a traced
    # benchmark run sees them: every self-check holds, and a discrete run
    # (run_sequence) steps through the shared loop without an integrate span
    monkeypatch.syspath_prepend(BENCH)
    import spans
    import workloads
    corpus = workloads.CorpusRuns(str(tmp_path / "corpus"), seed=1)
    sweep = workloads.MultistartSweep(str(tmp_path / "sweep"), seed=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for workload, integrate_calls in ((corpus, 1), (sweep, 3)):
            tracer.reset()
            for i, exp in enumerate(workload.unit(0)):
                tracer.experiment = i
                try:
                    exp.run()
                finally:
                    tracer.experiment = None
            counts, _, failures = spans.aggregate(tracer)
            assert failures == []
            assert counts["integrate.calls"] == integrate_calls
            a = tracer.arrays()
            ids = {name: i for i, name in enumerate(tracer.names)}
            sequences = set(map(int, (a["name"] == ids.get("algorithms.run_sequence"))
                                .nonzero()[0]))
            assert len(sequences) == (3 if workload is sweep else 0)
            for idx in (a["name"] == ids["integrate"]).nonzero()[0]:
                while idx >= 0:
                    assert idx not in sequences
                    idx = int(a["parent"][idx])
    finally:
        tracer.uninstall()


def _fields(corpus, sweep):
    """One field of each of the 11 labels, as the workloads build them, with a state."""
    import splitflow.config as config
    import splitflow.primal_dual as primal_dual
    out = []
    for _, path, _, _ in corpus.configs:
        _, field, _, x0, v0, icfg, _ = config.load_config(path).run
        out.append((field, icfg.t_start + 0.3, x0, v0))
    prob, params = sweep.pd.components["structured"], sweep.pd_params
    field = primal_dual.pd_field_general(prob, params, *primal_dual.special_metric(prob, params))
    out.append((field, 0.3, np.ones(prob.n + 2 * prob.m), None))
    return out


def test_fields_built_before_the_tracer_installs_are_traced_alike(monkeypatch, tmp_path):
    # a field binds its invariants and its proxes and resolvents when it is
    # built, so that an evaluation calls no checked entry point (prox_eval,
    # resolvent_eval, moreau_conjugate_prox): a field built before install must
    # make the same operators.* spans per evaluation as one built after it, and
    # that is none
    monkeypatch.syspath_prepend(BENCH)
    import spans
    import workloads
    corpus = workloads.CorpusRuns(str(tmp_path / "corpus"), seed=1)
    sweep = workloads.MultistartSweep(str(tmp_path / "sweep"), seed=1)
    before = _fields(corpus, sweep)
    tracer = spans.Tracer()
    tracer.install()
    try:
        after = _fields(corpus, sweep)

        def operator_spans(field, t, x, v):
            tracer.reset()
            tracer.experiment = 0
            try:
                field.fn(t, x) if v is None else field.fn(t, x, v)
            finally:
                tracer.experiment = None
            counts = collections.Counter(tracer.names[i] for i in tracer.arrays()["name"])
            return {name: k for name, k in counts.items() if name.startswith("operators.")}

        seen = {}
        for (old, t, x, v), (new, _, _, _) in zip(before, after):
            assert old.label == new.label
            assert operator_spans(old, t, x, v) == operator_spans(new, t, x, v)
            seen[old.label] = operator_spans(new, t, x, v)
    finally:
        tracer.uninstall()
    assert sorted(seen) == sorted(spans.FIELD_LABELS)
    assert all(spans_of_label == {} for spans_of_label in seen.values()), seen
