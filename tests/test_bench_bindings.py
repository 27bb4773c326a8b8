"""The benchmark's span tracer must find, patch and restore every binding it names.

bench/spans.py looks splitflow functions up by name; a rename in the package
would otherwise surface only when the benchmark runs.
"""

import os
import sys

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
