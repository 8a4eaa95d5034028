"""The benchmark's tracer still finds every function it wraps.

perfbench/spans.py names hornforge functions by module and attribute; a
renamed or deleted one would otherwise surface only in a traced benchmark
run.  Installing and uninstalling the tracer here fails on the missing name
instead.
"""

import importlib.util
import pathlib
import sys

import hornforge.cli  # noqa: F401  (the tracer wraps cli.run)
from hornforge import support

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_named_function(sample_kg, rule_r):
    spans = load_spans()
    named = [(sys.modules[f"hornforge.{m}"], f) for m, f, *_ in spans.SPANS]
    originals = [getattr(module, f) for module, f in named]
    tracer = spans.Tracer()
    try:
        tracer.install()
        replaced = {id(original) for *_, original in tracer.restore}
        for (module, f), original in zip(named, originals):
            assert id(original) in replaced, f"no binding of {module.__name__}.{f} was wrapped"
        sys.modules["hornforge.metrics"].support(sample_kg, rule_r)
    finally:
        tracer.uninstall()
    assert [getattr(module, f) for module, f in named] == originals
    assert sys.modules["hornforge"].support is support
    assert tracer.totals["metrics.support.calls"] == 1
