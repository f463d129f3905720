"""The benchmark's tracer (perfbench/spans.py) still finds every name it wraps.

The traced benchmark rebinds public knaplab names such as
``knaplab.modified.is_probable_prime``; a refactor that drops one should
fail here, in the test suite, rather than only in a traced benchmark run.
Constructing a Tracer looks every target up without installing anything.
"""

import importlib
import importlib.util
import pathlib
from types import SimpleNamespace

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_covers_every_wrapped_knaplab_name():
    spans = load_spans()
    mods = SimpleNamespace(
        **{layer: importlib.import_module(f"knaplab.{layer}") for layer in spans.LAYERS}
    )
    tracer = spans.Tracer(mods)  # raises spans.CoverageError on a missing name
    assert len(tracer._bindings) == len(spans.TARGETS)
    for owner, attr, original, _ in tracer._bindings:
        assert getattr(owner, attr) is original  # looked up, not installed
