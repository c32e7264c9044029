"""The benchmark's layer tracer wraps library functions by module attribute
(benchmark/layer_trace.py). A library cleanup that drops one of those names,
such as an import kept only for the tracer, breaks `benchmark/run.py --trace 1`;
these tests catch that here."""
import importlib.util
from pathlib import Path

from gridexplore import harness

LAYER_TRACE = Path(__file__).resolve().parent.parent / "benchmark" / "layer_trace.py"


def load_layer_trace():
    spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists():
    tracer = load_layer_trace().Tracer()
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracer._sites()
               if not callable(getattr(module, attr, None))]
    assert missing == []
    # the plan-gap probe of benchmark/run.py
    assert callable(harness.execute_step)


def test_patched_restores_the_originals():
    tracer = load_layer_trace().Tracer()
    sites = tracer._sites()
    before = [getattr(module, attr) for module, attr, _, _ in sites]
    with tracer.patched():
        during = [getattr(module, attr) for module, attr, _, _ in sites]
    after = [getattr(module, attr) for module, attr, _, _ in sites]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
