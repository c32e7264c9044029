"""The benchmark's layer tracer wraps library functions by module attribute
(benchmark/layer_trace.py). A library cleanup that drops one of those names,
such as an import kept only for the tracer, breaks `benchmark/run.py --trace 1`;
these tests catch that here."""
import importlib.util
from pathlib import Path

from gridexplore import harness
from gridexplore import world as gw
from gridexplore.risk import RiskField
from gridexplore.roadmap import FRONTIER, build_local_irm, update_global_irm
from gridexplore.world import BeliefGrid

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


def test_tracer_hooks_read_the_roadmap_return_types():
    """The hooks on build_local_irm and update_global_irm read what those
    calls return."""
    world = gw.generate_maze(3, 11, 11)
    belief = BeliefGrid.for_world(world)
    gw.sense(world, belief, world.spawn)
    field = RiskField.for_world(world)
    tracer = load_layer_trace().Tracer()
    local = build_local_irm(belief, field, world.spawn)
    tracer._local_graph(local, ())
    assert tracer.counts["local.nodes"] == len(local.poses) > 1
    global_graph = update_global_irm(None, belief, field, world.spawn, min_cluster=1)
    tracer._global_graph(global_graph, ())
    assert tracer.counts["frontiers.kept"] == len(global_graph.nodes_of_kind(FRONTIER)) > 0
