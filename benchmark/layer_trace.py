"""Per-layer spans recorded from outside the library.

The library binds its collaborators with ``from ... import``, so a function
is wrapped at every module that calls it, not only where it is defined.
``Tracer.patched()`` installs the wrappers and restores the originals on exit.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of all spans add up to the time of the root spans
(the benchmark's calls to ``run_episode`` and ``events_to_ndjson``).
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

from gridexplore import harness, motion, planners, roadmap, switching
from gridexplore import world as gw
from gridexplore.roadmap import FRONTIER

# Span names, in report order. Each is "<layer>.<function>".
SPANS = (
    "world.sense", "world.info_gain", "world.generate", "world.reachable",
    "roadmap.local", "roadmap.global", "roadmap.frontiers",
    "risk.edge",
    "planners.local", "planners.global", "planners.nbv", "planners.hfe",
    "motion.astar", "motion.smooth", "motion.execute",
    "switching.decide", "switching.calibrate",
    "harness.serialize", "harness.episode",
)

# Useful-over-attempt ratios: metric name -> (numerator count, denominator count).
RATIOS = {
    "world.info_gain.useful_frac": ("info_gain.useful", "world.info_gain"),
    "risk.edge.miss_frac": ("edge.miss", "risk.edge"),
    "motion.astar.none_frac": ("astar.none", "motion.astar"),
    "planners.local.found_frac": ("local.found", "planners.local"),
    "planners.global.found_frac": ("global.found", "planners.global"),
    "planners.nbv.found_frac": ("nbv.found", "planners.nbv"),
    "planners.hfe.found_frac": ("hfe.found", "planners.hfe"),
    "roadmap.global.frontier_keep_frac": ("frontiers.kept", "frontiers.detected"),
}

# Plain counts reported as they are: metric name -> (count key, unit).
COUNTS = {
    "roadmap.local.nodes": ("local.nodes", "count"),
    "harness.serialize.bytes": ("serialize.bytes", "bytes"),
}


class Tracer:
    """Accumulates self time, calls and outcome counts per span name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self._stack: list[float] = []  # child time of each open span
        self._edges_seen: set = set()  # (id(field), cell, cell) per episode

    def start_episode(self) -> None:
        """Forget the edge pairs seen so far: each episode has its own field."""
        self._edges_seen.clear()

    def wrap(self, name: str, fn, on_result=None):
        perf = time.perf_counter
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - t0
                self_s[name] += duration - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += duration
                else:
                    self.root_s += duration
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    # -- outcome hooks: called with (result, positional args) ---------------

    def _found(self, key: str):
        def hook(result, _args) -> None:
            if result is not None:
                self.counts[key] += 1
        return hook

    def _info_gain(self, result, _args) -> None:
        if result > 0:
            self.counts["info_gain.useful"] += 1

    def _astar(self, result, _args) -> None:
        if result is None:
            self.counts["astar.none"] += 1

    def _edge(self, _result, args) -> None:
        field, a, b = args[0], args[1], args[2]
        if a == b:
            return
        key = (id(field), a, b) if a <= b else (id(field), b, a)
        if key not in self._edges_seen:
            self._edges_seen.add(key)
            self.counts["edge.miss"] += 1

    def _local_graph(self, graph, _args) -> None:
        self.counts["local.nodes"] += len(graph.nodes)

    def _global_graph(self, graph, _args) -> None:
        self.counts["frontiers.kept"] += sum(
            1 for node in graph.nodes.values() if node.kind == FRONTIER
        )

    def _frontiers(self, nodes, _args) -> None:
        self.counts["frontiers.detected"] += len(nodes)

    def _serialized(self, text, _args) -> None:
        self.counts["serialize.bytes"] += len(text.encode("utf-8"))

    def _sites(self):
        """(module, attribute, span name, hook) for every call site wrapped."""
        return [
            (harness, "run_episode", "harness.episode", None),
            (harness, "events_to_ndjson", "harness.serialize", self._serialized),
            (harness, "build_world", "world.generate", None),
            (gw, "reachable_free_count", "world.reachable", None),
            (harness, "calibrate_j_max", "switching.calibrate", None),
            (harness, "build_local_irm", "roadmap.local", self._local_graph),
            (harness, "update_global_irm", "roadmap.global", self._global_graph),
            (roadmap, "detect_frontiers", "roadmap.frontiers", self._frontiers),
            (harness, "plan_local", "planners.local", self._found("local.found")),
            (harness, "plan_global", "planners.global", self._found("global.found")),
            (harness, "plan_nbv", "planners.nbv", self._found("nbv.found")),
            (harness, "plan_hfe", "planners.hfe", self._found("hfe.found")),
            (harness, "astar", "motion.astar", self._astar),
            (planners, "astar", "motion.astar", self._astar),
            (harness, "make_path_pair", "motion.smooth", None),
            (harness, "execute_step", "motion.execute", None),
            (harness, "decide", "switching.decide", None),
            (roadmap, "visible_unknown_count", "world.info_gain", self._info_gain),
            (planners, "visible_unknown_count", "world.info_gain", self._info_gain),
            (roadmap, "edge_risk", "risk.edge", self._edge),
            (planners, "edge_risk", "risk.edge", self._edge),
            (switching, "edge_risk", "risk.edge", self._edge),
            (motion, "sense", "world.sense", None),
            (gw, "sense", "world.sense", None),  # harness calls gw.sense
        ]

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for module, attr, name, hook in self._sites():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
        for metric, (num, den) in RATIOS.items():
            base = self.calls.get(den, 0) if den in SPANS else self.counts.get(den, 0)
            out[metric] = (self.counts.get(num, 0) / base if base else 0.0, "ratio")
        for metric, (key, unit) in COUNTS.items():
            out[metric] = (self.counts.get(key, 0), unit)
        return out
