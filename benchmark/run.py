"""Episode benchmark for gridexplore.

Runs one workload's panel of episodes serially, in this process, through the
library's public calls, checks every episode, and prints every metric by name
and unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 benchmark/run.py --workload maze-budget --seed 0 --seconds 34 --trace 0

--trace 0 measures the end-to-end metrics. Its only instrumentation is one
timestamp probe on harness.execute_step, which gives the planning gap.
--trace 1 runs each episode of the first half of the same panel twice,
untraced and then with spans around every layer call site (layer_trace.py),
and prints the per-layer metrics, the tracing overhead and whether tracing
changed any episode.

Exit codes: 0 all episodes passed their checks, 1 an episode failed (it is
named on standard error), 2 the library could not be found or imported.
See README.md in this directory for why the workloads are what they are.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The acceptance gate's batch settings (tests/test_acceptance.py batch_config).
RUN_SETTINGS = {
    "step_budget": 600, "nbv_samples": 20, "min_frontier_cluster": 1,
    "horizon_global": 40,
}
GENERATOR_PARAMS = {
    "maze": {"width": 51, "height": 51, "deadend_fraction": 1.0},
    "subway": {"rooms": 5},
    "cave": {"width": 51, "height": 51},
}


@dataclass(frozen=True)
class Workload:
    cells: tuple[tuple[str, str], ...]  # (generator, planner), one episode each per round
    round_s: float  # nominal host seconds per round, used to size the panel


WORKLOADS = {
    "open-local": Workload(
        (("subway", "MLDM"), ("subway", "HCP"), ("cave", "MLDM"), ("cave", "HCP")), 13.0),
    "maze-budget": Workload(
        (("maze", "MLDM"), ("maze", "HCP"), ("maze", "HFE")), 4.0),
    "baselines": Workload(
        (("subway", "NBV"), ("subway", "HFE"), ("cave", "NBV"), ("cave", "HFE")), 9.0),
}
TERMINATIONS = ("budget", "full_coverage", "no_policy", "stalled")
MIN_GAPS = 500  # so that at least 10 planning gaps lie beyond p98
SETUP_REPEATS = 3
IMPORT_REPEATS = 3


def import_library() -> None:
    """Import gridexplore from this checkout's src/ and nowhere else; exit
    with code 2 when that is not possible."""
    problem = None
    if not (SRC / "gridexplore" / "__init__.py").is_file():
        problem = f"no gridexplore sources under {SRC}"
    else:
        sys.path.insert(0, str(SRC))
        try:
            import gridexplore
        except ImportError as exc:
            problem = f"cannot import gridexplore: {exc}"
        else:
            if Path(gridexplore.__file__).resolve().parent.parent != SRC:
                problem = f"imported gridexplore from {gridexplore.__file__}"
    if problem:
        print(f"benchmark: {problem}", file=sys.stderr)
        sys.exit(2)


def child_import_s() -> float:
    """Host seconds a fresh interpreter takes to import gridexplore."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import gridexplore; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def panel(workload: str, seed: int):
    """Endless seeded stream of episode configs, one round after another.
    Every episode gets its own world, so a run samples as many worlds as it
    has episodes."""
    from gridexplore.harness import RunConfig, WorldSpec

    rng = random.Random(f"{workload}/{seed}")
    while True:
        for generator, planner in WORKLOADS[workload].cells:
            yield RunConfig(
                world=WorldSpec(generator=generator, seed=rng.getrandbits(31),
                                params=dict(GENERATOR_PARAMS[generator])),
                planner=planner, **RUN_SETTINGS,
            )


class GapProbe:
    """Timestamp probe on harness.execute_step. A planning gap runs from the
    return of the last move under one plan to the entry of the first move
    (index 1) under the next."""

    def __init__(self, execute_step):
        self.execute_step = execute_step
        self.gaps: list[float] = []
        self.last_return: float | None = None

    def start_episode(self) -> None:
        self.last_return = None

    def __call__(self, *args, **kwargs):
        entered = time.perf_counter()
        index = args[4] if len(args) > 4 else kwargs["index"]
        if index == 1 and self.last_return is not None:
            self.gaps.append(entered - self.last_return)
        try:
            return self.execute_step(*args, **kwargs)
        finally:
            self.last_return = time.perf_counter()


@dataclass
class Episode:
    label: str
    config: object
    steps: int
    cycles: int
    termination: str
    coverage_m2: float
    sha256: str
    host_s: float

    def fingerprint(self) -> str:
        world = self.config.world
        return (f"{self.label} generator={world.generator} planner={self.config.planner} "
                f"world_seed={world.seed} steps={self.steps} cycles={self.cycles} "
                f"termination={self.termination} coverage_m2={self.coverage_m2!r} "
                f"sha256={self.sha256}")


def run_one(harness, config, label: str, before=None) -> tuple[Episode, str]:
    """One timed episode: what `gridexplore run --out` costs, minus the file
    write. Returns the episode and its NDJSON log."""
    if before is not None:
        before()
    t0 = time.perf_counter()
    record = harness.run_episode(config)
    text = harness.events_to_ndjson(record.events)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    host_s = time.perf_counter() - t0
    episode = Episode(label, config, record.total_steps, record.cycles,
                      record.termination, record.final_coverage_m2, digest, host_s)
    return episode, text


def check(harness, episode: Episode, text: str, workdir: Path) -> list[str]:
    """Problems with one episode's log; empty when it is sound."""
    problems = []
    last = json.loads(text[text.rstrip("\n").rfind("\n") + 1:])
    if last.get("type") != "end":
        problems.append("log does not end with an end event")
    elif last.get("termination") not in TERMINATIONS:
        problems.append(f"unknown termination {last.get('termination')!r}")
    elif (last["steps"], last["termination"]) != (episode.steps, episode.termination):
        problems.append("end event disagrees with the run record")
    path = workdir / "events.ndjson"
    path.write_text(text, encoding="utf-8")
    result = harness.replay(str(path))
    if not result.ok or result.truncated:
        problems.append(f"replay failed: {result.warnings[:3]}")
    return problems


def measure_setup(configs) -> tuple[float, float]:
    """(import seconds, per-episode set-up seconds), each the median of
    several repetitions. The set-up is what run_episode does for an episode
    before its first step, through the same public calls."""
    from gridexplore import harness
    from gridexplore import world as gw
    from gridexplore.risk import RiskField
    from gridexplore.switching import calibrate_j_max

    imports = [child_import_s() for _ in range(IMPORT_REPEATS)]
    totals = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for config in configs:
            world = harness.build_world(config.world)
            gw.reachable_free_count(world)
            field = RiskField.for_world(world, alpha=config.risk_alpha,
                                        sample_count=config.risk_samples,
                                        seed=world.rng_seed)
            calibrate_j_max(world, field, horizon=config.horizon_local, seed=world.rng_seed)
        totals.append(time.perf_counter() - t0)
    return statistics.median(imports), statistics.median(totals)


def panel_rounds(args) -> int:
    return max(1, round(args.seconds / WORKLOADS[args.workload].round_s))


def run_untraced(harness, workload: str, seed: int, rounds: int, workdir: Path):
    """`rounds` whole rounds of episodes, then single episodes until there
    are MIN_GAPS planning gaps, up to three times the rounds. Gap counts
    depend only on the seed, so the panel does too."""
    cells = len(WORKLOADS[workload].cells)
    probe = GapProbe(harness.execute_step)
    episodes, failures = [], []
    harness.execute_step = probe
    try:
        stream = panel(workload, seed)
        while len(episodes) < rounds * cells or (
            len(probe.gaps) < MIN_GAPS and len(episodes) < 3 * rounds * cells
        ):
            label = f"{workload}#{len(episodes)}"
            episode, text = run_one(harness, next(stream), label, probe.start_episode)
            episodes.append(episode)
            problems = check(harness, episode, text, workdir)
            if problems:
                failures.append((label, problems))
    finally:
        harness.execute_step = probe.execute_step

    if len(probe.gaps) < MIN_GAPS:
        failures.append((f"{workload}#*", [f"only {len(probe.gaps)} planning gaps"]))
    # determinism: the shortest episode run again must give the same log
    shortest = min(episodes, key=lambda e: e.steps)
    again, _ = run_one(harness, shortest.config, shortest.label)
    if again.sha256 != shortest.sha256:
        failures.append((shortest.label, ["rerun gave a different event log"]))
    return episodes, probe.gaps, failures


def end_to_end(args, harness, workdir: Path) -> tuple[dict, int, list]:
    rounds = panel_rounds(args)
    configs = list(itertools.islice(panel(args.workload, args.seed),
                                    rounds * len(WORKLOADS[args.workload].cells)))
    import_s, per_episode_s = measure_setup(configs)
    episodes, gaps, failures = run_untraced(harness, args.workload, args.seed, rounds, workdir)
    for episode in episodes:
        print(episode.fingerprint())
    host_s = sum(e.host_s for e in episodes)
    steps = sum(e.steps for e in episodes)
    p98 = statistics.quantiles(gaps, n=100, method="inclusive")[97] if len(gaps) >= 2 else 0.0
    metrics = {
        "sim_steps_per_s": (steps / host_s, "steps/s"),
        "plan_gap_ms_p50": (1e3 * statistics.median(gaps or [0.0]), "ms"),
        "plan_gap_ms_p98": (1e3 * p98, "ms"),
        "coverage_m2_mean": (statistics.fmean(e.coverage_m2 for e in episodes), "m2"),
        "setup_s": (import_s + per_episode_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "episode_ok_frac": (1.0 - len({f[0] for f in failures}) / len(episodes), "ratio"),
    }
    print(f"samples: episodes={len(episodes)} steps={steps} host_s={host_s:.3f} "
          f"plan_gaps={len(gaps)} ({sum(g > p98 for g in gaps)} beyond p98) "
          f"setup: import_s={import_s:.4f} per_episode_s={per_episode_s:.4f} "
          f"over {len(configs)} episodes")
    return metrics, len(episodes), failures


def per_layer(args, harness, workdir: Path) -> tuple[dict, int, list]:
    from layer_trace import Tracer

    rounds = max(1, panel_rounds(args) // 2)
    configs = list(itertools.islice(panel(args.workload, args.seed),
                                    rounds * len(WORKLOADS[args.workload].cells)))
    tracer = Tracer()
    failures, plain, traced = [], [], []
    for i, config in enumerate(configs):  # alternate, so host drift hits both passes alike
        episode, text = run_one(harness, config, f"{args.workload}#{i}")
        plain.append(episode)
        problems = check(harness, episode, text, workdir)
        with tracer.patched():
            again, _ = run_one(harness, config, episode.label, tracer.start_episode)
        traced.append(again)
        if again.fingerprint() != episode.fingerprint():
            problems.append("tracing changed the episode")
        if problems:
            failures.append((episode.label, problems))
        print(episode.fingerprint())
    plain_s = sum(e.host_s for e in plain)
    traced_s = sum(e.host_s for e in traced)
    metrics = tracer.metrics()
    self_sum = sum(tracer.self_s.values())
    metrics["trace.untraced_s"] = (plain_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    print(f"samples: episodes={len(configs)} traced_s={traced_s:.3f} untraced_s={plain_s:.3f} "
          f"self_sum_s={self_sum:.3f} root_spans_s={tracer.root_s:.3f} "
          f"unattributed_s={traced_s - self_sum:.3f}")
    return metrics, len(configs), failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_library()
    from gridexplore import harness

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failures = measure(args, harness, Path(tmp))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    for label, problems in failures:
        print(f"benchmark: episode {label} failed: {'; '.join(problems)}", file=sys.stderr)
    failed = len({label for label, _ in failures})
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
