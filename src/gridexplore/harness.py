"""Closed-loop simulation: plan, decide, execute, sense, repeat.

Episodes are fully determined by their config (world seed included), so two
runs of the same config produce byte-identical event logs. Batches fan
episodes out over a process pool and aggregate coverage statistics.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import world as gw
from .motion import (
    KinodynamicSpec, PathPair, astar, cells_to_waypoints, execute_step,
    make_path_pair,
)
from .planners import (
    Policy, RewardModel, plan_global, plan_hfe, plan_local, plan_nbv,
)
from .risk import RiskField
from .roadmap import (
    GLOBAL, LOCAL, ROBOT_NODE_ID, RoadmapGraph, build_local_irm,
    update_global_irm,
)
from .switching import (
    Candidate, HistoryWindow, SwitchConfig, calibrate_j_max, decide, explain,
)
from .world import BeliefGrid, SensorSpec, WorldModel

EVENT_SCHEMA_VERSION = 1

Cell = tuple[int, int]


class ConfigError(ValueError):
    """Run configuration is invalid."""


class ReplayError(RuntimeError):
    """Event log cannot be replayed (bad schema or corrupt header)."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class WorldSpec:
    generator: str = "maze"
    seed: int = 0
    params: dict = field(default_factory=dict)


@dataclass
class SwitchSettings:
    j_max: float | None = None  # None: calibrate from the world's risk field
    d_max: float = 2.0
    window: int = 10
    epsilon_j: float = 1e-3
    epsilon_d: float = 1e-3


@dataclass
class RunConfig:
    world: WorldSpec = field(default_factory=WorldSpec)
    planner: str = "MLDM"
    seed: int = 0
    step_budget: int = 600
    metrics_interval: int = 25
    reward: RewardModel = field(default_factory=RewardModel)
    switch: SwitchSettings = field(default_factory=SwitchSettings)
    sensor: SensorSpec = field(default_factory=SensorSpec)
    kino: KinodynamicSpec = field(default_factory=KinodynamicSpec)
    replan_interval: int = 5
    steps_per_minute: int = 60
    local_radius: float = 10.0
    horizon_local: int = 10
    horizon_global: int = 20
    expansion_budget: int = 20000
    breadcrumb_spacing: float = 2.0
    min_frontier_cluster: int = 3
    nbv_samples: int = 10
    nbv_radius: float = 8.0
    risk_alpha: float = 0.9
    risk_samples: int = 64
    hcp_commit_distance: float = 2.0
    astar_risk_weight: float = 1.0
    coverage_done_fraction: float = 0.99

    def __post_init__(self) -> None:
        if self.planner not in PLANNERS:
            raise ConfigError(f"unknown planner {self.planner!r}; expected one of {PLANNERS}")
        if self.step_budget < 0:
            raise ConfigError("step_budget must be >= 0")
        if self.metrics_interval < 1:
            raise ConfigError("metrics_interval must be >= 1")
        for name in ("replan_interval", "expansion_budget", "nbv_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # a negative weight makes negative-cost cycles, on which A* never ends
        if not (math.isfinite(self.astar_risk_weight) and self.astar_risk_weight >= 0):
            raise ConfigError("astar_risk_weight must be finite and >= 0")


_NESTED_SECTIONS = {
    "world": WorldSpec,
    "reward": RewardModel,
    "switch": SwitchSettings,
    "sensor": SensorSpec,
    "kino": KinodynamicSpec,
}


def config_from_dict(doc: dict) -> RunConfig:
    doc = dict(doc)
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    try:
        for key, value in doc.items():
            if key in _NESTED_SECTIONS:
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be an object, "
                                      f"got {type(value).__name__}")
                section = _NESTED_SECTIONS[key]
                extra = set(value) - set(section.__dataclass_fields__)
                if extra:
                    raise ConfigError(f"unknown keys in {key!r}: {sorted(extra)}")
                kwargs[key] = section(**value)
            else:
                kwargs[key] = value
        config = RunConfig(**kwargs)
        _generator_and_params(config.world)
        return config
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(doc)


def config_hash(config: RunConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def events_to_ndjson(events: list[dict]) -> str:
    return "".join(
        json.dumps(_jsonable(ev), sort_keys=True, separators=(",", ":")) + "\n"
        for ev in events
    )


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------

def _matches_type(value, default) -> bool:
    """Whether value has the type of default: a bool only for a bool, an int
    also for a float, and for a tuple a list or tuple of the same length
    whose items match. Nothing is converted."""
    if isinstance(value, (bool, np.bool_)):
        return isinstance(default, bool)
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(default)
                and all(_matches_type(v, d) for v, d in zip(value, default)))
    if isinstance(default, int):
        return isinstance(value, numbers.Integral)
    if isinstance(default, float):
        return isinstance(value, numbers.Real)
    return isinstance(value, type(default))


def _generator_and_params(spec: WorldSpec):
    """The registered builder for spec and its params, defaults filled in.
    ConfigError for an unknown generator, a seed that is not an int, or a
    param that is unknown or does not have its default's type."""
    if spec.generator not in GENERATORS:
        raise ConfigError(f"unknown world generator {spec.generator!r}")
    if not _matches_type(spec.seed, 0):
        raise ConfigError(f"world seed must be an int, got {spec.seed!r}")
    if not isinstance(spec.params, dict):
        raise ConfigError(f"world params must be an object, got {spec.params!r}")
    builder, defaults = GENERATORS[spec.generator]
    unknown = set(spec.params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown params for generator {spec.generator!r}: "
                          f"{sorted(unknown)}; accepted: {sorted(defaults)}")
    for name, value in spec.params.items():
        if not _matches_type(value, defaults[name]):
            raise ConfigError(f"param {name!r} of generator {spec.generator!r} must be "
                              f"like {defaults[name]!r}, got {value!r}")
    return builder, {**defaults, **spec.params}


def build_world(spec: WorldSpec) -> WorldModel:
    builder, params = _generator_and_params(spec)
    return builder(spec.seed, **params)


def _apply_precover(world: WorldModel, belief: BeliefGrid, rects) -> None:
    """Mark rectangular regions as already sensed: ground truth copied into the
    belief, free cells flagged covered. Rects are [r0, c0, r1, c1, ...] with
    exclusive upper bounds."""
    for r0, c0, r1, c1 in rects:
        region = world.occupancy[r0:r1, c0:c1]
        state = np.where(region == gw.OBSTACLE, gw.KNOWN_OBSTACLE, gw.KNOWN_FREE)
        belief.state[r0:r1, c0:c1] = state
        belief.covered[r0:r1, c0:c1] = region == gw.FREE


# ---------------------------------------------------------------------------
# Episode
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    config_hash: str
    planner: str
    intervals: list[dict]
    final_coverage_m2: float
    total_steps: int
    distance_m: float
    collisions: int
    cycles: int
    termination: str
    wall_time_s: float
    events: list[dict] = field(default_factory=list)
    events_path: str | None = None

    def to_dict(self, include_events: bool = False) -> dict:
        doc = {
            "config_hash": self.config_hash,
            "planner": self.planner,
            "intervals": self.intervals,
            "final_coverage_m2": self.final_coverage_m2,
            "total_steps": self.total_steps,
            "distance_m": self.distance_m,
            "collisions": self.collisions,
            "cycles": self.cycles,
            "termination": self.termination,
            "wall_time_s": self.wall_time_s,
            "events_path": self.events_path,
        }
        if include_events:
            doc["events"] = self.events
        return doc


class _EpisodeState:
    """Mutable loop state for one episode."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.world = build_world(config.world)
        self.belief = BeliefGrid.for_world(self.world)
        self.risk_field = RiskField.for_world(
            self.world, alpha=config.risk_alpha,
            sample_count=config.risk_samples, seed=self.world.rng_seed,
        )
        precover = self.world.params.get("precover")
        if precover:
            _apply_precover(self.world, self.belief, precover)
        self.pose: Cell = self.world.spawn
        self.global_graph: RoadmapGraph | None = None
        self.window = HistoryWindow(config.switch.window)
        self.hcp_goal: Cell | None = None
        self.steps = 0
        self.cycle = 0
        self.distance_m = 0.0
        self.collisions = 0
        self.counts = {"local": 0, "global": 0, "overrides": 0}
        self.events: list[dict] = []
        self.intervals: list[dict] = []
        self.reachable_free = gw.reachable_free_count(self.world)
        j_max = config.switch.j_max
        if j_max is None:
            j_max = calibrate_j_max(
                self.world, self.risk_field,
                horizon=config.horizon_local, seed=self.world.rng_seed,
            )
        self.switch_config = SwitchConfig(
            j_max=j_max, d_max=config.switch.d_max, window=config.switch.window,
            epsilon_j=config.switch.epsilon_j, epsilon_d=config.switch.epsilon_d,
        )

    def coverage_m2(self) -> float:
        return gw.covered_area(self.belief)

    def coverage_done(self) -> bool:
        covered_free = int(np.sum(self.belief.covered))
        return covered_free >= self.config.coverage_done_fraction * self.reachable_free

    def snapshot_interval(self) -> None:
        self.intervals.append({
            "step": self.steps,
            "covered_m2": self.coverage_m2(),
            "distance_m": self.distance_m,
            "collisions": self.collisions,
            "local_chosen": self.counts["local"],
            "global_chosen": self.counts["global"],
            "overrides": self.counts["overrides"],
        })


def _nearest_reachable_to(state: _EpisodeState, goal: Cell) -> Cell:
    """Believed-free cell in the robot's component closest to goal (squared
    Euclidean, ties row-major)."""
    passable, wp = gw.padded_mask(state.belief.state == gw.KNOWN_FREE)
    r0, c0 = state.pose
    reached = gw.grid_bfs(passable, wp, (r0 + 1) * wp + c0 + 1)
    # padded indices follow row-major cell order, so ties go row-major
    _, i = min(
        ((i // wp - 1 - goal[0]) ** 2 + (i % wp - 1 - goal[1]) ** 2, i) for i, _ in reached
    )
    return i // wp - 1, i % wp - 1


def _candidate_for(
    state: _EpisodeState,
    policy: Policy | None,
) -> Candidate | None:
    """Attach the reference/executed path pair a policy would be executed
    with. Local-scope policies already carry their cell path (the walk, or an
    NBV path); global policies get a fresh A* path to their goal. A global
    goal that is not yet reachable through believed-free space (a frontier
    behind unknown cells) is approached instead: the path targets the
    reachable cell nearest the goal so sensing can open the way."""
    if policy is None:
        return None
    config = state.config
    if policy.path_cells is not None:
        cells = policy.path_cells
    else:
        cells = astar(
            state.belief, state.risk_field, state.pose, policy.goal_pose,
            risk_weight=config.astar_risk_weight,
        )
        if cells is None:
            approach = _nearest_reachable_to(state, policy.goal_pose)
            if approach == state.pose:
                return None
            cells = astar(
                state.belief, state.risk_field, state.pose, approach,
                risk_weight=config.astar_risk_weight,
            )
            if cells is None:
                return None
    reference = cells_to_waypoints(cells, state.world.cell_size)
    pair = make_path_pair(reference, config.kino, state.belief)
    return Candidate(policy=policy, path_pair=pair)


def _pair_event(pair: PathPair) -> dict:
    return {
        "reference": pair.reference,
        "executed": pair.executed,
        "discrepancy": pair.discrepancy,
    }


# A planner builds only the roadmap layers it reads and returns the candidate
# to execute (or None), the candidates whose policies and paths are logged,
# and its own cycle-event fields.
PlanOutcome = tuple[Candidate | None, list[Candidate], dict]


def _update_global_graph(state: _EpisodeState) -> RoadmapGraph:
    """Rebuild the global roadmap; its breadcrumb trail grows every cycle."""
    config = state.config
    state.global_graph = update_global_irm(
        state.global_graph, state.belief, state.risk_field, state.pose,
        breadcrumb_spacing=config.breadcrumb_spacing,
        min_cluster=config.min_frontier_cluster,
        horizon=config.horizon_global,
    )
    return state.global_graph


def _plan_local_policy(state: _EpisodeState) -> Policy | None:
    """Build the local lattice around the robot and search it."""
    config = state.config
    local_graph = build_local_irm(
        state.belief, state.risk_field, state.pose,
        radius=config.local_radius, sensor=config.sensor, horizon=config.horizon_local,
    )
    return plan_local(
        local_graph, config.reward, horizon=config.horizon_local,
        budget=config.expansion_budget, created_at=state.cycle,
    )


def _plan_global_policy(state: _EpisodeState) -> Policy | None:
    config = state.config
    return plan_global(
        state.global_graph, config.reward, ROBOT_NODE_ID,
        horizon=config.horizon_global, created_at=state.cycle,
    )


def _plan_mldm(state: _EpisodeState) -> PlanOutcome:
    """Meta-level decision: plan both scopes and let the switching rule pick."""
    _update_global_graph(state)
    local_policy = _plan_local_policy(state)
    global_policy = _plan_global_policy(state)
    state.window.record(LOCAL, local_policy is not None)
    state.window.record(GLOBAL, global_policy is not None)
    local_cand = _candidate_for(state, local_policy)
    global_cand = _candidate_for(state, global_policy)
    fields = {"local_found": local_policy is not None, "global_found": global_policy is not None}
    logged = [cand for cand in (local_cand, global_cand) if cand is not None]
    if not logged:
        return None, [], fields
    decision = decide(
        local_cand, global_cand, state.window, state.switch_config, cycle=state.cycle,
    )
    if decision.override_fired:
        state.counts["overrides"] += 1
    fields["decision"] = explain(decision)
    return (local_cand if decision.chosen == LOCAL else global_cand), logged, fields


def _plan_hcp(state: _EpisodeState) -> PlanOutcome:
    """Fixed precedence: pursue the committed frontier goal until within the
    commit distance, else the local policy, else commit to a new frontier."""
    config = state.config
    _update_global_graph(state)
    local_policy = _plan_local_policy(state)
    fields: dict = {"local_found": local_policy is not None}
    commit_cells = config.hcp_commit_distance / state.world.cell_size
    if state.hcp_goal is not None:
        dist = math.hypot(
            state.pose[0] - state.hcp_goal[0], state.pose[1] - state.hcp_goal[1]
        )
        if dist <= commit_cells:
            state.hcp_goal = None
    chosen: Candidate | None = None
    if state.hcp_goal is not None:
        pursuit = Policy(
            scope=GLOBAL, node_sequence=[], edge_sequence=[], utility=0.0,
            risk=0.0, created_at=state.cycle, goal_pose=state.hcp_goal,
        )
        chosen = _candidate_for(state, pursuit)
        if chosen is None:
            state.hcp_goal = None  # goal became unreachable; release
    if state.hcp_goal is None:
        if local_policy is not None:
            chosen = _candidate_for(state, local_policy)
        else:
            global_policy = _plan_global_policy(state)
            fields["global_found"] = global_policy is not None
            chosen = _candidate_for(state, global_policy)
            if chosen is not None:
                state.hcp_goal = chosen.policy.goal_pose
    if chosen is None:
        return None, [], fields
    fields["committed_goal"] = list(state.hcp_goal) if state.hcp_goal else None
    return chosen, [chosen], fields


def _baseline_outcome(state: _EpisodeState, policy: Policy | None) -> PlanOutcome:
    """NBV and HFE execute their one policy as is; a cycle without a
    candidate still logs chosen (null) and the policy's goal."""
    chosen = _candidate_for(state, policy)
    goal = list(policy.goal_pose) if policy and policy.goal_pose else None
    return chosen, [] if chosen is None else [chosen], {"chosen": None, "goal": goal}


def _plan_nbv(state: _EpisodeState) -> PlanOutcome:
    """Next-best-view baseline; it reads neither roadmap layer."""
    config = state.config
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed & 0xFFFFFFFF, 0x9B, state.cycle])
    )
    policy = plan_nbv(
        state.belief, state.risk_field, state.pose,
        samples=config.nbv_samples, rng=rng, radius=config.nbv_radius,
        sensor=config.sensor, reward_model=config.reward,
        risk_weight=config.astar_risk_weight, created_at=state.cycle,
    )
    return _baseline_outcome(state, policy)


def _plan_hfe(state: _EpisodeState) -> PlanOutcome:
    """Greedy frontier baseline over the global roadmap."""
    graph = _update_global_graph(state)
    policy = plan_hfe(graph, state.config.reward, ROBOT_NODE_ID, created_at=state.cycle)
    return _baseline_outcome(state, policy)


_PLANNERS = {"MLDM": _plan_mldm, "HCP": _plan_hcp, "NBV": _plan_nbv, "HFE": _plan_hfe}
PLANNERS = tuple(_PLANNERS)


def _plan_cycle(state: _EpisodeState) -> tuple[Candidate | None, dict]:
    """Run the configured planner for one cycle. Returns the candidate to
    execute (None means no policy anywhere) plus the cycle event payload."""
    chosen, logged, fields = _PLANNERS[state.config.planner](state)
    event = {"type": "cycle", "cycle": state.cycle, "step": state.steps,
             "planner": state.config.planner, "pose": list(state.pose), **fields}
    if chosen is not None:
        policy = chosen.policy
        event["chosen"] = policy.scope
        event["goal"] = list(policy.goal_pose) if policy.goal_pose else None
        event["policies"] = {cand.scope: cand.policy.to_dict() for cand in logged}
        event["paths"] = {cand.scope: _pair_event(cand.path_pair) for cand in logged}
    return chosen, event


def run_episode(config: RunConfig, out_dir: str | None = None) -> RunRecord:
    """Run one episode to its step budget, full coverage, or a dead end."""
    start_time = time.perf_counter()
    state = _EpisodeState(config)
    chash = config_hash(config)
    state.events.append({
        "type": "header",
        "version": EVENT_SCHEMA_VERSION,
        "config": asdict(config),
        "config_hash": chash,
        "j_max": state.switch_config.j_max,
        "reachable_free_cells": state.reachable_free,
    })
    gw.sense(state.world, state.belief, state.pose, config.sensor, step=0)
    state.events.append({
        "type": "step", "step": 0, "pose": list(state.pose),
        "covered_m2": state.coverage_m2(), "distance_m": 0.0, "collision": False,
    })
    state.snapshot_interval()

    termination = "budget"
    stall_cycles = 0
    max_cycles = 2 * config.step_budget + 50
    while state.steps < config.step_budget:
        if state.coverage_done():
            termination = "full_coverage"
            break
        state.cycle += 1
        if state.cycle > max_cycles:
            termination = "stalled"
            break
        chosen, event = _plan_cycle(state)
        state.events.append(event)
        if chosen is None:
            termination = "no_policy"
            break
        state.counts["local" if chosen.policy.scope == LOCAL else "global"] += 1

        executed = chosen.path_pair.executed
        moved = 0
        index = 1
        while (
            moved < config.replan_interval
            and state.steps < config.step_budget
            and index < len(executed)
        ):
            old_pose = state.pose
            state.steps += 1
            new_pose, collided = execute_step(
                state.world, state.belief, state.pose, executed, index,
                config.sensor, step=state.steps,
            )
            state.pose = new_pose
            state.distance_m += math.hypot(
                new_pose[0] - old_pose[0], new_pose[1] - old_pose[1]
            ) * state.world.cell_size
            if collided:
                state.collisions += 1
            state.events.append({
                "type": "step", "step": state.steps, "pose": list(state.pose),
                "covered_m2": state.coverage_m2(),
                "distance_m": state.distance_m, "collision": collided,
            })
            if state.steps % config.metrics_interval == 0:
                state.snapshot_interval()
            moved += 1
            index += 1
            if collided:
                break
            if state.coverage_done():
                break
        if moved == 0:
            stall_cycles += 1
            if stall_cycles >= 3:
                termination = "stalled"
                break
        else:
            stall_cycles = 0
    else:
        termination = "budget"
    if state.coverage_done() and termination == "budget":
        termination = "full_coverage"

    if not state.intervals or state.intervals[-1]["step"] != state.steps:
        state.snapshot_interval()
    state.events.append({
        "type": "end", "termination": termination,
        "final_coverage_m2": state.coverage_m2(), "steps": state.steps,
        "collisions": state.collisions, "cycles": state.cycle,
    })

    record = RunRecord(
        config_hash=chash,
        planner=config.planner,
        intervals=state.intervals,
        final_coverage_m2=state.coverage_m2(),
        total_steps=state.steps,
        distance_m=state.distance_m,
        collisions=state.collisions,
        cycles=state.cycle,
        termination=termination,
        wall_time_s=time.perf_counter() - start_time,
        events=state.events,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        events_path = out / "events.ndjson"
        events_path.write_text(events_to_ndjson(record.events), encoding="utf-8")
        record.events_path = str(events_path)
        (out / "runrecord.json").write_text(
            json.dumps(_jsonable(record.to_dict()), sort_keys=True, indent=2),
            encoding="utf-8",
        )
    return record


# ---------------------------------------------------------------------------
# Batch
# ---------------------------------------------------------------------------

def _episode_job(args: tuple[dict, int, str | None]) -> dict:
    doc, rep, out_dir = args
    try:
        config = config_from_dict(doc)
        config.world.seed = config.world.seed + rep
        record = run_episode(config, out_dir=out_dir)
        return {"ok": True, "record": record.to_dict(), "rep": rep}
    except Exception as exc:  # noqa: BLE001 - batch keeps going per contract
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "rep": rep}


def run_batch(
    configs: list[RunConfig],
    repetitions: int = 1,
    parallelism: int = 1,
    out_dir: str | None = None,
) -> tuple[list[dict], list[dict]]:
    """Run every (config x repetition) episode; repetition r offsets the world
    seed by r. Individual failures are recorded and the batch continues.
    Returns (results, summary_rows)."""
    jobs = []
    for idx, config in enumerate(configs):
        for rep in range(repetitions):
            job_dir = None
            if out_dir is not None:
                job_dir = str(Path(out_dir) / f"config{idx:03d}_rep{rep:02d}")
            jobs.append((idx, (asdict(config), rep, job_dir)))

    results: list[dict] = [None] * len(jobs)  # type: ignore[list-item]
    if parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            for slot, outcome in enumerate(pool.map(_episode_job, [j[1] for j in jobs])):
                results[slot] = outcome
    else:
        for slot, (_, args) in enumerate(jobs):
            results[slot] = _episode_job(args)

    by_config: dict[int, list[dict]] = {}
    for (idx, _), outcome in zip(jobs, results):
        outcome["config_index"] = idx
        by_config.setdefault(idx, []).append(outcome)

    summary = []
    for idx, config in enumerate(configs):
        outcomes = by_config.get(idx, [])
        records = [o["record"] for o in outcomes if o["ok"]]
        summary.extend(_summarize_config(idx, config, records))
    return results, summary


def _summarize_config(idx: int, config: RunConfig, records: list[dict]) -> list[dict]:
    if not records:
        return [{
            "config_index": idx, "planner": config.planner,
            "generator": config.world.generator, "world_seed": config.world.seed,
            "reps": 0, "step": 0, "sim_minutes": 0.0,
            "coverage_mean_m2": 0.0, "coverage_min_m2": 0.0, "coverage_max_m2": 0.0,
            "rate_mean_m2_per_min": 0.0,
        }]
    spm = max(config.steps_per_minute, 1)
    steps = sorted({iv["step"] for rec in records for iv in rec["intervals"]})
    rows = []
    for step in steps:
        values = []
        for rec in records:
            best = 0.0
            for iv in rec["intervals"]:
                if iv["step"] <= step:
                    best = iv["covered_m2"]
                else:
                    break
            values.append(best)
        minutes = step / spm
        rates = []
        for rec in records:
            total_min = max(rec["total_steps"], 1) / spm
            rates.append(rec["final_coverage_m2"] / total_min)
        rows.append({
            "config_index": idx, "planner": config.planner,
            "generator": config.world.generator, "world_seed": config.world.seed,
            "reps": len(records), "step": step, "sim_minutes": minutes,
            "coverage_mean_m2": float(np.mean(values)),
            "coverage_min_m2": float(np.min(values)),
            "coverage_max_m2": float(np.max(values)),
            "rate_mean_m2_per_min": float(np.mean(rates)),
        })
    return rows


SUMMARY_COLUMNS = [
    "config_index", "planner", "generator", "world_seed", "reps", "step",
    "sim_minutes", "coverage_mean_m2", "coverage_min_m2", "coverage_max_m2",
    "rate_mean_m2_per_min",
]


def write_summary_csv(summary: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in summary:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    ok: bool
    truncated: bool
    cycles: int
    steps: int
    score_mismatches: int
    warnings: list[str]
    config: dict


def replay(log_path: str, verify: bool = False, tolerance: float = 1e-9) -> ReplayResult:
    """Reconstruct an episode from its event log.

    Checks the schema version, recomputes every logged decision score from its
    factor values, and verifies coverage monotonicity. A truncated log (no end
    event) replays partially with a warning. With verify=True the episode is
    re-run from the embedded config and the regenerated event stream must
    match byte for byte.
    """
    lines = Path(log_path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ReplayError("empty event log")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ReplayError(f"corrupt header line: {exc}") from exc
    if header.get("type") != "header":
        raise ReplayError("first event is not a header")
    if header.get("version") != EVENT_SCHEMA_VERSION:
        raise ReplayError(
            f"unsupported event schema version {header.get('version')!r}"
        )
    config_doc = header["config"]
    switch = config_doc.get("switch", {})
    eps_j = switch.get("epsilon_j", 1e-3)
    eps_d = switch.get("epsilon_d", 1e-3)

    warnings: list[str] = []
    cycles = 0
    steps = 0
    mismatches = 0
    last_coverage = -1.0
    saw_end = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            warnings.append(f"line {lineno}: truncated or corrupt event, stopping")
            break
        etype = event.get("type")
        if etype == "cycle":
            cycles += 1
            decision = event.get("decision")
            if decision:
                for scope, info in decision.get("candidates", {}).items():
                    p = info["found_count"] / (
                        max(info["risk"], eps_j) * max(info["discrepancy"], eps_d)
                    )
                    if abs(p * info["utility"] - info["score"]) > tolerance:
                        mismatches += 1
                        warnings.append(
                            f"line {lineno}: {scope} score mismatch"
                        )
        elif etype == "step":
            steps += 1
            cov = event.get("covered_m2", 0.0)
            if cov + 1e-12 < last_coverage:
                mismatches += 1
                warnings.append(f"line {lineno}: coverage decreased")
            last_coverage = max(last_coverage, cov)
        elif etype == "end":
            saw_end = True
    if not saw_end:
        warnings.append("log is truncated: no end event")

    if verify:
        config = config_from_dict(config_doc)
        rerun = run_episode(config)
        regenerated = events_to_ndjson(rerun.events)
        original = Path(log_path).read_text(encoding="utf-8")
        if saw_end and regenerated != original:
            mismatches += 1
            warnings.append("verify: regenerated event stream differs")

    return ReplayResult(
        ok=mismatches == 0,
        truncated=not saw_end,
        cycles=cycles,
        steps=steps,
        score_mismatches=mismatches,
        warnings=warnings,
        config=config_doc,
    )


# ---------------------------------------------------------------------------
# Generator registry (read by build_world, config_from_dict and gen-world)
# ---------------------------------------------------------------------------

def _scenario_switchback_world(seed: int) -> WorldModel:
    """A long corridor to a distant frontier passing a side pocket that is
    invisible until the robot gets close: en-route local coverage appears
    after the robot commits to the far goal. The layout is fixed; seed is
    ignored."""
    h, w = 21, 46
    occ = np.full((h, w), gw.OBSTACLE, dtype=np.uint8)
    occ[9:12, 1:45] = gw.FREE          # main corridor
    occ[2:8, 24:33] = gw.FREE          # side pocket
    occ[8, 28] = gw.FREE               # one-cell shaft into the pocket
    occ[2:19, 38:45] = gw.FREE         # far room
    return gw.make_world(
        occ, spawn=(10, 3), rng_seed=0, generator="scenario_switchback",
        params={"precover": [[8, 1, 13, 38]]},
    )


def _scenario_riskpocket_world(seed: int) -> WorldModel:
    """A high-risk cluttered pocket around the robot with uncovered cells,
    plus a clean distant frontier: the risky local policy wins the score but
    trips the risk threshold. The layout is fixed; seed is ignored."""
    h, w = 25, 40
    occ = np.full((h, w), gw.OBSTACLE, dtype=np.uint8)
    occ[6:15, 2:13] = gw.FREE          # pocket
    occ[9:12, 13:31] = gw.FREE         # corridor out
    occ[4:17, 31:39] = gw.FREE         # far area
    # clutter inside the pocket
    for r, c in ((7, 5), (8, 9), (11, 4), (12, 8), (13, 11), (6, 11)):
        occ[r, c] = gw.OBSTACLE
    mu = np.zeros((h, w))
    sigma = np.zeros((h, w))
    mu[6:15, 2:13] = 1.2
    sigma[6:15, 2:13] = 0.3
    return gw.make_world(
        occ, spawn=(10, 6), risk_mu=mu, risk_sigma=sigma, rng_seed=0,
        generator="scenario_riskpocket",
        params={"precover": [[8, 2, 13, 10], [9, 13, 12, 30]]},
    )


# generator name -> (builder, the params it accepts with their defaults); a
# builder is called as builder(seed, **params)
GENERATORS = {
    "subway": (gw.generate_subway, {
        "rooms": 5, "room_size_range": (6.0, 10.0), "cell_size": gw.DEFAULT_CELL_SIZE,
    }),
    "maze": (gw.generate_maze, {
        "width": 51, "height": 51, "deadend_fraction": 1.0, "cell_size": gw.DEFAULT_CELL_SIZE,
    }),
    "cave": (gw.generate_cave, {
        "width": 51, "height": 51, "risk_intensity": 0.5, "cell_size": gw.DEFAULT_CELL_SIZE,
    }),
    "scenario_switchback": (_scenario_switchback_world, {}),
    "scenario_riskpocket": (_scenario_riskpocket_world, {}),
}
