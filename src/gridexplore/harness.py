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
from collections import deque
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import world as gw
from .motion import KinodynamicSpec, astar, cells_to_waypoints, execute_step, make_path_pair
from .planners import (
    Policy, RewardModel, plan_global, plan_hfe, plan_local, plan_nbv,
)
from .risk import RiskField
from .roadmap import (
    GLOBAL, LOCAL, RoadmapGraph, attach_frontiers, build_local_irm, grow_trail,
    update_global_irm,
)
from .switching import (
    Candidate, HistoryWindow, SwitchConfig, calibrate_j_max, choose, decide, score_entry,
)
from .world import GENERATORS, BeliefGrid, SensorSpec, WorldModel

EVENT_SCHEMA_VERSION = 1
# bumped by every change that moves what an episode does; a header without
# the "behaviour" key was written under behaviour 1
BEHAVIOUR_VERSION = 3

Cell = tuple[int, int]

# the longest local walk a config may ask for: plan_local keeps a bound list
# per depth, so a horizon of 10**6 runs out of memory, and a walk may revisit
# nodes, so a lattice's node count does not bound it
MAX_HORIZON_LOCAL = 1000
# the longest sensor range a config may ask for: each pose's sensor window
# holds (2 * range / cell_size + 1)^2 cells, and the ray table behind it is
# built in Python, one Bresenham line per target
MAX_SENSOR_RANGE_M = 20.0


class ConfigError(ValueError):
    """Run configuration is invalid."""


class ReplayError(RuntimeError):
    """Event log cannot be replayed (unreadable file, bad schema or corrupt
    header)."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class WorldSpec:
    generator: str = "maze"
    seed: int = 0
    params: dict = field(default_factory=dict)


@dataclass
class SwitchSettings(SwitchConfig):
    j_max: float | None = None  # None: calibrate from the world's risk field

    def __post_init__(self) -> None:
        self.switch_config(1.0)  # SwitchConfig checks the ranges

    def switch_config(self, calibrated_j_max: float | None) -> SwitchConfig:
        """These settings as a SwitchConfig; calibrated_j_max stands in for
        a None j_max."""
        j_max = calibrated_j_max if self.j_max is None else self.j_max
        return SwitchConfig(**{**asdict(self), "j_max": j_max})


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
        for name in ("metrics_interval", "replan_interval", "expansion_budget", "nbv_samples",
                     "steps_per_minute", "horizon_local", "horizon_global", "risk_samples",
                     "min_frontier_cluster"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.horizon_local > MAX_HORIZON_LOCAL:
            raise ConfigError(f"horizon_local must be <= {MAX_HORIZON_LOCAL}")
        if self.sensor.range_m > MAX_SENSOR_RANGE_M:
            raise ConfigError(f"sensor.range_m must be <= {MAX_SENSOR_RANGE_M}")
        for name in ("local_radius", "nbv_radius", "breadcrumb_spacing"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ConfigError(f"{name} must be finite and > 0")
        # a negative astar_risk_weight makes negative-cost cycles, on which A*
        # never ends
        for name in ("astar_risk_weight", "hcp_commit_distance"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ConfigError(f"{name} must be finite and >= 0")
        if not 0 < self.coverage_done_fraction <= 1:
            raise ConfigError("coverage_done_fraction must be in (0, 1]")
        if not 0 < self.risk_alpha < 1:
            raise ConfigError("risk_alpha must be in (0, 1)")


def _from_dict(cls, doc, path: str):
    """cls built from doc: every key must be a field of cls, a field whose
    default is a dataclass is built the same way, and every other value must
    have its default's type (_matches_type). Nothing is converted."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path or 'document'} must be an object, "
                          f"got {type(doc).__name__}")
    defaults = cls()
    prefix = f"{path}." if path else ""
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(prefix + key for key in unknown)}")
    kwargs = {}
    for key, value in doc.items():
        default = getattr(defaults, key)
        if is_dataclass(default):
            value = _from_dict(type(default), value, prefix + key)
        elif not _matches_type(value, default):
            raise ConfigError(f"config value {prefix + key} must be like {default!r}, "
                              f"got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (OverflowError, ValueError) as exc:  # the range checks of cls itself
        raise ConfigError(str(exc)) from exc


def config_from_dict(doc: dict) -> RunConfig:
    """The run config doc describes, checked against the config dataclasses
    and the generator registry; ConfigError if doc is not valid."""
    config = _from_dict(RunConfig, doc, "")
    _builder(config.world)
    return config


def load_json(path: str):
    """The JSON document in a config file; ConfigError if the file cannot be
    read as UTF-8 text or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    return config_from_dict(load_json(path))


def config_hash(config: RunConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _numpy_to_json(obj):
    """json.dumps hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _field_dict(obj) -> dict:
    """A dataclass's fields as a plain dict that shares their values, where
    asdict would deep-copy them: for event payloads nothing mutates after
    they are logged."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def events_to_ndjson(events: list[dict]) -> str:
    return "".join(
        json.dumps(ev, sort_keys=True, separators=(",", ":"), default=_numpy_to_json) + "\n"
        for ev in events
    )


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------

def _matches_type(value, default) -> bool:
    """Whether value has the type of default: a bool only for a bool, an int
    also for a float, null or a real number for None, and for a tuple a list
    or tuple of the same length whose items match. Nothing is converted."""
    if isinstance(value, (bool, np.bool_)) or isinstance(default, bool):
        return isinstance(value, (bool, np.bool_)) and isinstance(default, bool)
    if default is None:
        return value is None or isinstance(value, numbers.Real)
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(default)
                and all(_matches_type(v, d) for v, d in zip(value, default)))
    if isinstance(default, int):
        return isinstance(value, numbers.Integral)
    if isinstance(default, float):
        return isinstance(value, numbers.Real)
    return isinstance(value, type(default))


def _builder(spec: WorldSpec):
    """The registered builder for spec. ConfigError for an unknown generator
    or a param that is unknown or does not have its default's type."""
    if spec.generator not in GENERATORS:
        raise ConfigError(f"unknown world generator {spec.generator!r}")
    builder, defaults = GENERATORS[spec.generator]
    unknown = set(spec.params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown params for generator {spec.generator!r}: "
                          f"{sorted(unknown)}; accepted: {sorted(defaults)}")
    for name, value in spec.params.items():
        if not _matches_type(value, defaults[name]):
            raise ConfigError(f"param {name!r} of generator {spec.generator!r} must be "
                              f"like {defaults[name]!r}, got {value!r}")
    return builder


def build_world(spec: WorldSpec) -> WorldModel:
    """The world spec describes; ConfigError for params its generator
    rejects, such as a maze narrower than 5 cells, or a world it cannot
    generate (a 5 x 5 cave at seed 7): the world depends on the spec alone."""
    builder = _builder(spec)
    try:
        return builder(spec.seed, **spec.params)
    except (ValueError, gw.GenerationError) as exc:
        raise ConfigError(f"generator {spec.generator!r}: {exc}") from exc


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

    def to_dict(self) -> dict:
        """Every field but the event list, which goes to events.ndjson."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "events"}


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
        calibrated = None
        if config.switch.j_max is None:
            calibrated = calibrate_j_max(
                self.world, self.risk_field,
                horizon=config.horizon_local, seed=self.world.rng_seed,
            )
        self.switch_config = config.switch.switch_config(calibrated)

    def coverage_m2(self) -> float:
        return gw.covered_area(self.belief)

    def coverage_done(self) -> bool:
        covered_free = np.count_nonzero(self.belief.covered)
        return covered_free >= self.config.coverage_done_fraction * self.reachable_free

    def step_event(self, collided: bool) -> dict:
        return {"type": "step", "step": self.steps, "pose": list(self.pose),
                "covered_m2": self.coverage_m2(), "distance_m": self.distance_m,
                "collision": collided}

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


# A planner builds only the roadmap layers it reads and returns the candidate
# to execute (or None), the candidates whose policies and paths are logged,
# and its own cycle-event fields.
PlanOutcome = tuple[Candidate | None, list[Candidate], dict]


def _update_global_graph(state: _EpisodeState) -> RoadmapGraph:
    """Update the global roadmap from the last one: its breadcrumb trail
    grows every cycle, the crumb layer it carries is extended, and the
    frontiers are attached again (see roadmap.Attachments)."""
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
        state.global_graph, config.reward,
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
    fields["decision"] = _field_dict(decision)
    return (local_cand if decision.chosen == LOCAL else global_cand), logged, fields


def _plan_hcp(state: _EpisodeState) -> PlanOutcome:
    """Fixed precedence: pursue the committed frontier goal until within the
    commit distance, else the local policy, else commit to a new frontier.
    The trail grows every cycle; frontiers are attached only on the cycles
    that plan globally."""
    config = state.config
    state.global_graph = grow_trail(
        state.global_graph, state.belief, state.risk_field, state.pose,
        breadcrumb_spacing=config.breadcrumb_spacing, horizon=config.horizon_global,
    )
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
            state.global_graph = attach_frontiers(
                state.global_graph, state.belief, state.risk_field, state.pose,
                min_cluster=config.min_frontier_cluster,
            )
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
    policy = plan_hfe(graph, state.config.reward, created_at=state.cycle)
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
        event["paths"] = {cand.scope: _field_dict(cand.path_pair) for cand in logged}
    return chosen, event


def run_episode(config: RunConfig, out_dir: str | None = None) -> RunRecord:
    """Run one episode to its step budget, full coverage, or a dead end."""
    start_time = time.perf_counter()
    state = _EpisodeState(config)
    chash = config_hash(config)
    state.events.append({
        "type": "header",
        "version": EVENT_SCHEMA_VERSION,
        "behaviour": BEHAVIOUR_VERSION,
        "config": asdict(config),
        "config_hash": chash,
        "j_max": state.switch_config.j_max,
        "reachable_free_cells": state.reachable_free,
    })
    gw.sense(state.world, state.belief, state.pose, config.sensor)
    state.events.append(state.step_event(False))
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
        while (
            moved < config.replan_interval
            and state.steps < config.step_budget
            and moved + 1 < len(executed)
        ):
            old_pose = state.pose
            state.steps += 1
            new_pose, collided = execute_step(
                state.world, state.belief, state.pose, executed, moved + 1, config.sensor,
            )
            state.pose = new_pose
            state.distance_m += math.hypot(
                new_pose[0] - old_pose[0], new_pose[1] - old_pose[1]
            ) * state.world.cell_size
            if collided:
                state.collisions += 1
            state.events.append(state.step_event(collided))
            if state.steps % config.metrics_interval == 0:
                state.snapshot_interval()
            moved += 1
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
            json.dumps(record.to_dict(), sort_keys=True, indent=2, default=_numpy_to_json),
            encoding="utf-8",
        )
    return record


# ---------------------------------------------------------------------------
# Batch
# ---------------------------------------------------------------------------

def _failure(exc: BaseException, rep: int) -> dict:
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "rep": rep}


def _episode_job(args: tuple[dict, int, str | None]) -> dict:
    doc, rep, out_dir = args
    try:
        config = config_from_dict(doc)
        config.world.seed = config.world.seed + rep
        record = run_episode(config, out_dir=out_dir)
        return {"ok": True, "record": record.to_dict(), "rep": rep}
    except Exception as exc:  # noqa: BLE001 - batch keeps going per contract
        return _failure(exc, rep)


def _run_pool(jobs: list[tuple], slots: list[int], workers: int, results: list) -> tuple:
    """Run jobs[slot] for each of slots in one fresh process pool, submitting
    one job at a time so that at most workers are in flight, and store each
    outcome in results[slot]. A dead worker breaks the pool: every job then
    in flight is recorded as failed and no further job is submitted. Returns
    (the slots of the jobs the broken pool failed, the slots never submitted)."""
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    queue = deque(slots)
    running: dict = {}
    broken: list[int] = []
    alive = True
    with ProcessPoolExecutor(max_workers=workers) as pool:
        while running or (alive and queue):
            while alive and queue and len(running) < workers:
                try:
                    running[pool.submit(_episode_job, jobs[queue[0]])] = queue[0]
                except BrokenProcessPool:
                    alive = False
                else:
                    queue.popleft()
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                slot = running.pop(future)
                try:
                    results[slot] = future.result()
                except BrokenProcessPool as exc:
                    alive = False
                    results[slot] = _failure(exc, jobs[slot][1])
                    broken.append(slot)
    return broken, list(queue)


def _run_parallel(jobs: list[tuple], workers: int) -> list[dict]:
    """Every job's outcome, in job order, from process pools of workers. A
    job that a broken pool failed runs once more, alone in a fresh pool, so
    a job that kills its worker fails only itself and the batch still ends."""
    results: list = [None] * len(jobs)
    todo = list(range(len(jobs)))
    while todo:
        broken, todo = _run_pool(jobs, todo, workers, results)
        for slot in broken:
            _run_pool(jobs, [slot], 1, results)
    return results


def run_batch(
    configs: list[RunConfig],
    repetitions: int = 1,
    parallelism: int = 1,
    out_dir: str | None = None,
) -> tuple[list[dict], list[dict]]:
    """Run every (config x repetition) episode in worker processes, at most
    parallelism and never more than there are episodes; repetition r offsets
    the world seed by r. Individual failures, a crashed worker included, are
    recorded and the batch continues. Returns (results, summary_rows).
    ConfigError if repetitions or parallelism is below 1."""
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    jobs = [
        (asdict(config), rep,
         None if out_dir is None else str(Path(out_dir) / f"config{idx:03d}_rep{rep:02d}"))
        for idx, config in enumerate(configs) for rep in range(repetitions)
    ]
    results = _run_parallel(jobs, min(parallelism, len(jobs)))

    summary = []
    for idx, config in enumerate(configs):
        outcomes = results[idx * repetitions:(idx + 1) * repetitions]
        for outcome in outcomes:
            outcome["config_index"] = idx
        summary.extend(_summarize_config(idx, config, [o["record"] for o in outcomes if o["ok"]]))
    return results, summary


def _summarize_config(idx: int, config: RunConfig, records: list[dict]) -> list[dict]:
    """One row per interval step of any record; without records, one row at
    step 0 with zero coverage."""
    spm = config.steps_per_minute
    rate_mean = float(np.mean([
        rec["final_coverage_m2"] / (max(rec["total_steps"], 1) / spm) for rec in records
    ])) if records else 0.0
    steps = sorted({iv["step"] for rec in records for iv in rec["intervals"]}) or [0]
    rows = []
    for step in steps:
        # each record's coverage at its last interval up to step
        values = [
            next((iv["covered_m2"] for iv in reversed(rec["intervals"]) if iv["step"] <= step), 0.0)
            for rec in records
        ] or [0.0]
        rows.append({
            "config_index": idx, "planner": config.planner,
            "generator": config.world.generator, "world_seed": config.world.seed,
            "reps": len(records), "step": step, "sim_minutes": step / spm,
            "coverage_mean_m2": float(np.mean(values)),
            "coverage_min_m2": float(np.min(values)),
            "coverage_max_m2": float(np.max(values)),
            "rate_mean_m2_per_min": rate_mean,
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
    steps: int  # the moves made: the last step event's step, 0 without one
    score_mismatches: int
    warnings: list[str]
    config: dict


def replay(log_path: str, verify: bool = False) -> ReplayResult:
    """Reconstruct an episode from its event log.

    Checks the schema version and re-derives every logged decision through
    switching: each entry must equal score_entry of its factors exactly
    (logged floats round-trip through JSON) and, when all do, choose over
    them must give the logged choice and override, and the cycle event the
    same cycle and choice. The header's config_hash must be the hash of its
    config, coverage must never decrease, and the end event's steps,
    collisions and final coverage must be those of the step events before
    it. Each miss, and each event of the wrong shape, is a mismatch with a
    warning that names its line. A truncated log (no end event)
    replays partially with a warning that is no mismatch. A log that cannot
    be read, or whose header is bad, raises ReplayError. With verify=True the
    episode is re-run from the embedded config and the regenerated event
    stream must match byte for byte: the whole stream for a complete log, its
    first bytes for a truncated one. A log recorded under another behaviour
    version is not re-run, and fails verification.
    """
    try:
        original = Path(log_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ReplayError(f"cannot read {log_path}: {exc}") from exc
    lines = original.splitlines()
    if not lines:
        raise ReplayError("empty event log")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ReplayError(f"corrupt header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("type") != "header":
        raise ReplayError("first event is not a header")
    if header.get("version") != EVENT_SCHEMA_VERSION:
        raise ReplayError(
            f"unsupported event schema version {header.get('version')!r}"
        )
    try:
        config = config_from_dict(header["config"])
        switch = config.switch.switch_config(header["j_max"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"header holds no valid config: {exc}") from exc

    warnings: list[str] = []
    notes = 0  # the warnings on truncation; every other one is a mismatch
    if header.get("config_hash") != config_hash(config):
        warnings.append("line 1: config_hash is not the hash of the header's config")
    cycles = 0
    steps = 0
    last_coverage = -1.0
    last_step = None
    collisions = 0
    saw_end = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            warnings.append(f"line {lineno}: truncated or corrupt event, stopping")
            notes += 1
            break
        try:
            etype = event.get("type")
            if etype == "cycle":
                cycles += 1
                decision = event.get("decision")
                if decision:
                    scored = {}
                    for scope, entry in decision["candidates"].items():
                        try:
                            scored[scope] = score_entry(entry, switch)
                        except ValueError:  # a negative factor
                            scored[scope] = None
                        if scored[scope] != entry:
                            warnings.append(f"line {lineno}: {scope} score mismatch")
                    logged = (decision["chosen"], decision["override_fired"], decision["override_reason"])
                    if scored == decision["candidates"] and (
                        choose(scored, switch) != logged
                        or (decision["cycle"], decision["chosen"]) != (event["cycle"], event["chosen"])
                    ):
                        warnings.append(f"line {lineno}: decision mismatch")
            elif etype == "step":
                steps = event["step"]
                cov = event.get("covered_m2", 0.0)
                # covered area is a cell count times one positive constant,
                # so it never decreases, in floats too
                if cov < last_coverage:
                    warnings.append(f"line {lineno}: coverage decreased")
                last_coverage = max(last_coverage, cov)
                last_step = event
                if event.get("collision"):
                    collisions += 1
            elif etype == "end":
                saw_end = True
                # no check on cycles: run_episode counts the cycle whose
                # max_cycles stall test ends the episode, but logs no event for it
                claimed = (event["steps"], event["collisions"], event["final_coverage_m2"])
                if claimed != (last_step["step"], collisions, last_step["covered_m2"]):
                    warnings.append(f"line {lineno}: end event disagrees with the step events")
        except (AttributeError, KeyError, TypeError) as exc:
            warnings.append(f"line {lineno}: malformed event ({type(exc).__name__}: {exc})")
    if not saw_end:
        warnings.append("log is truncated: no end event")
        notes += 1

    behaviour = header.get("behaviour", 1)
    if verify and behaviour != BEHAVIOUR_VERSION:
        warnings.append(f"recorded under behaviour {behaviour}; "
                        f"this build runs behaviour {BEHAVIOUR_VERSION}")
    elif verify:
        regenerated = events_to_ndjson(run_episode(config).events)
        matches = regenerated == original if saw_end else regenerated.startswith(original)
        if not matches:
            warnings.append("verify: regenerated event stream differs")

    mismatches = len(warnings) - notes
    return ReplayResult(
        ok=mismatches == 0,
        truncated=not saw_end,
        cycles=cycles,
        steps=steps,
        score_mismatches=mismatches,
        warnings=warnings,
        config=header["config"],
    )

