"""Deterministic grid-world exploration simulator and planning library.

Builds occupancy worlds, maintains a two-layer information roadmap over the
robot's belief, plans local and global coverage policies, assigns CVaR
traversability risk to roadmap edges, and switches between the policy scopes
with a risk-aware score combining plan-history, risk, and kinodynamic
feasibility factors.
"""

from .world import (
    BeliefGrid, GenerationError, InvalidPoseError, SensorSpec, WorldModel,
    covered_area, generate_cave, generate_maze, generate_subway,
    save_world, sense, visible_unknown_count,
)
from .roadmap import (
    LocalLattice, RoadmapEdge, RoadmapGraph, RoadmapNode, build_local_irm, detect_frontiers,
    graph_to_dict, update_global_irm,
)
from .risk import RiskField, cvar, edge_risk, policy_risk
from .planners import (
    Policy, RewardModel, plan_global, plan_hfe, plan_local, plan_nbv,
)
from .motion import (
    KinodynamicSpec, PathPair, astar, discrepancy, execute_step,
    make_path_pair, smooth_kinodynamic,
)
from .switching import (
    Candidate, HistoryWindow, NoPolicyError, SwitchConfig, SwitchDecision,
    calibrate_j_max, choose, decide, execution_score, score_entry,
)
from .harness import (
    ReplayError, RunConfig, RunRecord, SwitchSettings, WorldSpec,
    config_from_dict, load_config, replay, run_batch, run_episode,
)
from .scenarios import ScenarioResult, scenario_regressions

__version__ = "0.1.0"

__all__ = [
    "BeliefGrid", "Candidate", "GenerationError", "HistoryWindow",
    "InvalidPoseError", "KinodynamicSpec", "LocalLattice", "NoPolicyError", "PathPair",
    "Policy", "ReplayError", "RewardModel", "RiskField", "RoadmapEdge",
    "RoadmapGraph", "RoadmapNode", "RunConfig", "RunRecord", "ScenarioResult",
    "SensorSpec", "SwitchConfig", "SwitchDecision", "SwitchSettings",
    "WorldModel", "WorldSpec", "astar", "build_local_irm", "calibrate_j_max", "choose",
    "config_from_dict", "covered_area", "cvar", "decide",
    "detect_frontiers", "discrepancy", "edge_risk",
    "execute_step", "execution_score", "generate_cave",
    "generate_maze", "generate_subway", "graph_to_dict", "load_config",
    "make_path_pair", "plan_global", "plan_hfe", "plan_local",
    "plan_nbv", "policy_risk", "replay", "run_batch",
    "run_episode", "save_world", "scenario_regressions", "score_entry", "sense",
    "smooth_kinodynamic", "update_global_irm",
    "visible_unknown_count",
]
