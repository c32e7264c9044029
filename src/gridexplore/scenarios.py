"""Scripted regression scenarios for the two switching behaviors.

Scenario "switchback": en route to a distant frontier the robot passes a
pocket of uncovered local area; the switching planner must pick a local
policy before reaching the frontier, while the fixed-precedence baseline
stays committed to the frontier the whole way.

Scenario "riskpocket": the robot sits in a cluttered high-risk pocket with
coverable cells while a clean frontier waits far away; the switching planner
must trip its risk threshold and relocate, while the baseline keeps grinding
the risky local plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import world as gw
from .harness import RunConfig, RunRecord, SwitchSettings, WorldSpec, run_episode

Cell = tuple[int, int]


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _cycle_events(record: RunRecord) -> list[dict]:
    return [ev for ev in record.events if ev.get("type") == "cycle"]


def count_local_switches_before_arrival(
    record: RunRecord, commit_distance_cells: float
) -> int:
    """Cycles that chose a local policy while a previously chosen global goal
    was still more than the commit distance away."""
    active_goal: Cell | None = None
    count = 0
    for ev in _cycle_events(record):
        pose = ev.get("pose")
        if active_goal is not None and pose is not None:
            d = math.hypot(pose[0] - active_goal[0], pose[1] - active_goal[1])
            if d <= commit_distance_cells:
                active_goal = None
        chosen = ev.get("chosen")
        if chosen == "global":
            goal = ev.get("goal")
            if goal:
                active_goal = (goal[0], goal[1])
        elif chosen == "local" and active_goal is not None:
            count += 1
    return count


def count_overrides(record: RunRecord, reason: str | None = None) -> int:
    count = 0
    for ev in _cycle_events(record):
        decision = ev.get("decision")
        if not decision or not decision.get("override_fired"):
            continue
        if reason is None or decision.get("override_reason") == reason:
            count += 1
    return count


def switchback_config(planner: str) -> RunConfig:
    return RunConfig(
        world=WorldSpec(generator="scenario_switchback", seed=0),
        planner=planner,
        step_budget=240,
    )


def riskpocket_config(planner: str) -> RunConfig:
    return RunConfig(
        world=WorldSpec(generator="scenario_riskpocket", seed=0),
        planner=planner,
        step_budget=240,
        switch=SwitchSettings(j_max=2.0),
    )


def run_switchback() -> ScenarioResult:
    mldm = run_episode(switchback_config("MLDM"))
    hcp = run_episode(switchback_config("HCP"))
    commit_cells = switchback_config("MLDM").hcp_commit_distance / gw.DEFAULT_CELL_SIZE
    mldm_switches = count_local_switches_before_arrival(mldm, commit_cells)
    hcp_switches = count_local_switches_before_arrival(hcp, commit_cells)
    passed = mldm_switches >= 1 and hcp_switches == 0
    return ScenarioResult(
        name="switchback_global_to_local",
        passed=passed,
        details={
            "mldm_early_local_switches": mldm_switches,
            "hcp_early_local_switches": hcp_switches,
            "mldm_coverage_m2": mldm.final_coverage_m2,
            "hcp_coverage_m2": hcp.final_coverage_m2,
        },
    )


def run_riskpocket() -> ScenarioResult:
    mldm = run_episode(riskpocket_config("MLDM"))
    hcp = run_episode(riskpocket_config("HCP"))
    risk_overrides = count_overrides(mldm, reason="J_exceeded")
    hcp_cycles = _cycle_events(hcp)
    hcp_first_local = bool(hcp_cycles) and hcp_cycles[0].get("chosen") == "local"
    hcp_overrides = count_overrides(hcp)
    passed = risk_overrides >= 1 and hcp_first_local and hcp_overrides == 0
    return ScenarioResult(
        name="riskpocket_local_to_global",
        passed=passed,
        details={
            "mldm_risk_overrides": risk_overrides,
            "hcp_kept_local_first": hcp_first_local,
            "hcp_overrides": hcp_overrides,
            "mldm_coverage_m2": mldm.final_coverage_m2,
            "hcp_coverage_m2": hcp.final_coverage_m2,
        },
    )


def scenario_regressions() -> list[ScenarioResult]:
    """Run both scripted scenarios and report pass/fail per scenario."""
    return [run_switchback(), run_riskpocket()]
