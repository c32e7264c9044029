"""One full planning cycle by hand: plan both coverage policies, evaluate
their execution factors, and watch the switching rule pick one.

The score of each candidate is h / (max(J, eps) * max(D, eps)) * U, where h
counts recent cycles that produced a policy for that scope, J is accumulated
edge risk, D is the reference-vs-executed path discrepancy, and U is the
discounted utility.
"""
import json
from dataclasses import asdict

from gridexplore import (
    BeliefGrid, Candidate, HistoryWindow, RewardModel, RiskField, SwitchConfig,
    build_local_irm, decide, generate_maze, make_path_pair,
    plan_global, plan_local, sense, update_global_irm,
)
from gridexplore.motion import KinodynamicSpec, astar, cells_to_waypoints
from gridexplore.roadmap import GLOBAL, LOCAL

world = generate_maze(seed=3, width=31, height=31)
belief = BeliefGrid.for_world(world)
risk = RiskField.for_world(world)
reward = RewardModel()
kino = KinodynamicSpec()

sense(world, belief, world.spawn)
local_graph = build_local_irm(belief, risk, world.spawn)
global_graph = update_global_irm(None, belief, risk, world.spawn, min_cluster=1)

local_policy = plan_local(local_graph, reward, horizon=10)
global_policy = plan_global(global_graph, reward, horizon=40)
print(f"local policy: {'found' if local_policy else 'none'}"
      + (f", U={local_policy.utility:.2f}, {len(local_policy.node_sequence)} nodes"
         if local_policy else ""))
print(f"global policy: {'found' if global_policy else 'none'}"
      + (f", U={global_policy.utility:.2f}, goal {global_policy.goal_pose}"
         if global_policy else ""))

window = HistoryWindow(window=10)
window.record(LOCAL, local_policy is not None)
window.record(GLOBAL, global_policy is not None)


def candidate_for(policy):
    if policy is None:
        return None
    cells = policy.path_cells or astar(belief, risk, world.spawn, policy.goal_pose)
    reference = cells_to_waypoints(cells, world.cell_size)
    return Candidate(policy=policy, path_pair=make_path_pair(reference, kino, belief))


decision = decide(candidate_for(local_policy), candidate_for(global_policy),
                  window, SwitchConfig(j_max=1.0, d_max=2.0))
print(f"\ndecision: execute the {decision.chosen} policy"
      + (" (threshold override fired: "
         f"{decision.override_reason})" if decision.override_fired else ""))
print("\nfull factor breakdown:")
print(json.dumps(asdict(decision), indent=2, sort_keys=True))
