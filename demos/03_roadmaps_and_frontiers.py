"""Build the two-layer information roadmap from a partially explored belief.

The local layer is a dense lattice around the robot whose nodes carry
expected new-coverage gain; the global layer is the breadcrumb trail plus
frontier nodes marking the boundary of unknown space.
"""
from gridexplore import (
    BeliefGrid, RiskField, build_local_irm, detect_frontiers, generate_maze,
    graph_to_dict, sense, update_global_irm,
)
from gridexplore.roadmap import BREADCRUMB, FRONTIER

world = generate_maze(seed=3, width=31, height=31)
belief = BeliefGrid.for_world(world)
risk = RiskField.for_world(world)

# explore a little first: follow the corridor for 14 cells, sensing as we go
pose = world.spawn
global_graph = None
visited = [pose]
for _ in range(14):
    sense(world, belief, pose)
    global_graph = update_global_irm(global_graph, belief, risk, pose,
                                     breadcrumb_spacing=2.0, min_cluster=1)
    options = [n for n in ((pose[0], pose[1] + 1), (pose[0] + 1, pose[1]),
                           (pose[0], pose[1] - 1), (pose[0] - 1, pose[1]))
               if world.is_free(*n) and n not in visited]
    if not options:
        break
    pose = options[0]
    visited.append(pose)

# the local lattice is arrays: node gains, and CSR moves (an edge is a move
# each way); it keeps the cells of the 10 m disk that a walk of 10 nodes can
# reach, each under its id among all the disk's cells, so ids may skip
local = build_local_irm(belief, risk, pose, radius=10.0, horizon=10)
print(f"local IRM around {pose}: {len(local.nodes)} nodes within 9 moves "
      f"(ids {local.nodes.min()}-{local.nodes.max()}), {len(local.targets) // 2} edges")
gainful = local.gains[local.gains > 0]
print(f"  {len(gainful)} nodes expect new coverage; the best offers "
      f"{gainful.max():.2f} m^2")

frontiers = detect_frontiers(belief, min_cluster=1)
print(f"\nfrontier detection: {len(frontiers)} clusters on the unknown boundary")
for node in frontiers[:6]:
    print(f"  frontier at {node.pose} worth ~{node.info_gain:.2f} m^2")

crumbs = global_graph.nodes_of_kind(BREADCRUMB)
front = global_graph.nodes_of_kind(FRONTIER)
doc = graph_to_dict(global_graph)
print(f"\nglobal IRM after the {len(visited)}-cell traverse: "
      f"{len(crumbs)} breadcrumbs, {len(front)} attached frontiers, "
      f"{len(doc['edges'])} edges")

print(f"JSON dump carries {len(doc['nodes'])} nodes and {len(doc['edges'])} edges")
