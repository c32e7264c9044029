"""Coverage policy search: local receding-horizon walks, global frontier
selection, and the NBV / HFE baselines.

A policy is a walk over a roadmap graph. Rewards are collected per move:
coverage_weight times the entered node's info gain (zeroed on revisits within
the walk) minus distance_cost times the edge length, discounted by the scope's
gamma with the first move undiscounted.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .motion import astar, path_length, path_length_lower_bound
from .risk import RiskField, edge_risk, policy_risk
from .roadmap import FRONTIER, GLOBAL, LOCAL, ROBOT, RoadmapGraph, RoadmapNode
from .world import BeliefGrid, InvalidPoseError, SensorSpec, visible_unknown_counts
# not called here; kept as a module attribute because
# benchmark/layer_trace.py wraps planners.visible_unknown_count
from .world import visible_unknown_count  # noqa: F401

Cell = tuple[int, int]


@dataclass
class RewardModel:
    gamma_local: float = 0.95
    gamma_global: float = 0.9
    coverage_weight: float = 1.0
    distance_cost: float = 0.05  # per meter traveled

    def __post_init__(self) -> None:
        for g in (self.gamma_local, self.gamma_global):
            if not (0.0 < g <= 1.0):
                raise ValueError("discount factors must be in (0, 1]")
        # plan_nbv's bound on a viewpoint's score needs finite weights and a
        # travel cost that grows with distance
        if not math.isfinite(self.coverage_weight):
            raise ValueError("coverage_weight must be finite")
        if not (math.isfinite(self.distance_cost) and self.distance_cost >= 0.0):
            raise ValueError("distance_cost must be finite and >= 0")

    def gamma_for(self, scope: str) -> float:
        return self.gamma_local if scope == LOCAL else self.gamma_global


@dataclass
class Policy:
    scope: str
    node_sequence: list[int]
    edge_sequence: list[tuple[int, int]]
    utility: float
    risk: float
    created_at: int = 0
    step_rewards: list[float] = field(default_factory=list)
    goal_pose: Cell | None = None
    path_cells: list[Cell] | None = None

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "nodes": list(self.node_sequence),
            "edges": [list(e) for e in self.edge_sequence],
            "utility": self.utility,
            "risk": self.risk,
            "created_at": self.created_at,
            "step_rewards": list(self.step_rewards),
            "goal_pose": list(self.goal_pose) if self.goal_pose else None,
        }


def step_reward(
    node: RoadmapNode,
    accumulated_visited: set[int],
    reward_model: RewardModel,
    edge_in,
) -> float:
    """Reward for stepping onto node: its gain (zeroed if already visited in
    this rollout) minus the travel cost of the incoming edge. Marks the node
    visited in the accumulator."""
    gain = 0.0 if node.id in accumulated_visited else node.info_gain
    accumulated_visited.add(node.id)
    length = edge_in.length if edge_in is not None else 0.0
    return reward_model.coverage_weight * gain - reward_model.distance_cost * length


def discounted_utility(step_rewards, gamma: float) -> float:
    """Discounted sum of per-step rewards; the first step carries gamma^0."""
    return float(sum(r * gamma ** t for t, r in enumerate(step_rewards)))


def rollout_walk(
    graph: RoadmapGraph,
    node_ids: list[int],
    reward_model: RewardModel,
    scope: str,
) -> tuple[float, list[float]]:
    """Utility and per-move rewards of a concrete walk (first node is free)."""
    visited = {node_ids[0]}
    rewards = []
    for u, v in zip(node_ids, node_ids[1:]):
        edge = graph.get_edge(u, v)
        if edge is None:
            raise ValueError(f"walk uses missing edge ({u}, {v})")
        rewards.append(step_reward(graph.nodes[v], visited, reward_model, edge))
    return discounted_utility(rewards, reward_model.gamma_for(scope)), rewards


def plan_local(
    local_graph: RoadmapGraph,
    reward_model: RewardModel,
    horizon: int = 10,
    budget: int = 20000,
    created_at: int = 0,
) -> Policy | None:
    """Best-utility walk of at most `horizon` nodes from the robot node.

    Bounded best-first search over walks with revisit gain zeroing. The
    search is exhaustive whenever the walk space fits within the expansion
    budget; an optimistic remaining-gain bound prunes hopeless branches
    without affecting exactness. Returns None when no walk with at least one
    move has positive utility (nothing locally worth covering)."""
    robot = local_graph.robot_node()
    if robot is None:
        raise ValueError("local graph has no robot node")
    gamma = reward_model.gamma_for(LOCAL)
    w = reward_model.coverage_weight
    dc = reward_model.distance_cost
    total_gain = local_graph.total_info_gain()

    # per node: (neighbour, first-visit reward, revisit reward, gain), in
    # adjacency order; a walk has at most `horizon` nodes, so `nb in walk`
    # is the visited test
    moves = {}
    for u in local_graph.nodes:
        out = []
        for nb in local_graph.neighbors(u):
            length = local_graph.get_edge(u, nb).length
            gain = local_graph.nodes[nb].info_gain
            out.append((nb, w * gain - dc * length, w * 0.0 - dc * length, gain))
        moves[u] = out
    discount = [gamma ** depth for depth in range(max(horizon, 1))]

    best_utility = 0.0
    best_walk: tuple[int, ...] | None = None
    # heap entries: (-utility, walk, utility, remaining_gain); walks are
    # unique, so ties in utility are broken by the walk tuple
    heap: list[tuple[float, tuple[int, ...], float, float]] = [
        (0.0, (robot.id,), 0.0, total_gain - robot.info_gain)
    ]
    pop, push = heapq.heappop, heapq.heappush
    expansions = 0
    while heap and expansions < budget:
        _, walk, utility, rem_gain = pop(heap)
        expansions += 1
        n = len(walk)
        if n > 1 and utility > best_utility:
            best_utility = utility
            best_walk = walk
        if n >= horizon:
            continue
        if utility + w * rem_gain <= best_utility:
            continue
        g = discount[n - 1]  # gamma ** moves taken so far
        for nb, first_reward, revisit_reward, gain in moves[walk[-1]]:
            if nb in walk:
                new_u = utility + g * revisit_reward
                new_rem = rem_gain
            else:
                new_u = utility + g * first_reward
                new_rem = rem_gain - gain
            if new_u + w * new_rem <= best_utility:
                continue
            push(heap, (-new_u, walk + (nb,), new_u, new_rem))

    if best_walk is None or best_utility <= 0.0:
        return None
    best_walk = list(best_walk)
    utility, rewards = rollout_walk(local_graph, best_walk, reward_model, LOCAL)
    return _policy_over(
        local_graph, LOCAL, best_walk, utility, created_at, step_rewards=rewards,
        path_cells=[local_graph.nodes[i].pose for i in best_walk],
    )


def _policy_over(
    graph: RoadmapGraph,
    scope: str,
    nodes: list[int],
    utility: float,
    created_at: int,
    step_rewards: list[float] | None = None,
    path_cells: list[Cell] | None = None,
) -> Policy:
    """Policy for a node walk over graph, with its summed edge risk; the goal
    is the walk's last node."""
    policy = Policy(
        scope=scope,
        node_sequence=nodes,
        edge_sequence=list(zip(nodes, nodes[1:])),
        utility=utility,
        risk=0.0,
        created_at=created_at,
        step_rewards=step_rewards or [],
        goal_pose=graph.nodes[nodes[-1]].pose,
        path_cells=path_cells,
    )
    policy.risk = policy_risk(policy, graph)
    return policy


def _shortest_paths(graph: RoadmapGraph, source: int):
    """Dijkstra by metric length plus BFS hop counts from source."""
    dist = {source: 0.0}
    parent: dict[int, int] = {}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v in graph.neighbors(u):
            edge = graph.get_edge(u, v)
            nd = d + edge.length
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    hops = {source: 0}
    from collections import deque

    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return dist, parent, hops


def _path_from_parents(parent: dict[int, int], source: int, target: int) -> list[int]:
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path[::-1]


def _best_frontier(
    global_graph: RoadmapGraph,
    reward_model: RewardModel,
    robot_node: int,
    gamma: float,
    horizon: float,
    created_at: int,
) -> Policy | None:
    """Shortest-path policy to the frontier with the highest gamma^hops *
    coverage_weight * gain minus distance_cost times its shortest-path
    distance. Frontiers more than horizon hops away, or disconnected, are
    skipped; ties go to the lowest node id. None when no frontier qualifies."""
    if robot_node not in global_graph.nodes:
        raise ValueError(f"robot node {robot_node} not in global graph")
    frontiers = global_graph.nodes_of_kind(FRONTIER)
    if not frontiers:
        return None
    dist, parent, hops = _shortest_paths(global_graph, robot_node)
    best: tuple[float, int] | None = None
    for node in frontiers:
        if node.id not in dist or node.id == robot_node:
            continue
        if hops[node.id] > horizon:
            continue
        utility = (
            gamma ** hops[node.id] * reward_model.coverage_weight * node.info_gain
            - reward_model.distance_cost * dist[node.id]
        )
        if best is None or utility > best[0]:
            best = (utility, node.id)
    if best is None:
        return None
    utility, target = best
    nodes = _path_from_parents(parent, robot_node, target)
    return _policy_over(global_graph, GLOBAL, nodes, utility, created_at)


def plan_global(
    global_graph: RoadmapGraph,
    reward_model: RewardModel,
    robot_node: int,
    horizon: int = 20,
    created_at: int = 0,
) -> Policy | None:
    """Pick the best frontier by discounted gain minus travel cost: the
    frontier search with gamma_global and a hop horizon."""
    return _best_frontier(
        global_graph, reward_model, robot_node,
        gamma=reward_model.gamma_for(GLOBAL), horizon=horizon, created_at=created_at,
    )


def plan_nbv(
    belief: BeliefGrid,
    risk_field: RiskField,
    robot_pose: Cell,
    samples: int = 10,
    rng: np.random.Generator | None = None,
    radius: float = 8.0,
    sensor: SensorSpec | None = None,
    reward_model: RewardModel | None = None,
    risk_weight: float = 1.0,
    created_at: int = 0,
) -> Policy | None:
    """Next-best-view baseline: sample viewpoints near the robot, plan an A*
    path to each, score by gain minus travel cost, keep the argmax. Returns
    None when no reachable viewpoint scores positive.

    The argmax is exact branch and bound: a path is never shorter than the
    octile distance, so w * gain - distance_cost * octile bounds a
    viewpoint's score. Viewpoints are visited by falling bound, and A* runs
    only for one that can still win; the result is the first maximum of the
    positive scores in sampled-index order."""
    sensor = sensor or SensorSpec()
    reward_model = reward_model or RewardModel()
    rng = rng or np.random.default_rng(0)
    robot_pose = (int(robot_pose[0]), int(robot_pose[1]))
    radius_cells = radius / belief.cell_size
    free = np.argwhere(belief.state == 1)  # KNOWN_FREE
    if len(free) == 0:
        return None
    d = np.hypot(free[:, 0] - robot_pose[0], free[:, 1] - robot_pose[1])
    pool = free[(d <= radius_cells) & (d > 0)]
    if len(pool) == 0:
        return None
    pool = pool[np.lexsort((pool[:, 1], pool[:, 0]))]
    count = min(samples, len(pool))
    picks = rng.choice(len(pool), size=count, replace=False)
    if count == 0:
        return None
    if not belief.is_known_free(*robot_pose):
        raise InvalidPoseError(f"A* start {robot_pose!r} is not believed free")
    viewpoints = [(int(r), int(c)) for r, c in pool[np.sort(picks)]]
    cell_area = belief.cell_size * belief.cell_size
    w = reward_model.coverage_weight
    dc = reward_model.distance_cost
    gains = [n * cell_area for n in visible_unknown_counts(belief, viewpoints, sensor).tolist()]
    bounds = [
        w * gain - dc * path_length_lower_bound(robot_pose, vp, belief.cell_size)
        for gain, vp in zip(gains, viewpoints)
    ]

    best_score = 0.0
    best: tuple[int, list[Cell]] | None = None
    for k in sorted(range(count), key=lambda k: (-bounds[k], k)):
        if bounds[k] < best_score:
            break
        if bounds[k] == best_score and (best is None or k > best[0]):
            continue
        path = astar(belief, risk_field, robot_pose, viewpoints[k], risk_weight)
        if path is None:
            continue
        score = w * gains[k] - dc * path_length(path, belief.cell_size)
        if score > best_score or (score == best_score and best is not None and k < best[0]):
            best_score = score
            best = (k, path)
    if best is None:
        return None
    k, path = best
    vp = viewpoints[k]
    nodes = list(range(len(path)))
    edges = list(zip(nodes, nodes[1:]))
    total_risk = sum(edge_risk(risk_field, a, b) for a, b in zip(path, path[1:]))
    return Policy(
        scope=LOCAL,
        node_sequence=nodes,
        edge_sequence=edges,
        utility=best_score,
        risk=total_risk,
        created_at=created_at,
        step_rewards=[],
        goal_pose=vp,
        path_cells=path,
    )


def plan_hfe(
    global_graph: RoadmapGraph,
    reward_model: RewardModel,
    robot_node: int,
    created_at: int = 0,
) -> Policy | None:
    """Greedy frontier baseline: one-step look-ahead score gain minus travel
    cost, no discounting and no switching logic. This is the frontier search
    with gamma 1 (1.0 ** hops * w * gain is w * gain to the bit) and no hop
    horizon."""
    return _best_frontier(
        global_graph, reward_model, robot_node,
        gamma=1.0, horizon=math.inf, created_at=created_at,
    )
