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
from .roadmap import FRONTIER, GLOBAL, LOCAL, LocalLattice, RoadmapGraph
from .world import BeliefGrid, InvalidPoseError, SensorSpec, sum_left, visible_unknown_counts
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


def _local_moves(lattice: LocalLattice, w: float, dc: float):
    """The moves of a walk over the lattice, in two forms, over node
    positions:

    - moves[v]: (target, first-visit reward, revisit reward, target gain)
      per move of v, in CSR order;
    - target[v], best[v]: the same targets, and the larger of each move's
      two rewards, padded with -inf to the largest degree;
    - first, revisit: each move's two rewards, in CSR order;
    - scale: the largest reward magnitude."""
    n = len(lattice.nodes)
    indptr, dst, gains = lattice.indptr, lattice.targets, lattice.gains
    src = np.repeat(np.arange(n), np.diff(indptr))
    # elementwise float64: each reward is the one w * gain - dc * length gives
    first, revisit = w * gains[dst] - dc * lattice.lengths, w * 0.0 - dc * lattice.lengths

    flat = list(zip(dst.tolist(), first.tolist(), revisit.tolist(), gains[dst].tolist()))
    starts = indptr.tolist()
    moves = [flat[s:e] for s, e in zip(starts, starts[1:])]
    col = np.arange(len(src)) - indptr[src]
    width = int(col.max(initial=0)) + 1
    target = np.zeros((n, width), dtype=np.intp)
    best = np.full((n, width), -math.inf)
    target[src, col], best[src, col] = dst, np.maximum(first, revisit)
    scale = float(np.abs(np.concatenate([first, revisit])).max(initial=0.0))
    return moves, target, best, first, revisit, scale


def plan_local(
    local_graph: LocalLattice | RoadmapGraph,
    reward_model: RewardModel,
    horizon: int = 10,
    budget: int = 20000,
    created_at: int = 0,
) -> Policy | None:
    """Best-utility walk of at most `horizon` nodes from the robot node.

    A RoadmapGraph is searched as LocalLattice.from_graph(local_graph).
    Bounded best-first search over walks with revisit gain zeroing: walks
    are popped by utility, ties broken by the walk tuple, for at most
    `budget` pops. The search is exhaustive whenever the walk space fits
    within the budget; an optimistic remaining-gain bound (the node gains
    summed in id order) prunes hopeless branches without affecting
    exactness.

    The search also stops, exactly, as soon as no open walk can beat the
    best one. `future[k][v]` bounds the discounted reward any walk of at
    most k more moves from v can still collect: each move is scored at the
    larger of its first-visit and revisit reward, a walk may stop anywhere
    (floor 0), and a slack covers float rounding. A heap entry of n nodes
    ending at v carries `u + gamma^(n-1) * future[H-n][v]`, which bounds its
    own utility and that of every walk extending it. The best walk changes
    only when a popped walk's utility exceeds `best_utility`, so once no
    open bound exceeds it, no pop left in the budget can change the result,
    and stopping returns the policy the full budget would. The bound prunes
    nothing: pop order and budget truncation are those of the plain search.

    Returns None when no walk with at least one move has positive utility
    (nothing locally worth covering)."""
    lattice = local_graph
    if isinstance(local_graph, RoadmapGraph):
        lattice = LocalLattice.from_graph(local_graph)
    gamma = reward_model.gamma_for(LOCAL)
    w = reward_model.coverage_weight
    gains = lattice.gains.tolist()
    total_gain = sum_left(gains)

    # walks hold node positions, so walk tuples compare as the id tuples
    # would; a walk has at most `horizon` nodes, so `nb in walk` is the
    # visited test
    moves, target, best_reward, first, revisit, scale = _local_moves(
        lattice, w, reward_model.distance_cost)
    depth = max(horizon, 1)
    discount = [gamma ** d for d in range(depth)]
    future = [np.zeros(len(gains))]
    for _ in range(depth - 1):
        future.append(np.maximum((best_reward + gamma * future[-1][target]).max(axis=1), 0.0))
    # a utility sums at most `horizon` terms of magnitude <= scale, so its
    # rounding is about horizon^2 * scale * 1e-16, far below the slack
    slack = 1e-9 * depth * scale
    # tail[n][v]: the most a walk of n nodes ending at v can still add, plus
    # the slack
    tail = [None] + [(discount[n - 1] * future[depth - n] + slack).tolist()
                     for n in range(1, depth + 1)]

    best_utility = 0.0
    best_walk: tuple[int, ...] | None = None
    # heap entries: (-utility, walk, utility, remaining_gain, bound); walks
    # are unique, so ties in utility are broken by the walk tuple and the
    # bound never takes part in the ordering
    root = lattice.robot
    heap: list[tuple[float, tuple[int, ...], float, float, float]] = [
        (0.0, (root,), 0.0, total_gain - gains[root], tail[1][root])
    ]
    live = int(heap[0][4] > best_utility)  # open entries bounded above best_utility
    pop, push = heapq.heappop, heapq.heappush
    expansions = 0
    while live and expansions < budget:
        _, walk, utility, rem_gain, bound = pop(heap)
        expansions += 1
        if bound > best_utility:
            live -= 1
        n = len(walk)
        if n > 1 and utility > best_utility:
            best_utility = utility
            best_walk = walk
            live = sum(entry[4] > best_utility for entry in heap)
        if n >= horizon:
            continue
        if utility + w * rem_gain <= best_utility:
            continue
        g = discount[n - 1]  # gamma ** moves taken so far
        bounds = tail[n + 1]
        for nb, first_reward, revisit_reward, gain in moves[walk[-1]]:
            if nb in walk:
                new_u = utility + g * revisit_reward
                new_rem = rem_gain
            else:
                new_u = utility + g * first_reward
                new_rem = rem_gain - gain
            if new_u + w * new_rem <= best_utility:
                continue
            bound = new_u + bounds[nb]
            live += bound > best_utility
            push(heap, (-new_u, walk + (nb,), new_u, new_rem, bound))

    if best_walk is None or best_utility <= 0.0:
        return None
    # the CSR index of each move of the best walk, and the reward the
    # search added up for it
    walk = list(best_walk)
    indptr = lattice.indptr.tolist()
    at = [indptr[u] + lattice.targets[indptr[u]:indptr[u + 1]].tolist().index(v)
          for u, v in zip(walk, walk[1:])]
    rewards = [revisit.item(m) if walk[n] in walk[:n] else first.item(m)
               for n, m in enumerate(at, start=1)]
    nodes = lattice.nodes[walk].tolist()
    path_cells = [tuple(pose) for pose in lattice.poses[walk].tolist()]
    return Policy(
        scope=LOCAL,
        node_sequence=nodes,
        edge_sequence=list(zip(nodes, nodes[1:])),
        utility=best_utility,
        risk=sum_left(lattice.risks[at].tolist()),
        created_at=created_at,
        step_rewards=rewards,
        goal_pose=path_cells[-1],
        path_cells=path_cells,
    )


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
    policy = Policy(
        scope=GLOBAL, node_sequence=nodes, edge_sequence=list(zip(nodes, nodes[1:])),
        utility=utility, risk=0.0, created_at=created_at,
        goal_pose=global_graph.nodes[target].pose,
    )
    policy.risk = policy_risk(policy, global_graph)
    return policy


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
    return Policy(
        scope=LOCAL,
        node_sequence=nodes,
        edge_sequence=edges,
        utility=best_score,
        risk=sum_left(edge_risk(risk_field, a, b) for a, b in zip(path, path[1:])),
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
