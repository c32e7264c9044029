"""Straightforward implementations that the library's fast paths replaced.

They are kept here, outside the package, as the reference the fast paths are
tested against: each must give the same result to the last bit.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from gridexplore import world as gw
from gridexplore.planners import Policy, rollout_walk
from gridexplore.risk import RiskField
from gridexplore.roadmap import LOCAL, RoadmapGraph


def plan_local(local_graph: RoadmapGraph, reward_model, horizon=10, budget=20000,
               created_at=0) -> Policy | None:
    """Best-first walk search with a frozenset of visited nodes and an edge
    lookup per expansion."""
    robot = local_graph.robot_node()
    gamma = reward_model.gamma_for(LOCAL)
    w = reward_model.coverage_weight
    total_gain = local_graph.total_info_gain()

    best_utility = 0.0
    best_walk = None
    root_rem = total_gain - robot.info_gain
    heap = [(0.0, (robot.id,), 0.0, root_rem, frozenset([robot.id]))]
    expansions = 0
    while heap and expansions < budget:
        neg_u, walk, utility, rem_gain, visited = heapq.heappop(heap)
        expansions += 1
        if len(walk) > 1 and utility > best_utility:
            best_utility = utility
            best_walk = list(walk)
        if len(walk) >= horizon:
            continue
        if utility + w * rem_gain <= best_utility:
            continue
        depth = len(walk) - 1
        cur = walk[-1]
        for nb in local_graph.neighbors(cur):
            edge = local_graph.get_edge(cur, nb)
            node = local_graph.nodes[nb]
            first_visit = nb not in visited
            gain = node.info_gain if first_visit else 0.0
            reward = w * gain - reward_model.distance_cost * edge.length
            new_u = utility + (gamma ** depth) * reward
            new_rem = rem_gain - gain
            if new_u + w * new_rem <= best_utility:
                continue
            heapq.heappush(heap, (
                -new_u, walk + (nb,), new_u, new_rem,
                visited | {nb} if first_visit else visited,
            ))

    if best_walk is None or best_utility <= 0.0:
        return None
    edges = list(zip(best_walk, best_walk[1:]))
    utility, rewards = rollout_walk(local_graph, best_walk, reward_model, LOCAL)
    risk = 0.0
    for u, v in edges:
        risk += local_graph.get_edge(u, v).risk
    return Policy(
        scope=LOCAL, node_sequence=best_walk, edge_sequence=edges, utility=utility,
        risk=risk, created_at=created_at, step_rewards=rewards,
        goal_pose=local_graph.nodes[best_walk[-1]].pose,
        path_cells=[local_graph.nodes[i].pose for i in best_walk],
    )


def visible_unknown_count(belief, pose, sensor) -> int:
    """One pose: gather every target and every chain cell, then count."""
    range_cells = sensor.range_m / belief.cell_size
    vr, vc = gw._visible_targets(
        belief.state, gw.KNOWN_OBSTACLE, (int(pose[0]), int(pose[1])),
        range_cells, sensor.occlusion,
    )
    return int(np.sum(belief.state[vr, vc] == gw.UNKNOWN))


def lattice_gains(belief, cells, sensor) -> list[float]:
    """The per-node gain loop of the local lattice: one count per cell,
    converted to square meters."""
    cell_area = belief.cell_size * belief.cell_size
    return [visible_unknown_count(belief, cell, sensor) * cell_area for cell in cells]


def edge_risk_miss(field: RiskField, a, b) -> float:
    """The uncached edge-risk computation: SeedSequence from a Python list,
    per-cell parameters gathered one by one, CVaR through ndarray.mean."""
    a = (int(a[0]), int(a[1]))
    b = (int(b[0]), int(b[1]))
    if a == b:
        return 0.0
    key = (a, b) if a <= b else (b, a)
    cells = gw.bresenham_line(key[0][0], key[0][1], key[1][0], key[1][1])
    if all(field.mu[r, c] == 0.0 for r, c in cells):
        return 0.0
    seq = np.random.SeedSequence(
        [field.seed & 0xFFFFFFFFFFFFFFFF, key[0][0], key[0][1], key[1][0], key[1][1]]
    )
    rng = np.random.default_rng(seq)
    mu = np.array([field.mu[r, c] for r, c in cells], dtype=np.float64)[:, None]
    sigma = np.array([field.sigma[r, c] for r, c in cells], dtype=np.float64)[:, None]
    z = rng.standard_normal((len(cells), field.sample_count))
    costs = np.minimum(mu * np.exp(sigma * z - 0.5 * sigma * sigma),
                       field.cost_cap_factor * mu)
    segment = costs.sum(axis=0)
    k = max(1, math.ceil((1.0 - field.alpha) * segment.size - 1e-9))
    tail = np.sort(segment)[::-1][:k]
    euclid = math.hypot(b[0] - a[0], b[1] - a[1])
    return float(tail.mean()) * euclid / (len(cells) - 1)
