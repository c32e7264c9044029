"""Straightforward implementations that the library's fast paths replaced.

They are kept here, outside the package, as the reference the fast paths are
tested against: each must give the same result to the last bit.
"""
from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from gridexplore import world as gw
from gridexplore.planners import Policy, rollout_walk
from gridexplore.risk import RiskField
from gridexplore.roadmap import LOCAL, RoadmapGraph
from gridexplore.world import FREE, BeliefGrid

Cell = tuple[int, int]


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


# --- the four 4-connected BFS copies that grid_bfs replaced ------------------------

def flood_fill_free(occupancy: np.ndarray, start: Cell) -> np.ndarray:
    """4-connected reachability mask over free cells from start."""
    h, w = occupancy.shape
    mask = np.zeros((h, w), dtype=bool)
    r0, c0 = start
    if not (0 <= r0 < h and 0 <= c0 < w) or occupancy[r0, c0] != FREE:
        return mask
    mask[r0, c0] = True
    queue = deque([(r0, c0)])
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and not mask[nr, nc] and occupancy[nr, nc] == FREE:
                mask[nr, nc] = True
                queue.append((nr, nc))
    return mask


def local_component(belief: BeliefGrid, robot_pose: Cell, radius: float) -> list[Cell]:
    """The cells of the local lattice, as build_local_irm found them: the
    flood over believed-free cells within the radius disk, sorted."""
    r0, c0 = int(robot_pose[0]), int(robot_pose[1])
    radius_cells = radius / belief.cell_size

    # connected component of believed-free cells within the radius disk
    members: set[Cell] = {(r0, c0)}
    queue = deque([(r0, c0)])
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr, nc = r + dr, c + dc
            if (nr, nc) in members or not belief.is_known_free(nr, nc):
                continue
            if math.hypot(nr - r0, nc - c0) > radius_cells + 1e-9:
                continue
            members.add((nr, nc))
            queue.append((nr, nc))
    return sorted(members)


def _bfs_to_targets(
    belief: BeliefGrid,
    start: Cell,
    targets: dict[Cell, int],
) -> tuple[int, int] | None:
    """4-connected BFS to the nearest target, or None.

    Traverses everything that is not a believed obstacle: the global graph is
    optimistic about unknown space, since frontiers are by definition
    gateways into it. Diagonal-ray sensing can otherwise leave known-free
    islands whose frontiers would never attach to the graph."""
    if start in targets:
        return targets[start], 0
    h, w = belief.state.shape

    def passable(r: int, c: int) -> bool:
        return 0 <= r < h and 0 <= c < w and belief.state[r, c] != gw.KNOWN_OBSTACLE

    if not passable(*start):
        return None
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        (r, c), d = queue.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (r + dr, c + dc)
            if nb in seen or not passable(*nb):
                continue
            if nb in targets:
                return targets[nb], d + 1
            seen.add(nb)
            queue.append((nb, d + 1))
    return None


def _nearest_reachable_to(state: _EpisodeState, goal: Cell) -> Cell:
    """Believed-free cell in the robot's component closest to goal (squared
    Euclidean, ties row-major)."""
    from collections import deque

    belief = state.belief
    start = state.pose
    best = start
    best_d = (start[0] - goal[0]) ** 2 + (start[1] - goal[1]) ** 2
    seen = {start}
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (r + dr, c + dc)
            if nb in seen or not belief.is_known_free(*nb):
                continue
            seen.add(nb)
            queue.append(nb)
            d = (nb[0] - goal[0]) ** 2 + (nb[1] - goal[1]) ** 2
            if d < best_d or (d == best_d and nb < best):
                best_d = d
                best = nb
    return best
