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
from gridexplore.motion import SQRT2, path_length
from gridexplore.planners import Policy, RewardModel, rollout_walk
from gridexplore.risk import RiskField, edge_risk
from gridexplore.roadmap import LATTICE, LOCAL, ROBOT, RoadmapGraph, RoadmapNode
from gridexplore.world import FREE, BeliefGrid, SensorSpec

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


def calibrate_j_max(world, risk_field: RiskField, horizon: int = 10,
                    seed: int = 0) -> tuple[float, dict]:
    """The threshold calibration with one uncached edge-risk computation per
    path edge, summed path by path. Also returns every edge risk it summed,
    keyed as the field's edge cache is."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0x4A]))
    h, w = world.height, world.width
    paths = []
    dirs = ((0, 1), (1, 0), (0, -1), (-1, 0))
    for _ in range(200):
        r = int(rng.integers(0, h))
        c = int(rng.integers(0, w))
        dr, dc = dirs[int(rng.integers(0, 4))]
        path = [(r, c)]
        for _step in range(max(horizon - 1, 1)):
            nxt = (path[-1][0] + dr, path[-1][1] + dc)
            if not (0 <= nxt[0] < h and 0 <= nxt[1] < w):
                break
            path.append(nxt)
        paths.append(path)
    risks = {}
    sums = []
    for path in paths:
        total = 0.0
        for cur, nxt in zip(path, path[1:]):
            risk = edge_risk_miss(risk_field, cur, nxt)
            risks[(cur, nxt) if cur <= nxt else (nxt, cur)] = risk
            total += risk
        sums.append(total)
    return max(float(np.percentile(np.asarray(sums), 95.0)), 1e-3), risks

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



def local_lattice(belief: BeliefGrid, risk_field: RiskField, robot_pose: Cell,
                  radius: float, sensor: SensorSpec, horizon: int = 10) -> RoadmapGraph:
    """The local lattice assembled one add_node and one add_edge at a time:
    nodes in cell order, then each cell's right and down edge."""
    cells = local_component(belief, robot_pose, radius)
    graph = RoadmapGraph(scope=LOCAL, horizon=horizon)
    ids = {cell: i for i, cell in enumerate(cells)}
    robot = (int(robot_pose[0]), int(robot_pose[1]))
    for cell, gain in zip(cells, lattice_gains(belief, cells, sensor)):
        kind = ROBOT if cell == robot else LATTICE
        graph.add_node(RoadmapNode(id=ids[cell], pose=cell, kind=kind, info_gain=gain))
    for cell in cells:
        for nb in ((cell[0], cell[1] + 1), (cell[0] + 1, cell[1])):
            if nb in ids:
                graph.add_edge(ids[cell], ids[nb], length=belief.cell_size,
                               risk=edge_risk(risk_field, cell, nb))
    return graph

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


# --- A* over (row, col) tuples and NBV with one A* per viewpoint -------------------
# plan_nbv calls this module's astar and visible_unknown_count, which equal the
# library's.

def _neighbors8(belief: BeliefGrid, r: int, c: int):
    """8-connected moves over believed-free cells; diagonals may not cut
    corners past a believed obstacle."""
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        if belief.is_known_free(r + dr, c + dc):
            yield (r + dr, c + dc), 1.0
    for dr, dc in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        if (
            belief.is_known_free(r + dr, c + dc)
            and belief.is_known_free(r + dr, c)
            and belief.is_known_free(r, c + dc)
        ):
            yield (r + dr, c + dc), SQRT2


def astar(
    belief: BeliefGrid,
    risk_field: RiskField,
    start: Cell,
    goal: Cell,
    risk_weight: float = 1.0,
) -> list[Cell] | None:
    """Minimal-cost 8-connected path through believed-free space.

    Edge cost is metric length plus risk_weight times the entered cell's mean
    terrain cost; the Euclidean heuristic ignores risk, so it stays
    admissible. Nodes are re-expanded on strict g-improvement, which makes the
    returned cost bit-identical to a Dijkstra run over the same grid.
    Returns None when the goal is unreachable (not a fault).
    """
    start = (int(start[0]), int(start[1]))
    goal = (int(goal[0]), int(goal[1]))
    if not belief.is_known_free(*start):
        raise gw.InvalidPoseError(f"A* start {start!r} is not believed free")
    if not belief.is_known_free(*goal):
        return None
    cs = belief.cell_size

    def heuristic(cell: Cell) -> float:
        return math.hypot(cell[0] - goal[0], cell[1] - goal[1]) * cs

    g_best: dict[Cell, float] = {start: 0.0}
    parent: dict[Cell, Cell] = {}
    open_heap: list[tuple[float, float, int, int]] = [
        (heuristic(start), 0.0, start[0], start[1])
    ]
    while open_heap:
        f, g, r, c = heapq.heappop(open_heap)
        cur = (r, c)
        if g > g_best.get(cur, math.inf):
            continue
        if cur == goal:
            path = [cur]
            while cur != start:
                cur = parent[cur]
                path.append(cur)
            return path[::-1]
        for nb, steps in _neighbors8(belief, r, c):
            ng = g + steps * cs + risk_weight * float(risk_field.mu[nb])
            if ng < g_best.get(nb, math.inf):
                g_best[nb] = ng
                parent[nb] = cur
                heapq.heappush(open_heap, (ng + heuristic(nb), ng, nb[0], nb[1]))
    return None


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
    None when no reachable viewpoint scores positive."""
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
    cell_area = belief.cell_size * belief.cell_size

    best_score = 0.0
    best: tuple[list[Cell], Cell] | None = None
    for idx in sorted(picks):
        vp = (int(pool[idx][0]), int(pool[idx][1]))
        path = astar(belief, risk_field, robot_pose, vp, risk_weight)
        if path is None:
            continue
        gain = visible_unknown_count(belief, vp, sensor) * cell_area
        score = (
            reward_model.coverage_weight * gain
            - reward_model.distance_cost * path_length(path, belief.cell_size)
        )
        if score > best_score:
            best_score = score
            best = (path, vp)
    if best is None:
        return None
    path, vp = best
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
