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
from gridexplore.planners import Policy, RewardModel
from gridexplore.risk import COST_CAP_FACTOR, RiskField, edge_risk
from gridexplore.roadmap import (
    BREADCRUMB, DEFAULT_BREADCRUMB_SPACING, DEFAULT_MIN_CLUSTER, FRONTIER, GLOBAL, LATTICE, LOCAL,
    ROBOT, ROBOT_NODE_ID, RoadmapGraph, RoadmapNode,
)
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
    # score the walk again, move by move: the gain of a node entered for the
    # first time, minus the travel, discounted from the first move
    visited = {best_walk[0]}
    utility = 0.0
    rewards = []
    risk = 0.0
    for t, (u, v) in enumerate(edges):
        edge = local_graph.get_edge(u, v)
        gain = 0.0 if v in visited else local_graph.nodes[v].info_gain
        visited.add(v)
        reward = w * gain - reward_model.distance_cost * edge.length
        rewards.append(reward)
        utility += reward * gamma ** t
        risk += edge.risk
    return Policy(
        scope=LOCAL, node_sequence=best_walk, edge_sequence=edges, utility=utility,
        risk=risk, created_at=created_at, step_rewards=rewards,
        goal_pose=local_graph.nodes[best_walk[-1]].pose,
        path_cells=[local_graph.nodes[i].pose for i in best_walk],
    )


def _sight_lines(grid, blocking_value, pose, range_cells, occlusion,
                 arc=2.0 * math.pi, heading=0.0) -> list[Cell]:
    """Every on-grid cell other than pose within range_cells of it and within
    the arc about heading, whose Bresenham line from pose has no
    blocking_value cell between its endpoints (with occlusion on)."""
    h, w = grid.shape
    r0, c0 = int(pose[0]), int(pose[1])
    reach = int(range_cells) + 1
    seen = []
    for r in range(max(0, r0 - reach), min(h, r0 + reach + 1)):
        for c in range(max(0, c0 - reach), min(w, c0 + reach + 1)):
            dr, dc = r - r0, c - c0
            if (dr, dc) == (0, 0) or math.hypot(dr, dc) > range_cells + 1e-9:
                continue
            if arc < 2.0 * math.pi - 1e-12:
                diff = (math.atan2(dr, dc) - heading + math.pi) % (2.0 * math.pi) - math.pi
                if abs(diff) > arc / 2.0 + 1e-12:
                    continue
            interior = gw.bresenham_line(r0, c0, r, c)[1:-1]
            if occlusion and any(grid[cell] == blocking_value for cell in interior):
                continue
            seen.append((r, c))
    return seen


def visible_unknown_count(belief, pose, sensor) -> int:
    """One pose, one Bresenham line per target cell. Believed obstacles
    block; unknown space is see-through, and the arc is not used."""
    seen = _sight_lines(belief.state, gw.KNOWN_OBSTACLE, pose,
                        sensor.range_m / belief.cell_size, sensor.occlusion)
    return sum(1 for cell in seen if belief.state[cell] == gw.UNKNOWN)


def sense(world, belief, pose, sensor, heading=0.0):
    """One sensor sweep, one Bresenham line per target cell: a ground-truth
    obstacle blocks the cells behind it. Seen free cells become known and
    covered, seen obstacles known; the pose itself becomes known and covered."""
    r0, c0 = int(pose[0]), int(pose[1])
    if not world.is_free(r0, c0):
        raise gw.InvalidPoseError(f"pose {pose!r} is not a free in-bounds cell")
    seen = _sight_lines(world.occupancy, gw.OBSTACLE, (r0, c0),
                        sensor.range_m / world.cell_size, sensor.occlusion,
                        sensor.arc, heading)
    for cell in seen + [(r0, c0)]:
        if world.occupancy[cell] == gw.FREE:
            belief.state[cell] = gw.KNOWN_FREE
            belief.covered[cell] = True
        else:
            belief.state[cell] = gw.KNOWN_OBSTACLE
    return belief


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
                       COST_CAP_FACTOR * mu)
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
    nodes in cell order, then each cell's right and down edge, its risk
    computed uncached."""
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
                               risk=edge_risk_miss(risk_field, cell, nb))
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


# --- the DFS labelling that grid_bfs replaced, and a BFS over any step list --------

STEPS4 = ((1, 0), (-1, 0), (0, 1), (0, -1))
STEPS8 = STEPS4 + ((1, 1), (1, -1), (-1, 1), (-1, -1))


def bfs_order(mask: np.ndarray, start: Cell, steps) -> list[tuple[Cell, int]]:
    """(cell, depth) in discovery order of a breadth-first search over the
    True cells of mask from start, which is entered whatever its value,
    trying the (dr, dc) steps in the given order."""
    h, w = mask.shape
    order = [(start, 0)]
    seen = {start}
    queue = deque(order)
    while queue:
        (r, c), depth = queue.popleft()
        for dr, dc in steps:
            nb = (r + dr, c + dc)
            if nb not in seen and 0 <= nb[0] < h and 0 <= nb[1] < w and mask[nb]:
                seen.add(nb)
                order.append((nb, depth + 1))
                queue.append((nb, depth + 1))
    return order


def label_components(mask: np.ndarray, diagonal: bool = False) -> tuple[np.ndarray, int]:
    """Connected components of a boolean mask: (labels, count), with 0 for
    background and components numbered from 1 in raster order of their first
    cell. 4-connected, or 8-connected with diagonal=True. This is the
    numbering of scipy.ndimage.label with the matching structure."""
    h, w = mask.shape
    wp = w + 2
    padded = np.zeros((h + 2, wp), dtype=bool)
    padded[1:-1, 1:-1] = mask
    if diagonal:
        steps = (-wp - 1, -wp, -wp + 1, -1, 1, wp - 1, wp, wp + 1)
    else:
        steps = (-wp, -1, 1, wp)
    inside = padded.ravel().tolist()
    labels = [0] * len(inside)
    count = 0
    for first in np.flatnonzero(padded).tolist():
        if labels[first]:
            continue
        count += 1
        labels[first] = count
        stack = [first]
        while stack:
            i = stack.pop()
            for step in steps:
                j = i + step
                if inside[j] and not labels[j]:
                    labels[j] = count
                    stack.append(j)
    out = np.array(labels, dtype=np.int32).reshape(h + 2, wp)[1:-1, 1:-1]
    return out, count


# --- the global layer with one grid scan per frontier cluster and two crumb loops ---

def detect_frontiers(belief: BeliefGrid, min_cluster: int = DEFAULT_MIN_CLUSTER
                     ) -> list[RoadmapNode]:
    """Frontier clusters read one label at a time: a member mask, its mean,
    and a second mask of the cells 4-adjacent to the cluster."""
    state = belief.state
    free = state == gw.KNOWN_FREE
    unknown = state == gw.UNKNOWN
    adj_unknown = np.zeros_like(free)
    adj_unknown[1:, :] |= unknown[:-1, :]
    adj_unknown[:-1, :] |= unknown[1:, :]
    adj_unknown[:, 1:] |= unknown[:, :-1]
    adj_unknown[:, :-1] |= unknown[:, 1:]
    frontier_mask = free & adj_unknown
    if not frontier_mask.any():
        return []

    labels, n_clusters = label_components(frontier_mask, diagonal=True)
    cell_area = belief.cell_size * belief.cell_size
    nodes: list[RoadmapNode] = []
    next_id = 0
    for label in range(1, n_clusters + 1):
        member_mask = labels == label
        members = np.argwhere(member_mask)
        if len(members) < min_cluster:
            continue
        centroid = members.mean(axis=0)
        d2 = np.sum((members - centroid) ** 2, axis=1)
        best = members[np.lexsort((members[:, 1], members[:, 0], d2))[0]]
        # distinct unknown cells 4-adjacent to any member
        near = np.zeros_like(member_mask)
        near[1:, :] |= member_mask[:-1, :]
        near[:-1, :] |= member_mask[1:, :]
        near[:, 1:] |= member_mask[:, :-1]
        near[:, :-1] |= member_mask[:, 1:]
        gain = int(np.sum(near & unknown)) * cell_area
        nodes.append(RoadmapNode(
            id=next_id, pose=(int(best[0]), int(best[1])), kind=FRONTIER, info_gain=gain,
        ))
        next_id += 1
    return nodes


def update_global_irm(graph: RoadmapGraph | None, belief: BeliefGrid, risk_field: RiskField,
                      robot_pose: Cell, breadcrumb_spacing: float = DEFAULT_BREADCRUMB_SPACING,
                      min_cluster: int = DEFAULT_MIN_CLUSTER, horizon: int = 20) -> RoadmapGraph:
    """The global roadmap with the trail edges and the shortcuts added in two
    loops, the frontiers of detect_frontiers above attached by
    _bfs_to_targets, and a robot on a crumb aliased to it by a riskless link."""
    robot_pose = (int(robot_pose[0]), int(robot_pose[1]))
    cs = belief.cell_size
    crumbs: list[Cell] = []
    if graph is not None:
        crumbs = [n.pose for n in graph.nodes_of_kind(BREADCRUMB)]
    if not crumbs:
        crumbs = [robot_pose]
    else:
        last = crumbs[-1]
        dist_m = math.hypot(robot_pose[0] - last[0], robot_pose[1] - last[1]) * cs
        if dist_m >= breadcrumb_spacing - 1e-9:
            crumbs.append(robot_pose)

    out = RoadmapGraph(scope=GLOBAL, horizon=horizon)
    for i, pose in enumerate(crumbs):
        out.add_node(RoadmapNode(id=i, pose=pose, kind=BREADCRUMB))
    for i in range(1, len(crumbs)):
        a, b = crumbs[i - 1], crumbs[i]
        length = math.hypot(a[0] - b[0], a[1] - b[1]) * cs
        if length > 0:
            out.add_edge(i - 1, i, length=length, risk=edge_risk(risk_field, a, b))

    shortcut_radius = 2.0 * breadcrumb_spacing / cs
    for i in range(len(crumbs)):
        for j in range(i + 2, len(crumbs)):
            a, b = crumbs[i], crumbs[j]
            d = math.hypot(a[0] - b[0], a[1] - b[1])
            if d == 0 or d > shortcut_radius:
                continue
            segment = gw.bresenham_line(a[0], a[1], b[0], b[1])
            if all(belief.state[cell] == gw.KNOWN_FREE for cell in segment):
                out.add_edge(i, j, length=d * cs, risk=edge_risk(risk_field, a, b))

    crumb_at = {pose: i for i, pose in enumerate(crumbs)}
    frontiers = detect_frontiers(belief, min_cluster=min_cluster)
    frontiers.sort(key=lambda n: n.pose)
    next_id = len(crumbs)
    for node in frontiers:
        hit = _bfs_to_targets(belief, node.pose, crumb_at)
        if hit is None:
            continue
        crumb_id, hops = hit
        fid = next_id
        next_id += 1
        out.add_node(RoadmapNode(id=fid, pose=node.pose, kind=FRONTIER, info_gain=node.info_gain))
        out.add_edge(fid, crumb_id, length=max(hops, 1) * cs,
                     risk=edge_risk(risk_field, node.pose, crumbs[crumb_id]))

    hit = _bfs_to_targets(belief, robot_pose, crumb_at)
    out.add_node(RoadmapNode(id=ROBOT_NODE_ID, pose=robot_pose, kind=ROBOT))
    if hit is not None:
        crumb_id, hops = hit
        if hops > 0:
            out.add_edge(ROBOT_NODE_ID, crumb_id, length=hops * cs,
                         risk=edge_risk(risk_field, robot_pose, crumbs[crumb_id]))
        else:
            out.add_edge(ROBOT_NODE_ID, crumb_id, length=1e-6, risk=0.0)
    return out


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
