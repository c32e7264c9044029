"""Two-layer information roadmap over the belief grid.

The local layer is a dense lattice of believed-free cells around the robot;
the global layer is a sparse trail of breadcrumbs dropped along the traveled
path plus frontier nodes at the boundary of unknown space. Node info gain is
the line-of-sight count of unknown cells within sensor range, converted to
square meters.
"""
from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import world as gw
from .risk import RiskField, edge_risk, edge_risks
from .world import BeliefGrid, SensorSpec, visible_unknown_counts
# not called here; kept as a module attribute because
# benchmark/layer_trace.py wraps roadmap.visible_unknown_count
from .world import visible_unknown_count  # noqa: F401

Cell = tuple[int, int]

ROBOT = "robot"
LATTICE = "lattice"
BREADCRUMB = "breadcrumb"
FRONTIER = "frontier"

LOCAL = "local"
GLOBAL = "global"

ROBOT_NODE_ID = -1

DEFAULT_LOCAL_RADIUS = 10.0
DEFAULT_BREADCRUMB_SPACING = 2.0
DEFAULT_MIN_CLUSTER = 3


class InvalidStateError(ValueError):
    """Roadmap construction asked for an impossible robot state."""


@dataclass
class RoadmapNode:
    id: int
    pose: Cell
    kind: str
    info_gain: float = 0.0


@dataclass
class RoadmapEdge:
    src: int
    dst: int
    length: float
    risk: float


@dataclass
class RoadmapGraph:
    scope: str
    horizon: int
    nodes: dict[int, RoadmapNode] = field(default_factory=dict)
    edges: dict[tuple[int, int], RoadmapEdge] = field(default_factory=dict)
    adjacency: dict[int, list[int]] = field(default_factory=dict)

    def add_node(self, node: RoadmapNode) -> None:
        self.nodes[node.id] = node
        self.adjacency.setdefault(node.id, [])

    def add_edge(self, src: int, dst: int, length: float, risk: float) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise ValueError(f"edge ({src}, {dst}) references missing node")
        if length <= 0:
            raise ValueError("edge length must be > 0")
        key = (src, dst) if src <= dst else (dst, src)
        self.edges[key] = RoadmapEdge(key[0], key[1], length, risk)
        if dst not in self.adjacency[src]:
            bisect.insort(self.adjacency[src], dst)
        if src not in self.adjacency[dst]:
            bisect.insort(self.adjacency[dst], src)

    def get_edge(self, u: int, v: int) -> RoadmapEdge | None:
        return self.edges.get((u, v) if u <= v else (v, u))

    def neighbors(self, u: int) -> list[int]:
        return self.adjacency.get(u, [])

    def nodes_of_kind(self, kind: str) -> list[RoadmapNode]:
        return [n for n in sorted(self.nodes.values(), key=lambda n: n.id) if n.kind == kind]

    def robot_node(self) -> RoadmapNode | None:
        for node in self.nodes.values():
            if node.kind == ROBOT:
                return node
        return None

    def total_info_gain(self) -> float:
        return float(sum(n.info_gain for n in self.nodes.values()))


def build_local_irm(
    belief: BeliefGrid,
    risk_field: RiskField,
    robot_pose: Cell,
    radius: float = DEFAULT_LOCAL_RADIUS,
    sensor: SensorSpec | None = None,
    horizon: int = 10,
) -> RoadmapGraph:
    """Dense 4-connected lattice over believed-free cells within radius of the
    robot, restricted to the robot's connected component. Nodes carry info
    gain, edges carry CVaR traversal risk."""
    sensor = sensor or SensorSpec()
    r0, c0 = int(robot_pose[0]), int(robot_pose[1])
    if not belief.is_known_free(r0, c0):
        raise InvalidStateError(f"robot pose {robot_pose!r} is not believed free")
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

    cells = sorted(members)
    graph = RoadmapGraph(scope=LOCAL, horizon=horizon)
    ids = {cell: i for i, cell in enumerate(cells)}
    cell_area = belief.cell_size * belief.cell_size
    counts = visible_unknown_counts(belief, cells, sensor).tolist()

    for cell, count in zip(cells, counts):
        kind = ROBOT if cell == (r0, c0) else LATTICE
        graph.add_node(RoadmapNode(id=ids[cell], pose=cell, kind=kind, info_gain=count * cell_area))

    edges = [
        (cell, nb) for cell in cells
        for nb in ((cell[0], cell[1] + 1), (cell[0] + 1, cell[1])) if nb in ids
    ]
    for (cell, nb), risk in zip(edges, edge_risks(risk_field, edges)):
        graph.add_edge(ids[cell], ids[nb], length=belief.cell_size, risk=risk)
    return graph


def detect_frontiers(
    belief: BeliefGrid,
    min_cluster: int = DEFAULT_MIN_CLUSTER,
) -> list[RoadmapNode]:
    """Frontier nodes: 8-connected clusters of believed-free cells adjacent to
    unknown space, one node per cluster at the member cell nearest the cluster
    centroid. Gain counts the cluster's distinct adjacent unknown cells."""
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

    labels, n_clusters = gw.label_components(frontier_mask, diagonal=True)
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


def update_global_irm(
    graph: RoadmapGraph | None,
    belief: BeliefGrid,
    risk_field: RiskField,
    robot_pose: Cell,
    breadcrumb_spacing: float = DEFAULT_BREADCRUMB_SPACING,
    min_cluster: int = DEFAULT_MIN_CLUSTER,
    horizon: int = 20,
) -> RoadmapGraph:
    """Rebuild the global roadmap: the breadcrumb trail (appending one when the
    robot moved at least breadcrumb_spacing from the last), current frontier
    nodes attached to their nearest reachable breadcrumb, and a robot node.
    Frontiers that cannot reach any breadcrumb through believed-free space are
    dropped so the graph stays connected."""
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

    # mesh nearby breadcrumbs with line-of-sight shortcuts so hop distances
    # reflect the metric layout rather than the order the trail was walked
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

    crumb_ids = {pose: i for i, pose in enumerate(crumbs)}

    frontiers = detect_frontiers(belief, min_cluster=min_cluster)
    frontiers.sort(key=lambda n: n.pose)
    next_id = len(crumbs)
    for node in frontiers:
        hit = _bfs_to_targets(belief, node.pose, crumb_ids)
        if hit is None:
            continue
        crumb_id, hops = hit
        fid = next_id
        next_id += 1
        out.add_node(RoadmapNode(id=fid, pose=node.pose, kind=FRONTIER, info_gain=node.info_gain))
        length = max(hops, 1) * cs
        out.add_edge(fid, crumb_id, length=length,
                     risk=edge_risk(risk_field, node.pose, crumbs[crumb_id]))

    hit = _bfs_to_targets(belief, robot_pose, crumb_ids)
    out.add_node(RoadmapNode(id=ROBOT_NODE_ID, pose=robot_pose, kind=ROBOT))
    if hit is not None:
        crumb_id, hops = hit
        if hops > 0:
            out.add_edge(ROBOT_NODE_ID, crumb_id, length=hops * cs,
                         risk=edge_risk(risk_field, robot_pose, crumbs[crumb_id]))
        else:
            # zero-length edges are not allowed; alias via a minimal-length link
            out.add_edge(ROBOT_NODE_ID, crumb_id, length=1e-6, risk=0.0)
    return out


def graph_to_dict(graph: RoadmapGraph) -> dict:
    return {
        "scope": graph.scope,
        "horizon": graph.horizon,
        "nodes": [
            {"id": n.id, "pose": [n.pose[0], n.pose[1]], "kind": n.kind,
             "info_gain": n.info_gain}
            for n in sorted(graph.nodes.values(), key=lambda n: n.id)
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "length": e.length, "risk": e.risk}
            for _, e in sorted(graph.edges.items())
        ],
    }
