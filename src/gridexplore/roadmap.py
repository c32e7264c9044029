"""Two-layer information roadmap over the belief grid.

The local layer is a dense lattice of believed-free cells around the robot;
the global layer is a sparse trail of breadcrumbs dropped along the traveled
path plus frontier nodes at the boundary of unknown space. Node info gain is
the line-of-sight count of unknown cells within sensor range, converted to
square meters.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import world as gw
from .risk import RiskField, edge_risk, unit_edge_risks
from .world import BeliefGrid, SensorSpec, sum_left, visible_unknown_counts
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
        return float(sum_left(node.info_gain for node in self.nodes.values()))


@dataclass(eq=False)
class LocalLattice:
    """A local roadmap as arrays. The node at position i has id nodes[i]
    (ids ascending), cell poses[i] and info gain gains[i]; the robot node is
    at position robot. Its moves go to the positions
    targets[indptr[i]:indptr[i + 1]], in ascending order, with each move's
    length and CVaR risk alongside. An edge is a move each way, a self-loop
    one move."""

    scope: str
    horizon: int
    nodes: np.ndarray
    poses: np.ndarray
    gains: np.ndarray
    robot: int
    indptr: np.ndarray
    targets: np.ndarray
    lengths: np.ndarray
    risks: np.ndarray

    @classmethod
    def from_graph(cls, graph: RoadmapGraph) -> "LocalLattice":
        """The lattice of a RoadmapGraph; its robot node is the first of kind
        ROBOT."""
        robot = graph.robot_node()
        if robot is None:
            raise ValueError("local graph has no robot node")
        ids = np.array(sorted(graph.nodes), dtype=np.intp)
        nodes = [graph.nodes[i] for i in ids.tolist()]
        edges = list(graph.edges.values())
        ends = np.array([(e.src, e.dst) for e in edges], dtype=np.intp).reshape(-1, 2)
        a, b = np.searchsorted(ids, ends[:, 0]), np.searchsorted(ids, ends[:, 1])
        lengths = np.array([e.length for e in edges], dtype=np.float64)
        risks = np.array([e.risk for e in edges], dtype=np.float64)
        back = a != b  # a self-loop is one move
        src, dst = np.concatenate([a, b[back]]), np.concatenate([b, a[back]])
        order = np.lexsort((dst, src))
        return cls(
            scope=graph.scope, horizon=graph.horizon, nodes=ids,
            poses=np.array([n.pose for n in nodes], dtype=np.intp).reshape(-1, 2),
            gains=np.array([n.info_gain for n in nodes], dtype=np.float64),
            robot=int(np.searchsorted(ids, robot.id)),
            indptr=np.searchsorted(src[order], np.arange(len(ids) + 1)),
            targets=dst[order],
            lengths=np.concatenate([lengths, lengths[back]])[order],
            risks=np.concatenate([risks, risks[back]])[order],
        )


@functools.lru_cache(maxsize=32)
def _disk(k: int, limit: float) -> np.ndarray:
    """(2k + 1) x (2k + 1) mask of the offsets (dr, dc), |dr|, |dc| <= k,
    with math.hypot(dr, dc) <= limit, read-only and cached per (k, limit)."""
    disk = np.array([[math.hypot(dr, dc) <= limit for dc in range(-k, k + 1)]
                     for dr in range(-k, k + 1)], dtype=bool)
    disk.setflags(write=False)
    return disk


def build_local_irm(
    belief: BeliefGrid,
    risk_field: RiskField,
    robot_pose: Cell,
    radius: float = DEFAULT_LOCAL_RADIUS,
    sensor: SensorSpec | None = None,
    horizon: int = 10,
) -> LocalLattice:
    """Dense 4-connected lattice over believed-free cells within radius of the
    robot, restricted to the robot's connected component. Nodes carry info
    gain, moves carry CVaR traversal risk.

    Node ids number the cells in row-major order. The radius disk is a cached
    offset mask (_disk); the arrays are filled from a padded grid of node
    ids, whose up, left, right and down neighbours are each node's moves in
    ascending id order. Edge risks are read from the field's unit-edge store,
    which first computes the missing ones, each node's right then down edge
    in id order."""
    sensor = sensor or SensorSpec()
    r0, c0 = int(robot_pose[0]), int(robot_pose[1])
    if not belief.is_known_free(r0, c0):
        raise InvalidStateError(f"robot pose {robot_pose!r} is not believed free")
    radius_cells = radius / belief.cell_size

    # connected component of believed-free cells within the radius disk
    h, w = belief.state.shape
    limit = radius_cells + 1e-9
    k = max(int(min(limit, h + w)), 0)
    top, bottom = max(r0 - k, 0), min(r0 + k + 1, h)
    left, right = max(c0 - k, 0), min(c0 + k + 1, w)
    disk = np.zeros((h, w), dtype=bool)
    disk[top:bottom, left:right] = _disk(k, limit)[
        top - r0 + k:bottom - r0 + k, left - c0 + k:right - c0 + k]
    passable, wp = gw.padded_mask((belief.state == gw.KNOWN_FREE) & disk)
    members = np.array(sorted(i for i, _ in gw.grid_bfs(passable, wp, (r0 + 1) * wp + c0 + 1)))
    rows, cols = members // wp - 1, members % wp - 1
    node_id = np.full(len(passable), -1)
    node_id[members] = np.arange(len(members))
    # per node: up, left, right, down neighbour ids (-1 for none), in id order
    around = node_id[members[:, None] + np.array([-wp, -1, 1, wp])]
    moves = around >= 0

    cell_area = belief.cell_size * belief.cell_size
    cells = list(zip(rows.tolist(), cols.tolist()))
    gains = visible_unknown_counts(belief, cells, sensor) * cell_area
    # the unit edge of each node's up, left, right and down move: its plane
    # (0 right, 1 down) and upper-left cell
    node, side = np.nonzero(moves)
    risks = unit_edge_risks(risk_field, np.array([1, 0, 0, 1])[side],
                            rows[node] - (side == 0), cols[node] - (side == 1))
    indptr = np.zeros(len(members) + 1, dtype=np.intp)
    np.cumsum(moves.sum(axis=1), out=indptr[1:])
    return LocalLattice(
        scope=LOCAL, horizon=horizon, nodes=np.arange(len(members)),
        poses=np.stack([rows, cols], axis=1), gains=gains,
        robot=int(node_id[(r0 + 1) * wp + c0 + 1]), indptr=indptr, targets=around[moves],
        lengths=np.full(len(risks), belief.cell_size), risks=risks,
    )


def detect_frontiers(
    belief: BeliefGrid,
    min_cluster: int = DEFAULT_MIN_CLUSTER,
) -> list[RoadmapNode]:
    """Frontier nodes: 8-connected clusters of believed-free cells adjacent to
    unknown space, one node per cluster at the member cell nearest the cluster
    centroid (ties by row, then column). Gain counts the cluster's distinct
    4-adjacent unknown cells. One labelling pass gives every cluster; integer
    coordinate sums make each centroid its members' exact mean."""
    state = belief.state
    h, w = state.shape
    wp = w + 2
    unknown = np.zeros((h + 2, wp), dtype=bool)
    unknown[1:-1, 1:-1] = state == gw.UNKNOWN
    frontier_mask = (state == gw.KNOWN_FREE) & (
        unknown[:-2, 1:-1] | unknown[2:, 1:-1] | unknown[1:-1, :-2] | unknown[1:-1, 2:])
    if not frontier_mask.any():
        return []

    labels, n_clusters = gw.label_components(frontier_mask, diagonal=True)
    rows, cols = np.nonzero(labels)
    label = labels[rows, cols].astype(np.intp) - 1  # clusters numbered from 0
    size = np.bincount(label)
    centroid_r = np.bincount(label, weights=rows) / size
    centroid_c = np.bincount(label, weights=cols) / size
    d2 = (rows - centroid_r[label]) ** 2 + (cols - centroid_c[label]) ** 2
    # members sorted by (label, d2, row, col): each label's first is its node
    order = np.lexsort((cols, rows, d2, label))
    best = order[np.cumsum(size) - size]
    # distinct (label, unknown 4-neighbour) pairs, as label * cells + flat index
    near = ((rows + 1) * wp + cols + 1)[:, None] + np.array([-wp, wp, -1, 1])
    pairs = np.unique((label[:, None] * unknown.size + near)[unknown.ravel()[near]])
    rim = np.bincount(pairs // unknown.size, minlength=n_clusters)

    cell_area = belief.cell_size * belief.cell_size
    kept = np.flatnonzero(size >= min_cluster).tolist()
    return [
        RoadmapNode(id=node_id, pose=(int(rows[best[i]]), int(cols[best[i]])),
                    kind=FRONTIER, info_gain=int(rim[i]) * cell_area)
        for node_id, i in enumerate(kept)
    ]


def _nearest_crumb(
    passable: bytes,
    width: int,
    crumb_at: dict[int, int],
    pose: Cell,
) -> tuple[int, int] | None:
    """(crumb id, hops) of the breadcrumb a 4-connected BFS from pose reaches
    first, or None. passable (a gw.padded_mask) is everything that is not a
    believed obstacle: the global graph is optimistic about unknown space,
    since frontiers are by definition gateways into it. Diagonal-ray sensing
    can otherwise leave known-free islands whose frontiers would never attach
    to the graph."""
    start = (pose[0] + 1) * width + pose[1] + 1
    if start in crumb_at:
        return crumb_at[start], 0
    if not passable[start]:
        return None
    for i, depth in gw.grid_bfs(passable, width, start):
        if i in crumb_at:
            return crumb_at[i], depth
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
    dropped so the graph stays connected. Consecutive breadcrumbs are linked
    unless they share a cell, other pairs when within twice the spacing and in
    line of sight. Raises InvalidStateError for a robot pose that is not
    believed free."""
    robot_pose = (int(robot_pose[0]), int(robot_pose[1]))
    if not belief.is_known_free(*robot_pose):
        raise InvalidStateError(f"robot pose {robot_pose!r} is not believed free")
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
    # the trail, meshed with line-of-sight shortcuts between nearby crumbs so
    # that hop distances reflect the metric layout rather than the walk order
    shortcut_radius = 2.0 * breadcrumb_spacing / cs
    for i, a in enumerate(crumbs):
        for j, b in enumerate(crumbs[i + 1:], start=i + 1):
            d = math.hypot(a[0] - b[0], a[1] - b[1])
            if d == 0 or (j > i + 1 and (d > shortcut_radius or not all(
                    belief.state[cell] == gw.KNOWN_FREE
                    for cell in gw.bresenham_line(a[0], a[1], b[0], b[1])))):
                continue
            out.add_edge(i, j, length=d * cs, risk=edge_risk(risk_field, a, b))

    passable, wp = gw.padded_mask(belief.state != gw.KNOWN_OBSTACLE)
    crumb_at = {(r + 1) * wp + c + 1: i for i, (r, c) in enumerate(crumbs)}

    frontiers = detect_frontiers(belief, min_cluster=min_cluster)
    frontiers.sort(key=lambda n: n.pose)
    next_id = len(crumbs)
    for node in frontiers:
        hit = _nearest_crumb(passable, wp, crumb_at, node.pose)
        if hit is None:
            continue
        crumb_id, hops = hit
        fid = next_id
        next_id += 1
        out.add_node(RoadmapNode(id=fid, pose=node.pose, kind=FRONTIER, info_gain=node.info_gain))
        length = max(hops, 1) * cs
        out.add_edge(fid, crumb_id, length=length,
                     risk=edge_risk(risk_field, node.pose, crumbs[crumb_id]))

    hit = _nearest_crumb(passable, wp, crumb_at, robot_pose)
    out.add_node(RoadmapNode(id=ROBOT_NODE_ID, pose=robot_pose, kind=ROBOT))
    if hit is not None:
        crumb_id, hops = hit
        # zero-length edges are not allowed; a robot on a crumb links at 1e-6 m
        out.add_edge(ROBOT_NODE_ID, crumb_id, length=hops * cs if hops else 1e-6,
                     risk=edge_risk(risk_field, robot_pose, crumbs[crumb_id]))
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
