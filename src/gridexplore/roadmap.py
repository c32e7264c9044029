"""Two-layer information roadmap over the belief grid.

The local layer is a dense lattice of the believed-free cells around the
robot that a walk of the local horizon can reach; the global layer is a
sparse trail of breadcrumbs dropped along the traveled path plus frontier
nodes at the boundary of unknown space. Node info gain is the line-of-sight
count of unknown cells within sensor range, converted to square meters.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import world as gw
from .risk import RiskField, edge_risk, unit_edge_risks
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


@dataclass(frozen=True, eq=False)
class CrumbMesh:
    """The breadcrumb layer of a global roadmap as update_global_irm left it:
    the crumbs, each crumb's crumb neighbours with the edge to each, and the
    sorted crumb pairs (i, j, cells) whose shortcut waits on the cells of its
    line of sight that were unknown when last read.

    The belief is monotone: sensing writes ground truth, so a cell goes from
    unknown to known-free or known-obstacle and never changes again. Every
    other pair is therefore settled for good, and the next call on the same
    belief, risk field and shortcut radius only classifies the new crumbs'
    pairs and rechecks the waiting ones. A mesh is never changed once made."""

    belief: BeliefGrid
    risk_field: RiskField
    radius: float  # shortcut radius, in cells
    crumbs: tuple[Cell, ...]
    adjacency: dict[int, dict[int, RoadmapEdge]]
    waiting: tuple[tuple[int, int, tuple[Cell, ...]], ...]


@dataclass(frozen=True, eq=False)
class Attachments:
    """The nearest-crumb searches of the last attach_frontiers, for the next
    one to reuse: the belief and crumbs they ran on, the padded_mask of
    passable cells they read, and each searched pose's _nearest_crumb
    answer.

    A BFS that stops at depth hops reads only cells within hops Manhattan
    steps of its pose. Passable space only shrinks and crumbs only append,
    so on the same belief, with these crumbs a prefix of the new ones, an
    answer (id, hops) holds while no cell within hops steps of its pose has
    lost passability or gained a crumb (crumb_at keeps a cell's later
    crumb), and a None answer while no crumb was added. A cell that became
    passable again breaks the premise and drops every answer."""

    belief: BeliefGrid
    crumbs: tuple[Cell, ...]
    passable: bytes
    answers: dict[Cell, tuple[int, int] | None]


@dataclass
class RoadmapGraph:
    """Nodes by id and one edge store: adjacency[u][v] is the edge of u and v
    (src the smaller id), held under both ends, a self-loop once."""

    scope: str
    horizon: int
    nodes: dict[int, RoadmapNode] = field(default_factory=dict)
    adjacency: dict[int, dict[int, RoadmapEdge]] = field(default_factory=dict)
    # the crumb layer a global roadmap carries to the next grow_trail
    mesh: CrumbMesh | None = field(default=None, repr=False, compare=False)
    # the frontier attachments it carries to the next attach_frontiers
    attached: Attachments | None = field(default=None, repr=False, compare=False)

    def add_node(self, node: RoadmapNode) -> None:
        self.nodes[node.id] = node
        self.adjacency.setdefault(node.id, {})

    def add_edge(self, src: int, dst: int, length: float, risk: float) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise ValueError(f"edge ({src}, {dst}) references missing node")
        if length <= 0:
            raise ValueError("edge length must be > 0")
        edge = RoadmapEdge(min(src, dst), max(src, dst), length, risk)
        self.adjacency[src][dst] = self.adjacency[dst][src] = edge

    def get_edge(self, u: int, v: int) -> RoadmapEdge | None:
        return self.adjacency.get(u, {}).get(v)

    def neighbors(self, u: int) -> list[int]:
        return sorted(self.adjacency.get(u, ()))

    def nodes_of_kind(self, kind: str) -> list[RoadmapNode]:
        return [n for n in sorted(self.nodes.values(), key=lambda n: n.id) if n.kind == kind]

    def robot_node(self) -> RoadmapNode | None:
        for node in self.nodes.values():
            if node.kind == ROBOT:
                return node
        return None


@dataclass(eq=False)
class LocalLattice:
    """A local roadmap as arrays. The node at position i has id nodes[i]
    (ids ascending; they may skip values, see build_local_irm), cell
    poses[i] and info gain gains[i]; the robot node is at position robot.
    Its moves go to the positions targets[indptr[i]:indptr[i + 1]], in
    ascending order, with each move's length and CVaR risk alongside. An
    edge is a move each way, a self-loop one move. horizon is the longest
    walk, in nodes, that the lattice serves."""

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
        ids = sorted(graph.nodes)
        position = {node_id: i for i, node_id in enumerate(ids)}
        nodes = [graph.nodes[i] for i in ids]
        near = [graph.adjacency[i] for i in ids]
        # (target position, edge) of each node's moves, in ascending id order
        moves = [(position[v], edge) for adj in near for v, edge in sorted(adj.items())]
        return cls(
            scope=graph.scope, horizon=graph.horizon, nodes=np.array(ids, dtype=np.intp),
            poses=np.array([n.pose for n in nodes], dtype=np.intp).reshape(-1, 2),
            gains=np.array([n.info_gain for n in nodes], dtype=np.float64),
            robot=position[robot.id],
            indptr=np.cumsum([0] + [len(adj) for adj in near], dtype=np.intp),
            targets=np.array([m for m, _ in moves], dtype=np.intp),
            lengths=np.array([e.length for _, e in moves], dtype=np.float64),
            risks=np.array([e.risk for _, e in moves], dtype=np.float64),
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
    """Dense 4-connected lattice over the believed-free cells of the robot's
    connected component within radius of the robot that a walk of horizon
    nodes (at least 1) can reach: those at most horizon - 1 moves away. Nodes
    carry info gain, moves carry CVaR traversal risk.

    A node's id is its cell's rank in row-major order among all cells of the
    radius-disk component, so the ids of a cut lattice skip the cells a walk
    cannot reach. The radius disk is a cached offset mask (_disk) over the
    window of the grid it covers. The component is a stack flood over the
    row runs of that window's believed-free cells (world.row_runs), and a
    cell's rank is its offset in its run plus the lengths of the
    component's runs before it. A BFS from the robot cut after horizon - 1
    levels gives the kept cells, and only those. The arrays are filled from
    a padded window of node positions, whose up, left, right and down
    neighbours are each node's moves in ascending id order. Edge risks are
    read from the field's unit-edge planes."""
    sensor = sensor or SensorSpec()
    r0, c0 = int(robot_pose[0]), int(robot_pose[1])
    if not belief.is_known_free(r0, c0):
        raise gw.InvalidPoseError(f"robot pose {robot_pose!r} is not believed free")
    radius_cells = radius / belief.cell_size

    # the believed-free cells of the radius disk, in the window it covers
    h, w = belief.state.shape
    limit = radius_cells + 1e-9
    k = max(int(min(limit, h + w)), 0)
    top, bottom = max(r0 - k, 0), min(r0 + k + 1, h)
    left, right = max(c0 - k, 0), min(c0 + k + 1, w)
    free = (belief.state[top:bottom, left:right] == gw.KNOWN_FREE) & _disk(k, limit)[
        top - r0 + k:bottom - r0 + k, left - c0 + k:right - c0 + k]
    free[r0 - top, c0 - left] = True  # the robot is a node whatever the radius
    passable, wp = gw.padded_mask(free)
    start = (r0 - top + 1) * wp + c0 - left + 1

    # the robot's component, as runs, and the rank of each run's first cell
    starts, ends, near = gw.row_runs(passable, wp)
    label = [0] * len(starts)
    gw.flood_runs(near, int(np.searchsorted(starts, start, side="right")) - 1, label, 1)
    runs = np.flatnonzero(label)
    starts, lengths = starts[runs], ends[runs] - starts[runs]
    ranks = np.cumsum(lengths) - lengths

    # the cells at most horizon - 1 moves from the robot, by a BFS over the
    # window: the moves stay in the component
    unseen = bytearray(passable)
    unseen[start] = 0
    level, reached = [start], [start]
    for _ in range(max(horizon, 1) - 1):
        if not level:
            break
        level, below = [], level
        for i in below:
            for j in (i - wp, i - 1, i + 1, i + wp):
                if unseen[j]:
                    unseen[j] = 0
                    level.append(j)
        reached += level
    members = np.sort(np.array(reached, dtype=np.intp))
    run = np.searchsorted(starts, members, side="right") - 1
    ids = ranks[run] + members - starts[run]
    rows, cols = members // wp - 1 + top, members % wp - 1 + left
    position = np.full(len(passable), -1)
    position[members] = np.arange(len(members))
    # per node: up, left, right, down neighbour positions (-1 for none or out
    # of reach), in id order
    around = position[members[:, None] + np.array([-wp, -1, 1, wp])]
    moves = around >= 0

    cell_area = belief.cell_size * belief.cell_size
    poses = np.stack([rows, cols], axis=1)
    gains = visible_unknown_counts(belief, poses, sensor) * cell_area
    # the unit edge of each node's up, left, right and down move: its plane
    # (0 right, 1 down) and upper-left cell
    node, side = np.nonzero(moves)
    risks = unit_edge_risks(risk_field, np.array([1, 0, 0, 1])[side],
                            rows[node] - (side == 0), cols[node] - (side == 1))
    indptr = np.zeros(len(members) + 1, dtype=np.intp)
    np.cumsum(moves.sum(axis=1), out=indptr[1:])
    return LocalLattice(
        scope=LOCAL, horizon=horizon, nodes=ids,
        poses=poses, gains=gains,
        robot=int(position[start]), indptr=indptr, targets=around[moves],
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


def _same_trail(belief_then: BeliefGrid, crumbs_then: tuple[Cell, ...], belief: BeliefGrid,
                crumbs) -> bool:
    """Whether a layer made on belief_then for crumbs_then carries over to
    belief and crumbs: the same belief object, and crumbs_then a prefix of
    crumbs."""
    return belief_then is belief and tuple(crumbs[:len(crumbs_then)]) == crumbs_then


def _crumb_mesh(
    mesh: CrumbMesh | None,
    crumbs: list[Cell],
    belief: BeliefGrid,
    risk_field: RiskField,
    radius: float,
) -> CrumbMesh:
    """The crumb layer of the trail crumbs: consecutive crumbs are linked
    unless they share a cell, other pairs when within radius cells and in
    line of sight through believed-free cells. It extends mesh when mesh was
    made on the same belief, risk field and radius for a prefix of crumbs,
    and starts from nothing otherwise."""
    state, cs = belief.state, belief.cell_size
    if (mesh is not None and mesh.risk_field is risk_field and mesh.radius == radius
            and _same_trail(mesh.belief, mesh.crumbs, belief, crumbs)):
        known = len(mesh.crumbs)
        adjacency = {i: near.copy() for i, near in mesh.adjacency.items()}
        pending = list(mesh.waiting)
    else:
        known, adjacency, pending = 0, {}, []
    waiting: list[tuple[int, int, tuple[Cell, ...]]] = []

    def classify(i: int, j: int, cells) -> None:
        """Link crumbs i and j once cells are all known-free, drop the pair
        for good once one is a known obstacle, and keep it waiting on the
        rest."""
        cells = tuple(cell for cell in cells if state[cell] != gw.KNOWN_FREE)
        if not cells:
            a, b = crumbs[i], crumbs[j]
            adjacency[i][j] = adjacency[j][i] = RoadmapEdge(
                i, j, math.hypot(a[0] - b[0], a[1] - b[1]) * cs, edge_risk(risk_field, a, b))
        elif all(state[cell] == gw.UNKNOWN for cell in cells):
            waiting.append((i, j, cells))

    for i, j, cells in pending:
        classify(i, j, cells)
    for j in range(known, len(crumbs)):
        adjacency[j] = {}
        b = crumbs[j]
        for i, a in enumerate(crumbs[:j]):
            d = math.hypot(a[0] - b[0], a[1] - b[1])
            if d > 0 and (j == i + 1 or d <= radius):
                classify(i, j, () if j == i + 1 else gw.bresenham_line(a[0], a[1], b[0], b[1]))
    return CrumbMesh(belief, risk_field, radius, tuple(crumbs), adjacency, tuple(waiting))


def _believed_free(belief: BeliefGrid, robot_pose) -> Cell:
    """robot_pose as a tuple of ints; InvalidPoseError unless it is believed
    free."""
    robot_pose = (int(robot_pose[0]), int(robot_pose[1]))
    if not belief.is_known_free(*robot_pose):
        raise gw.InvalidPoseError(f"robot pose {robot_pose!r} is not believed free")
    return robot_pose


def _trail_graph(mesh: CrumbMesh, horizon: int, attached: Attachments | None) -> RoadmapGraph:
    """A global roadmap of mesh's crumbs and crumb edges alone."""
    return RoadmapGraph(
        scope=GLOBAL, horizon=horizon,
        nodes={i: RoadmapNode(i, pose, BREADCRUMB) for i, pose in enumerate(mesh.crumbs)},
        adjacency={i: near.copy() for i, near in mesh.adjacency.items()},
        mesh=mesh, attached=attached)


def grow_trail(
    graph: RoadmapGraph | None,
    belief: BeliefGrid,
    risk_field: RiskField,
    robot_pose: Cell,
    breadcrumb_spacing: float = DEFAULT_BREADCRUMB_SPACING,
    horizon: int = 20,
) -> RoadmapGraph:
    """The breadcrumb trail after graph's (graph None at the start), as a
    global roadmap of crumbs alone: it appends one when the robot moved at
    least breadcrumb_spacing from the last. Consecutive breadcrumbs are
    linked unless they share a cell, other pairs when within twice the
    spacing and in line of sight. The crumb layer is carried on graph.mesh
    and extended (see CrumbMesh), which gives the graph a from-scratch build
    would, as long as the belief only ever learns cells; graph.attached
    rides along for the next attach_frontiers. Raises InvalidPoseError for a
    robot pose that is not believed free."""
    robot_pose = _believed_free(belief, robot_pose)
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

    # the trail, meshed with line-of-sight shortcuts between nearby crumbs so
    # that hop distances reflect the metric layout rather than the walk order
    mesh = _crumb_mesh(graph.mesh if graph is not None else None, crumbs, belief,
                       risk_field, 2.0 * breadcrumb_spacing / cs)
    return _trail_graph(mesh, horizon, graph.attached if graph is not None else None)


def _carried_answers(
    carry: Attachments | None,
    belief: BeliefGrid,
    crumbs: tuple[Cell, ...],
    passable: bytes,
    width: int,
) -> dict[Cell, tuple[int, int] | None]:
    """The answers of carry that still hold for crumbs on belief, whose
    padded_mask of passable cells is passable (see Attachments); none when
    the trail is not carry's or a cell became passable again."""
    if carry is None or not _same_trail(carry.belief, carry.crumbs, belief, crumbs):
        return {}
    then = np.frombuffer(carry.passable, dtype=np.uint8)
    now = np.frombuffer(passable, dtype=np.uint8)
    if (now > then).any():
        return {}
    # the dirty cells: passable then but not now, or under a new crumb
    added = [(r + 1) * width + c + 1 for r, c in crumbs[len(carry.crumbs):]]
    dirty = np.concatenate([np.flatnonzero(then > now), np.array(added, dtype=np.intp)])
    poses = np.array(list(carry.answers), dtype=np.intp).reshape(-1, 2) + 1
    hops = np.array([-1 if a is None else a[1] for a in carry.answers.values()])
    # each pose's Manhattan distance to its nearest dirty cell
    near = (np.abs(poses[:, :1] - dirty // width)
            + np.abs(poses[:, 1:] - dirty % width)).min(axis=1, initial=len(now))
    holds = np.where(hops < 0, not added, near > hops).tolist()
    return {pose: answer for (pose, answer), ok in zip(carry.answers.items(), holds) if ok}


def attach_frontiers(
    trail: RoadmapGraph,
    belief: BeliefGrid,
    risk_field: RiskField,
    robot_pose: Cell,
    min_cluster: int = DEFAULT_MIN_CLUSTER,
) -> RoadmapGraph:
    """The global roadmap of trail (a grow_trail result): its crumbs and
    crumb edges, current frontier nodes attached to their nearest reachable
    breadcrumb, and a robot node. Frontiers that cannot reach any breadcrumb
    through believed-free space are dropped so the graph stays connected.
    The nearest-crumb answers are carried on the result's attached, and the
    next call reuses those that still hold (see Attachments). trail itself
    is left as it was. Raises InvalidPoseError for a robot pose that is not
    believed free."""
    return _attach(_trail_graph(trail.mesh, trail.horizon, trail.attached), belief, risk_field,
                   robot_pose, min_cluster)


def _attach(out: RoadmapGraph, belief: BeliefGrid, risk_field: RiskField, robot_pose: Cell,
            min_cluster: int) -> RoadmapGraph:
    """attach_frontiers onto out, a graph of crumbs alone that no caller
    holds, in place; returns out."""
    robot_pose = _believed_free(belief, robot_pose)
    cs = belief.cell_size
    crumbs = out.mesh.crumbs
    passable, wp = gw.padded_mask(belief.state != gw.KNOWN_OBSTACLE)
    crumb_at = {(r + 1) * wp + c + 1: i for i, (r, c) in enumerate(crumbs)}
    carried = _carried_answers(out.attached, belief, crumbs, passable, wp)
    answers: dict[Cell, tuple[int, int] | None] = {}

    def nearest(pose: Cell) -> tuple[int, int] | None:
        if pose not in answers:
            answers[pose] = (carried[pose] if pose in carried
                             else _nearest_crumb(passable, wp, crumb_at, pose))
        return answers[pose]

    out.attached = Attachments(belief, crumbs, passable, answers)
    frontiers = detect_frontiers(belief, min_cluster=min_cluster)
    frontiers.sort(key=lambda n: n.pose)
    next_id = len(crumbs)
    for node in frontiers:
        hit = nearest(node.pose)
        if hit is None:
            continue
        crumb_id, hops = hit
        node.id = next_id
        next_id += 1
        out.add_node(node)
        length = max(hops, 1) * cs
        out.add_edge(node.id, crumb_id, length=length,
                     risk=edge_risk(risk_field, node.pose, crumbs[crumb_id]))

    hit = nearest(robot_pose)
    out.add_node(RoadmapNode(id=ROBOT_NODE_ID, pose=robot_pose, kind=ROBOT))
    if hit is not None:
        crumb_id, hops = hit
        # zero-length edges are not allowed; a robot on a crumb links at 1e-6 m
        out.add_edge(ROBOT_NODE_ID, crumb_id, length=hops * cs if hops else 1e-6,
                     risk=edge_risk(risk_field, robot_pose, crumbs[crumb_id]))
    return out


def update_global_irm(
    graph: RoadmapGraph | None,
    belief: BeliefGrid,
    risk_field: RiskField,
    robot_pose: Cell,
    breadcrumb_spacing: float = DEFAULT_BREADCRUMB_SPACING,
    min_cluster: int = DEFAULT_MIN_CLUSTER,
    horizon: int = 20,
) -> RoadmapGraph:
    """The global roadmap after the previous one, graph (None at the start):
    the breadcrumb trail grown by grow_trail with the current frontiers
    attached by attach_frontiers, onto the trail's own fresh graph, so the
    crumb graph is built once. Raises InvalidPoseError for a robot pose that
    is not believed free."""
    trail = grow_trail(graph, belief, risk_field, robot_pose, breadcrumb_spacing, horizon)
    return _attach(trail, belief, risk_field, robot_pose, min_cluster)


def graph_to_dict(graph: RoadmapGraph) -> dict:
    # adjacency holds each edge under both ends; keyed by (src, dst), once
    edges = {(e.src, e.dst): e for near in graph.adjacency.values() for e in near.values()}
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
            for _, e in sorted(edges.items())
        ],
    }
