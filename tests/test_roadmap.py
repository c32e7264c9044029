import math

import numpy as np
import pytest

import reference_impl as ref
from gridexplore import world as gw
from gridexplore.risk import RiskField
from gridexplore.roadmap import (
    BREADCRUMB, FRONTIER, LOCAL, ROBOT_NODE_ID, InvalidStateError,
    build_local_irm, detect_frontiers, graph_to_dict, update_global_irm,
)
from gridexplore.world import BeliefGrid, SensorSpec


def riskless_field(shape):
    return RiskField(mu=np.zeros(shape), sigma=np.zeros(shape))


def known_free_belief(h, w, cell_size=0.5):
    b = BeliefGrid(state=np.full((h, w), gw.KNOWN_FREE, dtype=np.uint8),
                   covered=np.ones((h, w), dtype=bool), cell_size=cell_size)
    return b


# --- local IRM -------------------------------------------------------------------

def test_local_irm_unknown_world_is_single_robot_node():
    b = BeliefGrid(state=np.full((7, 7), gw.UNKNOWN, dtype=np.uint8),
                   covered=np.zeros((7, 7), dtype=bool), cell_size=0.5)
    b.state[3, 3] = gw.KNOWN_FREE
    g = build_local_irm(b, riskless_field((7, 7)), (3, 3))
    assert len(g.nodes) == 1
    assert g.poses[g.robot].tolist() == [3, 3]
    assert len(g.targets) == 0


def test_local_irm_lattice_counts_on_open_grid():
    b = known_free_belief(5, 5)
    g = build_local_irm(b, riskless_field((5, 5)), (2, 2), radius=10.0)
    assert len(g.nodes) == 25
    assert len(g.targets) == 2 * 40  # 4-connected 5x5: 2 * 5 * 4 edges, a move each way
    assert g.poses[g.robot].tolist() == [2, 2]
    assert g.nodes[g.robot] == 12  # the row-major id of (2, 2)


def test_local_irm_gain_counts_adjacent_unknown():
    b = known_free_belief(7, 7)
    for cell in ((2, 3), (3, 2), (3, 4)):
        b.state[cell] = gw.UNKNOWN
        b.covered[cell] = False
    g = build_local_irm(b, riskless_field((7, 7)), (5, 5), radius=10.0)
    gain = g.gains[g.poses.tolist().index([3, 3])]
    assert gain == pytest.approx(3 * 0.25)


def test_local_irm_gain_matches_per_node_visibility_oracle():
    rng = np.random.default_rng(4)
    state = np.full((15, 15), gw.KNOWN_FREE, dtype=np.uint8)
    state[rng.random((15, 15)) < 0.15] = gw.KNOWN_OBSTACLE
    state[rng.random((15, 15)) < 0.2] = gw.UNKNOWN
    state[7, 7] = gw.KNOWN_FREE
    b = BeliefGrid(state=state, covered=np.zeros((15, 15), dtype=bool), cell_size=0.5)
    sensor = SensorSpec(range_m=2.5)
    g = build_local_irm(b, riskless_field((15, 15)), (7, 7), radius=4.0, sensor=sensor)

    def oracle_gain(pose):
        count = 0
        rng_cells = 2.5 / 0.5
        for r in range(15):
            for c in range(15):
                if state[r, c] != gw.UNKNOWN:
                    continue
                if math.hypot(r - pose[0], c - pose[1]) > rng_cells + 1e-9:
                    continue
                interior = gw.bresenham_line(pose[0], pose[1], r, c)[1:-1]
                if any(state[cell] == gw.KNOWN_OBSTACLE for cell in interior):
                    continue
                count += 1
        return count * 0.25

    for pose, gain in zip(g.poses.tolist(), g.gains.tolist()):
        assert gain == pytest.approx(oracle_gain(pose)), pose


def test_local_irm_restricted_to_robot_component():
    b = known_free_belief(5, 5)
    b.state[:, 2] = gw.KNOWN_OBSTACLE  # split the grid
    g = build_local_irm(b, riskless_field((5, 5)), (2, 0), radius=10.0)
    assert (g.poses[:, 1] < 2).all()


def test_local_irm_rejects_bad_robot_pose():
    b = known_free_belief(5, 5)
    b.state[2, 2] = gw.KNOWN_OBSTACLE
    with pytest.raises(InvalidStateError):
        build_local_irm(b, riskless_field((5, 5)), (2, 2))


def test_local_irm_node_bound_and_reachability():
    b = known_free_belief(41, 41)
    radius = 5.0
    g = build_local_irm(b, riskless_field((41, 41)), (20, 20), radius=radius)
    bound = (2 * radius / b.cell_size + 1) ** 2
    assert len(g.nodes) <= bound
    # all nodes reachable from the robot node over the moves
    seen = {g.robot}
    stack = [g.robot]
    while stack:
        u = stack.pop()
        for v in g.targets[g.indptr[u]:g.indptr[u + 1]].tolist():
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == set(range(len(g.nodes)))


def test_local_irm_deterministic():
    b = known_free_belief(9, 9)
    b.state[4, 4] = gw.KNOWN_OBSTACLE
    b.state[1, 1] = gw.UNKNOWN
    f = riskless_field((9, 9))
    g1 = build_local_irm(b, f, (2, 2))
    g2 = build_local_irm(b, f, (2, 2))
    assert g1.robot == g2.robot
    for name in ("nodes", "poses", "gains", "indptr", "targets", "lengths", "risks"):
        assert np.array_equal(getattr(g1, name), getattr(g2, name)), name


# --- frontiers -------------------------------------------------------------------

def test_no_frontiers_when_everything_known():
    b = known_free_belief(6, 6)
    assert detect_frontiers(b) == []


def corridor_belief():
    """7x3 world: a known corridor opening into unknown space on the right."""
    state = np.full((3, 7), gw.UNKNOWN, dtype=np.uint8)
    state[0, :] = gw.KNOWN_OBSTACLE
    state[2, :] = gw.KNOWN_OBSTACLE
    state[1, 0:4] = gw.KNOWN_FREE
    return BeliefGrid(state=state, covered=np.zeros((3, 7), dtype=bool), cell_size=0.5)


def test_single_frontier_at_corridor_mouth():
    b = corridor_belief()
    nodes = detect_frontiers(b, min_cluster=1)
    assert len(nodes) == 1
    assert nodes[0].pose == (1, 3)
    assert nodes[0].info_gain == pytest.approx(1 * 0.25)


def test_two_unknown_regions_make_two_frontiers():
    state = np.full((7, 7), gw.KNOWN_FREE, dtype=np.uint8)
    state[0:3, 0:2] = gw.UNKNOWN
    state[5:7, 5:7] = gw.UNKNOWN
    b = BeliefGrid(state=state, covered=np.zeros((7, 7), dtype=bool), cell_size=0.5)
    nodes = detect_frontiers(b, min_cluster=1)
    assert len(nodes) == 2


def test_min_cluster_filters_small_frontiers():
    b = corridor_belief()  # single frontier cell
    assert detect_frontiers(b, min_cluster=3) == []


def test_frontier_nodes_touch_unknown():
    w = gw.generate_maze(6, 31, 31)
    b = BeliefGrid.for_world(w)
    gw.sense(w, b, w.spawn)
    for node in detect_frontiers(b, min_cluster=1):
        r, c = node.pose
        assert b.state[r, c] == gw.KNOWN_FREE
        neighbors = [(r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)]
        assert any(
            b.in_bounds(*n) and b.state[n] == gw.UNKNOWN for n in neighbors
        )
        assert node.info_gain > 0


# --- global IRM ------------------------------------------------------------------

def test_global_irm_stationary_robot_keeps_breadcrumbs():
    b = known_free_belief(9, 9)
    f = riskless_field((9, 9))
    g1 = update_global_irm(None, b, f, (4, 4))
    g2 = update_global_irm(g1, b, f, (4, 4))
    crumbs1 = [n.pose for n in g1.nodes_of_kind(BREADCRUMB)]
    crumbs2 = [n.pose for n in g2.nodes_of_kind(BREADCRUMB)]
    assert crumbs1 == crumbs2 == [(4, 4)]


def test_breadcrumbs_drop_every_spacing():
    b = known_free_belief(5, 41)
    f = riskless_field((5, 41))
    graph = None
    # straight 10 m traverse at 0.5 m per cell: 20 cells, spacing 2 m
    for col in range(0, 21):
        graph = update_global_irm(graph, b, f, (2, col), breadcrumb_spacing=2.0)
    crumbs = [n.pose for n in graph.nodes_of_kind(BREADCRUMB)]
    assert crumbs == [(2, 0), (2, 4), (2, 8), (2, 12), (2, 16), (2, 20)]
    assert len(crumbs) - 1 == 5  # five new breadcrumbs beyond the start
    # chain edges connect consecutive breadcrumbs
    ids = [n.id for n in graph.nodes_of_kind(BREADCRUMB)]
    for a, b_ in zip(ids, ids[1:]):
        assert graph.get_edge(a, b_) is not None


def test_no_frontier_nodes_when_world_fully_covered():
    b = known_free_belief(9, 9)
    g = update_global_irm(None, b, riskless_field((9, 9)), (4, 4))
    assert g.nodes_of_kind(FRONTIER) == []


def test_global_irm_connected_and_has_robot():
    w = gw.generate_maze(8, 31, 31)
    b = BeliefGrid.for_world(w)
    f = riskless_field((31, 31))
    gw.sense(w, b, w.spawn)
    graph = update_global_irm(None, b, f, w.spawn, min_cluster=1)
    assert graph.robot_node().id == ROBOT_NODE_ID
    seen = {ROBOT_NODE_ID}
    stack = [ROBOT_NODE_ID]
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == set(graph.nodes), "global graph must be connected"


@pytest.mark.parametrize("pose", [(-1, 3), (51, 2), (0, -1), (2, 56), "obstacle", "unknown"])
def test_global_irm_rejects_pose_not_believed_free(pose):
    w = gw.generate_cave(0)
    b = BeliefGrid.for_world(w)
    gw.sense(w, b, w.spawn)
    graph = update_global_irm(None, b, riskless_field(b.state.shape), w.spawn)
    if isinstance(pose, str):
        state = gw.KNOWN_OBSTACLE if pose == "obstacle" else gw.UNKNOWN
        pose = tuple(int(x) for x in np.argwhere(b.state == state)[0])
    with pytest.raises(InvalidStateError, match="not believed free"):
        update_global_irm(graph, b, riskless_field(b.state.shape), pose)


def test_global_irm_deterministic():
    w = gw.generate_maze(9, 21, 21)
    b = BeliefGrid.for_world(w)
    f = riskless_field((21, 21))
    gw.sense(w, b, w.spawn)
    g1 = update_global_irm(None, b, f, w.spawn, min_cluster=1)
    g2 = update_global_irm(None, b, f, w.spawn, min_cluster=1)
    assert graph_to_dict(g1) == graph_to_dict(g2)


def test_graph_dict_shape():
    b = known_free_belief(5, 5)
    g = ref.local_lattice(b, riskless_field((5, 5)), (2, 2), 10.0, SensorSpec())
    doc = graph_to_dict(g)
    assert doc["scope"] == LOCAL
    assert {n["id"] for n in doc["nodes"]} == set(range(25))
    assert all(set(e) == {"from", "to", "length", "risk"} for e in doc["edges"])
