import collections
import copy
import dataclasses
import math

import numpy as np
import pytest

import reference_impl as ref
from gridexplore import harness, roadmap
from gridexplore import world as gw
from gridexplore.planners import RewardModel, plan_local
from gridexplore.risk import RiskField
from gridexplore.roadmap import (
    BREADCRUMB, FRONTIER, LOCAL, ROBOT_NODE_ID,
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
    with pytest.raises(gw.InvalidPoseError):
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


@pytest.mark.parametrize("horizon", [1, 0])
def test_local_irm_horizon_1_is_the_robot_alone(horizon):
    """A walk of one node makes no move, so a horizon below 2 keeps the
    robot node alone, under its id in the whole component, with no moves."""
    b = known_free_belief(5, 5)
    g = build_local_irm(b, riskless_field((5, 5)), (2, 2), radius=10.0, horizon=horizon)
    assert g.nodes.tolist() == [12] and g.robot == 0
    assert g.poses.tolist() == [[2, 2]]
    assert g.indptr.tolist() == [0, 0] and len(g.targets) == 0
    assert plan_local(g, RewardModel(), horizon=horizon) is None


def test_local_irm_radius_inside_the_reach_cuts_by_the_disk():
    """1.0 m is 2 cells: the disk's 13 cells are all within 2 moves, well
    inside the reach of a 10-node walk, so the radius alone cuts."""
    b = known_free_belief(41, 41)
    g = build_local_irm(b, riskless_field((41, 41)), (20, 20), radius=1.0, horizon=10)
    disk = [(r, c) for r in range(41) for c in range(41) if math.hypot(r - 20, c - 20) <= 2]
    assert len(disk) == 13
    assert [tuple(p) for p in g.poses.tolist()] == disk
    assert g.nodes.tolist() == list(range(13))
    assert len(g.targets) == 2 * 16  # the 3 x 3 block's 12 unit edges, one to each tip


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
    with pytest.raises(gw.InvalidPoseError, match="not believed free"):
        update_global_irm(graph, b, riskless_field(b.state.shape), pose)


@pytest.mark.parametrize("planner", ["MLDM", "HCP", "HFE"])
@pytest.mark.parametrize("generator,seed,params", [
    ("maze", 3, {"width": 25, "height": 25}),
    ("subway", 4, {"rooms": 4}),
    ("cave", 5, {"width": 41, "height": 41}),
])
def test_carried_global_roadmap_equals_a_fresh_build(monkeypatch, generator, seed, params,
                                                     planner):
    """On every cycle of a whole episode, the roadmap built on the carried
    crumb mesh and frontier attachments equals the one built from the same
    crumbs without them. HCP grows its trail every cycle and attaches
    frontiers only on the cycles that plan globally, which log
    global_found."""
    calls = collections.Counter()
    # what the bare graph of each step drops: attach_frontiers reads the
    # trail's mesh, so it keeps that
    carried_layers = {"update_global_irm": {"mesh": None, "attached": None},
                      "grow_trail": {"mesh": None, "attached": None},
                      "attach_frontiers": {"attached": None}}

    def checked(name, carried):
        def check(graph, belief, risk_field, robot_pose, **kwargs):
            got = carried(graph, belief, risk_field, robot_pose, **kwargs)
            bare = None if graph is None else dataclasses.replace(graph, **carried_layers[name])
            want = carried(bare, belief, risk_field, robot_pose, **kwargs)
            assert graph_to_dict(got) == graph_to_dict(want)
            assert got.adjacency == want.adjacency
            calls[name] += 1
            return got
        return check

    for name in carried_layers:
        monkeypatch.setattr(harness, name, checked(name, getattr(harness, name)))
    config = harness.RunConfig(
        world=harness.WorldSpec(generator=generator, seed=seed, params=params),
        planner=planner, min_frontier_cluster=1,
    )
    record = harness.run_episode(config)
    assert record.termination != "budget"
    assert record.cycles > 1
    if planner == "HCP":
        global_cycles = sum(1 for ev in record.events
                            if ev["type"] == "cycle" and "global_found" in ev)
        want = {"grow_trail": record.cycles, "attach_frontiers": global_cycles}
        assert global_cycles < record.cycles
    else:
        want = {"update_global_irm": record.cycles}
    assert calls == collections.Counter(want)


@pytest.mark.parametrize("planner", ["MLDM", "HCP"])
@pytest.mark.parametrize("generator,seed,params", [
    ("maze", 3, {"width": 25, "height": 25}),
    ("subway", 4, {"rooms": 4}),
    ("cave", 5, {"width": 41, "height": 41}),
])
def test_local_policy_on_the_cut_lattice_equals_the_whole_one(monkeypatch, generator, seed,
                                                               params, planner):
    """On every cycle of a whole episode, plan_local on the lattice cut at
    the walk's reach returns the policy it returns on the lattice of the
    whole radius-disk component."""
    build, search = harness.build_local_irm, harness.plan_local
    whole = []
    cycles = dropped = 0

    def building(belief, risk_field, robot_pose, **kwargs):
        # a walk of as many nodes as the grid has cells reaches every cell
        whole.append(build(belief, risk_field, robot_pose,
                           **dict(kwargs, horizon=belief.state.size)))
        return build(belief, risk_field, robot_pose, **kwargs)

    def searching(lattice, reward_model, **kwargs):
        nonlocal cycles, dropped
        uncut = whole.pop()
        got = search(lattice, reward_model, **kwargs)
        want = search(uncut, reward_model, **kwargs)
        if want is None:
            assert got is None
        else:
            assert got.to_dict() == want.to_dict()
            assert got.path_cells == want.path_cells
        cycles += 1
        dropped += len(uncut.nodes) - len(lattice.nodes)
        return got

    monkeypatch.setattr(harness, "build_local_irm", building)
    monkeypatch.setattr(harness, "plan_local", searching)
    config = harness.RunConfig(
        world=harness.WorldSpec(generator=generator, seed=seed, params=params),
        planner=planner, min_frontier_cluster=1,
    )
    record = harness.run_episode(config)
    assert record.termination != "budget"
    assert cycles == record.cycles > 1
    assert dropped > 0  # the cut dropped nodes on some cycle


def test_crumb_mesh_is_carried_only_for_its_own_belief_and_trail():
    """A graph passed with another belief, or with crumbs that its mesh does
    not start with, is built from scratch."""
    b = known_free_belief(9, 9)
    f = riskless_field((9, 9))
    graph = None
    for pose in [(1, 1), (1, 5), (5, 5), (5, 1)]:
        graph = update_global_irm(graph, b, f, pose, breadcrumb_spacing=2.0)
    assert graph.get_edge(0, 2) is not None  # the (1, 1)-(5, 5) shortcut
    walled = known_free_belief(9, 9)
    walled.state[3, 3] = gw.KNOWN_OBSTACLE
    bare = dataclasses.replace(graph, mesh=None)
    for pose in [(5, 1), (5, 3)]:
        got = update_global_irm(graph, walled, f, pose, breadcrumb_spacing=2.0)
        want = update_global_irm(bare, walled, f, pose, breadcrumb_spacing=2.0)
        assert graph_to_dict(got) == graph_to_dict(want)
        assert got.get_edge(0, 2) is None
    graph.nodes[0].pose = (1, 2)  # the trail no longer starts as the mesh did
    got = update_global_irm(graph, b, f, (5, 1), breadcrumb_spacing=2.0)
    want = update_global_irm(dataclasses.replace(graph, mesh=None), b, f, (5, 1),
                             breadcrumb_spacing=2.0)
    assert graph_to_dict(got) == graph_to_dict(want)


def test_crumb_shortcut_waits_on_its_unknown_cells():
    """A shortcut whose line of sight crosses unknown cells appears once they
    are all known-free, and never once one is a known obstacle."""
    b = known_free_belief(9, 9)
    b.state[2, 2] = b.state[2, 4] = gw.UNKNOWN  # on the 0-2 and 1-3 diagonals
    f = riskless_field((9, 9))
    graph = None
    for pose in [(1, 1), (1, 5), (5, 5), (5, 1)]:
        graph = update_global_irm(graph, b, f, pose, breadcrumb_spacing=2.0)
    assert [(i, j) for i, j, _ in graph.mesh.waiting] == [(0, 2), (1, 3)]
    assert graph.get_edge(0, 2) is None and graph.get_edge(1, 3) is None
    b.state[2, 2], b.state[2, 4] = gw.KNOWN_FREE, gw.KNOWN_OBSTACLE
    got = update_global_irm(graph, b, f, (5, 1), breadcrumb_spacing=2.0)
    want = update_global_irm(None, b, f, (1, 1), breadcrumb_spacing=2.0)
    for pose in [(1, 5), (5, 5), (5, 1)]:
        want = update_global_irm(dataclasses.replace(want, mesh=None), b, f, pose,
                                 breadcrumb_spacing=2.0)
    assert graph_to_dict(got) == graph_to_dict(want)
    assert got.get_edge(0, 2) is not None and got.get_edge(1, 3) is None
    assert got.mesh.waiting == ()


# --- carried frontier attachments ------------------------------------------------

def counted_searches(monkeypatch) -> list:
    """The poses of every _nearest_crumb search from here on."""
    poses = []
    search = roadmap._nearest_crumb

    def counted(passable, width, crumb_at, pose):
        poses.append(pose)
        return search(passable, width, crumb_at, pose)

    monkeypatch.setattr(roadmap, "_nearest_crumb", counted)
    return poses


def frontier_edge(graph, pose) -> tuple[int, float]:
    """(crumb id, edge length) of the frontier node at pose."""
    node = next(n for n in graph.nodes_of_kind(FRONTIER) if n.pose == pose)
    [(crumb_id, edge)] = graph.adjacency[node.id].items()
    return crumb_id, edge.length


def assert_fresh(got, graph, belief, field, pose):
    """got is the roadmap update_global_irm builds from graph's crumbs with
    neither the mesh nor the attachments carried."""
    bare = dataclasses.replace(graph, mesh=None, attached=None)
    want = update_global_irm(bare, belief, field, pose, min_cluster=1)
    assert graph_to_dict(got) == graph_to_dict(want)


def test_attachment_is_searched_again_once_an_obstacle_appears_within_its_hops(monkeypatch):
    """An answer (crumb, hops) holds while every new obstacle is more than
    hops steps from its pose, and not once one is within hops."""
    b = known_free_belief(9, 40)
    f = riskless_field(b.state.shape)
    b.state[:, 14:] = gw.UNKNOWN  # a frontier along column 13, its node at (4, 13)
    b.state[:8, 7] = gw.UNKNOWN  # a wall not yet seen, open at row 8
    graph = update_global_irm(None, b, f, (4, 1), min_cluster=1)
    assert frontier_edge(graph, (4, 13)) == (0, 12 * b.cell_size)
    searches = counted_searches(monkeypatch)
    b.state[4, 39] = gw.KNOWN_OBSTACLE  # 26 steps from (4, 13): every answer holds
    graph = update_global_irm(graph, b, f, (4, 1), min_cluster=1)
    assert searches == []
    b.state[:8, 7] = gw.KNOWN_OBSTACLE  # 6 steps away: the path detours through row 8
    got = update_global_irm(graph, b, f, (4, 1), min_cluster=1)
    assert frontier_edge(got, (4, 13)) == (0, 20 * b.cell_size)
    assert_fresh(got, graph, b, f, (4, 1))


def test_new_crumb_on_an_older_crumbs_cell_takes_over_its_attachments():
    """crumb_at keeps a cell's later crumb, so a frontier whose nearest crumb
    cell gets a new crumb attaches to the new one."""
    b = known_free_belief(9, 15)
    f = riskless_field(b.state.shape)
    b.state[0, :3] = gw.UNKNOWN  # a frontier whose node is (1, 1)
    graph = None
    for pose in [(4, 1), (4, 5)]:
        graph = update_global_irm(graph, b, f, pose, min_cluster=1)
    assert frontier_edge(graph, (1, 1)) == (0, 3 * b.cell_size)
    got = update_global_irm(graph, b, f, (4, 1), min_cluster=1)  # crumb 2, on crumb 0's cell
    assert [n.pose for n in got.nodes_of_kind(BREADCRUMB)] == [(4, 1), (4, 5), (4, 1)]
    assert frontier_edge(got, (1, 1)) == (2, 3 * b.cell_size)
    assert_fresh(got, graph, b, f, (4, 1))


def test_unattached_frontier_waits_for_a_new_crumb(monkeypatch):
    """A frontier that reaches no crumb stays unattached, unsearched, while
    only obstacles appear, and is searched again once a crumb is added."""
    b = known_free_belief(9, 15)
    f = riskless_field(b.state.shape)
    b.state[:, 7] = gw.KNOWN_OBSTACLE  # the robot's side is walled off
    b.state[:, 13:] = gw.UNKNOWN  # a frontier along column 12, its node at (4, 12)
    graph = update_global_irm(None, b, f, (4, 1), min_cluster=1)
    assert graph.nodes_of_kind(FRONTIER) == []
    searches = counted_searches(monkeypatch)
    b.state[4, 14] = gw.KNOWN_OBSTACLE
    graph = update_global_irm(graph, b, f, (4, 1), min_cluster=1)
    assert searches == [] and graph.nodes_of_kind(FRONTIER) == []
    got = update_global_irm(graph, b, f, (4, 10), min_cluster=1)  # crumb 1, behind the wall
    assert searches == [(4, 12), (4, 10)]
    assert frontier_edge(got, (4, 12)) == (1, 2 * b.cell_size)
    assert_fresh(got, graph, b, f, (4, 10))


def test_attachments_are_dropped_when_a_cell_reopens_or_the_belief_changes(monkeypatch):
    """Every answer is searched again on a belief in which a cell went back
    from obstacle to unknown, and on another belief object."""
    b = known_free_belief(9, 15)
    f = riskless_field(b.state.shape)
    b.state[:, 14:] = gw.UNKNOWN  # a frontier along column 13, its node at (4, 13)
    b.state[:8, 7] = gw.KNOWN_OBSTACLE  # a wall open at row 8
    graph = update_global_irm(None, b, f, (4, 1), min_cluster=1)
    assert frontier_edge(graph, (4, 13)) == (0, 20 * b.cell_size)
    searches = counted_searches(monkeypatch)
    b.state[4, 7] = gw.UNKNOWN  # passable again: the straight line opens
    got = update_global_irm(graph, b, f, (4, 1), min_cluster=1)
    assert frontier_edge(got, (4, 13)) == (0, 12 * b.cell_size)
    assert sorted(searches) == sorted([n.pose for n in got.nodes_of_kind(FRONTIER)] + [(4, 1)])
    assert_fresh(got, graph, b, f, (4, 1))
    twin = BeliefGrid(state=b.state.copy(), covered=b.covered.copy(), cell_size=b.cell_size)
    searches.clear()
    again = update_global_irm(got, twin, f, (4, 1), min_cluster=1)
    assert graph_to_dict(again) == graph_to_dict(got)
    assert sorted(searches) == sorted([n.pose for n in got.nodes_of_kind(FRONTIER)] + [(4, 1)])


def test_update_global_irm_builds_the_crumb_graph_once(monkeypatch):
    """update_global_irm attaches the frontiers onto the graph grow_trail
    returned; attach_frontiers, called on a trail a caller holds (as HCP
    does), returns a new graph and leaves the trail as it was. Both give
    the same roadmap."""
    w = gw.generate_maze(9, 21, 21)
    b = BeliefGrid.for_world(w)
    f = riskless_field((21, 21))
    gw.sense(w, b, w.spawn)
    built = collections.Counter()
    trail_graph = roadmap._trail_graph

    def counted(*args):
        built["crumb graphs"] += 1
        return trail_graph(*args)

    monkeypatch.setattr(roadmap, "_trail_graph", counted)
    got = update_global_irm(None, b, f, w.spawn, min_cluster=1)
    assert built["crumb graphs"] == 1
    assert got.nodes_of_kind(FRONTIER) and got.attached is not None

    trail = roadmap.grow_trail(None, b, f, w.spawn)
    before = copy.deepcopy((graph_to_dict(trail), trail.adjacency, trail.nodes))
    attached = roadmap.attach_frontiers(trail, b, f, w.spawn, min_cluster=1)
    assert built["crumb graphs"] == 3
    assert attached is not trail and attached.nodes is not trail.nodes
    assert (graph_to_dict(trail), trail.adjacency, trail.nodes) == before
    assert trail.attached is None and not trail.nodes_of_kind(FRONTIER)
    assert graph_to_dict(attached) == graph_to_dict(got)
    assert attached.adjacency == got.adjacency


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
