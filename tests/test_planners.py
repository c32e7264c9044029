import itertools
import math

import numpy as np
import pytest

import reference_impl as ref
from gridexplore import world as gw
from gridexplore.planners import (
    Policy, RewardModel, plan_global, plan_hfe, plan_local, plan_nbv,
)
from gridexplore.risk import RiskField
from gridexplore.roadmap import (
    BREADCRUMB, FRONTIER, GLOBAL, LATTICE, LOCAL, ROBOT, LocalLattice, RoadmapGraph,
    RoadmapNode, build_local_irm,
)
from gridexplore.world import BeliefGrid, SensorSpec


def riskless_field(shape):
    return RiskField(mu=np.zeros(shape), sigma=np.zeros(shape))


def make_graph(scope, nodes, edges, horizon=10):
    """nodes: {id: (pose, kind, gain)}; edges: [(u, v, length, risk)]."""
    g = RoadmapGraph(scope=scope, horizon=horizon)
    for nid, (pose, kind, gain) in nodes.items():
        g.add_node(RoadmapNode(id=nid, pose=pose, kind=kind, info_gain=gain))
    for u, v, length, risk in edges:
        g.add_edge(u, v, length=length, risk=risk)
    return g


def random_local_graph(rng, n_nodes=6):
    nodes = {0: ((0, 0), ROBOT, 0.0)}
    for i in range(1, n_nodes):
        nodes[i] = ((0, i), LATTICE, float(rng.uniform(0, 3)))
    edges = []
    # random connected graph: a spanning chain plus extras
    for i in range(1, n_nodes):
        edges.append((i - 1, i, float(rng.uniform(0.3, 1.5)), 0.0))
    for _ in range(n_nodes // 2):
        u, v = rng.integers(0, n_nodes, size=2)
        if u != v and not any(e[0] == min(u, v) and e[1] == max(u, v) for e in edges):
            edges.append((int(min(u, v)), int(max(u, v)), float(rng.uniform(0.3, 1.5)), 0.0))
    return make_graph(LOCAL, nodes, edges)


# --- plan_local ----------------------------------------------------------------------

def test_plan_local_rewards_zero_a_revisit():
    # a star: the best walk collects node 1, crosses the robot again, then
    # collects node 2
    g1, g2, length = 3.0, 2.0, 1.0
    rm = RewardModel(coverage_weight=1.5, distance_cost=0.1)
    nodes = {0: ((1, 1), ROBOT, 0.0), 1: ((0, 1), LATTICE, g1), 2: ((2, 1), LATTICE, g2)}
    g = make_graph(LOCAL, nodes, [(0, 1, length, 0.0), (0, 2, length, 0.0)])
    policy = plan_local(g, rm)
    w, dc = rm.coverage_weight, rm.distance_cost
    assert policy.node_sequence == [0, 1, 0, 2]
    assert policy.step_rewards == [w * g1 - dc * length, w * 0.0 - dc * length,
                                   w * g2 - dc * length]
    gamma = rm.gamma_local
    assert policy.utility == (policy.step_rewards[0] + policy.step_rewards[1] * gamma
                              + policy.step_rewards[2] * gamma ** 2)


def test_plan_local_none_when_no_gain():
    nodes = {0: ((0, 0), ROBOT, 0.0), 1: ((0, 1), LATTICE, 0.0)}
    g = make_graph(LOCAL, nodes, [(0, 1, 1.0, 0.0)])
    assert plan_local(g, RewardModel()) is None


def test_plan_local_matches_exhaustive_enumeration():
    rng = np.random.default_rng(17)
    rm = RewardModel()
    for trial in range(30):
        g = random_local_graph(rng, n_nodes=6)
        got = plan_local(g, rm, horizon=4, budget=100000)
        want = ref.plan_local(g, rm, horizon=4)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.to_dict() == want.to_dict()
            assert got.path_cells == want.path_cells


def test_plan_local_dominant_single_neighbor():
    nodes = {0: ((0, 0), ROBOT, 0.0), 1: ((0, 1), LATTICE, 5.0)}
    g = make_graph(LOCAL, nodes, [(0, 1, 1.0, 0.0)])
    policy = plan_local(g, RewardModel(), horizon=2)
    assert policy is not None
    assert policy.node_sequence == [0, 1]
    assert policy.goal_pose == (0, 1)


def test_plan_local_walk_may_stop_before_the_horizon():
    # moving on from the dead end loses more than [0, 1] gains: a walk bound
    # that had to use all 9 moves would rate every walk negative
    nodes = {0: ((0, 0), ROBOT, 0.0), 1: ((0, 1), LATTICE, 1.5)}
    g = make_graph(LOCAL, nodes, [(0, 1, 1.0, 0.0)])
    rm = RewardModel(gamma_local=1.0, distance_cost=1.0)
    policy = plan_local(g, rm, horizon=10)
    assert policy.node_sequence == [0, 1]
    assert policy.utility == 0.5


def test_plan_local_respects_expansion_budget():
    rng = np.random.default_rng(23)
    g = random_local_graph(rng, n_nodes=6)
    tiny = plan_local(g, RewardModel(), horizon=4, budget=2)
    full = plan_local(g, RewardModel(), horizon=4, budget=100000)
    if tiny is not None and full is not None:
        assert tiny.utility <= full.utility + 1e-12


def test_plan_local_deterministic():
    rng = np.random.default_rng(29)
    g = random_local_graph(rng, 7)
    p1 = plan_local(g, RewardModel(), horizon=4)
    p2 = plan_local(g, RewardModel(), horizon=4)
    assert p1.node_sequence == p2.node_sequence
    assert p1.utility == p2.utility


def test_plan_local_utility_scale_invariance():
    rng = np.random.default_rng(31)
    g = random_local_graph(rng, 6)
    rm = RewardModel(coverage_weight=1.0, distance_cost=0.05)
    k = 3.7
    scaled = RewardModel(coverage_weight=k, distance_cost=0.05 * k)
    p1 = plan_local(g, rm, horizon=4)
    p2 = plan_local(g, scaled, horizon=4)
    assert (p1 is None) == (p2 is None)
    if p1 is not None:
        assert p2.utility == pytest.approx(k * p1.utility, rel=1e-9)
        assert p2.node_sequence == p1.node_sequence


def graph_with_gaps_and_loops(rng, n_nodes):
    """A local graph with ids from -40 to 40 in no order, unequal edge
    lengths and risks, and a self-loop at every third node."""
    ids = rng.choice(np.arange(-40, 41), size=n_nodes, replace=False).tolist()
    nodes = {nid: ((int(rng.integers(0, 9)), int(rng.integers(0, 9))), LATTICE,
                   float(rng.uniform(0, 3))) for nid in ids}
    nodes[ids[0]] = ((4, 4), ROBOT, float(rng.uniform(0, 1)))
    edges = [(ids[i - 1], ids[i], float(rng.uniform(0.2, 2.0)), float(rng.uniform(0, 1)))
             for i in range(1, n_nodes)]
    edges += [(u, u, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0, 1))) for u in ids[::3]]
    for _ in range(n_nodes):
        u, v = rng.choice(ids, size=2).tolist()
        edges.append((u, v, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0, 1))))
    return make_graph(LOCAL, nodes, edges)


@pytest.mark.parametrize("seed", range(12))
def test_plan_local_on_a_graph_equals_plan_local_on_its_lattice(seed):
    rng = np.random.default_rng(seed)
    g = graph_with_gaps_and_loops(rng, int(rng.integers(2, 9)))
    lattice = LocalLattice.from_graph(g)
    ids = lattice.nodes.tolist()
    assert ids == sorted(g.nodes)
    assert ids[lattice.robot] == g.robot_node().id
    for i, nid in enumerate(ids):
        assert lattice.poses[i].tolist() == list(g.nodes[nid].pose)
        assert lattice.gains[i] == g.nodes[nid].info_gain
        span = slice(lattice.indptr[i], lattice.indptr[i + 1])
        # the sorted adjacency list: a self-loop is one move
        assert [ids[m] for m in lattice.targets[span].tolist()] == g.neighbors(nid)
        for m, length, risk in zip(lattice.targets[span].tolist(),
                                   lattice.lengths[span].tolist(), lattice.risks[span].tolist()):
            edge = g.get_edge(nid, ids[m])
            assert (length, risk) == (edge.length, edge.risk)
    rm = RewardModel(distance_cost=float(rng.choice([0.05, 0.5])))
    want = ref.plan_local(g, rm, horizon=5)
    for graph in (g, lattice):
        got = plan_local(graph, rm, horizon=5, budget=500)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.to_dict() == want.to_dict()
            assert got.path_cells == want.path_cells


def test_plan_local_policies_stay_on_believed_free_cells():
    w = gw.generate_maze(13, 21, 21)
    b = BeliefGrid.for_world(w)
    gw.sense(w, b, w.spawn)
    g = build_local_irm(b, riskless_field((21, 21)), w.spawn)
    policy = plan_local(g, RewardModel())
    if policy is not None:
        for cell in policy.path_cells:
            assert b.state[cell] == gw.KNOWN_FREE


# --- plan_global ---------------------------------------------------------------------

def global_graph_with_frontiers(frontiers, chain_len=3, spacing=1.0):
    """Breadcrumb chain 0..n-1 with the robot at node -1 attached to crumb 0."""
    nodes = {i: ((0, i), BREADCRUMB, 0.0) for i in range(chain_len)}
    edges = [(i - 1, i, spacing, 0.0) for i in range(1, chain_len)]
    g = make_graph(GLOBAL, nodes, edges, horizon=20)
    g.add_node(RoadmapNode(id=-1, pose=(0, 0), kind=ROBOT))
    g.add_edge(-1, 0, length=1e-6, risk=0.0)
    for fid, (crumb, gain, length) in frontiers.items():
        g.add_node(RoadmapNode(id=fid, pose=(1, fid), kind=FRONTIER, info_gain=gain))
        g.add_edge(fid, crumb, length=length, risk=0.0)
    return g


def test_plan_global_none_without_frontiers():
    g = global_graph_with_frontiers({})
    assert plan_global(g, RewardModel()) is None


def test_plan_global_prefers_nearer_equal_gain():
    g = global_graph_with_frontiers({
        10: (0, 4.0, 5.0),   # near frontier
        11: (2, 4.0, 10.0),  # far frontier, same gain
    })
    policy = plan_global(g, RewardModel())
    assert policy.node_sequence[-1] == 10


def test_plan_global_matches_exhaustive_evaluation():
    rng = np.random.default_rng(37)
    rm = RewardModel()
    for trial in range(20):
        frontiers = {}
        for fid in range(10, 10 + int(rng.integers(1, 5))):
            frontiers[fid] = (int(rng.integers(0, 3)), float(rng.uniform(0, 5)),
                              float(rng.uniform(0.5, 8)))
        g = global_graph_with_frontiers(frontiers)
        policy = plan_global(g, rm, horizon=20)

        # oracle: evaluate every frontier by definition
        dist = {-1: 0.0, 0: 1e-6, 1: 1e-6 + 1.0, 2: 1e-6 + 2.0}
        hops = {-1: 0, 0: 1, 1: 2, 2: 3}
        best = None
        for fid, (crumb, gain, length) in sorted(frontiers.items()):
            d = dist[crumb] + length
            h = hops[crumb] + 1
            utility = rm.gamma_global ** h * rm.coverage_weight * gain - rm.distance_cost * d
            if best is None or utility > best[0]:
                best = (utility, fid)
        assert policy is not None
        assert policy.node_sequence[-1] == best[1]
        assert policy.utility == pytest.approx(best[0], abs=1e-9)


def test_plan_global_skips_disconnected_frontier():
    g = global_graph_with_frontiers({10: (0, 4.0, 5.0)})
    g.add_node(RoadmapNode(id=99, pose=(9, 9), kind=FRONTIER, info_gain=100.0))
    policy = plan_global(g, RewardModel())
    assert policy.node_sequence[-1] == 10


def test_plan_global_respects_hop_horizon():
    g = global_graph_with_frontiers({10: (2, 100.0, 1.0), 11: (0, 1.0, 1.0)})
    policy = plan_global(g, RewardModel(), horizon=2)
    assert policy.node_sequence[-1] == 11  # the rich frontier is 4 hops away


@pytest.mark.parametrize("plan", [plan_global, plan_hfe])
def test_frontier_search_needs_the_robot_node(plan):
    g = make_graph(GLOBAL, {0: ((0, 0), BREADCRUMB, 0.0), 10: ((1, 0), FRONTIER, 4.0)},
                   [(0, 10, 1.0, 0.0)], horizon=20)
    with pytest.raises(ValueError, match="robot node -1"):
        plan(g, RewardModel())


# --- plan_nbv ------------------------------------------------------------------------

def open_belief_with_unknown_east(size=15):
    state = np.full((size, size), gw.KNOWN_FREE, dtype=np.uint8)
    state[:, size - 3:] = gw.UNKNOWN
    return BeliefGrid(state=state, covered=np.zeros((size, size), dtype=bool),
                      cell_size=0.5)


def test_plan_nbv_single_viewpoint():
    state = np.full((3, 3), gw.KNOWN_OBSTACLE, dtype=np.uint8)
    state[1, 1] = gw.KNOWN_FREE
    state[1, 2] = gw.KNOWN_FREE
    state[0, 2] = gw.UNKNOWN
    b = BeliefGrid(state=state, covered=np.zeros((3, 3), dtype=bool), cell_size=0.5)
    policy = plan_nbv(b, riskless_field((3, 3)), (1, 1), samples=5,
                      rng=np.random.default_rng(0))
    assert policy is not None
    assert policy.goal_pose == (1, 2)


def test_plan_nbv_dominant_gain_wins():
    b = open_belief_with_unknown_east()
    rng = np.random.default_rng(1)
    policy = plan_nbv(b, riskless_field(b.state.shape), (7, 2), samples=30, rng=rng,
                      radius=20.0, sensor=SensorSpec(range_m=2.0))
    assert policy is not None
    # viewpoints near the unknown edge dominate: chosen goal must see unknown
    assert gw.visible_unknown_count(b, policy.goal_pose, SensorSpec(range_m=2.0)) > 0


def test_plan_nbv_matches_score_recomputation():
    from gridexplore.motion import astar, path_length

    b = open_belief_with_unknown_east()
    field = riskless_field(b.state.shape)
    sensor = SensorSpec(range_m=2.0)
    rm = RewardModel()
    rng = np.random.default_rng(2)
    policy = plan_nbv(b, field, (7, 2), samples=10, rng=rng, radius=20.0,
                      sensor=sensor, reward_model=rm)
    assert policy is not None
    # independent recomputation of the winning score
    gain = gw.visible_unknown_count(b, policy.goal_pose, sensor) * 0.25
    path = astar(b, field, (7, 2), policy.goal_pose)
    score = rm.coverage_weight * gain - rm.distance_cost * path_length(path, 0.5)
    assert policy.utility == pytest.approx(score, abs=1e-12)


def test_plan_nbv_none_when_nothing_gains():
    state = np.full((9, 9), gw.KNOWN_FREE, dtype=np.uint8)
    b = BeliefGrid(state=state, covered=np.ones((9, 9), dtype=bool), cell_size=0.5)
    policy = plan_nbv(b, riskless_field((9, 9)), (4, 4), samples=10,
                      rng=np.random.default_rng(3))
    assert policy is None


@pytest.mark.parametrize("known", [False, True], ids=["all_unknown", "known_around"])
@pytest.mark.parametrize("pose_state", [gw.UNKNOWN, gw.KNOWN_OBSTACLE], ids=["unknown", "obstacle"])
def test_plan_nbv_refuses_a_pose_not_believed_free(known, pose_state):
    # the same invalid pose is refused whether or not any cell near it is known
    state = np.full((9, 9), gw.KNOWN_FREE if known else gw.UNKNOWN, dtype=np.uint8)
    state[4, 4] = pose_state
    b = BeliefGrid(state=state, covered=np.zeros((9, 9), dtype=bool), cell_size=0.5)
    with pytest.raises(gw.InvalidPoseError, match=r"robot pose \(4, 4\) is not believed free"):
        plan_nbv(b, riskless_field((9, 9)), (4, 4), samples=10, rng=np.random.default_rng(0))


def test_plan_nbv_deterministic_given_rng_seed():
    b = open_belief_with_unknown_east()
    field = riskless_field(b.state.shape)
    p1 = plan_nbv(b, field, (7, 2), samples=10, rng=np.random.default_rng(9), radius=20.0)
    p2 = plan_nbv(b, field, (7, 2), samples=10, rng=np.random.default_rng(9), radius=20.0)
    assert p1.goal_pose == p2.goal_pose
    assert p1.utility == p2.utility


# --- plan_hfe ------------------------------------------------------------------------

def test_plan_hfe_none_without_frontiers():
    g = global_graph_with_frontiers({})
    assert plan_hfe(g, RewardModel()) is None


def test_plan_hfe_greedy_dominance():
    g = global_graph_with_frontiers({
        10: (0, 4.0, 5.0),
        11: (2, 4.0, 10.0),
    })
    policy = plan_hfe(g, RewardModel())
    assert policy.node_sequence[-1] == 10


def test_plan_hfe_matches_one_step_score_oracle():
    rng = np.random.default_rng(41)
    rm = RewardModel()
    frontiers = {}
    for fid in range(10, 14):
        frontiers[fid] = (int(rng.integers(0, 3)), float(rng.uniform(0, 5)),
                          float(rng.uniform(0.5, 8)))
    g = global_graph_with_frontiers(frontiers)
    policy = plan_hfe(g, rm)
    dist = {0: 1e-6, 1: 1e-6 + 1.0, 2: 1e-6 + 2.0}
    scores = {
        fid: rm.coverage_weight * gain - rm.distance_cost * (dist[crumb] + length)
        for fid, (crumb, gain, length) in frontiers.items()
    }
    best_fid = max(sorted(scores), key=lambda f: scores[f])
    assert policy.node_sequence[-1] == best_fid
    assert policy.utility == pytest.approx(scores[best_fid], abs=1e-9)
