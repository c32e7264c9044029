"""The fast paths against the implementations they replaced (reference_impl.py)
and, where scipy is installed, against the scipy.ndimage calls the world and
roadmap code no longer makes. Every comparison is exact."""
import heapq
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_impl as ref
from gridexplore import harness, planners, risk, roadmap
from gridexplore import world as gw
from gridexplore.motion import astar, path_length, path_length_lower_bound
from gridexplore.planners import RewardModel, plan_local, plan_nbv
from gridexplore.risk import RiskField, cvar, edge_risk, edge_risks
from gridexplore.roadmap import LocalLattice, build_local_irm, detect_frontiers, graph_to_dict
from gridexplore.switching import calibrate_j_max
from gridexplore.world import BeliefGrid, SensorSpec

seeds = st.integers(0, 2**32 - 1)


def random_belief(rng, shape, cell_size=0.5):
    state = rng.choice(
        np.array([gw.UNKNOWN, gw.KNOWN_FREE, gw.KNOWN_OBSTACLE], dtype=np.uint8),
        size=shape, p=[0.3, 0.55, 0.15],
    )
    return BeliefGrid(state=state, covered=np.zeros(shape, dtype=bool), cell_size=cell_size)


def random_lattice(seed, radius, range_m, occlusion, open_room=False):
    """A lattice over a random belief. With open_room the belief is a
    known-free rectangle in unknown space instead: its gains are mirror
    symmetric, so many walks tie in utility."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(3, 30)), int(rng.integers(3, 30)))
    belief = random_belief(rng, shape)
    if open_room:
        belief.state[:] = gw.UNKNOWN
        r0, c0 = int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1]))
        belief.state[r0:r0 + int(rng.integers(1, 12)), c0:c0 + int(rng.integers(1, 12))] = \
            gw.KNOWN_FREE
    free = np.argwhere(belief.state == gw.KNOWN_FREE)
    if open_room:
        robot = tuple(int(x) for x in free[int(rng.integers(0, len(free)))])
    else:
        robot = (int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])))
    belief.state[robot] = gw.KNOWN_FREE
    mu = rng.uniform(0, 1, shape) * (rng.random(shape) < 0.5)
    field = RiskField(mu=mu, sigma=0.5 * mu, seed=seed)
    sensor = SensorSpec(range_m=range_m, occlusion=occlusion)
    return belief, field, robot, sensor


# --- lattice info gain ----------------------------------------------------------

@given(seed=seeds, range_m=st.sampled_from([0.4, 1.0, 2.5, 5.0, 8.0]), occlusion=st.booleans(),
       cell_size=st.sampled_from([0.5, 1.0]), batch=st.sampled_from([None, 1, 7, 9, 65]))
@settings(max_examples=150, deadline=None)
def test_batched_counts_equal_per_pose_counts(seed, range_m, occlusion, cell_size, batch):
    """Every cell of the grid as one batch, or `batch` random cells: the
    counts pack 8 poses into a byte, so 1, 7, 9 and 65 poses end a byte
    part-way. At 0.5 m cells a range of 8 m is a 16-cell ray table and
    0.4 m an empty one."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 25)), int(rng.integers(1, 25)))
    belief = random_belief(rng, shape, cell_size)
    sensor = SensorSpec(range_m=range_m, occlusion=occlusion)
    if batch is None:
        cells = [(r, c) for r in range(shape[0]) for c in range(shape[1])]
    else:
        cells = random_cells(rng, shape, batch)
    counts = gw.visible_unknown_counts(belief, cells, sensor)
    assert counts.tolist() == [ref.visible_unknown_count(belief, cell, sensor) for cell in cells]


@pytest.mark.parametrize("range_m", [0.4, 8.0])
@pytest.mark.parametrize("batch", [0, 1, 7, 8, 9, 65])
@pytest.mark.parametrize("occlusion", [True, False])
def test_batched_counts_at_packing_boundaries(range_m, batch, occlusion):
    rng = np.random.default_rng(batch)
    belief = random_belief(rng, (30, 34))
    sensor = SensorSpec(range_m=range_m, occlusion=occlusion)
    cells = random_cells(rng, (30, 34), batch)
    counts = gw.visible_unknown_counts(belief, cells, sensor)
    assert counts.shape == (batch,)
    assert counts.tolist() == [ref.visible_unknown_count(belief, cell, sensor) for cell in cells]


@given(seed=seeds, radius=st.sampled_from([1.0, 2.0, 4.0, 10.0]),
       range_m=st.sampled_from([1.0, 2.5, 5.0]), occlusion=st.booleans())
@settings(max_examples=100, deadline=None)
def test_lattice_gains_equal_per_node_loop(seed, radius, range_m, occlusion):
    belief, field, robot, sensor = random_lattice(seed, radius, range_m, occlusion)
    lattice = build_local_irm(belief, field, robot, radius=radius, sensor=sensor)
    assert lattice.gains.tolist() == ref.lattice_gains(belief, cells_of(lattice), sensor)


def cells_of(lattice):
    return [tuple(pose) for pose in lattice.poses.tolist()]


def assert_same_lattice(belief, field, robot, radius, sensor):
    """build_local_irm against the reference assembly through the converter,
    field by field: ids, poses, gains to the bit, the CSR order of the
    moves, their lengths and their risks."""
    got = build_local_irm(belief, field, robot, radius=radius, sensor=sensor, horizon=7)
    want = LocalLattice.from_graph(ref.local_lattice(belief, field, robot, radius, sensor,
                                                     horizon=7))
    assert (got.scope, got.horizon, got.robot) == (want.scope, want.horizon, want.robot)
    for name in ("nodes", "poses", "gains", "indptr", "targets", "lengths", "risks"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    return got


@given(seed=seeds, radius=st.floats(1.0, 10.0), row=st.sampled_from([None, 0, -1]),
       col=st.sampled_from([None, 0, -1]), range_m=st.sampled_from([1.0, 2.5, 5.0]),
       occlusion=st.booleans(), open_room=st.booleans())
@settings(max_examples=150, deadline=None)
def test_lattice_equals_reference_assembly(seed, radius, row, col, range_m, occlusion,
                                           open_room):
    """row and col move the robot to the first or last row or column (None
    keeps it where random_lattice put it), so corners and edges clip the disk."""
    belief, field, robot, sensor = random_lattice(seed, radius, range_m, occlusion, open_room)
    h, w = belief.state.shape
    robot = (robot[0] if row is None else row % h, robot[1] if col is None else col % w)
    belief.state[robot] = gw.KNOWN_FREE
    assert_same_lattice(belief, field, robot, radius, sensor)


@pytest.mark.parametrize("robot", [(0, 0), (6, 8), (3, 0), (0, 4), (3, 4)])
def test_lattice_wider_than_grid_equals_reference_assembly(robot):
    belief = BeliefGrid(state=np.full((7, 9), gw.KNOWN_FREE, dtype=np.uint8),
                        covered=np.zeros((7, 9), dtype=bool), cell_size=0.5)
    belief.state[2, 2:7] = gw.KNOWN_OBSTACLE
    field = RiskField(mu=np.full((7, 9), 0.4), sigma=np.full((7, 9), 0.2), seed=3)
    graph = assert_same_lattice(belief, field, robot, 50.0, SensorSpec(range_m=2.5))
    assert len(graph.nodes) == 7 * 9 - 5


def test_lattice_computes_missing_risks_in_pair_order(monkeypatch):
    """On a fresh field the lattice computes its edge risks in one batch:
    each node's right, then down edge, in id order, as the reference
    assembly adds them."""
    belief = BeliefGrid(state=np.full((7, 9), gw.KNOWN_FREE, dtype=np.uint8),
                        covered=np.zeros((7, 9), dtype=bool), cell_size=0.5)
    belief.state[2, 2:7] = gw.KNOWN_OBSTACLE
    field = RiskField(mu=np.full((7, 9), 0.4), sigma=np.full((7, 9), 0.2), seed=3)
    batches = []
    compute = risk._compute
    monkeypatch.setattr(risk, "_compute", lambda f, keys: batches.append(keys) or compute(f, keys))
    build_local_irm(belief, field, (3, 4), radius=50.0)
    graph = ref.local_lattice(belief, field, (3, 4), 50.0, SensorSpec())
    assert batches == [[(graph.nodes[e.src].pose, graph.nodes[e.dst].pose)
                        for e in graph.edges.values()]]


def test_single_node_lattice_equals_reference_assembly():
    belief = BeliefGrid(state=np.full((5, 5), gw.UNKNOWN, dtype=np.uint8),
                        covered=np.zeros((5, 5), dtype=bool), cell_size=0.5)
    belief.state[1:4, 1:4] = gw.KNOWN_OBSTACLE
    belief.state[2, 2] = gw.KNOWN_FREE
    field = RiskField(mu=np.full((5, 5), 0.4), sigma=np.full((5, 5), 0.2), seed=3)
    lattice = assert_same_lattice(belief, field, (2, 2), 10.0, SensorSpec(range_m=2.5))
    assert lattice.nodes.tolist() == [0] and lattice.indptr.tolist() == [0, 0]
    assert lattice.targets.size == 0


# --- sensing ----------------------------------------------------------------------

def random_world(rng, kind, seed, cell_size):
    """A small world of the given kind: random obstacles at a random density,
    or one of the generators at a small size."""
    if kind == "maze":
        return gw.generate_maze(seed, int(rng.integers(5, 22)), int(rng.integers(5, 22)),
                                cell_size=cell_size)
    if kind == "cave":
        return gw.generate_cave(seed, width=int(rng.integers(9, 26)),
                                height=int(rng.integers(9, 26)), cell_size=cell_size)
    if kind == "subway":
        return gw.generate_subway(seed, rooms=int(rng.integers(1, 4)),
                                  room_size_range=(2.0, 5.0), cell_size=cell_size)
    shape = (int(rng.integers(1, 25)), int(rng.integers(1, 25)))
    occ = (rng.random(shape) < rng.uniform(0.0, 0.6)).astype(np.uint8)
    spawn = tuple(int(rng.integers(0, n)) for n in shape)
    occ[spawn] = gw.FREE
    return gw.make_world(occ, spawn, cell_size=cell_size)


@given(seed=seeds, kind=st.sampled_from(["random", "maze", "cave", "subway"]),
       range_m=st.one_of(st.sampled_from([0.4, 1.0, 1.5, 3.0, 5.0, 12.0]), st.floats(0.3, 15.0)),
       arc=st.one_of(st.sampled_from([2.0 * math.pi, math.pi, math.pi / 2, 0.1]),
                     st.floats(0.05, 2.0 * math.pi)),
       heading=st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi, -math.pi / 2]),
                         st.floats(-10.0, 10.0)),
       occlusion=st.booleans(), cell_size=st.sampled_from([0.5, 1.0]))
@settings(max_examples=200, deadline=None)
def test_sense_equals_reference(seed, kind, range_m, arc, heading, occlusion, cell_size):
    """Three sweeps from random free poses onto a random prior belief: every
    cell's state and coverage equal the one-line-per-target reference."""
    rng = np.random.default_rng(seed)
    world = random_world(rng, kind, seed, cell_size)
    sensor = SensorSpec(range_m=range_m, arc=arc, occlusion=occlusion)
    got = random_belief(rng, world.occupancy.shape, world.cell_size)
    got.covered[:] = rng.random(got.covered.shape) < 0.3
    want = BeliefGrid(state=got.state.copy(), covered=got.covered.copy(),
                      cell_size=got.cell_size)
    free = np.argwhere(world.occupancy == gw.FREE)
    for _ in range(3):
        pose = tuple(int(x) for x in free[int(rng.integers(0, len(free)))])
        gw.sense(world, got, pose, sensor, heading)
        ref.sense(world, want, pose, sensor, heading)
        assert np.array_equal(got.state, want.state)
        assert np.array_equal(got.covered, want.covered)


# --- local search -----------------------------------------------------------------

@given(seed=seeds, radius=st.sampled_from([1.0, 2.0, 4.0, 10.0]),
       horizon=st.integers(1, 10), budget=st.sampled_from([1, 2, 7, 60, 500, 20000]),
       gamma=st.sampled_from([0.5, 0.9, 0.95, 1.0]),
       weight=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
       distance_cost=st.sampled_from([0.0, 0.05, 0.3, 5.0]), open_room=st.booleans())
@settings(max_examples=200, deadline=None)
def test_plan_local_equals_reference_search(seed, radius, horizon, budget, gamma, weight,
                                            distance_cost, open_room):
    belief, field, robot, sensor = random_lattice(seed, radius, 2.5, True, open_room)
    lattice = build_local_irm(belief, field, robot, radius=radius, sensor=sensor)
    graph = ref.local_lattice(belief, field, robot, radius, sensor)
    reward = RewardModel(gamma_local=gamma, coverage_weight=weight,
                         distance_cost=distance_cost)
    assert_same_local_policy(lattice, graph, reward, horizon, budget)


def assert_same_local_policy(lattice, graph, reward, horizon, budget):
    """plan_local on the lattice against the reference search on the
    reference graph of the same lattice."""
    got = plan_local(lattice, reward, horizon=horizon, budget=budget, created_at=3)
    want = ref.plan_local(graph, reward, horizon=horizon, budget=budget, created_at=3)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.to_dict() == want.to_dict()
        assert got.path_cells == want.path_cells
        # the utility is the discounted sum of the rewards it reports
        utility = 0.0
        for t, r in enumerate(got.step_rewards):
            utility += r * reward.gamma_local ** t
        assert got.utility == utility


def open_room_lattice(seed):
    """The 10 m lattice in a known-free room of random size in unknown
    space, the robot somewhere inside: a walk space far beyond a 20 000-pop
    budget, with mirror-symmetric gains."""
    rng = np.random.default_rng(seed)
    shape = (48, 48)
    state = np.full(shape, gw.UNKNOWN, dtype=np.uint8)
    h, w = int(rng.integers(12, 30)), int(rng.integers(12, 30))
    r0, c0 = int(rng.integers(0, shape[0] - h)), int(rng.integers(0, shape[1] - w))
    state[r0:r0 + h, c0:c0 + w] = gw.KNOWN_FREE
    robot = (r0 + int(rng.integers(0, h)), c0 + int(rng.integers(0, w)))
    belief = BeliefGrid(state=state, covered=np.zeros(shape, dtype=bool), cell_size=0.5)
    mu = rng.uniform(0, 1, shape) * (rng.random(shape) < 0.5)
    field = RiskField(mu=mu, sigma=0.5 * mu, seed=seed)
    sensor = SensorSpec(range_m=2.5)
    return (build_local_irm(belief, field, robot, radius=10.0, sensor=sensor, horizon=10),
            ref.local_lattice(belief, field, robot, 10.0, sensor, horizon=10))


def pops_of(monkeypatch, call):
    """The number of heapq.heappop calls that call() makes."""
    pops = 0
    pop = heapq.heappop

    def counting(heap):
        nonlocal pops
        pops += 1
        return pop(heap)
    with monkeypatch.context() as patch:
        patch.setattr(heapq, "heappop", counting)
        call()
    return pops


@pytest.mark.parametrize("seed", [1, 7, 9])
def test_plan_local_equals_reference_search_in_truncated_open_rooms(seed, monkeypatch):
    # the reference pops its whole budget in all three rooms; plan_local's
    # early stop fires in rooms 7 and 9 (after 45 and 1726 pops) and not in 1
    lattice, graph = open_room_lattice(seed)
    reward = RewardModel()
    assert pops_of(monkeypatch, lambda: ref.plan_local(graph, reward, budget=20000)) == 20000
    assert_same_local_policy(lattice, graph, reward, 10, 20000)


def test_plan_local_early_stop_saves_pops(monkeypatch):
    lattice, graph = open_room_lattice(9)
    reward = RewardModel()
    assert pops_of(monkeypatch, lambda: ref.plan_local(graph, reward, budget=20000)) == 20000
    stopped = pops_of(monkeypatch, lambda: plan_local(lattice, reward, budget=20000))
    assert stopped <= 2000  # 1726 when pinned
    assert_same_local_policy(lattice, graph, reward, 10, 20000)


# --- A* and NBV -------------------------------------------------------------------

def random_field(rng, shape, uniform, seed):
    """Random terrain costs, or one cost everywhere, which makes many paths
    tie."""
    if uniform:
        mu = np.full(shape, float(rng.choice([0.0, 0.1, 1.0])))
    else:
        mu = rng.uniform(0, 1, shape) * (rng.random(shape) < 0.5)
    return RiskField(mu=mu, sigma=0.5 * mu, seed=seed)


def open_belief(rng, shape):
    """A known-free room, possibly with a few believed obstacles, in unknown
    space: many viewpoints and paths tie."""
    state = np.full(shape, gw.UNKNOWN, dtype=np.uint8)
    r0, c0 = int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1]))
    state[r0:r0 + int(rng.integers(1, 20)), c0:c0 + int(rng.integers(1, 20))] = gw.KNOWN_FREE
    for r, c in random_cells(rng, shape, int(rng.integers(0, 6))):
        state[r, c] = gw.KNOWN_OBSTACLE
    return BeliefGrid(state=state, covered=np.zeros(shape, dtype=bool), cell_size=0.5)


@given(seed=seeds, risk_weight=st.sampled_from([0.0, 1.0]), uniform=st.booleans(),
       open_room=st.booleans())
@settings(max_examples=300, deadline=None)
def test_astar_paths_equal_reference(seed, risk_weight, uniform, open_room):
    rng = np.random.default_rng(seed)
    belief = (open_belief(rng, (int(rng.integers(1, 25)), int(rng.integers(1, 25))))
              if open_room else random_grid_belief(rng))
    shape = belief.state.shape
    field = random_field(rng, shape, uniform, seed)
    free = [tuple(int(x) for x in cell) for cell in np.argwhere(belief.state == gw.KNOWN_FREE)]
    starts = random_cells(rng, shape, 2, margin=1)
    if free:
        starts += [free[int(rng.integers(0, len(free)))] for _ in range(3)]
    for start in starts:
        goals = random_cells(rng, shape, 3, margin=2) + [start]
        if free:
            goals += [free[int(rng.integers(0, len(free)))] for _ in range(3)]
        for goal in goals:
            try:
                want = ref.astar(belief, field, start, goal, risk_weight)
            except gw.InvalidPoseError:
                with pytest.raises(gw.InvalidPoseError):
                    astar(belief, field, start, goal, risk_weight)
                continue
            assert astar(belief, field, start, goal, risk_weight) == want


def test_astar_equals_reference_where_the_heuristic_last_bit_decides():
    # Two routes from the start meet at one merge cell m, whose cost of 2**53
    # rounds both arrivals to the same g, so m's parent is whichever of its
    # predecessors a (17 rows, 27 columns from the goal) and b (19, 27) pops
    # first. The cost on a's route puts the f of a and b within one ulp of
    # each other, so the heuristic's last bit decides: with glibc,
    # np.hypot(17, 27), which calls the C library, is one ulp above
    # math.hypot(17, 27).
    r, c = 20, 30
    state = np.full((24, 35), gw.KNOWN_FREE, dtype=np.uint8)
    state[:, c:] = gw.KNOWN_OBSTACLE
    state[r - 2:r + 3, c - 1] = gw.KNOWN_OBSTACLE
    ring = [(r + dr, c + dc) for dr in (-1, 1) for dc in range(3)]
    for cell in ring + [(r, c - 1), (r, c), (r, c + 2)]:
        state[cell] = gw.KNOWN_FREE
    belief = BeliefGrid(state=state, covered=np.zeros(state.shape, dtype=bool), cell_size=0.5)
    mu = np.zeros(state.shape)
    mu[r - 1, c + 1] = 0.5545178856753583
    mu[r, c] = 2.0 ** 53
    field = RiskField(mu=mu, sigma=np.zeros(state.shape))
    start, goal = (r, c + 2), (r - 18, c - 27)
    assert astar(belief, field, start, goal, 1.0) == ref.astar(belief, field, start, goal, 1.0)


@given(seed=seeds, samples=st.sampled_from([0, 1, 20, 200]),
       distance_cost=st.sampled_from([0.0, 0.05, 1.0]),
       risk_weight=st.sampled_from([0.0, 1.0]), open_room=st.booleans(),
       radius=st.sampled_from([1.0, 4.0, 8.0, 20.0]), range_m=st.sampled_from([1.0, 2.5]),
       pose_free=st.sampled_from([True, True, True, False]))
@settings(max_examples=300, deadline=None)
def test_plan_nbv_equals_reference(seed, samples, distance_cost, risk_weight, open_room,
                                   radius, range_m, pose_free):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 25)), int(rng.integers(1, 25)))
    belief = open_belief(rng, shape) if open_room else random_belief(rng, shape)
    field = random_field(rng, shape, bool(rng.integers(0, 2)), seed)
    (robot,) = random_cells(rng, shape, 1)
    belief.state[robot] = gw.KNOWN_FREE if pose_free else \
        rng.choice([gw.UNKNOWN, gw.KNOWN_OBSTACLE])
    reward = RewardModel(distance_cost=distance_cost)
    args = dict(samples=samples, radius=radius, sensor=SensorSpec(range_m=range_m),
                reward_model=reward, risk_weight=risk_weight, created_at=4)
    try:
        want = ref.plan_nbv(belief, field, robot, rng=np.random.default_rng(seed), **args)
    except gw.InvalidPoseError:
        with pytest.raises(gw.InvalidPoseError):
            plan_nbv(belief, field, robot, rng=np.random.default_rng(seed), **args)
        return
    got = plan_nbv(belief, field, robot, rng=np.random.default_rng(seed), **args)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.to_dict() == want.to_dict()
        assert got.path_cells == want.path_cells


@given(seed=seeds, size=st.integers(3, 20))
@settings(max_examples=100, deadline=None)
def test_plan_nbv_with_free_travel_plans_one_path(seed, size):
    # with distance_cost 0 a viewpoint's bound is its score, so in one room
    # (every viewpoint reachable) only the winner is planned, ties included
    rng = np.random.default_rng(seed)
    state = np.full((size + 4, size + 4), gw.UNKNOWN, dtype=np.uint8)
    state[2:-2, 2:-2] = gw.KNOWN_FREE
    belief = BeliefGrid(state=state, covered=np.zeros(state.shape, dtype=bool), cell_size=0.5)
    field = RiskField(mu=np.zeros(state.shape), sigma=np.zeros(state.shape))
    robot = (int(rng.integers(2, size + 2)), int(rng.integers(2, size + 2)))
    calls = []

    def counted(*args):
        calls.append(args[3])
        return astar(*args)

    planners.astar, original = counted, planners.astar
    try:
        policy = plan_nbv(belief, field, robot, samples=200, rng=np.random.default_rng(seed),
                          radius=20.0, sensor=SensorSpec(range_m=1.0),
                          reward_model=RewardModel(distance_cost=0.0))
    finally:
        planners.astar = original
    want = ref.plan_nbv(belief, field, robot, samples=200, rng=np.random.default_rng(seed),
                        radius=20.0, sensor=SensorSpec(range_m=1.0),
                        reward_model=RewardModel(distance_cost=0.0))
    assert (policy is None) == (want is None)
    assert calls == ([] if want is None else [want.goal_pose])


@given(seed=seeds, steps=st.integers(1, 2000),
       cell_size=st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0, 2.5]))
@settings(max_examples=300, deadline=None)
def test_path_length_lower_bound_never_exceeds_path_length(seed, steps, cell_size):
    rng = np.random.default_rng(seed)
    # one direction per path, or a random walk: straight runs and diagonal
    # runs accumulate the most rounding
    moves = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    if rng.random() < 0.5:
        picks = np.full(steps, rng.integers(0, 8))
    else:
        picks = rng.integers(0, 8, steps)
    path = [(0, 0)]
    for k in picks:
        dr, dc = moves[k]
        path.append((path[-1][0] + dr, path[-1][1] + dc))
    assert path_length_lower_bound(path[0], path[-1], cell_size) <= path_length(path, cell_size)


# --- grid BFS -------------------------------------------------------------------

def random_cells(rng, shape, count, margin=0):
    return [(int(rng.integers(-margin, shape[0] + margin)),
             int(rng.integers(-margin, shape[1] + margin))) for _ in range(count)]


def random_grid_belief(rng):
    """A belief of 1 to 24 rows and columns with random shares of unknown,
    free and obstacle cells, so that both open and walled-in starts occur."""
    shape = (int(rng.integers(1, 25)), int(rng.integers(1, 25)))
    p = rng.dirichlet([1.0, 1.0, 1.0])
    state = rng.choice(np.array([gw.UNKNOWN, gw.KNOWN_FREE, gw.KNOWN_OBSTACLE], dtype=np.uint8),
                       size=shape, p=p)
    return BeliefGrid(state=state, covered=np.zeros(shape, dtype=bool), cell_size=0.5)


@given(seed=seeds, density=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_flood_fill_free_equals_reference(seed, density):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 30)), int(rng.integers(1, 30)))
    occ = (rng.random(shape) < density).astype(np.uint8)
    for start in random_cells(rng, shape, 4, margin=2):
        got = gw.flood_fill_free(occ, start)
        want = ref.flood_fill_free(occ, start)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@given(seed=seeds, n_targets=st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_nearest_crumb_equals_bfs_to_targets(seed, n_targets):
    rng = np.random.default_rng(seed)
    belief = random_grid_belief(rng)
    targets = {cell: i for i, cell in enumerate(random_cells(rng, belief.state.shape, n_targets))}
    passable, wp = gw.padded_mask(belief.state != gw.KNOWN_OBSTACLE)
    crumb_at = {(r + 1) * wp + c + 1: i for (r, c), i in targets.items()}
    for start in random_cells(rng, belief.state.shape, 4):
        assert roadmap._nearest_crumb(passable, wp, crumb_at, start) == \
            ref._bfs_to_targets(belief, start, targets)


@given(seed=seeds, diagonal=st.booleans())
@settings(max_examples=200, deadline=None)
def test_grid_bfs_yields_each_cell_once_at_its_reference_depth(seed, diagonal):
    rng = np.random.default_rng(seed)
    belief = random_grid_belief(rng)
    (r0, c0), = random_cells(rng, belief.state.shape, 1)
    passable_mask = belief.state != gw.KNOWN_OBSTACLE
    passable, wp = gw.padded_mask(passable_mask)
    order = list(gw.grid_bfs(passable, wp, (r0 + 1) * wp + c0 + 1, diagonal))
    assert order[0] == ((r0 + 1) * wp + c0 + 1, 0)
    assert len({i for i, _ in order}) == len(order)
    # the same cells at the same depths, discovered in the same order
    want = ref.bfs_order(passable_mask, (r0, c0), ref.STEPS8 if diagonal else ref.STEPS4)
    assert [((i // wp - 1, i % wp - 1), depth) for i, depth in order] == want


@given(seed=seeds)
@settings(max_examples=300, deadline=None)
def test_nearest_reachable_equals_reference(seed):
    rng = np.random.default_rng(seed)
    belief = random_grid_belief(rng)
    shape = belief.state.shape
    for pose in random_cells(rng, shape, 3):
        state = SimpleNamespace(belief=belief, pose=pose)
        for goal in random_cells(rng, shape, 3, margin=5):
            assert harness._nearest_reachable_to(state, goal) == \
                ref._nearest_reachable_to(state, goal)


@given(seed=seeds,
       radius=st.one_of(st.floats(0.0, 12.0),
                        # disks whose rim cells lie exactly on the radius
                        st.integers(0, 250).map(lambda n: math.sqrt(n) / 2)))
@settings(max_examples=200, deadline=None)
def test_lattice_cells_equal_reference_flood(seed, radius):
    belief, field, robot, sensor = random_lattice(seed, radius, 1.0, True)
    lattice = build_local_irm(belief, field, robot, radius=radius, sensor=sensor)
    assert cells_of(lattice) == ref.local_component(belief, robot, radius)


# --- edge risk ------------------------------------------------------------------

@given(seed=st.one_of(seeds, st.integers(2**32, 2**70)), field_seed=seeds,
       alpha=st.sampled_from([0.05, 0.5, 0.9, 0.99]),
       sample_count=st.integers(1, 100))
@settings(max_examples=150, deadline=None)
def test_edge_risk_equals_reference_miss_path(seed, field_seed, alpha, sample_count):
    rng = np.random.default_rng(field_seed)
    shape = (int(rng.integers(2, 15)), int(rng.integers(2, 15)))
    mu = rng.uniform(0, 2, shape) * (rng.random(shape) < 0.6)
    sigma = rng.uniform(0, 1.5, shape)
    for _ in range(5):
        a = (int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])))
        b = (int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])))
        field = RiskField(mu=mu, sigma=sigma, alpha=alpha, sample_count=sample_count,
                          seed=seed)
        assert edge_risk(field, a, b) == ref.edge_risk_miss(field, a, b)


@given(seed=st.one_of(seeds, st.integers(2**32, 2**70)), field_seed=seeds,
       count=st.one_of(st.integers(0, 60), st.integers(60, 300)),
       alpha=st.sampled_from([0.05, 0.5, 0.9, 0.99]),
       sample_count=st.sampled_from([1, 7, 64, 100]))
@settings(max_examples=100, deadline=None)
def test_edge_risks_batch_equals_reference_miss_path(seed, field_seed, count, alpha,
                                                    sample_count):
    """Unit edges, longer segments, repeats and same-cell pairs in one batch,
    some of them already cached; batches on both sides of the size from
    which streams are seeded by risk.pcg64_seeds."""
    rng = np.random.default_rng(field_seed)
    shape = (int(rng.integers(2, 15)), int(rng.integers(2, 15)))
    mu = rng.uniform(0, 2, shape) * (rng.random(shape) < 0.6)
    field = RiskField(mu=mu, sigma=rng.uniform(0, 1.5, shape), alpha=alpha,
                      sample_count=sample_count, seed=seed)
    pairs = []
    for _ in range(count):
        a = (int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])))
        if rng.random() < 0.5:
            b = (min(a[0] + 1, shape[0] - 1), a[1])
        else:
            b = (int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])))
        pairs.append((a, b))
        if rng.random() < 0.2:
            pairs.append((b, a))
    for a, b in pairs[: count // 3]:
        edge_risk(field, a, b)
    assert edge_risks(field, pairs) == [ref.edge_risk_miss(field, a, b) for a, b in pairs]


@pytest.mark.parametrize("size", [1, risk.BATCH_SEEDING_MIN - 1, risk.BATCH_SEEDING_MIN, 1000])
@pytest.mark.parametrize("seed_words", [[0], [2**32 - 1], [7, 1], [2**32 - 1, 2**32 - 1]])
def test_pcg64_seeds_and_streams_equal_numpy(size, seed_words):
    """States and draws of the batch seeding against numpy's SeedSequence and
    PCG64, for one- and two-word seeds and coordinate words that are 0, small
    or anywhere in 32 bits."""
    rng = np.random.default_rng(size)
    coords = rng.integers(0, 2**32, size=(size, 4), dtype=np.uint64)
    coords[::2] = rng.integers(0, 60, size=coords[::2].shape)
    coords[::3, rng.integers(0, 4)] = 0
    coords[::5] = 0
    words = np.hstack([np.tile(np.array(seed_words, dtype=np.uint64), (size, 1)),
                       coords]).astype(np.uint32)
    states = risk.pcg64_seeds(words)
    streams = risk._streams(words)
    for row, (state, inc) in zip(words, states):
        expected = np.random.default_rng(np.random.SeedSequence(row))
        assert expected.bit_generator.state["state"] == {"state": state, "inc": inc}
        draws = next(streams).standard_normal((2, 3))
        assert draws.tolist() == expected.standard_normal((2, 3)).tolist()


@given(seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**64 + 9, 2**70 + 3]),
       field_seed=seeds, height=st.integers(1, 40), width=st.integers(1, 40),
       horizon=st.sampled_from([1, 2, 10]), risky=st.booleans(),
       alpha=st.sampled_from([0.05, 0.5, 0.9, 0.99]), sample_count=st.integers(1, 100))
@settings(max_examples=60, deadline=None)
def test_calibrate_j_max_equals_reference(seed, field_seed, height, width, horizon, risky,
                                          alpha, sample_count):
    """The threshold and every cached edge risk, on grids from one cell to
    40 x 40, so that many paths stop at the border."""
    rng = np.random.default_rng(field_seed)
    shape = (height, width)
    mu = rng.uniform(0, 2, shape) * (rng.random(shape) < 0.6) if risky else np.zeros(shape)
    world = gw.make_world(np.zeros(shape, dtype=np.uint8), spawn=(0, 0), risk_mu=mu,
                          risk_sigma=rng.uniform(0, 1.5, shape))

    def field():
        return RiskField.for_world(world, alpha=alpha, sample_count=sample_count, seed=seed)

    expected, risks = ref.calibrate_j_max(world, field(), horizon=horizon, seed=seed)
    fast = field()
    assert calibrate_j_max(world, fast, horizon=horizon, seed=seed) == expected
    assert stored_risks(fast) == risks


def stored_risks(field):
    """Every edge risk the field holds, from both of its stores, keyed as
    (cell, cell) in order. Asserts that no pair is held twice: the dict
    holds no right or down unit edge."""
    out = dict(field._edge_cache)
    assert not [(a, b) for a, b in out if (b[0] - a[0], b[1] - a[1]) in ((0, 1), (1, 0))]
    for plane, r, c in np.argwhere(~np.isnan(field._unit_risks)).tolist():
        out[(r, c), (r + plane, c + 1 - plane)] = field._unit_risks.item(plane, r, c)
    return out


def random_pair(rng, shape):
    """A unit edge in one of the four directions, or any pair of cells."""
    a = (int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])))
    if rng.random() < 0.3:
        return a, (int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])))
    dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[int(rng.integers(0, 4))]
    return a, (min(max(a[0] + dr, 0), shape[0] - 1), min(max(a[1] + dc, 0), shape[1] - 1))


@given(seed=seeds, ops=st.lists(st.sampled_from(["edge_risk", "edge_risks", "lattice",
                                                  "calibrate"]), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_edge_risk_stores_hold_each_pair_once(seed, ops):
    """edge_risk, edge_risks, the local lattice and calibrate_j_max,
    interleaved on one field: every risk any of them returns, and every
    pair either store holds, equals the uncached computation."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 16)), int(rng.integers(1, 16)))
    mu = rng.uniform(0, 2, shape) * (rng.random(shape) < 0.6)
    world = gw.make_world(np.zeros(shape, dtype=np.uint8), spawn=(0, 0), risk_mu=mu,
                          risk_sigma=rng.uniform(0, 1.5, shape))
    field = RiskField.for_world(world, sample_count=int(rng.integers(1, 65)), seed=seed)
    belief = random_belief(rng, shape)
    for op in ops:
        if op == "edge_risk":
            a, b = random_pair(rng, shape)
            assert edge_risk(field, a, b) == ref.edge_risk_miss(field, a, b)
        elif op == "edge_risks":
            pairs = [random_pair(rng, shape) for _ in range(int(rng.integers(0, 40)))]
            assert edge_risks(field, pairs) == [ref.edge_risk_miss(field, a, b)
                                                for a, b in pairs]
        elif op == "lattice":
            robot = (int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])))
            belief.state[robot] = gw.KNOWN_FREE
            lattice = build_local_irm(belief, field, robot, radius=float(rng.choice([1.0, 4.0])))
            cells = cells_of(lattice)
            src = np.repeat(np.arange(len(cells)), np.diff(lattice.indptr)).tolist()
            assert lattice.risks.tolist() == [
                ref.edge_risk_miss(field, cells[u], cells[v])
                for u, v in zip(src, lattice.targets.tolist())]
        else:
            horizon = int(rng.integers(1, 11))
            assert calibrate_j_max(world, field, horizon=horizon, seed=seed) == \
                ref.calibrate_j_max(world, field, horizon=horizon, seed=seed)[0]
    for (a, b), rho in stored_risks(field).items():
        assert rho == ref.edge_risk_miss(field, a, b), (a, b)


@given(samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
       alpha=st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_cvar_equals_sort_and_mean(samples, alpha):
    arr = np.asarray(samples, dtype=np.float64)
    k = max(1, int(np.ceil((1.0 - alpha) * arr.size - 1e-9)))
    assert cvar(arr, alpha) == float(np.sort(arr)[::-1][:k].mean())


mask_shapes = st.one_of(
    st.tuples(st.integers(1, 30), st.integers(1, 30)),
    st.tuples(st.just(1), st.integers(1, 30)),  # a single row
    st.tuples(st.integers(1, 30), st.just(1)),  # a single column
)


@given(seed=seeds, shape=mask_shapes, diagonal=st.booleans(), density=st.floats(0.0, 1.0))
@example(seed=0, shape=(1, 1), diagonal=False, density=0.0)
@example(seed=0, shape=(1, 1), diagonal=True, density=1.0)
@example(seed=0, shape=(30, 30), diagonal=False, density=0.0)
@example(seed=0, shape=(30, 30), diagonal=True, density=1.0)
@settings(max_examples=300, deadline=None)
def test_label_components_equals_reference_dfs(seed, shape, diagonal, density):
    mask = np.random.default_rng(seed).random(shape) < density
    want, n_want = ref.label_components(mask, diagonal=diagonal)
    got, n_got = gw.label_components(mask, diagonal=diagonal)
    assert n_got == n_want
    assert got.dtype == want.dtype and np.array_equal(got, want)


# --- scipy.ndimage replacements ---------------------------------------------------

@given(seed=seeds, diagonal=st.booleans(), density=st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_label_components_equals_ndimage_label(seed, diagonal, density):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(seed)
    mask = rng.random((int(rng.integers(1, 40)), int(rng.integers(1, 40)))) < density
    structure = np.ones((3, 3)) if diagonal else None
    want, n_want = ndimage.label(mask, structure=structure)
    got, n_got = gw.label_components(mask, diagonal=diagonal)
    assert n_got == n_want
    assert np.array_equal(got, want)


@given(seed=seeds, density=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_obstacle_neighbours_equal_ndimage_convolve(seed, density):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(seed)
    occ = (rng.random((int(rng.integers(1, 40)), int(rng.integers(1, 40)))) < density)
    occ = occ.astype(np.uint8)
    kernel = np.ones((3, 3), dtype=np.int16)
    kernel[1, 1] = 0
    want = ndimage.convolve((occ == gw.OBSTACLE).astype(np.int16), kernel,
                            mode="constant", cval=1)
    assert np.array_equal(gw._obstacle_neighbours(occ), want)


@given(seed=seeds, sigma=st.sampled_from([0.5, 1.0, 3.0]))
@settings(max_examples=150, deadline=None)
def test_gaussian_smooth_equals_ndimage_gaussian_filter(seed, sigma):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((int(rng.integers(1, 70)), int(rng.integers(1, 70))))
    want = ndimage.gaussian_filter(noise, sigma=sigma)
    assert np.array_equal(gw._gaussian_smooth(noise, sigma), want)


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_cave_generator_equals_ndimage_version(seed):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(seed)
    width, height = int(rng.integers(5, 60)), int(rng.integers(5, 60))
    try:
        world = gw.generate_cave(seed, width=width, height=height)
    except gw.GenerationError:
        return
    # the ndimage steps of the generator, replayed on its own random draws
    for attempt in range(20):
        draws = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, attempt]))
        occ = (draws.random((height, width)) < 0.45).astype(np.uint8)
        occ[0, :] = occ[-1, :] = gw.OBSTACLE
        occ[:, 0] = occ[:, -1] = gw.OBSTACLE
        kernel = np.ones((3, 3), dtype=np.int16)
        kernel[1, 1] = 0
        for _ in range(5):
            neighbors = ndimage.convolve((occ == gw.OBSTACLE).astype(np.int16), kernel,
                                         mode="constant", cval=1)
            occ = np.where(neighbors >= 5, gw.OBSTACLE, gw.FREE).astype(np.uint8)
            occ[0, :] = occ[-1, :] = gw.OBSTACLE
            occ[:, 0] = occ[:, -1] = gw.OBSTACLE
        labels, n_comp = ndimage.label(occ == gw.FREE)
        noise = draws.standard_normal((height, width))
        if n_comp == 0:
            continue
        sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=range(1, n_comp + 1))
        occ = np.where(labels == 1 + int(np.argmax(sizes)), gw.FREE, gw.OBSTACLE)
        if int(np.sum(occ == gw.FREE)) < 10:
            continue
        smooth = ndimage.gaussian_filter(noise, sigma=3.0)
        break
    lo, hi = float(smooth.min()), float(smooth.max())
    mu = 0.5 * ((smooth - lo) / (hi - lo) if hi > lo else np.zeros_like(smooth))
    assert np.array_equal(world.occupancy, occ.astype(np.uint8))
    assert np.array_equal(world.risk_mu, mu)


@given(shape=st.tuples(st.integers(1, 30), st.integers(1, 30)), seed=seeds,
       min_cluster=st.integers(1, 4), spacing=st.sampled_from([0.5, 1.0, 2.0]),
       steps=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_global_layer_equals_reference(shape, seed, min_cluster, spacing, steps):
    """A walk over a few believed-free cells of a random belief, which
    revisits poses, stands on crumbs and off them, and reveals unknown cells
    between calls; unreachable frontiers come with the walled-in cells."""
    rng = np.random.default_rng(seed)
    state = rng.choice(np.array([gw.UNKNOWN, gw.KNOWN_FREE, gw.KNOWN_OBSTACLE], dtype=np.uint8),
                       size=shape, p=rng.dirichlet([1.0, 1.0, 1.0]))
    belief = BeliefGrid(state=state, covered=np.zeros(shape, dtype=bool), cell_size=0.5)
    # poses within an 8 x 8 window, so that shortcuts are within reach
    top, left = int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1]))
    poses = [(min(top + int(rng.integers(0, 8)), shape[0] - 1),
              min(left + int(rng.integers(0, 8)), shape[1] - 1)) for _ in range(4)]
    for pose in poses:
        belief.state[pose] = gw.KNOWN_FREE
    mu = rng.uniform(0, 1, shape) * (rng.random(shape) < 0.5)
    field = RiskField(mu=mu, sigma=0.5 * mu, seed=seed)
    got = want = None
    for _ in range(steps):
        pose = poses[int(rng.integers(0, len(poses)))]
        got = roadmap.update_global_irm(got, belief, field, pose, spacing, min_cluster)
        want = ref.update_global_irm(want, belief, field, pose, spacing, min_cluster)
        assert graph_to_dict(got) == graph_to_dict(want)
        assert got.adjacency == want.adjacency
        assert detect_frontiers(belief, min_cluster) == ref.detect_frontiers(belief, min_cluster)
        revealed = (rng.random(shape) < 0.2) & (belief.state == gw.UNKNOWN)
        belief.state[revealed] = rng.choice(
            np.array([gw.KNOWN_FREE, gw.KNOWN_OBSTACLE], dtype=np.uint8), size=int(revealed.sum()))


@given(seed=seeds, min_cluster=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_frontiers_equal_ndimage_labelling(seed, min_cluster):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(seed)
    belief = random_belief(rng, (int(rng.integers(2, 30)), int(rng.integers(2, 30))))
    unknown = belief.state == gw.UNKNOWN
    adj = np.zeros_like(unknown)
    adj[1:, :] |= unknown[:-1, :]
    adj[:-1, :] |= unknown[1:, :]
    adj[:, 1:] |= unknown[:, :-1]
    adj[:, :-1] |= unknown[:, 1:]
    labels, n = ndimage.label((belief.state == gw.KNOWN_FREE) & adj, structure=np.ones((3, 3)))
    sizes = [int(np.sum(labels == i)) for i in range(1, n + 1)]
    nodes = detect_frontiers(belief, min_cluster=min_cluster)
    assert len(nodes) == sum(1 for s in sizes if s >= min_cluster)
    kept = [i + 1 for i, s in enumerate(sizes) if s >= min_cluster]
    for node, label in zip(nodes, kept):
        assert labels[node.pose] == label
