import json
import math

import numpy as np
import pytest

from gridexplore import world as gw


# --- independent oracles -----------------------------------------------------

def bfs_reachable(occ, start):
    """Flood-fill oracle, written independently of the library helper."""
    h, w = occ.shape
    seen = np.zeros((h, w), dtype=bool)
    if occ[start] != gw.FREE:
        return seen
    stack = [start]
    seen[start] = True
    while stack:
        r, c = stack.pop()
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if 0 <= nr < h and 0 <= nc < w and not seen[nr, nc] and occ[nr, nc] == gw.FREE:
                seen[nr, nc] = True
                stack.append((nr, nc))
    return seen


def line_cells(r0, c0, r1, c1):
    """Oracle Bresenham, re-derived from the incremental error formulation."""
    out = []
    dr, dc = abs(r1 - r0), abs(c1 - c0)
    step_r = 1 if r1 > r0 else -1
    step_c = 1 if c1 > c0 else -1
    r, c, err = r0, c0, dc - dr
    while True:
        out.append((r, c))
        if (r, c) == (r1, c1):
            return out
        twice = 2 * err
        if twice > -dr:
            err -= dr
            c += step_c
        if twice < dc:
            err += dc
            r += step_r


def free_degree(occ, r, c):
    deg = 0
    for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
        if 0 <= nr < occ.shape[0] and 0 <= nc < occ.shape[1] and occ[nr, nc] == gw.FREE:
            deg += 1
    return deg


# --- subway ------------------------------------------------------------------

def test_subway_single_room_is_clean_rectangle():
    w = gw.generate_subway(1, rooms=1, room_size_range=(10.0, 10.0))
    free = np.argwhere(w.occupancy == gw.FREE)
    r0, c0 = free.min(axis=0)
    r1, c1 = free.max(axis=0)
    assert (r1 - r0 + 1) * (c1 - c0 + 1) == len(free), "free region is a full rectangle"
    assert np.all(w.occupancy[r0:r1 + 1, c0:c1 + 1] == gw.FREE)
    assert (r1 - r0 + 1) == 20 and (c1 - c0 + 1) == 20  # 10 m at 0.5 m cells


def test_subway_fully_reachable_from_spawn():
    w = gw.generate_subway(7, rooms=4)
    reach = bfs_reachable(w.occupancy, w.spawn)
    assert int(reach.sum()) == int(np.sum(w.occupancy == gw.FREE))


def test_subway_deterministic():
    a = gw.generate_subway(7, rooms=4)
    b = gw.generate_subway(7, rooms=4)
    assert np.array_equal(a.occupancy, b.occupancy)
    assert np.array_equal(a.risk_mu, b.risk_mu)
    assert a.spawn == b.spawn


def test_subway_zero_terrain_risk():
    w = gw.generate_subway(3, rooms=3)
    assert np.all(w.risk_mu == 0.0) and np.all(w.risk_sigma == 0.0)


def test_subway_rejects_bad_params():
    with pytest.raises(ValueError):
        gw.generate_subway(1, rooms=0)
    for sizes in ((6.0, math.inf), (math.inf, math.inf), (math.nan, 8.0), (0.0, 4.0), (8.0, 6.0)):
        with pytest.raises(ValueError, match="room_size_range"):
            gw.generate_subway(1, room_size_range=sizes)


# --- maze --------------------------------------------------------------------

def test_maze_fully_braided_has_no_deadends():
    w = gw.generate_maze(11, 51, 51, deadend_fraction=0.0)
    occ = w.occupancy
    tips = [
        (r, c)
        for r, c in np.argwhere(occ == gw.FREE)
        if free_degree(occ, r, c) == 1 and (r, c) != w.spawn
    ]
    assert tips == []


def test_maze_deterministic():
    a = gw.generate_maze(3, 21, 21, 1.0)
    b = gw.generate_maze(3, 21, 21, 1.0)
    assert np.array_equal(a.occupancy, b.occupancy)


def test_maze_reachable_count_matches_flood_fill():
    w = gw.generate_maze(3, 21, 21)
    reach = bfs_reachable(w.occupancy, w.spawn)
    assert int(reach.sum()) == int(np.sum(w.occupancy == gw.FREE))


def test_maze_keeps_a_long_deadend_corridor():
    for seed in range(5):
        w = gw.generate_maze(seed, 41, 41, deadend_fraction=1.0)
        lengths = gw.deadend_corridor_lengths(w.occupancy)
        assert lengths and max(lengths) >= 5, f"seed {seed} lacks a 5-cell dead end"


def test_maze_deadend_fraction_moves_deadend_count():
    full = gw.generate_maze(5, 41, 41, deadend_fraction=1.0)
    none = gw.generate_maze(5, 41, 41, deadend_fraction=0.0)
    n_full = len(gw.deadend_corridor_lengths(full.occupancy))
    n_none = len(gw.deadend_corridor_lengths(none.occupancy))
    assert n_full > n_none == 0


def test_maze_rejects_bad_params():
    with pytest.raises(ValueError):
        gw.generate_maze(1, 4, 21)
    with pytest.raises(ValueError):
        gw.generate_maze(1, 21, 21, deadend_fraction=1.5)


# --- cave --------------------------------------------------------------------

def test_cave_zero_intensity_is_riskless():
    w = gw.generate_cave(9, 31, 31, risk_intensity=0.0)
    assert np.all(w.risk_mu == 0.0)


def test_cave_high_risk_cells_grow_with_intensity():
    lo = gw.generate_cave(5, 51, 51, risk_intensity=0.2)
    hi = gw.generate_cave(5, 51, 51, risk_intensity=1.0)
    assert np.array_equal(lo.occupancy, hi.occupancy)
    n_lo = int(np.sum(lo.risk_mu > gw.HIGH_RISK_MU))
    n_hi = int(np.sum(hi.risk_mu > gw.HIGH_RISK_MU))
    assert n_hi > n_lo


def test_cave_deterministic():
    a = gw.generate_cave(5, 31, 31, 0.5)
    b = gw.generate_cave(5, 31, 31, 0.5)
    assert np.array_equal(a.occupancy, b.occupancy)
    assert np.array_equal(a.risk_mu, b.risk_mu)


def test_cave_risk_is_spatially_correlated():
    w = gw.generate_cave(5, 51, 51, risk_intensity=1.0)
    mu = w.risk_mu
    # neighboring cells should look alike: lag-1 autocorrelation well above 0
    flat = mu[:, :-1].ravel()
    shifted = mu[:, 1:].ravel()
    corr = np.corrcoef(flat, shifted)[0, 1]
    assert corr > 0.8


# --- generator-wide invariants -------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("build", [
    lambda s: gw.generate_subway(s, rooms=4),
    lambda s: gw.generate_maze(s, 31, 31),
    lambda s: gw.generate_cave(s, 41, 41, 0.5),
])
def test_spawn_reaches_95_percent_of_free_cells(build, seed):
    w = build(seed)
    reach = bfs_reachable(w.occupancy, w.spawn)
    free = int(np.sum(w.occupancy == gw.FREE))
    assert int(reach.sum()) >= 0.95 * free
    assert w.occupancy[w.spawn] == gw.FREE
    assert np.all(w.risk_mu >= 0) and np.all(w.risk_sigma >= 0)


def test_world_arrays_are_frozen():
    w = gw.generate_maze(1, 11, 11)
    with pytest.raises(ValueError):
        w.occupancy[0, 0] = gw.FREE


# --- sensing -----------------------------------------------------------------

def empty_world(n=5, cell_size=0.5):
    return gw.make_world(np.zeros((n, n), dtype=np.uint8), spawn=(n // 2, n // 2),
                         cell_size=cell_size)


def test_sense_covers_everything_without_occlusion():
    w = empty_world(5)
    b = gw.BeliefGrid.for_world(w)
    diag = math.hypot(5, 5) * w.cell_size
    gw.sense(w, b, (2, 2), gw.SensorSpec(range_m=diag))
    assert int(b.covered.sum()) == 25
    assert np.all(b.state == gw.KNOWN_FREE)


def test_sense_wall_blocks_cells_behind_it():
    occ = np.zeros((9, 9), dtype=np.uint8)
    occ[4, :] = gw.OBSTACLE  # full bisecting wall
    w = gw.make_world(occ, spawn=(1, 4))
    b = gw.BeliefGrid.for_world(w)
    gw.sense(w, b, (1, 4), gw.SensorSpec(range_m=10.0))

    # oracle: march every ray with an independent Bresenham
    for r in range(9):
        for c in range(9):
            interior = line_cells(1, 4, r, c)[1:-1]
            blocked = any(occ[cell] == gw.OBSTACLE for cell in interior)
            if blocked:
                assert b.state[r, c] == gw.UNKNOWN, (r, c)
    # cells strictly behind the wall stay unknown, the wall itself is known
    assert np.all(b.state[5:, :] == gw.UNKNOWN)
    assert b.state[4, 4] == gw.KNOWN_OBSTACLE
    assert not b.covered[4, 4]


def test_sense_limited_arc_only_sees_forward():
    w = empty_world(9)
    b = gw.BeliefGrid.for_world(w)
    # narrow cone aimed along +x (east); cells behind the robot stay unknown
    sensor = gw.SensorSpec(range_m=5.0, arc=math.pi / 2)
    gw.sense(w, b, (4, 4), sensor, heading=0.0)
    assert b.state[4, 6] == gw.KNOWN_FREE
    assert b.state[4, 2] == gw.UNKNOWN
    assert b.state[2, 4] == gw.UNKNOWN


def test_sensor_spec_validation():
    with pytest.raises(ValueError):
        gw.SensorSpec(range_m=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            gw.SensorSpec(range_m=bad)
    with pytest.raises(ValueError):
        gw.SensorSpec(arc=0.0)
    with pytest.raises(ValueError):
        gw.SensorSpec(arc=7.0)


def test_sense_is_idempotent():
    w = gw.generate_maze(2, 21, 21)
    b = gw.BeliefGrid.for_world(w)
    gw.sense(w, b, w.spawn)
    state1, cov1 = b.state.copy(), b.covered.copy()
    gw.sense(w, b, w.spawn)
    assert np.array_equal(b.state, state1)
    assert np.array_equal(b.covered, cov1)


def test_sense_rejects_bad_pose():
    w = empty_world(5)
    b = gw.BeliefGrid.for_world(w)
    with pytest.raises(gw.InvalidPoseError):
        gw.sense(w, b, (-1, 0))
    occ = np.zeros((5, 5), dtype=np.uint8)
    occ[2, 2] = gw.OBSTACLE
    w2 = gw.make_world(occ, spawn=(0, 0))
    b2 = gw.BeliefGrid.for_world(w2)
    with pytest.raises(gw.InvalidPoseError):
        gw.sense(w2, b2, (2, 2))


def test_belief_soundness_against_ground_truth():
    w = gw.generate_cave(3, 31, 31, 0.3)
    b = gw.BeliefGrid.for_world(w)
    rng = np.random.default_rng(0)
    free = np.argwhere(w.occupancy == gw.FREE)
    for _ in range(10):
        pose = tuple(free[rng.integers(len(free))])
        gw.sense(w, b, pose)
    known_free = b.state == gw.KNOWN_FREE
    known_obst = b.state == gw.KNOWN_OBSTACLE
    assert np.all(w.occupancy[known_free] == gw.FREE)
    assert np.all(w.occupancy[known_obst] == gw.OBSTACLE)
    # covered implies known
    assert np.all(b.state[b.covered] != gw.UNKNOWN)


def test_coverage_is_monotone_over_senses():
    w = gw.generate_maze(4, 21, 21)
    b = gw.BeliefGrid.for_world(w)
    rng = np.random.default_rng(1)
    free = np.argwhere(w.occupancy == gw.FREE)
    last = 0.0
    for _ in range(15):
        pose = tuple(free[rng.integers(len(free))])
        gw.sense(w, b, pose)
        area = gw.covered_area(b)
        assert area >= last
        last = area


# --- starting belief ------------------------------------------------------------

# each generator's precovered rectangles, [r0, c0, r1, c1) each
PRECOVER = {
    "subway": [], "maze": [], "cave": [],
    "scenario_switchback": [(8, 1, 13, 38)],
    "scenario_riskpocket": [(8, 2, 13, 10), (9, 13, 12, 30)],
}


@pytest.mark.parametrize("generator", sorted(PRECOVER))
def test_starting_belief_holds_exactly_the_precover(generator):
    builder, _ = gw.GENERATORS[generator]
    w = builder(3)
    b = gw.BeliefGrid.for_world(w)
    inside = np.zeros(b.state.shape, dtype=bool)
    for r0, c0, r1, c1 in PRECOVER[generator]:
        inside[r0:r1, c0:c1] = True
    truth = np.where(w.occupancy == gw.OBSTACLE, gw.KNOWN_OBSTACLE, gw.KNOWN_FREE)
    assert np.array_equal(b.state, np.where(inside, truth, gw.UNKNOWN))
    assert np.array_equal(b.covered, inside & (w.occupancy == gw.FREE))


# --- covered_area ---------------------------------------------------------------

def test_covered_area_all_unknown_is_zero():
    b = gw.BeliefGrid.for_world(empty_world(5))
    assert gw.covered_area(b) == 0.0


def test_covered_area_arithmetic():
    b = gw.BeliefGrid.for_world(empty_world(6, cell_size=0.5))
    b.covered[0, :4] = True
    b.covered[1, :6] = True
    assert gw.covered_area(b) == pytest.approx(10 * 0.25)


def test_full_exploration_of_empty_room_covers_free_area():
    w = empty_world(7)
    b = gw.BeliefGrid.for_world(w)
    gw.sense(w, b, (3, 3), gw.SensorSpec(range_m=10.0))
    free_area = int(np.sum(bfs_reachable(w.occupancy, (3, 3)))) * w.cell_area
    assert gw.covered_area(b) == pytest.approx(free_area)


# --- JSON export ----------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: gw.generate_subway(2, rooms=3),
    lambda: gw.generate_maze(2, 21, 21, 0.6),
    lambda: gw.generate_cave(2, 31, 31, 0.7),
])
def test_world_json_round_trip_is_bit_exact(build, tmp_path):
    """The file save_world writes, read back with json alone, holds the
    world: the grid, spawn, params and cell size, and every risk bit for bit."""
    w = build()
    path = tmp_path / "world.json"
    gw.save_world(w, str(path))
    doc = json.loads(path.read_text())
    assert np.array_equal(np.array([[ch == "#" for ch in row] for row in doc["occupancy"]]),
                          w.occupancy == gw.OBSTACLE)
    assert tuple(doc["spawn"]) == w.spawn
    assert doc["params"] == w.params
    assert doc["cell_size"] == w.cell_size
    assert np.array_equal(np.array(doc["risk_mu"]), w.risk_mu)
    assert np.array_equal(np.array(doc["risk_sigma"]), w.risk_sigma)


@pytest.mark.parametrize("name", ["risk_mu", "risk_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_world_rejects_non_finite_terrain_risk(name, value):
    """NaN < 0 is False, so a sign check alone lets NaN through; a NaN or
    infinite mu or sigma makes edge risks NaN or infinite."""
    w = gw.generate_cave(1, 11, 11)
    arr = getattr(w, name).copy()
    arr[1, 1] = value
    with pytest.raises(ValueError, match="finite"):
        gw.make_world(w.occupancy, spawn=w.spawn, **{name: arr})
    fields = {f: getattr(w, f) for f in
              ("width", "height", "cell_size", "occupancy", "risk_mu", "risk_sigma",
               "rng_seed", "spawn")}
    with pytest.raises(ValueError, match="finite"):
        gw.WorldModel(**{**fields, name: arr})


@pytest.mark.parametrize("cell_size", [0, -0.5, math.nan, math.inf, -math.inf, 1e300, 1e-200])
def test_world_rejects_a_bad_cell_size(cell_size):
    """A cell size must be finite and > 0, and so must its square, the cell
    area behind every m^2 figure: 1e300 squares to inf, 1e-200 to 0."""
    w = gw.generate_maze(1, 11, 11)
    with pytest.raises(ValueError, match="cell_size"):
        gw.make_world(w.occupancy, w.spawn, cell_size=cell_size)


@pytest.mark.parametrize("cell_size", [0.5, 1.0])
def test_world_accepts_a_good_cell_size(cell_size):
    w = gw.generate_maze(1, 11, 11)
    world = gw.make_world(w.occupancy, w.spawn, cell_size=cell_size)
    assert world.cell_area == cell_size * cell_size


@pytest.mark.parametrize("pose", [(0, -3), (2, 40), (-1, 0), (6, 0), (0, 6), (-7, 9)])
def test_visible_unknown_counts_reject_off_grid_poses(pose):
    b = gw.BeliefGrid(state=np.full((6, 6), gw.UNKNOWN, dtype=np.uint8),
                      covered=np.zeros((6, 6), dtype=bool), cell_size=0.5)
    with pytest.raises(gw.InvalidPoseError):
        gw.visible_unknown_counts(b, [(2, 2), pose])
    with pytest.raises(gw.InvalidPoseError):
        gw.visible_unknown_count(b, pose)
    # the corners are in the grid: each sees the other 35 cells
    assert gw.visible_unknown_counts(b, [(0, 0), (5, 5)]).tolist() == [35, 35]


@pytest.mark.parametrize("occlusion", [True, False])
def test_range_beyond_the_grid_diagonal_sees_what_the_diagonal_sees(occlusion):
    """No two cells lie farther apart than the grid diagonal, so a longer
    range sees and counts the same cells."""
    w = gw.generate_cave(4, width=21, height=15)
    diagonal = math.hypot(w.height, w.width) * w.cell_size
    poses = [tuple(int(x) for x in cell) for cell in np.argwhere(w.occupancy == gw.FREE)[::7]]
    views = {}
    for range_m in (diagonal, 1.5 * diagonal, 20000.0):
        sensor = gw.SensorSpec(range_m=range_m, occlusion=occlusion)
        belief = gw.BeliefGrid.for_world(w)
        gw.sense(w, belief, poses[0], sensor)
        counts = gw.visible_unknown_counts(belief, poses, sensor)
        for pose in poses[1:]:
            gw.sense(w, belief, pose, sensor)
        views[range_m] = (counts.tolist(), belief.state.tolist(), belief.covered.tolist())
    assert views[1.5 * diagonal] == views[diagonal]
    assert views[20000.0] == views[diagonal]
