"""The fast paths against the implementations they replaced (reference_impl.py)
and, where scipy is installed, against the scipy.ndimage calls the world and
roadmap code no longer makes. Every comparison is exact."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from gridexplore import world as gw
from gridexplore.planners import RewardModel, plan_local
from gridexplore.risk import RiskField, cvar, edge_risk, edge_risks
from gridexplore.roadmap import build_local_irm, detect_frontiers
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

@given(seed=seeds, range_m=st.sampled_from([0.4, 1.0, 2.5, 5.0]), occlusion=st.booleans(),
       cell_size=st.sampled_from([0.5, 1.0]))
@settings(max_examples=150, deadline=None)
def test_batched_counts_equal_per_pose_counts(seed, range_m, occlusion, cell_size):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 25)), int(rng.integers(1, 25)))
    belief = random_belief(rng, shape, cell_size)
    sensor = SensorSpec(range_m=range_m, occlusion=occlusion)
    cells = [(r, c) for r in range(shape[0]) for c in range(shape[1])]
    counts = gw.visible_unknown_counts(belief, cells, sensor)
    assert counts.tolist() == [ref.visible_unknown_count(belief, cell, sensor) for cell in cells]


@given(seed=seeds, radius=st.sampled_from([1.0, 2.0, 4.0, 10.0]),
       range_m=st.sampled_from([1.0, 2.5, 5.0]), occlusion=st.booleans())
@settings(max_examples=100, deadline=None)
def test_lattice_gains_equal_per_node_loop(seed, radius, range_m, occlusion):
    belief, field, robot, sensor = random_lattice(seed, radius, range_m, occlusion)
    graph = build_local_irm(belief, field, robot, radius=radius, sensor=sensor)
    nodes = sorted(graph.nodes.values(), key=lambda n: n.id)
    assert [n.info_gain for n in nodes] == ref.lattice_gains(
        belief, [n.pose for n in nodes], sensor)


# --- local search -----------------------------------------------------------------

@given(seed=seeds, radius=st.sampled_from([1.0, 2.0, 4.0, 10.0]),
       horizon=st.integers(1, 10), budget=st.sampled_from([1, 2, 7, 60, 500, 20000]),
       gamma=st.sampled_from([0.5, 0.9, 0.95, 1.0]),
       weight=st.sampled_from([0.5, 1.0, 2.0]),
       distance_cost=st.sampled_from([0.0, 0.05, 0.3]), open_room=st.booleans())
@settings(max_examples=200, deadline=None)
def test_plan_local_equals_reference_search(seed, radius, horizon, budget, gamma, weight,
                                            distance_cost, open_room):
    belief, field, robot, sensor = random_lattice(seed, radius, 2.5, True, open_room)
    graph = build_local_irm(belief, field, robot, radius=radius, sensor=sensor)
    reward = RewardModel(gamma_local=gamma, coverage_weight=weight,
                         distance_cost=distance_cost)
    got = plan_local(graph, reward, horizon=horizon, budget=budget, created_at=3)
    want = ref.plan_local(graph, reward, horizon=horizon, budget=budget, created_at=3)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.to_dict() == want.to_dict()
        assert got.path_cells == want.path_cells


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
       count=st.integers(0, 60))
@settings(max_examples=100, deadline=None)
def test_edge_risks_batch_equals_reference_miss_path(seed, field_seed, count):
    """Unit edges, longer segments, repeats and same-cell pairs in one batch,
    some of them already cached."""
    rng = np.random.default_rng(field_seed)
    shape = (int(rng.integers(2, 15)), int(rng.integers(2, 15)))
    mu = rng.uniform(0, 2, shape) * (rng.random(shape) < 0.6)
    field = RiskField(mu=mu, sigma=rng.uniform(0, 1.5, shape), seed=seed)
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


@given(samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
       alpha=st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_cvar_equals_sort_and_mean(samples, alpha):
    arr = np.asarray(samples, dtype=np.float64)
    k = max(1, int(np.ceil((1.0 - alpha) * arr.size - 1e-9)))
    assert cvar(arr, alpha) == float(np.sort(arr)[::-1][:k].mean())


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
