"""Closed-loop properties over random small worlds, planners and configs:
coverage never decreases, the robot only stands on ground-truth free cells,
no step ends on a cell the belief held as an obstacle before the step, no
step changes a cell the belief already knew (the monotone belief that lets
the global roadmap carry its crumb layer across cycles), and a second run
gives the same event-log bytes."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridexplore import harness
from gridexplore import world as gw
from gridexplore.harness import RunConfig, WorldSpec, events_to_ndjson, run_episode
from gridexplore.world import SensorSpec

odd_side = st.integers(3, 7).map(lambda k: 2 * k + 1)
WORLD_PARAMS = {
    "maze": st.fixed_dictionaries({"width": odd_side, "height": odd_side}),
    "subway": st.builds(lambda n, lo, extra: {"rooms": n, "room_size_range": (lo, lo + extra)},
                        st.integers(1, 3), st.floats(1.5, 3.0), st.floats(0.0, 1.5)),
    "cave": st.fixed_dictionaries({"width": st.integers(12, 20), "height": st.integers(12, 20)}),
}


@pytest.mark.parametrize("planner", harness.PLANNERS)
@pytest.mark.parametrize("generator", sorted(WORLD_PARAMS))
@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    seed=st.integers(0, 2**33),
    budget=st.integers(1, 60),
    replan_interval=st.integers(1, 6),
    range_m=st.floats(1.0, 4.0),
)
def test_episode_invariants(generator, planner, data, seed, budget, replan_interval, range_m):
    params = data.draw(WORLD_PARAMS[generator], label="params")
    config = RunConfig(
        world=WorldSpec(generator=generator, seed=seed, params=params),
        planner=planner, step_budget=budget, replan_interval=replan_interval,
        sensor=SensorSpec(range_m=range_m), min_frontier_cluster=1,
        horizon_local=6, nbv_samples=8,
    )
    execute_step = harness.execute_step
    poses = []  # one per executed step

    def checked_step(world, belief, pose, executed, index, sensor=None):
        before = belief.state.copy()
        new_pose, collided = execute_step(world, belief, pose, executed, index, sensor)
        assert before[new_pose] != gw.KNOWN_OBSTACLE
        known = before != gw.UNKNOWN
        assert np.array_equal(belief.state[known], before[known])
        poses.append(new_pose)
        return new_pose, collided

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "execute_step", checked_step)
        record = run_episode(config)
    first = events_to_ndjson(record.events)

    occupancy = harness.build_world(config.world).occupancy
    steps = [ev for ev in record.events if ev["type"] == "step"]
    assert all(occupancy[tuple(ev["pose"])] == gw.FREE for ev in steps)
    assert all(np.diff([ev["covered_m2"] for ev in steps]) >= 0)
    assert len(poses) == record.total_steps == len(steps) - 1 <= budget
    assert events_to_ndjson(run_episode(config).events) == first
