"""Golden pins: event-log hashes of short episodes and the bytes of generated
cave worlds. A change that moves one cave cell, one risk draw or one planner
choice changes a hash here. The values were recorded before the local layer
and the generators were rewritten for speed, so these tests prove that the
rewrites changed no behaviour. SHAPE_SHA256 was recorded before the planners
became one table and the grid searches one BFS, and pins the cycle-event
shapes the first pins do not reach. TIE_SHA256 was recorded before NBV's
argmax became a branch-and-bound and A* a flat-index search, and pins
episodes whose NBV and A* choices are decided by ties. Every pin was
re-recorded when the header gained its "behaviour" key; with that key
removed, each new log hashed to the pin it replaced. When edge risk moved
to common random numbers (behaviour 2), the pins of episodes with a
nonzero risk field were re-recorded: the cave episodes, mldm_j_exceeded and
the three cave ties."""
import hashlib
import math

import pytest

from gridexplore import motion, planners, roadmap
from gridexplore import world as gw
from gridexplore.harness import RunConfig, WorldSpec, events_to_ndjson, run_episode
from gridexplore.planners import RewardModel

PARAMS = {
    "maze": {"width": 51, "height": 51},
    "subway": {"rooms": 5},
    "cave": {"width": 51, "height": 51},
}

# (generator, planner, world seed) -> sha256 of events_to_ndjson. The last
# seed is >= 2**32, so the field's rows of draws are seeded with a two-word seed.
EPISODE_SHA256 = {
    ("maze", "MLDM", 3): "50c94c4c0bee63b9208d27faa701799a2f8c1b855d930c5bc3e923c6b3ada8e8",
    ("maze", "HCP", 3): "ed8a91156adb5475e1f0c5f59a26abbc631ec0fa7a962a7db2c827cf0223b2a5",
    ("maze", "NBV", 3): "125c716eb0892c5af9fc8020db9b078b99deb30fc9a2b9647abf8fe19d386404",
    ("maze", "HFE", 3): "2b23b197b553caac65e9396d4a4a5194ef2eb2331979f84a2296654a464470f8",
    ("subway", "MLDM", 4): "8086fbfe136b93665b9b36c59acb084f58c190a951d27ef03b5b41827067f92e",
    ("subway", "HCP", 4): "7ee032469d473cc3e07e5f9b0f0abec34014f9ec6fbe19ca048fd79f733664fb",
    ("subway", "NBV", 4): "5cc70421f2d1f506cf8f37cc18ec907cfafde25e908cf2b6d99e828eb17e645c",
    ("subway", "HFE", 4): "299826f4a529e8a58a438448871b3132041a72138d4e76825509427ae987c9eb",
    ("cave", "MLDM", 5): "ee6342f553be6e7fc14d877911b1531e57fd7fbccfcc0e00c5965c33a7388908",
    ("cave", "HCP", 5): "f438d9525671638a733d46f70a6a5230ce34d59bf307b873d710b9048ec4ff14",
    ("cave", "NBV", 5): "d790d779f876d5ed57571c9bddddbb13d4761c6124b6c727ab53d51febc7c88b",
    ("cave", "HFE", 5): "d686a9ea7d85b03833cfc71606281b8d9c8de5da353e6c11e7c178db5b1e995b",
    ("cave", "MLDM", 2**32 + 5): "5e3bb94aa9102b9bbdcaaf01664fcd0773b319477a2c223836bbe6266b0e17f8",
}

# Cycle-event shapes the pins above do not reach: (label, generator, planner,
# world seed, step budget, golden settings) -> sha256 of events_to_ndjson.
# "Golden settings" are the settings of the pins above; without them the
# episode runs on RunConfig defaults.
SHAPE_SHA256 = {
    # an MLDM cycle with no candidate at all; ends no_policy at step 150
    ("mldm_no_candidate", "subway", "MLDM", 5, 160, False):
        "4304f950be47831288e3929e86967e217f83df3866c1d40e47f07ddae408ccd0",
    # HCP with no policy; ends no_policy at step 150
    ("hcp_no_policy", "subway", "HCP", 5, 160, False):
        "43670d3f401d9d08e3a3763fdd35f08a68130dc3941179f9dc028ee41f486462",
    # HCP gives up its committed goal and calls plan_global (global_found)
    ("hcp_global_fallback", "subway", "HCP", 3, 120, True):
        "63d8c3a3325e6b8c90d462e31e435fa4cb0ce10c23b57e90b96fcf682720ac8d",
    # HFE with no policy (chosen: null)
    ("hfe_no_policy", "maze", "HFE", 3, 120, True):
        "e10fe10bc29b75bafd6c49179f86d8acdaa6becfdccb829829543c947d12fe90",
    # MLDM discrepancy override
    ("mldm_d_exceeded", "subway", "MLDM", 3, 120, True):
        "0a6362b93131a9f8ef95dcd13410fe61142bdfd4485e7c201202767535f889de",
    # MLDM risk override
    ("mldm_j_exceeded", "cave", "MLDM", 0, 60, True):
        "b8df9a7e630ff9200cb482e9a733c1fc5b5cf3bd402128f3f57bd9c9cb1aa4e3",
}

GOLDEN_SETTINGS = {"nbv_samples": 20, "min_frontier_cluster": 1, "horizon_global": 40}

# Tie-heavy NBV and A* episodes, run with golden settings, the overrides
# below and step budget 120: label -> (generator, planner, world seed,
# overrides, sha256 of events_to_ndjson).
TIE_SHA256 = {
    # risk-free A*: equal-cost paths are told apart only by heap order
    "nbv_risk_free": ("cave", "NBV", 5, {"astar_risk_weight": 0.0},
                      "27da1e38f4925dee1bee636b36a35300eaa5640062eade71f61027e9af980541"),
    "hfe_risk_free": ("cave", "HFE", 5, {"astar_risk_weight": 0.0},
                      "a2a09106b96b8cdce7d1a0db6670ee7e94aaaa628a3816dc21008fa183920b5f"),
    # free travel: every NBV score equals its bound, so the tie rule decides
    "nbv_free_travel": ("cave", "NBV", 5, {"reward": RewardModel(distance_cost=0.0)},
                        "13a4e16672e321e66643a3b7da8cf9c3e7d1524996b603ff68f0a21a95052acf"),
    # many viewpoints per cycle
    "nbv_200_samples": ("subway", "NBV", 4, {"nbv_samples": 200},
                        "0b4b1b50e125f304ba9a7fb472035efc73fef45a45c899e5462ee08932639308"),
}

# (seed, width, height) -> (sha256 of occupancy bytes, sha256 of risk_mu bytes)
CAVE_SHA256 = {
    (0, 51, 51): ("5d8b50d118a99cf1fc3d83bc9fa1fe8db5185bed181d9bcd4ab403d7283b0698",
                  "d5d48890ef16ad2e7d106dc9b4163d6cc192566b678a76f307912cadfdf7bbd3"),
    (1, 51, 51): ("9d4703ac6e83a9d0bfd57fbbacf79fb9631628768f1034679bffa463b39f41bd",
                  "077a1ea360a77e98ea40a5467f285114f0d1d05308da24527d66c4de1ebc68c2"),
    (2, 64, 40): ("e29583e005d3519b54dc136021704226c4b5ed6e091ef2adece425c39465577f",
                  "13e70faf7e92964e52f64c2d10a00b3fd9bb1d0de94a4007cd2698680289fe20"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("generator,planner,seed", sorted(EPISODE_SHA256))
def test_episode_log_matches_golden_hash(generator, planner, seed):
    config = RunConfig(
        world=WorldSpec(generator=generator, seed=seed, params=dict(PARAMS[generator])),
        planner=planner, step_budget=60, nbv_samples=20, min_frontier_cluster=1,
        horizon_global=40,
    )
    record = run_episode(config)
    text = events_to_ndjson(record.events)
    assert sha256(text.encode("utf-8")) == EPISODE_SHA256[(generator, planner, seed)]


@pytest.mark.parametrize("label,generator,planner,seed,budget,golden", sorted(SHAPE_SHA256))
def test_event_shape_log_matches_golden_hash(label, generator, planner, seed, budget, golden):
    config = RunConfig(
        world=WorldSpec(generator=generator, seed=seed, params=dict(PARAMS[generator])),
        planner=planner, step_budget=budget, **(GOLDEN_SETTINGS if golden else {}),
    )
    record = run_episode(config)
    text = events_to_ndjson(record.events)
    key = (label, generator, planner, seed, budget, golden)
    assert sha256(text.encode("utf-8")) == SHAPE_SHA256[key]


@pytest.mark.parametrize("label", sorted(TIE_SHA256))
def test_tie_heavy_log_matches_golden_hash(label):
    generator, planner, seed, overrides, expected = TIE_SHA256[label]
    config = RunConfig(
        world=WorldSpec(generator=generator, seed=seed, params=dict(PARAMS[generator])),
        planner=planner, step_budget=120, **{**GOLDEN_SETTINGS, **overrides},
    )
    record = run_episode(config)
    text = events_to_ndjson(record.events)
    assert sha256(text.encode("utf-8")) == expected


@pytest.mark.parametrize("seed,width,height", sorted(CAVE_SHA256))
def test_cave_world_matches_golden_hash(seed, width, height):
    world = gw.generate_cave(seed, width=width, height=height)
    occupancy, risk_mu = CAVE_SHA256[(seed, width, height)]
    assert sha256(world.occupancy.tobytes()) == occupancy
    assert sha256(world.risk_mu.tobytes()) == risk_mu


def _neumaier_sum(iterable, start=0):
    """CPython 3.12's builtin sum: exact floats are added with Neumaier's
    compensation, anything else (numpy scalars included) as before."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
            elif isinstance(item, int):
                total += float(item)
            else:
                if comp and math.isfinite(comp):
                    total += comp
                result = total + item
                break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result


def test_neumaier_sum_emulation_compensates():
    assert _neumaier_sum([1e16, 1.0, -1e16]) == 1.0
    assert _neumaier_sum([1, True, 2]) == 4


@pytest.mark.parametrize("generator,planner,seed", sorted(EPISODE_SHA256))
def test_episode_log_independent_of_python_sum(monkeypatch, generator, planner, seed):
    """Logs do not depend on how the running Python's builtin sum() rounds."""
    for module in (motion, planners, roadmap):
        monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    test_episode_log_matches_golden_hash(generator, planner, seed)
