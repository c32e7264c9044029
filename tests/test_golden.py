"""Golden pins: event-log hashes of short episodes and the bytes of generated
cave worlds. A change that moves one cave cell, one risk draw or one planner
choice changes a hash here. The values were recorded before the local layer
and the generators were rewritten for speed, so these tests prove that the
rewrites changed no behaviour. SHAPE_SHA256 was recorded before the planners
became one table and the grid searches one BFS, and pins the cycle-event
shapes the first pins do not reach. TIE_SHA256 was recorded before NBV's
argmax became a branch-and-bound and A* a flat-index search, and pins
episodes whose NBV and A* choices are decided by ties."""
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
# seed is >= 2**32, so the edge-risk streams are seeded with a two-word seed.
EPISODE_SHA256 = {
    ("maze", "MLDM", 3): "56f68cd4cedd4e8be0cf9d82a3d1d1baa98ab316abac0f860149185ec0da57cf",
    ("maze", "HCP", 3): "560df9bb036ec34ec45763ed29c21076f4bb72db63a9b7bfcdc537af8e7e7bbb",
    ("maze", "NBV", 3): "cf4ef0ad3ddf3742fea58a6944b236fed2651b43a8321a4b34b59b7b1e1b05e1",
    ("maze", "HFE", 3): "1df0f62b1f6e924a993a096a57fde7fe5211883edca308fb60156e0ee80968e9",
    ("subway", "MLDM", 4): "90b96f508edd91507f7c3220d92c583f17cd381bc693948ab78c9565bd27b56c",
    ("subway", "HCP", 4): "d7b3bf9b6130299a97149c325b225619861c2c50d4379e431f1b09ef89d1bb54",
    ("subway", "NBV", 4): "4204f2b96c38a677a6dad7525d051ae94fc75bc664b45df06459577a1f87762c",
    ("subway", "HFE", 4): "d34bb1e62a6864d9a98238a9b5b8f2a9c20ca321960644993d28a6a2fd4a9f5d",
    ("cave", "MLDM", 5): "0515458849af88fe1c9b700989cbabae092a9eb68ddd23c9f81a91ea352e9372",
    ("cave", "HCP", 5): "b9211811422cd0e23b3de73b3b80545af53dc6b170a6dea2f7d58291ae4244cf",
    ("cave", "NBV", 5): "9efc15947337b16a7f3772a2876c3b74df1a12f8ff8db3b713456c8d89c7d6a0",
    ("cave", "HFE", 5): "c6f67d3dcba533a894a8db23d7c80cb67509654e8adfb7c4504e070ae547a43f",
    ("cave", "MLDM", 2**32 + 5): "08342b1e47fc68f2b2132b2563d5403c457e77c8e10101532c58e9689081e0ef",
}

# Cycle-event shapes the pins above do not reach: (label, generator, planner,
# world seed, step budget, golden settings) -> sha256 of events_to_ndjson.
# "Golden settings" are the settings of the pins above; without them the
# episode runs on RunConfig defaults.
SHAPE_SHA256 = {
    # an MLDM cycle with no candidate at all; ends no_policy at step 150
    ("mldm_no_candidate", "subway", "MLDM", 5, 160, False):
        "a7681135eda983ef575b9713b64443db4f429b033b6c185ed6b7bf70250820d4",
    # HCP with no policy; ends no_policy at step 150
    ("hcp_no_policy", "subway", "HCP", 5, 160, False):
        "24632d6a19943992313902545f18a14f244336a4e4dee721309bc7d6a29a1e75",
    # HCP gives up its committed goal and calls plan_global (global_found)
    ("hcp_global_fallback", "subway", "HCP", 3, 120, True):
        "06b19cb5deff4542118ebfa386f038a061b19161f3eedc3f0c579656bb8270d0",
    # HFE with no policy (chosen: null)
    ("hfe_no_policy", "maze", "HFE", 3, 120, True):
        "a1249547f2a7abf4188b41ee297bc3e46654f25657e871abfba7dfb394556423",
    # MLDM discrepancy override
    ("mldm_d_exceeded", "subway", "MLDM", 3, 120, True):
        "4e77c3068d620a00d96e5cb000daafde67f03d25100adb56941fa4bc5f6f899f",
    # MLDM risk override
    ("mldm_j_exceeded", "cave", "MLDM", 0, 60, True):
        "e5e60f237a5c04e3401a0c01733d86cef35ab6d72e1823ff05f6919bf2f39f92",
}

GOLDEN_SETTINGS = {"nbv_samples": 20, "min_frontier_cluster": 1, "horizon_global": 40}

# Tie-heavy NBV and A* episodes, run with golden settings, the overrides
# below and step budget 120: label -> (generator, planner, world seed,
# overrides, sha256 of events_to_ndjson).
TIE_SHA256 = {
    # risk-free A*: equal-cost paths are told apart only by heap order
    "nbv_risk_free": ("cave", "NBV", 5, {"astar_risk_weight": 0.0},
                      "e9f2806e710d3c886588505956ffc22b7eb5a682d659406cfdc17839c2e0c94a"),
    "hfe_risk_free": ("cave", "HFE", 5, {"astar_risk_weight": 0.0},
                      "f825df279b53cff58d4a89644bf07ae1fd7cc6ddb45f0aa6c33485c0f094fd30"),
    # free travel: every NBV score equals its bound, so the tie rule decides
    "nbv_free_travel": ("cave", "NBV", 5, {"reward": RewardModel(distance_cost=0.0)},
                        "43bb4922f19a70ed2af5020663786e3e9f13bb68d3cb7a45070d9648a611875d"),
    # many viewpoints per cycle
    "nbv_200_samples": ("subway", "NBV", 4, {"nbv_samples": 200},
                        "277b404c4db26d7ee29e2db8cdc9c7911b17f8c4f25b59dda199a40f48bf1196"),
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
