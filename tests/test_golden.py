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
the three cave ties. When the local search became exact (behaviour 3),
every pin was re-recorded for the header; with the header's behaviour set
back to 2, each new log hashed to its old pin except the MLDM and HCP cave
episodes and five shape pins. Four of those had lost their shape and moved
to a seed that shows it; each shape test now checks its shape as well."""
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
    ("maze", "MLDM", 3): "da3b9185be2f9f0a03e75f3f9fbb3e35478eb1b1db19d13aaac21d1c772a56c3",
    ("maze", "HCP", 3): "586a02b4e2e1d017f24ddf5c5dc6b3ca30c489a1b0d1faaaa0cd2ea09cd04c06",
    ("maze", "NBV", 3): "e9c52fdb523db4e881a7f21034715f6404a62e35ada93a842aaddc7b563be6ba",
    ("maze", "HFE", 3): "733b20a1e3e452353e27f5aeda50b4eccb66ec18c149784460091035e3b6bf49",
    ("subway", "MLDM", 4): "ef9406bba75c0640c75fb2bdd1dc9b32cab3830069336aae24e71f0e181b0f72",
    ("subway", "HCP", 4): "1e5e125eeb48d90eadbea26faa875e88c82db7781929730167b6936f53a3931c",
    ("subway", "NBV", 4): "cecd40842b9060c569b307be3bcea709f2ab3b8aef603489109f764c4dd860c6",
    ("subway", "HFE", 4): "14f5621ed9e7778c5a836945a21c3c1b873924349c6e0c784e4a296949781f96",
    ("cave", "MLDM", 5): "3271bdbcd7537a058037a4173a93099f9b3fdb59895c3bd27e29dc52c23e577d",
    ("cave", "HCP", 5): "03d94f33971064cd128e29f7a53312e08ecdfafebc0b359a7393957ba7e1e9f2",
    ("cave", "NBV", 5): "326593d4ae1d0ed455272845036c476646379b1dc6013652eecc3622b78b9c16",
    ("cave", "HFE", 5): "49336c06f24ed3d6e716c27d036d98096cb98fe8003c5e60f63058441909fbae",
    ("cave", "MLDM", 2**32 + 5): "7d742ededf550d9a557574e34b91e33c559012795b2515784a3c896b05fb9c48",
}

# Cycle-event shapes the pins above do not reach: (label, generator, planner,
# world seed, step budget, golden settings) -> sha256 of events_to_ndjson.
# "Golden settings" are the settings of the pins above; without them the
# episode runs on RunConfig defaults.
SHAPE_SHA256 = {
    # an MLDM cycle with no candidate at all; ends no_policy at step 145
    ("mldm_no_candidate", "subway", "MLDM", 17, 160, False):
        "7c8932de0cbf4cfe6ec5ceecdcf4f41c7e1aca8d543e65b44f7f4ffe24bf1fab",
    # HCP with no policy; ends no_policy at step 145
    ("hcp_no_policy", "subway", "HCP", 17, 160, False):
        "d27a6adca506a52dc57b8553a79deba6f4fe91be4d753afc0eab96101d65f5a4",
    # HCP gives up its committed goal and calls plan_global (global_found)
    ("hcp_global_fallback", "subway", "HCP", 8, 120, True):
        "b098805cf07a32793e9478c73bf9102e72d97777034e17bb974b94fa42cfeb03",
    # HFE with no policy (chosen: null)
    ("hfe_no_policy", "maze", "HFE", 3, 120, True):
        "37062aaa4dd350ce16662036d76d75a7795600cc1e5ffb1fd63b685516d304fb",
    # MLDM discrepancy override
    ("mldm_d_exceeded", "subway", "MLDM", 8, 120, True):
        "a9531cb0a70760f674d1317710893c5adb2178b9a273c81900b4a881a5c49103",
    # MLDM risk override
    ("mldm_j_exceeded", "cave", "MLDM", 0, 60, True):
        "e149e103343fc247978de2f430b960f864b86c0e3d3d9ba7d448702c14f36d4a",
}


def _last_cycle_has_no_candidate(events) -> bool:
    cycles = [ev for ev in events if ev["type"] == "cycle"]
    return events[-1]["termination"] == "no_policy" and "chosen" not in cycles[-1]


def _override(reason):
    return lambda events: any((ev.get("decision") or {}).get("override_reason") == reason
                              for ev in events if ev["type"] == "cycle")


# label -> the shape its log must show, so that a re-recorded pin keeps it
SHAPES = {
    "mldm_no_candidate": _last_cycle_has_no_candidate,
    "hcp_no_policy": _last_cycle_has_no_candidate,
    "hcp_global_fallback": lambda events: any(
        "global_found" in ev for ev in events if ev["type"] == "cycle"),
    "hfe_no_policy": lambda events: any(
        ev["type"] == "cycle" and "chosen" in ev and ev["chosen"] is None for ev in events),
    "mldm_d_exceeded": _override("D_exceeded"),
    "mldm_j_exceeded": _override("J_exceeded"),
}

GOLDEN_SETTINGS = {"nbv_samples": 20, "min_frontier_cluster": 1, "horizon_global": 40}

# Tie-heavy NBV and A* episodes, run with golden settings, the overrides
# below and step budget 120: label -> (generator, planner, world seed,
# overrides, sha256 of events_to_ndjson).
TIE_SHA256 = {
    # risk-free A*: equal-cost paths are told apart only by heap order
    "nbv_risk_free": ("cave", "NBV", 5, {"astar_risk_weight": 0.0},
                      "4b7a5573f84e1f792f8c99312c01f6f42ecb297a2c0897294cec3405f3f73c69"),
    "hfe_risk_free": ("cave", "HFE", 5, {"astar_risk_weight": 0.0},
                      "743eb5cfd4b07355fef14f9d9e9f5768dfd6527492d598f6b1bbde1c0c465dcc"),
    # free travel: every NBV score equals its bound, so the tie rule decides
    "nbv_free_travel": ("cave", "NBV", 5, {"reward": RewardModel(distance_cost=0.0)},
                        "34629e896ef8afbd8f375e642da99a47b9000394ffb70c4fe7f99e70d6fc0edb"),
    # many viewpoints per cycle
    "nbv_200_samples": ("subway", "NBV", 4, {"nbv_samples": 200},
                        "066f771d8afb0bce89cff5d4e450ae98a31e9db30e575a79f9c2b5237bd02279"),
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

# (seed, width, height, deadend_fraction) -> sha256 of occupancy bytes. A 5 x 5
# maze never has a 5-cell dead end, so (2, 5, 5, 0.3) is the first attempt
# after the retries run out; deadend_fraction 0 keeps the first attempt at once.
MAZE_SHA256 = {
    (0, 51, 51, 1.0): "a01881a1a4972be36357f60395053c1090c6bfa3aebb6b884f9037eca3e9c5d6",
    (1, 21, 31, 0.0): "921e1fa0f424a2d5ac37fcb2d396ef2af00b2e878f4021b3bba3ca2ed093bdb5",
    (2, 5, 5, 0.3): "e5c44e12f7ba6f9360dcd7c35a62833918c2e50a1ef8b2cb1a63f6ba875da2e7",
}

# (seed, rooms, room_size_range) -> sha256 of occupancy bytes
SUBWAY_SHA256 = {
    (0, 5, (6.0, 10.0)): "84853c3acee458ea6bbabafdfc33833d079addfde116b27af748211102809f11",
    (3, 2, (2.0, 5.0)): "ecbd4c4e1042ef21fa1bc99515cfed46cecc5cc6b6530e17d6ee923ba536012c",
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
    assert SHAPES[label](record.events)
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


@pytest.mark.parametrize("seed,width,height,deadend_fraction", sorted(MAZE_SHA256))
def test_maze_world_matches_golden_hash(seed, width, height, deadend_fraction):
    world = gw.generate_maze(seed, width=width, height=height, deadend_fraction=deadend_fraction)
    assert sha256(world.occupancy.tobytes()) == MAZE_SHA256[(seed, width, height, deadend_fraction)]


@pytest.mark.parametrize("seed,rooms,room_size_range", sorted(SUBWAY_SHA256))
def test_subway_world_matches_golden_hash(seed, rooms, room_size_range):
    world = gw.generate_subway(seed, rooms=rooms, room_size_range=room_size_range)
    assert sha256(world.occupancy.tobytes()) == SUBWAY_SHA256[(seed, rooms, room_size_range)]


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
