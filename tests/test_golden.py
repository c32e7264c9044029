"""Golden pins: hashes of short episodes' event logs and the bytes of
generated worlds. A change that moves one cave cell, one risk draw or one
planner choice changes a hash here.

An episode pin is log_sha256 of its log. That hashes the header's
world-derived j_max and reachable_free_cells, then every event after the
header; the rest of the header is what the test's config and the code fix,
and log_sha256 checks it apart, by exact equality. So a pin moves only where
its episode moves. A refactor or a speed-up moves no pin. A behaviour change
bumps harness.BEHAVIOUR_VERSION and re-records only the pins of the episodes
it moved, which its diff of this file then names.

SHAPE_SHA256 pins cycle-event shapes the episode pins do not reach, and each
shape test checks its shape as well, so that a re-recorded pin keeps it.
TIE_SHA256 pins episodes whose NBV and A* choices are decided by ties."""
import hashlib
import math
from dataclasses import asdict

import pytest

from gridexplore import harness, motion, planners, roadmap
from gridexplore import world as gw
from gridexplore.harness import RunConfig, WorldSpec, events_to_ndjson, run_episode
from gridexplore.planners import RewardModel

PARAMS = {
    "maze": {"width": 51, "height": 51},
    "subway": {"rooms": 5},
    "cave": {"width": 51, "height": 51},
}

# (generator, planner, world seed) -> log_sha256 of its log. The last
# seed is >= 2**32, so the field's rows of draws are seeded with a two-word seed.
EPISODE_SHA256 = {
    ("maze", "MLDM", 3): "ce1689f445261e0b0a130290199a21e991f47751a94da593f3739c1f45083f73",
    ("maze", "HCP", 3): "1bccd34dd9b4b58835ac11f5d94c85e49b6d405e178906a1271f9f541af45b7b",
    ("maze", "NBV", 3): "5c2bb2244b357ca5ba866c6918152e8eb134c3740a8601411ffc95e0336cf502",
    ("maze", "HFE", 3): "7bb05afcd6944a5eaa84abcaac7fbef38af5dd5e8d5a3e46a994675ed1940102",
    ("subway", "MLDM", 4): "146d9e7272dace3c6878485d00db1020647add9532e4693ebb1b3ba5fb8daece",
    ("subway", "HCP", 4): "a202f49cf1ca68e79fdc4a253e95e40a8c65a2da5ce55bd3e97bcdad1838cf1c",
    ("subway", "NBV", 4): "4c1a8c18368b5bcecb9ff43a9992cdb4c898050467b9dc90e8af74ae7ffd5e8d",
    ("subway", "HFE", 4): "2f12f107b5e5571698158d49e65bf40b824e7e11154fe1d8ec42f5c687132a42",
    ("cave", "MLDM", 5): "cbda7b079ff49664c35810d35127795e654f15d333e207d857d698b27f3fbbcb",
    ("cave", "HCP", 5): "5001f37167f581bb8ee9f6cd5d82b64d7e66d3ef4b3eeefdd6673a8a1d8b888f",
    ("cave", "NBV", 5): "b28862c4b3c23b387ce6a4d1e342e0abd1c9673f0d503b4b5c3082838bee733f",
    ("cave", "HFE", 5): "bb54a721065da5f933203878fd401ac27799f1056c8dc1656494f7c1139a347f",
    ("cave", "MLDM", 2**32 + 5): "2961229a9f532a6b03dbbc77f2c0467c2b49997de0613cdf9415c4774282d68c",
}

# Cycle-event shapes the pins above do not reach: (label, generator, planner,
# world seed, step budget, golden settings) -> log_sha256 of its log.
# "Golden settings" are the settings of the pins above; without them the
# episode runs on RunConfig defaults.
SHAPE_SHA256 = {
    # an MLDM cycle with no candidate at all; ends no_policy at step 145
    ("mldm_no_candidate", "subway", "MLDM", 17, 160, False):
        "c89336ea9d0b0f87a30e7bf44f7449c9883e604af158c49023e9ba3cf841880a",
    # HCP with no policy; ends no_policy at step 145
    ("hcp_no_policy", "subway", "HCP", 17, 160, False):
        "d6c20275d2a1a7cd47c35b25a564a56b922b788e40827f0c6b9fbe79bf7335ed",
    # HCP gives up its committed goal and calls plan_global (global_found)
    ("hcp_global_fallback", "subway", "HCP", 8, 120, True):
        "10898656aa85997a59a046ab79b4817de7021bf37599692b5f4f2f986401b1db",
    # HFE with no policy (chosen: null)
    ("hfe_no_policy", "maze", "HFE", 3, 120, True):
        "2d813a9af62663f40d3ac50b04afe96586d8e4063880ecf12f5042c6e1db2312",
    # MLDM discrepancy override
    ("mldm_d_exceeded", "subway", "MLDM", 8, 120, True):
        "4628ecd8042f52e987edc18e80d4543aca19619640062ac84933b711f8e98228",
    # MLDM risk override
    ("mldm_j_exceeded", "cave", "MLDM", 0, 60, True):
        "e2254d439ff64a2b37fbeccfe85bdde8a61a6eb2f788ecf63c14b91082200085",
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
# overrides, log_sha256 of its log).
TIE_SHA256 = {
    # risk-free A*: equal-cost paths are told apart only by heap order
    "nbv_risk_free": ("cave", "NBV", 5, {"astar_risk_weight": 0.0},
                      "aa4924803c96001dadabc03f000aab6b1517edeba291e8f5a6ff6b58e2757854"),
    "hfe_risk_free": ("cave", "HFE", 5, {"astar_risk_weight": 0.0},
                      "cdb5d247a1171aa4744ea16553a032c44c9e0cac84b0bb81ef896d68819f7cc3"),
    # free travel: every NBV score equals its bound, so the tie rule decides
    "nbv_free_travel": ("cave", "NBV", 5, {"reward": RewardModel(distance_cost=0.0)},
                        "73031f4607ac269c0a57d6c2edad58e8f88b76befa242a1ba55156fb7c4b84ac"),
    # many viewpoints per cycle
    "nbv_200_samples": ("subway", "NBV", 4, {"nbv_samples": 200},
                        "01964c2351d785667aac4cf0dec72363ea05bcea35377c8b8f8c6e15945ee463"),
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


# header keys that the world and its risk draws set; the rest the config fixes
WORLD_KEYS = ("j_max", "reachable_free_cells")


def log_sha256(config: RunConfig, events: list[dict]) -> str:
    """The pin of an episode's log. Asserts that the header holds exactly the
    event type, schema and behaviour versions, config and config hash that
    config and this build give, then hashes the header's WORLD_KEYS and
    every event after the header."""
    header, *body = events
    assert {key: value for key, value in header.items() if key not in WORLD_KEYS} == {
        "type": "header",
        "version": harness.EVENT_SCHEMA_VERSION,
        "behaviour": harness.BEHAVIOUR_VERSION,
        "config": asdict(config),
        "config_hash": harness.config_hash(config),
    }
    world = {key: header[key] for key in WORLD_KEYS}
    return sha256(events_to_ndjson([world, *body]).encode("utf-8"))


@pytest.mark.parametrize("generator,planner,seed", sorted(EPISODE_SHA256))
def test_episode_log_matches_golden_hash(generator, planner, seed):
    config = RunConfig(
        world=WorldSpec(generator=generator, seed=seed, params=dict(PARAMS[generator])),
        planner=planner, step_budget=60, nbv_samples=20, min_frontier_cluster=1,
        horizon_global=40,
    )
    assert log_sha256(config, run_episode(config).events) == \
        EPISODE_SHA256[(generator, planner, seed)]


@pytest.mark.parametrize("label,generator,planner,seed,budget,golden", sorted(SHAPE_SHA256))
def test_event_shape_log_matches_golden_hash(label, generator, planner, seed, budget, golden):
    config = RunConfig(
        world=WorldSpec(generator=generator, seed=seed, params=dict(PARAMS[generator])),
        planner=planner, step_budget=budget, **(GOLDEN_SETTINGS if golden else {}),
    )
    events = run_episode(config).events
    assert SHAPES[label](events)
    key = (label, generator, planner, seed, budget, golden)
    assert log_sha256(config, events) == SHAPE_SHA256[key]


@pytest.mark.parametrize("label", sorted(TIE_SHA256))
def test_tie_heavy_log_matches_golden_hash(label):
    generator, planner, seed, overrides, expected = TIE_SHA256[label]
    config = RunConfig(
        world=WorldSpec(generator=generator, seed=seed, params=dict(PARAMS[generator])),
        planner=planner, step_budget=120, **{**GOLDEN_SETTINGS, **overrides},
    )
    assert log_sha256(config, run_episode(config).events) == expected


def _short_cave_log():
    config = RunConfig(world=WorldSpec(generator="cave", seed=5, params=dict(PARAMS["cave"])),
                       planner="MLDM", step_budget=5)
    return config, run_episode(config).events


@pytest.mark.parametrize("edit", [
    lambda header: {**header, "behaviour": 2},
    lambda header: {**header, "config": {**header["config"], "step_budget": 6}},
], ids=["behaviour_2", "config_value"])
def test_log_sha256_checks_the_header(edit):
    config, events = _short_cave_log()
    with pytest.raises(AssertionError):
        log_sha256(config, [edit(events[0]), *events[1:]])


def test_log_sha256_hashes_j_max():
    config, events = _short_cave_log()
    moved = {**events[0], "j_max": events[0]["j_max"] * 2}
    assert log_sha256(config, [moved, *events[1:]]) != log_sha256(config, events)


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
