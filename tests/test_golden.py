"""Golden pins: event-log hashes of short episodes and the bytes of generated
cave worlds. A change that moves one cave cell, one risk draw or one planner
choice changes a hash here. The values were recorded before the local layer
and the generators were rewritten for speed, so these tests prove that the
rewrites changed no behaviour. SHAPE_SHA256 was recorded before the planners
became one table and the grid searches one BFS, and pins the cycle-event
shapes the first pins do not reach."""
import hashlib

import pytest

from gridexplore import world as gw
from gridexplore.harness import RunConfig, WorldSpec, events_to_ndjson, run_episode

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


@pytest.mark.parametrize("seed,width,height", sorted(CAVE_SHA256))
def test_cave_world_matches_golden_hash(seed, width, height):
    world = gw.generate_cave(seed, width=width, height=height)
    occupancy, risk_mu = CAVE_SHA256[(seed, width, height)]
    assert sha256(world.occupancy.tobytes()) == occupancy
    assert sha256(world.risk_mu.tobytes()) == risk_mu
