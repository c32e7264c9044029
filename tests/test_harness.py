import concurrent.futures
import functools
import json
import math
import multiprocessing
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from gridexplore import cli, harness
from gridexplore import world as gw
from gridexplore.cli import main as cli_main
from gridexplore.harness import (
    ConfigError, ReplayError, RunConfig, SwitchSettings, WorldSpec,
    build_world, config_from_dict, config_hash,
    events_to_ndjson, replay, run_batch, run_episode, write_summary_csv,
)
from gridexplore.scenarios import scenario_regressions
from gridexplore.world import BeliefGrid, SensorSpec


def small_maze_config(planner="MLDM", seed=3, budget=120):
    return RunConfig(
        world=WorldSpec(generator="maze", seed=seed,
                        params={"width": 21, "height": 21}),
        planner=planner,
        step_budget=budget,
        min_frontier_cluster=1,
    )


def empty_room_config(planner):
    return RunConfig(
        world=WorldSpec(generator="subway", seed=1,
                        params={"rooms": 1, "room_size_range": [5.0, 5.0]}),
        planner=planner,
        step_budget=300,
        sensor=SensorSpec(range_m=8.0),
    )


# --- config io ---------------------------------------------------------------------

def test_config_round_trip():
    cfg = small_maze_config()
    doc = asdict(cfg)
    again = config_from_dict(json.loads(json.dumps(doc)))
    assert asdict(again) == doc
    assert config_hash(again) == config_hash(cfg)


def test_config_rejects_unknown_keys():
    doc = asdict(small_maze_config())
    doc["budget"] = 5
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    doc2 = asdict(small_maze_config())
    doc2["reward"]["gamma"] = 0.5
    with pytest.raises(ConfigError):
        config_from_dict(doc2)


@pytest.mark.parametrize("j_max", [None, 3])
def test_config_accepts_null_or_number_j_max_without_converting(j_max):
    config = config_from_dict({"switch": {"j_max": j_max}})
    assert config.switch.j_max == j_max
    assert type(config.switch.j_max) is type(j_max)
    assert config_hash(config) == config_hash(RunConfig(switch=SwitchSettings(j_max=j_max)))


def test_events_to_ndjson_bytes_of_numpy_values():
    event = {"type": "x", "i": np.int64(7), "f": np.float32(0.1), "b": np.bool_(True),
             "a": np.array([[0.1, 1.0], [2.5, -3.0]])}
    assert events_to_ndjson([event]) == (
        '{"a":[[0.1,1.0],[2.5,-3.0]],"b":true,"f":0.10000000149011612,"i":7,"type":"x"}\n'
    )


def test_config_rejects_bad_planner():
    with pytest.raises(ConfigError):
        RunConfig(planner="RRT")


def test_build_world_rejects_unknown_generator():
    with pytest.raises(ConfigError):
        build_world(WorldSpec(generator="volcano"))


# --- episodes ----------------------------------------------------------------------

@pytest.mark.parametrize("planner", ["MLDM", "HCP", "NBV", "HFE"])
def test_empty_room_reaches_full_coverage(planner):
    record = run_episode(empty_room_config(planner))
    world = build_world(empty_room_config(planner).world)
    free_area = world.free_cell_count() * world.cell_area
    assert record.final_coverage_m2 == pytest.approx(free_area)
    assert record.termination == "full_coverage"


def test_zero_budget_covers_initial_footprint_only():
    cfg = small_maze_config(budget=0)
    record = run_episode(cfg)
    world = build_world(cfg.world)
    belief = BeliefGrid.for_world(world)
    gw.sense(world, belief, world.spawn, cfg.sensor)
    assert record.final_coverage_m2 == pytest.approx(gw.covered_area(belief))
    assert record.total_steps == 0


@pytest.mark.parametrize("planner", ["MLDM", "HCP"])
def test_episode_is_deterministic(planner):
    cfg = small_maze_config(planner)
    a = run_episode(cfg)
    b = run_episode(cfg)
    assert events_to_ndjson(a.events) == events_to_ndjson(b.events)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


def test_coverage_is_monotone_in_episode():
    record = run_episode(small_maze_config("MLDM"))
    last = -1.0
    for ev in record.events:
        if ev.get("type") == "step":
            assert ev["covered_m2"] >= last - 1e-12
            last = ev["covered_m2"]
    assert record.intervals[-1]["covered_m2"] == record.final_coverage_m2
    steps = [iv["step"] for iv in record.intervals]
    assert steps == sorted(steps)


def test_mldm_override_never_executes_flagged_argmax_with_alternative():
    cfg = RunConfig(
        world=WorldSpec(generator="cave", seed=2,
                        params={"width": 41, "height": 41, "risk_intensity": 0.9}),
        planner="MLDM", step_budget=150, min_frontier_cluster=1,
    )
    record = run_episode(cfg)
    for ev in record.events:
        decision = ev.get("decision")
        if not decision or not decision.get("override_fired"):
            continue
        if len(decision["candidates"]) == 2:
            scores = {s: c["score"] for s, c in decision["candidates"].items()}
            argmax = max(scores, key=lambda s: (scores[s], s == "local"))
            assert decision["chosen"] != argmax


def test_episode_writes_outputs(tmp_path):
    cfg = small_maze_config(budget=40)
    record = run_episode(cfg, out_dir=str(tmp_path))
    assert (tmp_path / "events.ndjson").exists()
    assert (tmp_path / "runrecord.json").exists()
    doc = json.loads((tmp_path / "runrecord.json").read_text())
    assert doc["config_hash"] == record.config_hash
    assert doc["final_coverage_m2"] == pytest.approx(record.final_coverage_m2)


# --- batch -------------------------------------------------------------------------

def test_batch_mean_matches_hand_average():
    cfg = small_maze_config(budget=60)
    results, summary = run_batch([cfg], repetitions=2)
    assert all(r["ok"] for r in results)
    finals = [r["record"]["final_coverage_m2"] for r in results]
    last_row = [row for row in summary if row["config_index"] == 0][-1]
    assert last_row["coverage_mean_m2"] == pytest.approx(np.mean(finals))
    assert last_row["coverage_min_m2"] == pytest.approx(min(finals))
    assert last_row["coverage_max_m2"] == pytest.approx(max(finals))


def test_batch_four_planner_table(tmp_path):
    configs = [small_maze_config(planner, budget=40)
               for planner in ("MLDM", "HCP", "NBV", "HFE")]
    results, summary = run_batch(configs, repetitions=1)
    assert {row["config_index"] for row in summary} == {0, 1, 2, 3}
    assert {row["planner"] for row in summary} == {"MLDM", "HCP", "NBV", "HFE"}
    for row in summary:
        for col in ("coverage_mean_m2", "coverage_min_m2", "coverage_max_m2",
                    "rate_mean_m2_per_min", "sim_minutes"):
            assert row[col] is not None
    path = tmp_path / "summary.csv"
    write_summary_csv(summary, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("config_index,planner")
    assert len(lines) == len(summary) + 1


def test_batch_parallel_matches_serial():
    cfg = small_maze_config(budget=40)
    serial, _ = run_batch([cfg], repetitions=2, parallelism=1)
    parallel, _ = run_batch([cfg], repetitions=2, parallelism=2)
    for a, b in zip(serial, parallel):
        assert a["record"]["final_coverage_m2"] == b["record"]["final_coverage_m2"]
        assert a["record"]["config_hash"] == b["record"]["config_hash"]


def test_batch_records_failures_and_continues():
    good = small_maze_config(budget=30)
    bad = small_maze_config(budget=30)
    bad.world.generator = "volcano"
    results, summary = run_batch([bad, good], repetitions=1)
    assert not results[0]["ok"]
    assert results[1]["ok"]
    assert any(row["config_index"] == 1 for row in summary)


_EPISODE_JOB = harness._episode_job


def _episode_job_or_exit(args):
    """A batch job whose worker dies when the config's own seed is 99."""
    if args[0]["seed"] == 99:
        os._exit(3)
    return _EPISODE_JOB(args)


def _episode_job_or_fail(args):
    if args[0]["seed"] == 99:
        return {"ok": False, "error": "failed", "rep": args[1]}
    return _EPISODE_JOB(args)


def test_batch_survives_a_crashed_worker(monkeypatch):
    # fork, so that the patched job reaches the workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    good = small_maze_config(budget=20)
    crash = small_maze_config(budget=20)
    crash.seed = 99
    configs = [good, crash, good, good]
    monkeypatch.setattr(harness, "_episode_job", _episode_job_or_exit)
    results, summary = run_batch(configs, parallelism=2)
    assert multiprocessing.active_children() == []
    assert [r["ok"] for r in results] == [True, False, True, True]
    assert "BrokenProcessPool" in results[1]["error"]
    assert [(r["config_index"], r["rep"]) for r in results] == [(0, 0), (1, 0), (2, 0), (3, 0)]

    monkeypatch.setattr(harness, "_episode_job", _episode_job_or_fail)
    serial, serial_summary = run_batch(configs, parallelism=1)
    assert summary == serial_summary
    for a, b in zip(results, serial):
        if a["ok"]:
            a["record"].pop("wall_time_s"), b["record"].pop("wall_time_s")
            assert a == b


# --- replay ------------------------------------------------------------------------

def test_replay_round_trip(tmp_path):
    cfg = small_maze_config(budget=60)
    run_episode(cfg, out_dir=str(tmp_path))
    result = replay(str(tmp_path / "events.ndjson"))
    assert result.ok
    assert not result.truncated
    assert result.steps > 0 and result.cycles > 0
    assert result.score_mismatches == 0


def test_replay_verify_regenerates_identical_stream(tmp_path):
    cfg = small_maze_config(budget=60)
    run_episode(cfg, out_dir=str(tmp_path))
    result = replay(str(tmp_path / "events.ndjson"), verify=True)
    assert result.ok, result.warnings


def test_replay_truncated_log_warns(tmp_path):
    cfg = small_maze_config(budget=60)
    record = run_episode(cfg, out_dir=str(tmp_path))
    full = (tmp_path / "events.ndjson").read_text().splitlines()
    cut = tmp_path / "truncated.ndjson"
    cut.write_text("\n".join(full[: len(full) // 2]) + "\n")
    result = replay(str(cut))
    assert result.truncated
    assert any("truncated" in w for w in result.warnings)
    assert result.steps < record.total_steps


def test_replay_rejects_bad_version(tmp_path):
    cfg = small_maze_config(budget=20)
    run_episode(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "events.ndjson").read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = 99
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ReplayError):
        replay(str(bad))


def test_replay_detects_tampered_scores(tmp_path):
    cfg = small_maze_config(budget=80)
    run_episode(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "events.ndjson").read_text().splitlines()
    tampered = []
    poisoned = False
    for line in lines:
        ev = json.loads(line)
        if not poisoned and ev.get("type") == "cycle" and ev.get("decision"):
            for cand in ev["decision"]["candidates"].values():
                cand["score"] += 1.0
                poisoned = True
                break
        tampered.append(json.dumps(ev, sort_keys=True, separators=(",", ":")))
    assert poisoned, "expected at least one decision in the log"
    bad = tmp_path / "tampered.ndjson"
    bad.write_text("\n".join(tampered) + "\n")
    result = replay(str(bad))
    assert not result.ok
    assert result.score_mismatches >= 1


def rewrite_header(tmp_path, edit):
    """The path of a copy of a short episode's log whose header edit changed."""
    run_episode(small_maze_config(budget=20), out_dir=str(tmp_path))
    lines = (tmp_path / "events.ndjson").read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    return str(bad)


@pytest.mark.parametrize("edit", [
    lambda h: h["config"].update(step_budget=2.5),
    lambda h: h["config"]["switch"].update(d_max=-1.0),
    lambda h: h.update(config=5),
    lambda h: h.pop("j_max"),
], ids=["step_budget_float", "d_max_negative", "config_not_object", "no_j_max"])
def test_replay_rejects_invalid_header_config(tmp_path, edit):
    with pytest.raises(ReplayError):
        replay(rewrite_header(tmp_path, edit))


def test_replay_counts_negative_risk_as_score_mismatch(tmp_path):
    run_episode(small_maze_config(budget=80), out_dir=str(tmp_path))
    lines = (tmp_path / "events.ndjson").read_text().splitlines()
    tampered = []
    poisoned = 0
    for line in lines:
        ev = json.loads(line)
        if not poisoned and ev.get("type") == "cycle" and ev.get("decision"):
            for cand in ev["decision"]["candidates"].values():
                cand["risk"] = -1.0
                poisoned += 1
        tampered.append(json.dumps(ev, sort_keys=True, separators=(",", ":")))
    assert poisoned, "expected at least one decision in the log"
    bad = tmp_path / "negative_risk.ndjson"
    bad.write_text("\n".join(tampered) + "\n")
    result = replay(str(bad))
    assert not result.ok
    assert result.score_mismatches == poisoned
    assert sum("score mismatch" in w for w in result.warnings) == poisoned


# --- scenarios -----------------------------------------------------------------------

def test_scenario_regressions_pass():
    results = scenario_regressions()
    assert [r.name for r in results] == [
        "switchback_global_to_local", "riskpocket_local_to_global",
    ]
    for res in results:
        assert res.passed, res.details


# --- CLI ----------------------------------------------------------------------------

def test_cli_gen_world_and_run(tmp_path):
    world_path = tmp_path / "maze.json"
    assert cli_main(["gen-world", "--generator", "maze", "--seed", "4",
                     "--width", "21", "--height", "21",
                     "--out", str(world_path)]) == 0
    loaded = gw.load_world(str(world_path))
    assert loaded.generator == "maze"

    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(asdict(small_maze_config(budget=30))))
    out_dir = tmp_path / "run_out"
    assert cli_main(["run", "--config", str(config_path),
                     "--out", str(out_dir)]) == 0
    assert (out_dir / "events.ndjson").exists()

    assert cli_main(["replay", "--log", str(out_dir / "events.ndjson")]) == 0


def test_cli_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"planner": "WRONG"}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert cli_main(["run", "--config", str(notjson)]) == 2
    assert cli_main(["batch", "--configs", str(notjson)]) == 2


def test_cli_unknown_generator_param_exits_2(tmp_path):
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps({"world": {"generator": "maze", "params": {"widht": 9}}}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    with pytest.raises(ConfigError):
        config_from_dict({"world": {"generator": "cave", "params": {"fill_probability": 0.5}}})


@pytest.mark.parametrize("doc", [
    {"world": 5},
    {"reward": [0.1]},
    {"world": {"generator": "maze", "params": {"width": "x"}}},
    {"world": {"generator": "subway", "params": {"rooms": 2.5}}},
    {"world": {"generator": "maze", "params": {"width": True}}},
    {"world": {"generator": "subway", "params": {"room_size_range": [5.0]}}},
    {"world": {"generator": "maze", "seed": "7"}},
    {"switch": {"window": 2.5}},
    {"step_budget": 2.5},
    {"replan_interval": 1.5},
    {"metrics_interval": 2.5},
    {"sensor": {"occlusion": 1}},
    {"planner": 5},
], ids=["world_not_object", "reward_not_object", "maze_width_str", "subway_rooms_float",
        "maze_width_bool", "subway_range_short", "seed_str", "switch_window_float",
        "step_budget_float", "replan_interval_float", "metrics_interval_float",
        "sensor_occlusion_int", "planner_int"])
def test_cli_wrong_type_exits_2(tmp_path, doc):
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(bad)]) == 2


def test_config_accepts_int_for_float_param_without_converting():
    doc = {"world": {"generator": "cave", "params": {"risk_intensity": 1, "width": 21}}}
    config = config_from_dict(doc)
    assert type(config.world.params["risk_intensity"]) is int
    assert config_hash(config) == config_hash(RunConfig(
        world=WorldSpec(generator="cave", params={"risk_intensity": 1, "width": 21})))


@pytest.mark.parametrize("doc", [
    {"replan_interval": 0},
    {"expansion_budget": 0},
    {"nbv_samples": 0},
    {"reward": {"distance_cost": -0.05}},
    {"reward": {"distance_cost": float("inf")}},
    {"reward": {"distance_cost": float("nan")}},
    {"reward": {"coverage_weight": float("-inf")}},
    {"astar_risk_weight": -10.0},
    {"steps_per_minute": 0},
    {"horizon_local": 0},
    {"horizon_global": 0},
    {"local_radius": -1},
    {"local_radius": float("inf")},
    {"nbv_radius": -1},
    {"nbv_radius": float("nan")},
    {"hcp_commit_distance": -5},
    {"coverage_done_fraction": 2},
    {"coverage_done_fraction": 0},
    {"risk_alpha": 1.5},
    {"risk_alpha": 0},
    {"risk_samples": 0},
    {"switch": {"window": 0}},
    {"switch": {"window": "x"}},
    {"switch": {"j_max": 0}},
    {"switch": {"d_max": float("nan")}},
    {"sensor": {"range_m": float("nan")}},
    {"kino": {"step_length": float("nan")}},
    {"breadcrumb_spacing": 0},
    {"min_frontier_cluster": 0},
    {"local_radius": 10**400},
], ids=["replan_interval_0", "expansion_budget_0", "nbv_samples_0",
        "distance_cost_negative", "distance_cost_inf", "distance_cost_nan",
        "coverage_weight_inf", "astar_risk_weight_negative", "steps_per_minute_0",
        "horizon_local_0", "horizon_global_0", "local_radius_negative", "local_radius_inf",
        "nbv_radius_negative", "nbv_radius_nan", "hcp_commit_distance_negative",
        "coverage_done_fraction_2", "coverage_done_fraction_0", "risk_alpha_1.5",
        "risk_alpha_0", "risk_samples_0", "switch_window_0", "switch_window_str",
        "switch_j_max_0", "switch_d_max_nan", "sensor_range_m_nan", "kino_step_length_nan",
        "breadcrumb_spacing_0", "min_frontier_cluster_0", "local_radius_huge_int"])
def test_config_out_of_range_exits_2(tmp_path, doc):
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(bad)]) == 2


def test_cli_generator_value_error_exits_2(tmp_path):
    bad = tmp_path / "narrow.json"
    bad.write_text(json.dumps({"world": {"generator": "maze", "params": {"width": 3}}}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    with pytest.raises(ConfigError):
        build_world(WorldSpec(generator="maze", params={"width": 3}))


def test_cli_internal_fault_exits_1_with_traceback(tmp_path, monkeypatch, capsys):
    def fault(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "run_episode", fault)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(asdict(small_maze_config(budget=5))))
    assert cli_main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: internal fault" in err
    assert "invalid config" not in err


def test_cli_batch(tmp_path):
    configs = [asdict(small_maze_config(p, budget=30))
               for p in ("MLDM", "NBV")]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(configs))
    out = tmp_path / "batch_out"
    assert cli_main(["batch", "--configs", str(path), "--reps", "1",
                     "--parallelism", "1", "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
