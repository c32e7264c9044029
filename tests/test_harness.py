import concurrent.futures
import functools
import json
import math
import multiprocessing
import os
import re
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


def assert_file_is_export_of(path, spec):
    """A gen-world file, read with json alone, holds the world spec builds:
    its grid, spawn, params and cell size, and its risks bit for bit."""
    doc = json.loads(Path(path).read_text())
    world = build_world(spec)
    expected = gw.world_to_dict(world)
    for key in ("occupancy", "spawn", "params", "cell_size"):
        assert doc[key] == expected[key], key
    assert np.array_equal(np.array(doc["risk_mu"]), world.risk_mu)
    assert np.array_equal(np.array(doc["risk_sigma"]), world.risk_sigma)


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


@pytest.mark.parametrize("j_max", [None, 3, float("inf")])
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


@pytest.mark.parametrize("parallelism", [1, 2])
def test_batch_survives_a_crashed_worker(monkeypatch, parallelism):
    # fork, so that the patched job reaches the workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    good = small_maze_config(budget=20)
    crash = small_maze_config(budget=20)
    crash.seed = 99
    configs = [good, crash, good, good]
    monkeypatch.setattr(harness, "_episode_job", _episode_job_or_exit)
    results, summary = run_batch(configs, parallelism=parallelism)
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


def test_batch_pool_has_no_more_workers_than_jobs(monkeypatch):
    # under fork a pool starts all of its workers at the first submit
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    results, _ = run_batch([small_maze_config(budget=5)], parallelism=4)
    assert [r["ok"] for r in results] == [True]
    assert len(started) == 1


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


@pytest.mark.parametrize("budget", [60, 0])
def test_replay_counts_moves_not_step_events(tmp_path, budget):
    # the step-0 event is written before the first move
    record = run_episode(small_maze_config(budget=budget), out_dir=str(tmp_path))
    result = replay(str(tmp_path / "events.ndjson"))
    assert result.ok, result.warnings
    assert result.steps == record.total_steps


def half_log(tmp_path):
    """The first half of a 60-step maze MLDM episode's log, as text."""
    run_episode(small_maze_config(budget=60), out_dir=str(tmp_path))
    full = (tmp_path / "events.ndjson").read_text()
    return full[: len(full) // 2]


@pytest.mark.parametrize("at_line_end", [True, False], ids=["line_end", "mid_line"])
def test_replay_verify_passes_an_honestly_truncated_log(tmp_path, at_line_end):
    text = half_log(tmp_path)
    if at_line_end:
        text = text[: text.rindex("\n") + 1]
    cut = tmp_path / "truncated.ndjson"
    cut.write_text(text)
    result = replay(str(cut), verify=True)
    assert result.ok, result.warnings
    assert result.truncated
    assert any("truncated" in w for w in result.warnings)


def test_replay_verify_fails_a_truncated_log_with_a_forged_event(tmp_path):
    lines = half_log(tmp_path).splitlines()[:-1]  # whole lines only
    step = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == "step")
    event = json.loads(lines[step])
    assert event["pose"] != [0, 0]
    event["pose"] = [0, 0]
    lines[step] = events_to_ndjson([event]).rstrip("\n")
    forged = tmp_path / "forged.ndjson"
    forged.write_text("\n".join(lines) + "\n")
    result = replay(str(forged), verify=True)
    assert result.truncated
    assert not result.ok
    assert "verify: regenerated event stream differs" in result.warnings
    assert cli_main(["replay", "--log", str(forged), "--verify"]) == 1


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


@pytest.mark.parametrize("config", [
    RunConfig(world=WorldSpec("subway", 2, {"room_size_range": (7.0, 9.0)}), step_budget=10),
    RunConfig(world=WorldSpec("cave", 0, {"width": 31, "height": 31}),
              switch=SwitchSettings(j_max=math.inf), step_budget=10),
    RunConfig(world=WorldSpec("maze", 1, {"width": 21, "height": 21}), planner="NBV",
              sensor=SensorSpec(arc=1.0), step_budget=10),
    RunConfig(world=WorldSpec("scenario_switchback"), planner="HFE", step_budget=10),
], ids=["subway_tuple_param", "cave_j_max_inf", "nbv_sensor_arc", "hfe_switchback"])
def test_replay_checks_the_header_config_hash(tmp_path, config):
    run_episode(config, out_dir=str(tmp_path))
    lines = (tmp_path / "events.ndjson").read_text().splitlines()
    assert replay(str(tmp_path / "events.ndjson")).ok
    for edit in (lambda h: h.update(config_hash="0" * 64),
                 lambda h: h["config"].update(seed=7)):
        header = json.loads(lines[0])
        edit(header)
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        result = replay(str(bad))
        assert result.score_mismatches == 1 and not result.ok
        assert result.warnings == ["line 1: config_hash is not the hash of the header's config"]
        assert cli_main(["replay", "--log", str(bad)]) == 1


def test_replay_verify_refuses_a_log_of_another_behaviour(tmp_path, monkeypatch, capsys):
    """A header without the behaviour key was written under behaviour 1;
    behaviour 2 searched the local lattice only up to its budget. Such logs
    replay, but verification fails with the reason and re-runs nothing; a
    log of this build verifies (see above)."""
    assert harness.BEHAVIOUR_VERSION == 3
    logs = {}
    for behaviour, edit in [(1, lambda h: h.pop("behaviour")),
                            (2, lambda h: h.update(behaviour=2))]:
        (tmp_path / str(behaviour)).mkdir()
        logs[behaviour] = rewrite_header(tmp_path / str(behaviour), edit)
    monkeypatch.setattr(harness, "run_episode", lambda config: pytest.fail("re-ran the episode"))
    for behaviour, old in logs.items():
        assert replay(old).ok
        result = replay(old, verify=True)
        assert not result.ok
        reason = f"recorded under behaviour {behaviour}; this build runs behaviour 3"
        assert result.warnings == [reason]
        assert cli_main(["replay", "--log", old, "--verify"]) == 1
        assert reason in capsys.readouterr().err


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


@pytest.mark.parametrize("edit", [
    lambda entry: entry.update(execution_score=2 * entry["execution_score"]),
    lambda entry: entry.update(score=math.nextafter(entry["score"], math.inf)),
], ids=["execution_score_doubled", "score_one_ulp_up"])
def test_replay_checks_each_decision_entry_exactly(tmp_path, edit):
    run_episode(small_maze_config(budget=80), out_dir=str(tmp_path))
    lines = (tmp_path / "events.ndjson").read_text().splitlines()
    for i, line in enumerate(lines):
        event = json.loads(line)
        entries = (event.get("decision") or {}).get("candidates", {}).values()
        entry = next((entry for entry in entries if entry["execution_score"] != 0), None)
        if entry is not None:
            edit(entry)
            lines[i] = json.dumps(event, sort_keys=True, separators=(",", ":"))
            break
    else:
        raise AssertionError("expected a decision entry with a nonzero execution score")
    bad = tmp_path / "tampered.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    result = replay(str(bad))
    assert not result.ok
    assert result.score_mismatches == 1
    assert sum("score mismatch" in w for w in result.warnings) == 1


def tamper_first(tmp_path, etype, edit):
    """The path of a copy of an 80-step maze MLDM log whose first event of
    type etype (a cycle event: the first with a decision) edit changed, and
    the number of that event's line."""
    run_episode(small_maze_config(budget=80), out_dir=str(tmp_path))
    lines = (tmp_path / "events.ndjson").read_text().splitlines()
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event["type"] == etype and (etype != "cycle" or event.get("decision")):
            edit(event)
            lines[i] = json.dumps(event, sort_keys=True, separators=(",", ":"))
            break
    else:
        raise AssertionError(f"expected a {etype} event to tamper")
    bad = tmp_path / "tampered.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    return str(bad), i + 1


def other_scope(scope):
    return "global" if scope == "local" else "local"


def flip_chosen(event):
    event["chosen"] = event["decision"]["chosen"] = other_scope(event["chosen"])


def flip_override_fired(event):
    event["decision"]["override_fired"] = not event["decision"]["override_fired"]


def change_override_reason(event):
    assert event["decision"]["override_reason"] == "none"
    event["decision"]["override_reason"] = "D_exceeded"


def flip_event_chosen(event):
    event["chosen"] = other_scope(event["chosen"])


@pytest.mark.parametrize("edit", [
    flip_chosen, flip_override_fired, change_override_reason, flip_event_chosen,
])
def test_replay_rederives_each_logged_choice(tmp_path, edit, capsys):
    """Entries that recompute must still give the logged choice and override
    through switching.choose, and the cycle event must carry that choice."""
    bad, lineno = tamper_first(tmp_path, "cycle", edit)
    result = replay(bad)
    assert not result.ok
    assert result.score_mismatches == 1
    assert result.warnings == [f"line {lineno}: decision mismatch"]
    capsys.readouterr()
    assert cli_main(["replay", "--log", bad]) == 1
    assert f"warning: line {lineno}: decision mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("steps", 999), ("collisions", 7), ("final_coverage_m2", 1e6),
])
def test_replay_checks_the_end_event_against_the_steps(tmp_path, field, value):
    bad, lineno = tamper_first(tmp_path, "end", lambda event: event.update({field: value}))
    result = replay(bad)
    assert not result.ok and not result.truncated
    assert result.score_mismatches == 1
    assert result.warnings == [f"line {lineno}: end event disagrees with the step events"]


def drop_found_count(lines):
    """lines with found_count removed from the first decision candidate."""
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event.get("type") == "cycle" and event.get("decision"):
            next(iter(event["decision"]["candidates"].values())).pop("found_count")
            return lines[:i] + [json.dumps(event)] + lines[i + 1:], i + 1
    raise AssertionError("expected at least one decision in the log")


def insert_list_event(lines):
    """lines with a JSON list as the second event."""
    return lines[:2] + ["[1, 2]"] + lines[2:], 3


def text_coverage(lines):
    """lines with the covered area of the first step a string."""
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event.get("type") == "step":
            event["covered_m2"] = "x"
            return lines[:i] + [json.dumps(event)] + lines[i + 1:], i + 1
    raise AssertionError("expected at least one step in the log")


@pytest.mark.parametrize("malform", [drop_found_count, insert_list_event, text_coverage])
def test_replay_counts_a_malformed_event_as_mismatch(tmp_path, malform, capsys):
    run_episode(small_maze_config(budget=40), out_dir=str(tmp_path))
    good = tmp_path / "events.ndjson"
    assert replay(str(good)).ok
    lines, lineno = malform(good.read_text().splitlines())
    bad = tmp_path / "malformed.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    result = replay(str(bad))
    assert not result.ok
    assert result.score_mismatches == 1
    malformed = [w for w in result.warnings if "malformed event" in w]
    assert len(malformed) == 1 and malformed[0].startswith(f"line {lineno}: ")
    capsys.readouterr()
    assert cli_main(["replay", "--log", str(bad)]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "[1, 2]\n"], ids=["missing", "list_header"])
def test_replay_of_an_unreadable_log_is_a_replay_error(tmp_path, text, capsys):
    log = tmp_path / "events.ndjson"
    if text is not None:
        log.write_text(text)
    with pytest.raises(ReplayError):
        replay(str(log))
    assert cli_main(["replay", "--log", str(log)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("replay error:") and "Traceback" not in err


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
    assert_file_is_export_of(world_path, WorldSpec("maze", 4, {"width": 21, "height": 21}))

    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(asdict(small_maze_config(budget=30))))
    out_dir = tmp_path / "run_out"
    assert cli_main(["run", "--config", str(config_path),
                     "--out", str(out_dir)]) == 0
    assert (out_dir / "events.ndjson").exists()

    assert cli_main(["replay", "--log", str(out_dir / "events.ndjson")]) == 0


@pytest.mark.parametrize("generator", ["subway", "maze", "cave"])
def test_cli_gen_world_defaults_are_the_generators(tmp_path, generator):
    cli_path, lib_path = tmp_path / "cli.json", tmp_path / "lib.json"
    assert cli_main(["gen-world", "--generator", generator, "--seed", "2",
                     "--out", str(cli_path)]) == 0
    gw.save_world(build_world(WorldSpec(generator, 2)), str(lib_path))
    assert cli_path.read_bytes() == lib_path.read_bytes()


def test_cli_gen_world_room_size_range_sets_both_bounds(tmp_path):
    cli_path, lib_path = tmp_path / "cli.json", tmp_path / "lib.json"
    assert cli_main(["gen-world", "--generator", "subway", "--seed", "3",
                     "--room-size-range", "7", "9", "--out", str(cli_path)]) == 0
    spec = WorldSpec("subway", 3, {"room_size_range": (7.0, 9.0)})
    gw.save_world(build_world(spec), str(lib_path))
    assert cli_path.read_bytes() == lib_path.read_bytes()


def test_cli_gen_world_has_one_flag_per_registry_param(capsys):
    params = {name: default for _, defaults in gw.GENERATORS.values()
              for name, default in defaults.items()}
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["gen-world", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    flags = set(re.findall(r"--([a-z][a-z-]*)", text))
    options = text.split("show this help message and exit")[1]
    assert flags - {"help", "generator", "seed", "out"} == {
        name.replace("_", "-") for name in params}
    for name, default in params.items():
        values = default if isinstance(default, tuple) else (default,)
        # the flag's help names the generators that take it and its default
        flag = "--" + name.replace("_", "-")
        help_text = re.search(rf"{flag}(?: [A-Z_]+)* (.*?)(?= --|$)", options).group(1)
        takers = {gen for gen, (_, defaults) in gw.GENERATORS.items() if name in defaults}
        assert {gen for gen in gw.GENERATORS if re.search(rf"\b{gen}\b", help_text)} == takers
        assert f"default {' '.join(map(str, values))}" in help_text
        args = cli.build_parser().parse_args([
            "gen-world", "--generator", "maze", "--out", "world.json", flag, *map(str, values)])
        given = getattr(args, name)
        given = tuple(given) if isinstance(default, tuple) else (given,)
        assert given == values and list(map(type, given)) == list(map(type, values))


def test_cli_gen_world_reaches_a_newly_registered_param(tmp_path, monkeypatch, capsys):
    calls = []

    def fake(seed, wiggle=3):
        calls.append((seed, wiggle))
        return gw.generate_maze(seed, width=11, height=11)

    monkeypatch.setitem(gw.GENERATORS, "fake", (fake, {"wiggle": 3}))
    path = tmp_path / "world.json"
    assert cli_main(["gen-world", "--generator", "fake", "--seed", "5", "--wiggle", "7",
                     "--out", str(path)]) == 0
    assert calls == [(5, 7)] and type(calls[0][1]) is int
    assert_file_is_export_of(path, WorldSpec("fake", 5, {"wiggle": 7}))
    assert cli_main(["gen-world", "--generator", "maze", "--wiggle", "7",
                     "--out", str(tmp_path / "maze.json")]) == 2
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize("generator, flags", [
    ("maze", ["--rooms", "3"]),
    ("maze", ["--rooms", "3", "--room-size-range", "4", "8"]),
    ("maze", ["--room-size-range", "4", "8"]),
    ("cave", ["--room-size-range", "7", "9"]),
    ("cave", ["--deadend-fraction", "0.5"]),
    ("subway", ["--risk-intensity", "0.2"]),
    ("subway", ["--width", "31"]),
    ("scenario_switchback", ["--height", "31"]),
])
def test_cli_gen_world_refuses_a_param_the_generator_does_not_take(tmp_path, capsys,
                                                                  generator, flags):
    path = tmp_path / "world.json"
    assert cli_main(["gen-world", "--generator", generator, *flags,
                     "--out", str(path)]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert not path.exists()


def test_generator_registry_params_are_pinned():
    # every builder param after the seed is a config key: a new one must be
    # added here on purpose. repr pins each default's type as well.
    registry = {name: defaults for name, (_, defaults) in harness.GENERATORS.items()}
    assert repr(registry) == repr({
        "subway": {"rooms": 5, "room_size_range": (6.0, 10.0)},
        "maze": {"width": 51, "height": 51, "deadend_fraction": 1.0},
        "cave": {"width": 51, "height": 51, "risk_intensity": 0.5},
        "scenario_switchback": {},
        "scenario_riskpocket": {},
    })


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
    # generators take no cell_size: any value is a param they do not take
    *({"world": {"generator": generator, "params": {"cell_size": size}}}
      for generator in ("maze", "subway", "cave") for size in (0, 0.5, 1e300)),
], ids=["world_not_object", "reward_not_object", "maze_width_str", "subway_rooms_float",
        "maze_width_bool", "subway_range_short", "seed_str", "switch_window_float",
        "step_budget_float", "replan_interval_float", "metrics_interval_float",
        "sensor_occlusion_int", "planner_int",
        *(f"{generator}_cell_size_{size}"
          for generator in ("maze", "subway", "cave") for size in (0, 0.5, 1e300))])
def test_cli_wrong_type_exits_2(tmp_path, doc, capsys):
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "Traceback" not in err


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
    {"switch": {"epsilon_j": float("inf")}},
    {"switch": {"epsilon_d": float("inf")}},
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
        "switch_j_max_0", "switch_d_max_nan", "switch_epsilon_j_inf",
        "switch_epsilon_d_inf", "sensor_range_m_nan", "kino_step_length_nan",
        "breadcrumb_spacing_0", "min_frontier_cluster_0", "local_radius_huge_int"])
def test_config_out_of_range_exits_2(tmp_path, doc):
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize("horizon", [harness.MAX_HORIZON_LOCAL + 1, 10**6])
def test_horizon_local_above_its_ceiling_exits_2(tmp_path, capsys, horizon):
    """plan_local keeps a bound list per depth, so 10**6 ran out of memory;
    the config refuses any horizon_local above the ceiling, which it takes."""
    ceiling = harness.MAX_HORIZON_LOCAL
    assert config_from_dict({"horizon_local": ceiling}).horizon_local == ceiling
    with pytest.raises(ConfigError, match=f"horizon_local must be <= {ceiling}"):
        config_from_dict({"horizon_local": horizon})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizon_local": horizon}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "Traceback" not in err


def test_cli_generator_value_error_exits_2(tmp_path):
    bad = tmp_path / "narrow.json"
    bad.write_text(json.dumps({"world": {"generator": "maze", "params": {"width": 3}}}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    with pytest.raises(ConfigError):
        build_world(WorldSpec(generator="maze", params={"width": 3}))


@pytest.mark.parametrize("seed, width, height", [(7, 5, 5), (1, 5, 9)])
def test_cli_world_that_cannot_be_generated_exits_2(tmp_path, capsys, seed, width, height):
    """Every generation attempt of these small caves fails; the world
    depends on the config alone, so that is bad input, not a fault."""
    spec = WorldSpec("cave", seed, {"width": width, "height": height})
    with pytest.raises(ConfigError, match="generation failed"):
        build_world(spec)
    bad = tmp_path / "cave.json"
    bad.write_text(json.dumps({"world": asdict(spec)}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    path = tmp_path / "world.json"
    assert cli_main(["gen-world", "--generator", "cave", "--seed", str(seed),
                     "--width", str(width), "--height", str(height),
                     "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("invalid config") == 2 and "Traceback" not in err
    assert not path.exists()


@pytest.mark.parametrize("doc", [
    {"sensor": {"range_m": float("inf")}},
    {"world": {"generator": "subway", "params": {"room_size_range": [6.0, float("inf")]}}},
    {"world": {"generator": "subway", "params": {"room_size_range": [float("inf")] * 2}}},
], ids=["sensor_range_inf", "subway_room_max_inf", "subway_room_sizes_inf"])
def test_cli_non_finite_size_exits_2(tmp_path, doc, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**asdict(small_maze_config(budget=5)), **doc}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert "finite" in capsys.readouterr().err


def test_cli_range_beyond_the_grid_runs(tmp_path):
    """The ray table stops at the grid diagonal, so a range beyond it runs:
    here the ceiling, on a 21 x 21 maze."""
    assert harness.MAX_SENSOR_RANGE_M > math.hypot(21, 21) * gw.DEFAULT_CELL_SIZE
    config = asdict(small_maze_config(budget=5))
    config["sensor"]["range_m"] = harness.MAX_SENSOR_RANGE_M
    path = tmp_path / "far.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("doc", [
    # the config a fuzz found to run for minutes: a 174 x 174 subway at 1 km
    {"world": {"generator": "subway", "params": {"room_size_range": [3, 40]}},
     "sensor": {"range_m": 1000}},
    {"sensor": {"range_m": 20000.0}},
    {"sensor": {"range_m": harness.MAX_SENSOR_RANGE_M + gw.DEFAULT_CELL_SIZE}},
], ids=["fuzz_subway_1km", "range_20km", "ceiling_plus_one_cell"])
def test_sensor_range_above_its_ceiling_exits_2(tmp_path, capsys, doc):
    """Each pose's sensor window grows as the square of the range, so the
    config refuses a range above the ceiling, before any world is built."""
    ceiling = harness.MAX_SENSOR_RANGE_M
    with pytest.raises(ConfigError, match=f"sensor.range_m must be <= {ceiling}"):
        config_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "Traceback" not in err


@pytest.mark.parametrize("range_m", [harness.MAX_SENSOR_RANGE_M - gw.DEFAULT_CELL_SIZE,
                                     harness.MAX_SENSOR_RANGE_M])
def test_sensor_range_up_to_its_ceiling_is_taken(range_m):
    assert config_from_dict({"sensor": {"range_m": range_m}}).sensor.range_m == range_m


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


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_cli_batch_reps_below_1_exits_2(tmp_path, reps, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([asdict(small_maze_config(budget=5))]))
    assert cli_main(["batch", "--configs", str(path), "--reps", reps]) == 2
    assert "repetitions must be >= 1" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        run_batch([small_maze_config(budget=5)], repetitions=int(reps))


@pytest.mark.parametrize("parallelism", ["0", "-4"])
def test_cli_batch_parallelism_below_1_exits_2(tmp_path, parallelism, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([asdict(small_maze_config(budget=5))]))
    assert cli_main(["batch", "--configs", str(path), "--parallelism", parallelism]) == 2
    assert "parallelism must be >= 1" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        run_batch([small_maze_config(budget=5)], parallelism=int(parallelism))


def unreadable_config(tmp_path, kind):
    """The path of a config file that cannot be read as UTF-8 text."""
    if kind == "missing":
        return tmp_path / "absent.json"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{")
    return path


@pytest.mark.parametrize("command", ["run", "batch"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_cli_unreadable_config_exits_2(tmp_path, command, kind, capsys):
    flag = "--config" if command == "run" else "--configs"
    path = unreadable_config(tmp_path, kind)
    assert cli_main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and "Traceback" not in err
