import json
from collections import deque
from dataclasses import asdict

import numpy as np
import pytest

from gridexplore import world as gw
from gridexplore.motion import PathPair
from gridexplore.planners import Policy
from gridexplore.risk import RiskField
from gridexplore.roadmap import GLOBAL, LOCAL
from gridexplore.switching import (
    Candidate, HistoryWindow, NoPolicyError, SwitchConfig, calibrate_j_max,
    decide, execution_score,
)


def make_candidate(scope, utility, risk, disc):
    policy = Policy(scope=scope, node_sequence=[0], edge_sequence=[],
                    utility=utility, risk=risk)
    ref = np.zeros((2, 2))
    pair = PathPair(reference=ref, executed=ref.copy(), discrepancy=disc)
    return Candidate(policy=policy, path_pair=pair)


def window_with(local_found, global_found, window=10):
    w = HistoryWindow(window)
    for v in local_found:
        w.record(LOCAL, v)
    for v in global_found:
        w.record(GLOBAL, v)
    return w


# --- history window -------------------------------------------------------------

def test_window_counts_consecutive_successes():
    w = window_with([True] * 5, [], window=5)
    assert w.found_count(LOCAL) == 5


def test_window_alternating_phase():
    # oracle: explicit ring-buffer simulation
    for first in (True, False):
        pattern = [first ^ (i % 2 == 1) for i in range(10)]
        oracle = deque(maxlen=5)
        for v in pattern:
            oracle.append(v)
        w = window_with(pattern, [], window=5)
        assert w.found_count(LOCAL) == sum(oracle)
    assert window_with([True, False] * 5, [], window=5).found_count(LOCAL) == 2
    assert window_with([False, True] * 5, [], window=5).found_count(LOCAL) == 3


def test_window_empty_is_zero():
    assert HistoryWindow(5).found_count(LOCAL) == 0


def test_window_evicts_beyond_length():
    w = window_with([True] * 20, [], window=4)
    assert w.found_count(LOCAL) == 4


# --- execution score --------------------------------------------------------------

def test_execution_score_arithmetic():
    cfg = SwitchConfig()
    assert execution_score(4, 2.0, 0.5, cfg) == pytest.approx(4.0)


def test_execution_score_zero_history():
    cfg = SwitchConfig()
    assert execution_score(0, 5.0, 5.0, cfg) == 0.0
    assert execution_score(0, 0.0, 0.0, cfg) == 0.0


def test_execution_score_halves_when_risk_doubles():
    cfg = SwitchConfig()
    base = execution_score(3, 1.0, 0.7, cfg)
    assert execution_score(3, 2.0, 0.7, cfg) == pytest.approx(base / 2)


def test_execution_score_epsilon_floors():
    cfg = SwitchConfig(epsilon_j=1e-3, epsilon_d=1e-3)
    assert execution_score(1, 0.0, 0.0, cfg) == pytest.approx(1e6)


def test_execution_score_rejects_negative_inputs():
    with pytest.raises(ValueError):
        execution_score(-1, 1.0, 1.0, SwitchConfig())


# --- decide -----------------------------------------------------------------------

def test_decide_argmax_without_override():
    # local score 5.0, global score 3.0, both under thresholds
    w = window_with([True] * 5, [True] + [False] * 4, window=5)
    local = make_candidate(LOCAL, utility=1.0, risk=1.0, disc=1.0)   # 5/(1*1)*1 = 5
    glob = make_candidate(GLOBAL, utility=3.0, risk=1.0, disc=1.0)   # 1/(1*1)*3 = 3
    d = decide(local, glob, w, SwitchConfig(j_max=10, d_max=10))
    assert d.chosen == LOCAL
    assert not d.override_fired
    assert d.candidates[LOCAL]["score"] == pytest.approx(5.0)
    assert d.candidates[GLOBAL]["score"] == pytest.approx(3.0)


def test_decide_risk_override_returns_opposite():
    w = window_with([True] * 5, [True] * 5, window=5)
    local = make_candidate(LOCAL, utility=10.0, risk=5.0, disc=1.0)   # 5/(5*1)*10 = 10
    glob = make_candidate(GLOBAL, utility=-0.5, risk=0.1, disc=1.0)  # negative score
    cfg = SwitchConfig(j_max=2.0, d_max=10.0)
    d = decide(local, glob, w, cfg)
    assert d.candidates[LOCAL]["score"] > d.candidates[GLOBAL]["score"]
    assert d.override_fired
    assert d.override_reason == "J_exceeded"
    assert d.chosen == GLOBAL


def test_decide_discrepancy_override():
    w = window_with([True] * 5, [True] * 5, window=5)
    local = make_candidate(LOCAL, utility=10.0, risk=0.1, disc=7.0)   # 5/(0.1*7)*10 = 71
    glob = make_candidate(GLOBAL, utility=0.1, risk=0.1, disc=0.1)   # 5/(0.1*0.1)*0.1 = 50
    cfg = SwitchConfig(j_max=10.0, d_max=2.0)
    d = decide(local, glob, w, cfg)
    assert d.candidates[LOCAL]["score"] > d.candidates[GLOBAL]["score"]
    assert d.override_fired
    assert d.override_reason == "D_exceeded"
    assert d.chosen == GLOBAL


def test_decide_single_candidate():
    w = window_with([], [True] * 3, window=5)
    glob = make_candidate(GLOBAL, utility=2.0, risk=0.5, disc=0.5)
    d = decide(None, glob, w, SwitchConfig(j_max=10, d_max=10))
    assert d.chosen == GLOBAL
    assert not d.override_fired
    assert LOCAL not in d.candidates


def test_decide_tie_prefers_local():
    w = window_with([True] * 5, [True] * 5, window=5)
    local = make_candidate(LOCAL, utility=2.0, risk=1.0, disc=1.0)
    glob = make_candidate(GLOBAL, utility=2.0, risk=1.0, disc=1.0)
    d = decide(local, glob, w, SwitchConfig(j_max=10, d_max=10))
    assert d.chosen == LOCAL


def test_decide_override_without_opposite_keeps_and_flags():
    w = window_with([True] * 5, [], window=5)
    local = make_candidate(LOCAL, utility=10.0, risk=5.0, disc=1.0)
    cfg = SwitchConfig(j_max=2.0, d_max=10.0)
    d = decide(local, None, w, cfg)
    assert d.chosen == LOCAL
    assert d.override_fired
    assert d.override_reason == "J_exceeded"


def test_decide_no_candidates_raises():
    with pytest.raises(NoPolicyError):
        decide(None, None, HistoryWindow(5), SwitchConfig())


def test_override_soundness_on_random_candidates():
    rng = np.random.default_rng(2)
    cfg = SwitchConfig(j_max=5.0, d_max=5.0)
    for _ in range(300):
        w = window_with(rng.random(5) < 0.7, rng.random(5) < 0.7)
        local = make_candidate(LOCAL, float(rng.uniform(0, 10)),
                               float(rng.uniform(0, 8)), float(rng.uniform(0, 8)))
        glob = make_candidate(GLOBAL, float(rng.uniform(0, 10)),
                              float(rng.uniform(0, 8)), float(rng.uniform(0, 8)))
        d = decide(local, glob, w, cfg)
        argmax = max(d.candidates, key=lambda s: (d.candidates[s]["score"], s == LOCAL))
        violated = (d.candidates[argmax]["risk"] > cfg.j_max
                    or d.candidates[argmax]["discrepancy"] > cfg.d_max)
        assert d.override_fired == violated
        if violated:
            assert d.chosen != argmax
        else:
            assert d.chosen == argmax


# --- monotonicity / scale properties ------------------------------------------------

def test_score_monotonicity_samples():
    rng = np.random.default_rng(3)
    cfg = SwitchConfig(j_max=100, d_max=100)
    for _ in range(300):
        h = int(rng.integers(0, 10))
        j = float(rng.uniform(0, 5))
        d_ = float(rng.uniform(0, 5))
        u = float(rng.uniform(0, 10))
        base = execution_score(h, j, d_, cfg) * u
        worse_j = execution_score(h, j + rng.uniform(0.01, 2), d_, cfg) * u
        worse_d = execution_score(h, j, d_ + rng.uniform(0.01, 2), cfg) * u
        better_h = execution_score(h + 1, j, d_, cfg) * u
        assert worse_j <= base + 1e-12
        assert worse_d <= base + 1e-12
        assert better_h >= base - 1e-12


def test_argmax_scale_invariance():
    rng = np.random.default_rng(4)
    cfg = SwitchConfig(j_max=1e9, d_max=1e9)
    for _ in range(100):
        w = window_with([True] * int(rng.integers(1, 6)),
                        [True] * int(rng.integers(1, 6)))
        u_l, u_g = rng.uniform(-5, 10, size=2)
        local = make_candidate(LOCAL, float(u_l), float(rng.uniform(0, 3)),
                               float(rng.uniform(0, 3)))
        glob = make_candidate(GLOBAL, float(u_g), float(rng.uniform(0, 3)),
                              float(rng.uniform(0, 3)))
        d1 = decide(local, glob, w, cfg)
        k = float(rng.uniform(0.1, 20))
        local2 = make_candidate(LOCAL, float(u_l) * k, local.risk, local.discrepancy)
        glob2 = make_candidate(GLOBAL, float(u_g) * k, glob.risk, glob.discrepancy)
        d2 = decide(local2, glob2, w, cfg)
        assert d1.chosen == d2.chosen


# --- the decision as a record -------------------------------------------------------

def test_explain_round_trips_and_recomputes():
    w = window_with([True] * 4, [True] * 2, window=5)
    local = make_candidate(LOCAL, 2.0, 0.5, 0.25)
    glob = make_candidate(GLOBAL, 4.0, 1.0, 1.0)
    cfg = SwitchConfig(j_max=10, d_max=10)
    d = decide(local, glob, w, cfg)
    doc = asdict(d)
    assert json.loads(json.dumps(doc)) == doc
    for scope, info in doc["candidates"].items():
        p = execution_score(info["found_count"], info["risk"], info["discrepancy"], cfg)
        assert info["score"] == pytest.approx(p * info["utility"], abs=1e-12)
    assert (doc["override_reason"] != "none") == doc["override_fired"]


def test_explain_reason_populated_iff_fired():
    w = window_with([True] * 5, [True] * 5)
    clean = decide(make_candidate(LOCAL, 1, 0.1, 0.1),
                   make_candidate(GLOBAL, 1, 0.1, 0.1), w,
                   SwitchConfig(j_max=1, d_max=1))
    doc = asdict(clean)
    assert doc["override_fired"] is False and doc["override_reason"] == "none"


# --- calibration ---------------------------------------------------------------------

def test_calibrate_j_max_positive_and_deterministic():
    world = gw.generate_cave(3, 41, 41, risk_intensity=0.8)
    field = RiskField.for_world(world)
    a = calibrate_j_max(world, field, horizon=10, seed=1)
    b = calibrate_j_max(world, field, horizon=10, seed=1)
    assert a == b > 0


def test_calibrate_j_max_riskless_world_floors():
    world = gw.generate_subway(1, rooms=2)
    field = RiskField.for_world(world)
    assert calibrate_j_max(world, field, horizon=10, seed=1) == pytest.approx(1e-3)


def test_switch_config_validates():
    with pytest.raises(ValueError):
        SwitchConfig(j_max=0.0)
    with pytest.raises(ValueError):
        SwitchConfig(d_max=-1.0)
    SwitchConfig(j_max=float("inf"), d_max=float("inf"))  # never overrides
