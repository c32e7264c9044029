"""Risk-aware switching between the local and global coverage policies.

Each planning cycle scores every available candidate policy by an
unnormalized execution-success factor times its discounted utility:

    score = found_count / (max(risk, eps) * max(discrepancy, eps)) * utility

where found_count is how many recent cycles produced a policy for that scope,
risk is the policy's accumulated edge risk, and discrepancy is the gap between
its reference path and the turn-rate-limited path. The argmax wins, except
that a winner whose risk or discrepancy exceeds its threshold is overridden
in favor of the opposite scope.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .motion import PathPair
from .planners import Policy
from .risk import RiskField, unit_edge_risks
# not called here; kept as a module attribute because
# benchmark/layer_trace.py wraps switching.edge_risk
from .risk import edge_risk  # noqa: F401
from .roadmap import GLOBAL, LOCAL
from .world import WorldModel, sum_left

SCOPES = (LOCAL, GLOBAL)

OVERRIDE_NONE = "none"
OVERRIDE_RISK = "J_exceeded"
OVERRIDE_DISCREPANCY = "D_exceeded"

CALIBRATION_SAMPLES = 200
CALIBRATION_PERCENTILE = 95.0


class NoPolicyError(RuntimeError):
    """Neither a local nor a global candidate exists this cycle."""


@dataclass
class SwitchConfig:
    j_max: float = 1.0
    d_max: float = 2.0
    window: int = 10
    epsilon_j: float = 1e-3
    epsilon_d: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("j_max", "d_max", "window", "epsilon_j", "epsilon_d"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        # an infinite j_max or d_max never overrides; an infinite epsilon
        # would make every score 0
        for name in ("epsilon_j", "epsilon_d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class HistoryWindow:
    """Per-scope ring buffers of plan outcomes over the trailing W cycles."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise ValueError("window must be >= 1")
        self._buffers: dict[str, deque[bool]] = {
            scope: deque(maxlen=window) for scope in SCOPES
        }

    def record(self, scope: str, found: bool) -> None:
        self._buffers[scope].append(bool(found))

    def found_count(self, scope: str) -> int:
        return sum(self._buffers[scope])


def execution_score(
    found_count: int,
    risk: float,
    discrepancy: float,
    config: SwitchConfig,
) -> float:
    """Unnormalized probability-of-execution factor: h / (J * D) with epsilon
    floors so riskless straight-line candidates stay finite."""
    if found_count < 0 or risk < 0 or discrepancy < 0:
        raise ValueError("execution score inputs must be nonnegative")
    return found_count / (
        max(risk, config.epsilon_j) * max(discrepancy, config.epsilon_d)
    )


@dataclass
class Candidate:
    """One scope's policy plus the reference/executed path pair used for its
    discrepancy factor."""

    policy: Policy
    path_pair: PathPair

    @property
    def scope(self) -> str:
        return self.policy.scope

    @property
    def utility(self) -> float:
        return self.policy.utility

    @property
    def risk(self) -> float:
        return self.policy.risk

    @property
    def discrepancy(self) -> float:
        return self.path_pair.discrepancy


@dataclass
class SwitchDecision:
    cycle: int
    chosen: str
    candidates: dict[str, dict] = field(default_factory=dict)
    override_fired: bool = False
    override_reason: str = OVERRIDE_NONE


def score_entry(factors: dict, config: SwitchConfig) -> dict:
    """One candidate's decision entry, the one home of its format: the
    factors utility, found_count, risk and discrepancy, plus execution_score
    and score = execution_score * utility. ValueError on a negative factor."""
    entry = {name: factors[name] for name in ("utility", "found_count", "risk", "discrepancy")}
    p = execution_score(entry["found_count"], entry["risk"], entry["discrepancy"], config)
    return {**entry, "execution_score": p, "score": p * entry["utility"]}


def choose(entries: dict[str, dict], config: SwitchConfig) -> tuple[str, bool, str]:
    """(chosen, override_fired, override_reason) by the switching rule over
    score_entry entries by scope: the argmax of their scores (ties prefer
    local), then the threshold overrides: a winner whose risk exceeds j_max or
    whose discrepancy exceeds d_max is swapped for the opposite scope. When
    the opposite scope has no entry the violating winner is kept but flagged,
    since halting exploration is worse than executing a flagged policy."""
    local_score, global_score = (entries[s]["score"] if s in entries else -math.inf for s in SCOPES)
    selected = LOCAL if local_score >= global_score else GLOBAL
    info = entries[selected]
    if info["risk"] > config.j_max or info["discrepancy"] > config.d_max:
        reason = OVERRIDE_RISK if info["risk"] > config.j_max else OVERRIDE_DISCREPANCY
        opposite = GLOBAL if selected == LOCAL else LOCAL
        return (opposite if opposite in entries else selected), True, reason
    return selected, False, OVERRIDE_NONE


def decide(
    local_candidate: Candidate | None,
    global_candidate: Candidate | None,
    window: HistoryWindow,
    config: SwitchConfig,
    cycle: int = 0,
) -> SwitchDecision:
    """Select the policy scope for this cycle: score_entry for each present
    candidate, with its history h read from the window, then choose."""
    if local_candidate is None and global_candidate is None:
        raise NoPolicyError("no candidate policy in either scope")

    entries: dict[str, dict] = {}
    for cand in (local_candidate, global_candidate):
        if cand is not None:
            factors = {"utility": cand.utility, "found_count": window.found_count(cand.scope),
                       "risk": cand.risk, "discrepancy": cand.discrepancy}
            entries[cand.scope] = score_entry(factors, config)
    chosen, fired, reason = choose(entries, config)
    return SwitchDecision(
        cycle=cycle,
        chosen=chosen,
        candidates=entries,
        override_fired=fired,
        override_reason=reason,
    )


def calibrate_j_max(
    world: WorldModel,
    risk_field: RiskField,
    horizon: int = 10,
    seed: int = 0,
) -> float:
    """Risk threshold from the world itself: the CALIBRATION_PERCENTILE of
    edge-risk sums over CALIBRATION_SAMPLES random straight horizon-length
    paths, floored away from zero.
    Run once per episode so the threshold matches the field's risk scale."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0x4A]))
    h, w = world.height, world.width
    # each path's edges, as their unit-edge plane (0 right, 1 down) and
    # upper-left cell, and each path's edge count
    planes, rows, cols, counts = [], [], [], []
    dirs = ((0, 1), (1, 0), (0, -1), (-1, 0))
    steps = max(horizon - 1, 1)
    for _ in range(CALIBRATION_SAMPLES):
        r = int(rng.integers(0, h))
        c = int(rng.integers(0, w))
        dr, dc = dirs[int(rng.integers(0, 4))]
        n = 0
        while n < steps and 0 <= r + dr < h and 0 <= c + dc < w:
            planes.append(abs(dr))
            rows.append(min(r, r + dr))
            cols.append(min(c, c + dc))
            r, c, n = r + dr, c + dc, n + 1
        counts.append(n)
    risks = iter(unit_edge_risks(risk_field, *(np.array(x, dtype=np.intp)
                                               for x in (planes, rows, cols))).tolist())
    sums = [sum_left(itertools.islice(risks, n)) for n in counts]
    return max(float(np.percentile(np.asarray(sums), CALIBRATION_PERCENTILE)), 1e-3)
