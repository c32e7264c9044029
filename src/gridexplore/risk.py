"""Traversability risk: CVaR over per-cell terrain cost distributions.

Each cell's traversal cost is modeled as a capped lognormal-style draw with
mean mu: cost = min(mu * exp(sigma * z - sigma^2 / 2), cap_factor * mu) for
z ~ N(0, 1). The heavy tail makes the CVaR meaningfully exceed the mean; a
degenerate cell (sigma = 0) costs exactly mu.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .world import WorldModel, bresenham_line

Cell = tuple[int, int]

COST_CAP_FACTOR = 20.0


@dataclass
class RiskField:
    """Immutable per-cell cost distribution plus CVaR evaluation settings."""

    mu: np.ndarray
    sigma: np.ndarray
    alpha: float = 0.9
    sample_count: int = 64
    seed: int = 0
    cost_cap_factor: float = COST_CAP_FACTOR
    _edge_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma shapes differ")

    @classmethod
    def for_world(
        cls,
        world: WorldModel,
        alpha: float = 0.9,
        sample_count: int = 64,
        seed: int | None = None,
    ) -> "RiskField":
        return cls(
            mu=world.risk_mu,
            sigma=world.risk_sigma,
            alpha=alpha,
            sample_count=sample_count,
            seed=world.rng_seed if seed is None else seed,
        )

    def in_bounds(self, r: int, c: int) -> bool:
        return 0 <= r < self.mu.shape[0] and 0 <= c < self.mu.shape[1]


def cvar(samples, alpha: float) -> float:
    """Empirical CVaR: mean of the worst ceil((1 - alpha) * n) samples.

    Sorts descending and averages the top tail. The small epsilon guards the
    ceil against float slop in (1 - alpha) * n.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cvar of empty sample set")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    return float(_cvar_rows(arr[None, :], alpha)[0])


def _cvar_rows(rows: np.ndarray, alpha: float) -> np.ndarray:
    """cvar of each row of a 2-D array. The tail is summed in descending
    order and divided by its length, which is what ndarray.mean does."""
    k = max(1, math.ceil((1.0 - alpha) * rows.shape[1] - 1e-9))
    return np.add.reduce(np.sort(rows, axis=1)[:, ::-1][:, :k], axis=1) / k


def _capped_costs(mu: np.ndarray, sigma: np.ndarray, z: np.ndarray, cap_factor: float) -> np.ndarray:
    """Cell costs for standard normal draws z; mu and sigma broadcast over
    the draws."""
    return np.minimum(mu * np.exp(sigma * z - 0.5 * sigma * sigma), cap_factor * mu)


def sample_cell_costs(field: RiskField, cells: list[Cell], rng: np.random.Generator) -> np.ndarray:
    """Draw (len(cells), sample_count) cost samples from the cell distributions."""
    mu = np.array([[field.mu.item(r, c)] for r, c in cells])
    sigma = np.array([[field.sigma.item(r, c)] for r, c in cells])
    z = rng.standard_normal((len(cells), field.sample_count))
    return _capped_costs(mu, sigma, z, field.cost_cap_factor)


def edge_risk(field: RiskField, from_cell: Cell, to_cell: Cell) -> float:
    """CVaR traversal risk for the segment between two cells.

    Per-draw segment cost is the sum of simultaneous per-cell draws along the
    Bresenham segment (both endpoints for a unit edge); the CVaR is then
    scaled to the segment's Euclidean length. Deterministic given the field
    seed and the (unordered) cell pair, so repeated planning cycles see
    identical edge risks.
    """
    a = (int(from_cell[0]), int(from_cell[1]))
    b = (int(to_cell[0]), int(to_cell[1]))
    cached = field._edge_cache.get((a, b) if a <= b else (b, a))
    if cached is not None:
        return cached
    return edge_risks(field, [(a, b)])[0]


def edge_risks(field: RiskField, pairs: list[tuple[Cell, Cell]]) -> list[float]:
    """edge_risk of every (from_cell, to_cell) pair, in order.

    Pairs missing from the field's cache are computed together: each one
    still draws from its own stream, seeded by the field seed and the pair,
    and the cost arithmetic runs once per segment length for all of them.
    """
    out: list[float] = []
    missing: dict[tuple[Cell, Cell], list[int]] = {}
    for i, (from_cell, to_cell) in enumerate(pairs):
        a = (int(from_cell[0]), int(from_cell[1]))
        b = (int(to_cell[0]), int(to_cell[1]))
        key = (a, b) if a <= b else (b, a)
        cached = field._edge_cache.get(key)
        if cached is None:  # only valid, distinct cell pairs are cached
            if not field.in_bounds(*a) or not field.in_bounds(*b):
                raise ValueError(f"edge endpoints out of bounds: {a} -> {b}")
            if a != b:
                missing.setdefault(key, []).append(i)
            cached = 0.0
        out.append(cached)

    # the 32-bit words SeedSequence makes of the list [seed mod 2**64,
    # r0, c0, r1, c1]: one or two for the seed, one per coordinate
    seed = field.seed & 0xFFFFFFFFFFFFFFFF
    seed_words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    # segment cell count -> (keys, per-cell mu, per-cell sigma, draws)
    by_length: dict[int, tuple[list, list, list, list]] = {}
    for key in missing:
        (r0, c0), (r1, c1) = key
        cells = bresenham_line(r0, c0, r1, c1)
        mu = [field.mu.item(r, c) for r, c in cells]
        if not any(mu):
            field._edge_cache[key] = 0.0
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence(np.array(seed_words + [r0, c0, r1, c1], dtype=np.uint32)))
        group = by_length.setdefault(len(cells), ([], [], [], []))
        group[0].append(key)
        group[1].append(mu)
        group[2].append([field.sigma.item(r, c) for r, c in cells])
        group[3].append(rng.standard_normal((len(cells), field.sample_count)))

    for n, (keys, mu, sigma, draws) in by_length.items():
        costs = _capped_costs(np.array(mu)[:, :, None], np.array(sigma)[:, :, None],
                              np.array(draws), field.cost_cap_factor)
        tails = _cvar_rows(costs.sum(axis=1), field.alpha).tolist()
        for key, tail in zip(keys, tails):
            (r0, c0), (r1, c1) = key
            rho = tail * math.hypot(r1 - r0, c1 - c0) / (n - 1)
            field._edge_cache[key] = rho
            for i in missing[key]:
                out[i] = rho
    return out


def policy_risk(policy, graph) -> float:
    """Accumulated risk of a policy: sum of its edge risks in order."""
    total = 0.0
    for u, v in policy.edge_sequence:
        edge = graph.get_edge(u, v)
        if edge is None:
            raise ValueError(f"policy references missing edge ({u}, {v})")
        total += edge.risk
    return total
