"""Traversability risk: CVaR over per-cell terrain cost distributions.

Each cell's traversal cost is modeled as a capped lognormal-style draw with
mean mu: cost = min(mu * exp(sigma * z - sigma^2 / 2), COST_CAP_FACTOR * mu)
for z ~ N(0, 1). The heavy tail makes the CVaR meaningfully exceed the mean;
a degenerate cell (sigma = 0) costs exactly mu.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .world import WorldModel, bresenham_line, sum_left

Cell = tuple[int, int]

COST_CAP_FACTOR = 20.0

# grid rows per block of the unit-edge fill, so that its temporaries do not
# grow with the grid height
FILL_BLOCK_ROWS = 8


@dataclass
class RiskField:
    """Immutable per-cell cost distribution plus CVaR evaluation settings.

    Draws are common random numbers: row j of _rows is drawn from
    SeedSequence([seed mod 2**64, j]), and the k-th cell of a segment,
    counted from its lower endpoint, draws row k. Edge risks are kept in
    one of two stores, each pair in exactly one: _unit_risks[0, r, c] holds
    the right unit edge (r, c) -> (r, c + 1) and _unit_risks[1, r, c] the
    down unit edge (r, c) -> (r + 1, c), both filled here; every other pair
    is a key of _edge_cache once asked for."""

    mu: np.ndarray
    sigma: np.ndarray
    alpha: float = 0.9
    sample_count: int = 64
    seed: int = 0
    _edge_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _unit_risks: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if isinstance(self.sample_count, bool) or not isinstance(self.sample_count, Integral):
            raise ValueError(f"sample_count must be an integer, not {self.sample_count!r}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.ndim != 2:
            raise ValueError(f"mu and sigma must be 2-D, not of shape {self.mu.shape}")
        if self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma shapes differ")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise ValueError("terrain risk mu/sigma must be finite")
        # a negative cost would make A* step costs negative
        if (self.mu < 0).any() or (self.sigma < 0).any():
            raise ValueError("terrain risk mu/sigma must be nonnegative")
        self._rows = np.empty((0, self.sample_count))
        self._unit_risks = np.zeros((2,) + self.mu.shape)
        if self.mu.any():  # a riskless field has zero planes and draws nothing
            _fill_unit_planes(self)

    @functools.cached_property
    def padded_mu(self) -> list[float]:
        """mu with a one-cell zero border, flattened row-major into a list:
        cell (r, c) at index (r + 1) * (w + 2) + c + 1, the layout of a
        world.padded_mask. Built on first use, since the field never
        changes."""
        padded = np.zeros((self.mu.shape[0] + 2, self.mu.shape[1] + 2))
        padded[1:-1, 1:-1] = self.mu
        return padded.ravel().tolist()

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


def cvar(samples, alpha: float) -> float:
    """Empirical CVaR: mean of the worst ceil((1 - alpha) * n) samples.

    Sorts descending and averages the top tail. The small epsilon guards the
    ceil against float slop in (1 - alpha) * n.
    """
    arr = np.array(samples, dtype=np.float64).ravel()  # a copy: _cvar_rows sorts it
    if arr.size == 0:
        raise ValueError("cvar of empty sample set")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    return float(_cvar_rows(arr[None, :], alpha)[0])


def _cvar_rows(rows: np.ndarray, alpha: float) -> np.ndarray:
    """cvar of each row of a 2-D array, which is sorted in place. The tail
    is summed in descending order and divided by its length, which is what
    ndarray.mean does."""
    k = max(1, math.ceil((1.0 - alpha) * rows.shape[1] - 1e-9))
    rows.sort(axis=1)
    return np.add.reduce(rows[:, ::-1][:, :k], axis=1) / k


def _capped_costs(mu: np.ndarray, sigma: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Cell costs for standard normal draws z; mu and sigma broadcast over
    the draws. The result is min(mu * exp(sigma * z - sigma^2 / 2),
    COST_CAP_FACTOR * mu), computed in place in one array."""
    costs = sigma * z
    costs -= 0.5 * sigma * sigma
    np.exp(costs, out=costs)
    costs *= mu
    return np.minimum(costs, COST_CAP_FACTOR * mu, out=costs)


def _draw_rows(field: RiskField, n: int) -> np.ndarray:
    """The field's first n rows of standard normal draws. Row j comes from a
    SeedSequence of its own, so its value does not depend on when it is
    first drawn."""
    have = len(field._rows)
    if have < n:
        seed = field.seed & 0xFFFFFFFFFFFFFFFF
        new = [np.random.default_rng(np.random.SeedSequence([seed, j]))
               .standard_normal(field.sample_count) for j in range(have, n)]
        field._rows = np.vstack([field._rows, *new])
    return field._rows[:n]


def _tails(field: RiskField, cells: np.ndarray) -> np.ndarray:
    """The CVaR of the summed cost of each row of cells, an (m, n) array of
    the flat indices of m segments' cells in order: the k-th cell draws row
    k. A segment of riskless cells gets 0 and draws nothing."""
    tails = np.zeros(len(cells))
    mu = field.mu.take(cells)
    costly = mu.any(axis=1)
    if costly.any():
        cells, mu = cells[costly], mu[costly]
        costs = _capped_costs(mu[:, :, None], field.sigma.take(cells)[:, :, None],
                              _draw_rows(field, cells.shape[1]))
        tails[costly] = _cvar_rows(np.add.reduce(costs, axis=1), field.alpha)
    return tails


def _fill_unit_planes(field: RiskField) -> None:
    """Both unit-edge planes, FILL_BLOCK_ROWS grid rows at a time: the upper
    or left cell of each edge draws row 0, the other cell row 1."""
    height, width = field.mu.shape
    for top in range(0, height, FILL_BLOCK_ROWS):
        cells = np.arange(top * width, min(top + FILL_BLOCK_ROWS, height) * width)
        cells = cells.reshape(-1, width)
        right = np.stack([cells[:, :-1], cells[:, 1:]], axis=2)
        field._unit_risks[0, top:top + len(cells), :-1] = (
            _tails(field, right.reshape(-1, 2)).reshape(right.shape[:2]))
        upper = cells[:height - 1 - top]  # the rows that have a row below
        field._unit_risks[1, top:top + len(upper)] = (
            _tails(field, np.stack([upper, upper + width], axis=2).reshape(-1, 2))
            .reshape(upper.shape))


def edge_risk(field: RiskField, from_cell: Cell, to_cell: Cell) -> float:
    """CVaR traversal risk for the segment between two cells.

    Per-draw segment cost is the sum of simultaneous per-cell draws along the
    Bresenham segment (both endpoints for a unit edge); the CVaR is then
    scaled to the segment's Euclidean length. Deterministic given the field
    seed and the (unordered) cell pair, so repeated planning cycles see
    identical edge risks.
    """
    return edge_risks(field, [(from_cell, to_cell)])[0]


def edge_risks(field: RiskField, pairs: list[tuple[Cell, Cell]]) -> list[float]:
    """edge_risk of every (from_cell, to_cell) pair, in order.

    A right or down unit edge is read from the field's planes. Any other
    pair is computed when first asked for and kept in the field's dict; the
    cost arithmetic runs once per segment length for all of a call's new
    pairs.
    """
    out: list[float] = []
    missing: dict[tuple[Cell, Cell], list[int]] = {}
    cache = field._edge_cache
    unit = field._unit_risks
    height, width = field.mu.shape
    for i, (from_cell, to_cell) in enumerate(pairs):
        a = (int(from_cell[0]), int(from_cell[1]))
        b = (int(to_cell[0]), int(to_cell[1]))
        key = (a, b) if a <= b else (b, a)
        (r0, c0), (r1, c1) = key
        if not (0 <= r0 < height and 0 <= c0 < width and 0 <= r1 < height and 0 <= c1 < width):
            raise ValueError(f"edge endpoints out of bounds: {a} -> {b}")
        dr, dc = r1 - r0, c1 - c0
        if dr + dc == 1 and dc >= 0:  # a right (dr 0) or down (dr 1) unit edge
            out.append(unit.item(dr, r0, c0))
            continue
        cached = cache.get(key)
        if cached is None and a != b:
            missing.setdefault(key, []).append(i)
        out.append(0.0 if cached is None else cached)
    # segment cell count -> (new pairs, flat indices of their cells)
    by_length: dict[int, tuple[list, list]] = {}
    for key in missing:
        (r0, c0), (r1, c1) = key
        cells = [r * width + c for r, c in bresenham_line(r0, c0, r1, c1)]
        group = by_length.setdefault(len(cells), ([], []))
        group[0].append(key)
        group[1].append(cells)
    for n, (keys, cells) in by_length.items():
        for key, tail in zip(keys, _tails(field, np.array(cells)).tolist()):
            (r0, c0), (r1, c1) = key
            cache[key] = rho = tail * math.hypot(r1 - r0, c1 - c0) / (n - 1)
            for i in missing[key]:
                out[i] = rho
    return out


def unit_edge_risks(field: RiskField, planes: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """edge_risk of each unit edge on the grid, given as its plane (0 for
    (r, c) -> (r, c + 1), 1 for (r, c) -> (r + 1, c)), row r and column c."""
    return field._unit_risks[planes, rows, cols]


def policy_risk(policy, graph) -> float:
    """Accumulated risk of a policy: sum of its edge risks in order."""
    edges = [graph.get_edge(u, v) for u, v in policy.edge_sequence]
    if None in edges:
        u, v = policy.edge_sequence[edges.index(None)]
        raise ValueError(f"policy references missing edge ({u}, {v})")
    return sum_left(edge.risk for edge in edges)
