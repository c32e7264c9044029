"""Traversability risk: CVaR over per-cell terrain cost distributions.

Each cell's traversal cost is modeled as a capped lognormal-style draw with
mean mu: cost = min(mu * exp(sigma * z - sigma^2 / 2), COST_CAP_FACTOR * mu)
for z ~ N(0, 1). The heavy tail makes the CVaR meaningfully exceed the mean;
a degenerate cell (sigma = 0) costs exactly mu.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .world import WorldModel, bresenham_line, sum_left

Cell = tuple[int, int]

COST_CAP_FACTOR = 20.0


@dataclass
class RiskField:
    """Immutable per-cell cost distribution plus CVaR evaluation settings.

    Computed edge risks are kept in one of two stores, each pair in exactly
    one: _unit_risks[0, r, c] holds the right unit edge (r, c) -> (r, c + 1)
    and _unit_risks[1, r, c] the down unit edge (r, c) -> (r + 1, c), NaN
    until computed; every other cell pair is a key of _edge_cache."""

    mu: np.ndarray
    sigma: np.ndarray
    alpha: float = 0.9
    sample_count: int = 64
    seed: int = 0
    _edge_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _unit_risks: np.ndarray = field(init=False, repr=False, compare=False)
    _riskless: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma shapes differ")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise ValueError("terrain risk mu/sigma must be finite")
        # a negative cost would make A* step costs negative
        if (self.mu < 0).any() or (self.sigma < 0).any():
            raise ValueError("terrain risk mu/sigma must be nonnegative")
        self._unit_risks = np.full((2,) + self.mu.shape, np.nan)
        self._riskless = not self.mu.any()

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


def sample_cell_costs(field: RiskField, cells: list[Cell], rng: np.random.Generator) -> np.ndarray:
    """Draw (len(cells), sample_count) cost samples from the cell distributions."""
    mu = np.array([[field.mu.item(r, c)] for r, c in cells])
    sigma = np.array([[field.sigma.item(r, c)] for r, c in cells])
    z = rng.standard_normal((len(cells), field.sample_count))
    return _capped_costs(mu, sigma, z)


# batches of at least this many streams are seeded by pcg64_seeds; below
# it, numpy's SeedSequence per stream is cheaper than the kernel's fixed cost
BATCH_SEEDING_MIN = 12

# numpy's SeedSequence (bit_generator.pyx): hash constants, mixing
# multipliers and the xor-shift of its 4-word pool
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# the pool words each pool word is mixed into, in SeedSequence's order
_MIX_DST = [np.array([d for d in range(4) if d != s]) for s in range(4)]
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n hash constants before and after each of n successive hashes,
    as column vectors: each hash xors with one and multiplies by the next."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    col = np.array(consts, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


_POOL_HASHES = {k: _hash_consts(_INIT_A, _MULT_A, 16 + 4 * (k - 4)) for k in (5, 6)}
_STATE_HASHES = _hash_consts(_INIT_B, _MULT_B, 8)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def pcg64_seeds(words: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that np.random.PCG64(np.random.SeedSequence(row))
    sets, for each row of a (m, 5) or (m, 6) uint32 array of entropy words.

    SeedSequence's pool hashing and generate_state(4, uint64) run in uint32
    arithmetic over the whole batch (the hash constants depend only on the
    row length); PCG64's seeding step runs in Python ints.
    """
    words = words.T
    pre, post = _POOL_HASHES[len(words)]
    pool = (words[:4] ^ pre[:4]) * post[:4]
    pool ^= pool >> _SHIFT
    t = 4
    for src, dst in enumerate(_MIX_DST):
        h = (pool[src] ^ pre[t:t + 3]) * post[t:t + 3]
        pool[dst] = _mix(pool[dst], h ^ (h >> _SHIFT))
        t += 3
    for word in words[4:]:
        h = (word ^ pre[t:t + 4]) * post[t:t + 4]
        pool = _mix(pool, h ^ (h >> _SHIFT))
        t += 4
    pre, post = _STATE_HASHES
    out = (np.concatenate([pool, pool]) ^ pre) * post
    out = (out ^ (out >> _SHIFT)).astype(np.uint64)
    # little-endian pairs of 32-bit words make the four 64-bit words
    seed = out[0::2] | (out[1::2] << np.uint64(32))
    states = []
    for s0, s1, s2, s3 in zip(*seed.tolist()):
        inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
        states.append((((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _streams(words: np.ndarray):
    """For each row of entropy words, a Generator positioned where
    np.random.default_rng(np.random.SeedSequence(row)) starts; each is valid
    until the next one is taken. Batches of at least BATCH_SEEDING_MIN rows
    share one Generator, re-stated from pcg64_seeds for each row."""
    if len(words) < BATCH_SEEDING_MIN:
        for row in words:
            yield np.random.default_rng(np.random.SeedSequence(row))
        return
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in pcg64_seeds(words):
        bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}
        yield rng


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

    Pairs missing from the field's stores are computed together: each one
    still draws from its own stream, seeded by the field seed and the pair
    (a large batch seeds all its streams at once, see pcg64_seeds), and the
    cost arithmetic runs once per segment length for all of them.
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
        dr, dc = r1 - r0, c1 - c0
        # a right (dr 0) or down (dr 1) unit edge on the grid
        if dr + dc == 1 and dc >= 0 and r0 >= 0 and c0 >= 0 and r1 < height and c1 < width:
            cached = unit.item(dr, r0, c0)
            if cached == cached:  # not NaN: computed
                out.append(cached)
                continue
        else:
            cached = cache.get(key)
            if cached is not None:
                out.append(cached)
                continue
        # only valid, distinct cell pairs are stored
        if not (0 <= r0 < height and 0 <= c0 < width and 0 <= r1 < height and 0 <= c1 < width):
            raise ValueError(f"edge endpoints out of bounds: {a} -> {b}")
        if a != b:
            missing.setdefault(key, []).append(i)
        out.append(0.0)
    if missing:
        for key, rho in zip(missing, _compute(field, list(missing))):
            for i in missing[key]:
                out[i] = rho
    return out


def _compute(field: RiskField, keys: list[tuple[Cell, Cell]]) -> list[float]:
    """edge_risk of each of the distinct, valid, ordered cell pairs `keys`,
    none of them stored yet; each is kept in the one store its pair has."""
    risks = [0.0] * len(keys)
    if field._riskless:  # every segment costs exactly 0
        _store(field, keys, risks)
        return risks
    height, width = field.mu.shape

    # segment cell count -> (positions in keys, flat indices of the segments' cells)
    by_length: dict[int, tuple[list, list]] = {}
    for k, ((r0, c0), (r1, c1)) in enumerate(keys):
        if abs(r1 - r0) <= 1 and abs(c1 - c0) <= 1:  # the segment is its endpoints
            cells = (r0 * width + c0, r1 * width + c1)
        else:
            cells = [r * width + c for r, c in bresenham_line(r0, c0, r1, c1)]
        group = by_length.setdefault(len(cells), ([], []))
        group[0].append(k)
        group[1].append(cells)
    # the 32-bit words SeedSequence makes of the list [seed mod 2**64,
    # r0, c0, r1, c1]: one or two for the seed, one per coordinate
    seed = field.seed & 0xFFFFFFFFFFFFFFFF
    seed_words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    for n, (at, cells) in by_length.items():
        cells = np.array(cells)
        mu = field.mu.take(cells)
        if np.count_nonzero(mu) < mu.size:  # a segment of riskless cells costs 0
            costly = mu.any(axis=1)
            if not costly.any():
                continue
            at = [k for k, flag in zip(at, costly.tolist()) if flag]
            cells, mu = cells[costly], mu[costly]
        draws = np.empty((len(at), n, field.sample_count))
        words = np.array([seed_words + [r0, c0, r1, c1] for (r0, c0), (r1, c1) in
                          (keys[k] for k in at)], dtype=np.uint32)
        for j, rng in enumerate(_streams(words)):
            rng.standard_normal(out=draws[j])
        costs = _capped_costs(mu[:, :, None], field.sigma.take(cells)[:, :, None], draws)
        tails = _cvar_rows(np.add.reduce(costs, axis=1), field.alpha).tolist()
        for k, tail in zip(at, tails):
            (r0, c0), (r1, c1) = keys[k]
            risks[k] = tail * math.hypot(r1 - r0, c1 - c0) / (n - 1)
    _store(field, keys, risks)
    return risks


def _store(field: RiskField, keys: list[tuple[Cell, Cell]], risks: list[float]) -> None:
    """Keep each computed risk in the one store its valid, ordered pair has:
    the unit-edge planes or the dict."""
    height, width = field.mu.shape
    at: list[int] = []  # flat indices into the planes
    unit_risks: list[float] = []
    for key, risk in zip(keys, risks):
        (r0, c0), (r1, c1) = key
        dr, dc = r1 - r0, c1 - c0
        if dr + dc == 1 and dc >= 0:  # a right (dr 0) or down (dr 1) unit edge
            at.append((dr * height + r0) * width + c0)
            unit_risks.append(risk)
        else:
            field._edge_cache[key] = risk
    np.put(field._unit_risks, at, unit_risks)


def unit_edge_risks(field: RiskField, planes: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """edge_risk of each unit edge on the grid, given as its plane (0 for
    (r, c) -> (r, c + 1), 1 for (r, c) -> (r + 1, c)), row r and column c,
    read from the field's unit-edge store. The missing ones are computed
    first, in the order of their first occurrence."""
    risks = field._unit_risks[planes, rows, cols]
    missed = np.flatnonzero(np.isnan(risks))
    if len(missed):
        flat = np.ravel_multi_index((planes[missed], rows[missed], cols[missed]),
                                    field._unit_risks.shape)
        _, first = np.unique(flat, return_index=True)
        new = missed[np.sort(first)]
        r0, c0, down = rows[new].tolist(), cols[new].tolist(), planes[new].tolist()
        _compute(field, [((r, c), (r + d, c + 1 - d)) for r, c, d in zip(r0, c0, down)])
        risks = field._unit_risks[planes, rows, cols]
    return risks


def policy_risk(policy, graph) -> float:
    """Accumulated risk of a policy: sum of its edge risks in order."""
    edges = [graph.get_edge(u, v) for u, v in policy.edge_sequence]
    if None in edges:
        u, v = policy.edge_sequence[edges.index(None)]
        raise ValueError(f"policy references missing edge ({u}, {v})")
    return sum_left(edge.risk for edge in edges)
