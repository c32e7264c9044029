"""Grid world state: ground truth, belief, procedural generators, and sensing.

Cells are addressed as (row, col). Metric coordinates put the center of cell
(r, c) at x = (c + 0.5) * cell_size, y = (r + 0.5) * cell_size.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

FREE = 0
OBSTACLE = 1

UNKNOWN = 0
KNOWN_FREE = 1
KNOWN_OBSTACLE = 2

DEFAULT_CELL_SIZE = 0.5

# generator constants recorded in each world's params
SUBWAY_CORRIDOR_WIDTH = 2      # cells
CAVE_FILL_PROBABILITY = 0.45   # initial obstacle share before the automaton
CAVE_AUTOMATON_STEPS = 5

# mu above this counts as high-risk terrain (used by the cave generator tests
# and the risk-intensity contract).
HIGH_RISK_MU = 0.3

WORLD_SCHEMA_VERSION = 1

Cell = tuple[int, int]


class GenerationError(RuntimeError):
    """World generation could not satisfy its constraints."""


class InvalidPoseError(ValueError):
    """Pose is out of bounds or not on a free cell."""


@dataclass
class SensorSpec:
    """Omnidirectional (by default) range sensor with optional occlusion."""

    range_m: float = 5.0
    arc: float = 2.0 * math.pi
    occlusion: bool = True

    def __post_init__(self) -> None:
        if not self.range_m > 0:
            raise ValueError("sensor range must be > 0")
        if not (0.0 < self.arc <= 2.0 * math.pi + 1e-12):
            raise ValueError("sensor arc must be in (0, 2*pi]")


@dataclass
class WorldModel:
    """Ground-truth occupancy and terrain-risk grid.

    Immutable after generation: all arrays are frozen so a single world can be
    shared across concurrent simulation runs.
    """

    width: int
    height: int
    cell_size: float
    occupancy: np.ndarray
    risk_mu: np.ndarray
    risk_sigma: np.ndarray
    rng_seed: int
    spawn: Cell
    generator: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        shape = (self.height, self.width)
        for name in ("occupancy", "risk_mu", "risk_sigma"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} != {shape}")
        for name in ("risk_mu", "risk_sigma"):
            arr = getattr(self, name)
            # NaN < 0 is False, so finiteness is checked on its own
            if not np.isfinite(arr).all():
                raise ValueError(f"terrain risk {name} must be finite")
            if np.any(arr < 0):
                raise ValueError("terrain risk mu/sigma must be nonnegative")
        for name in ("occupancy", "risk_mu", "risk_sigma"):
            getattr(self, name).setflags(write=False)

    def in_bounds(self, r: int, c: int) -> bool:
        return 0 <= r < self.height and 0 <= c < self.width

    def is_free(self, r: int, c: int) -> bool:
        return self.in_bounds(r, c) and self.occupancy[r, c] == FREE

    @property
    def cell_area(self) -> float:
        return self.cell_size * self.cell_size

    def free_cell_count(self) -> int:
        return int(np.sum(self.occupancy == FREE))


def make_world(
    occupancy: np.ndarray,
    spawn: Cell,
    cell_size: float = DEFAULT_CELL_SIZE,
    risk_mu: np.ndarray | None = None,
    risk_sigma: np.ndarray | None = None,
    rng_seed: int = 0,
    generator: str = "custom",
    params: dict | None = None,
) -> WorldModel:
    """Assemble a WorldModel from a raw occupancy array (test/scenario helper)."""
    occupancy = np.ascontiguousarray(occupancy, dtype=np.uint8)
    h, w = occupancy.shape
    if risk_mu is None:
        risk_mu = np.zeros((h, w), dtype=np.float64)
    if risk_sigma is None:
        risk_sigma = np.zeros((h, w), dtype=np.float64)
    return WorldModel(
        width=w,
        height=h,
        cell_size=cell_size,
        occupancy=occupancy,
        risk_mu=np.ascontiguousarray(risk_mu, dtype=np.float64),
        risk_sigma=np.ascontiguousarray(risk_sigma, dtype=np.float64),
        rng_seed=rng_seed,
        spawn=(int(spawn[0]), int(spawn[1])),
        generator=generator,
        params=dict(params or {}),
    )


@dataclass
class BeliefGrid:
    """Per-run knowledge of the world: unknown/free/obstacle plus coverage."""

    state: np.ndarray
    covered: np.ndarray
    cell_size: float

    @classmethod
    def for_world(cls, world: WorldModel) -> "BeliefGrid":
        shape = (world.height, world.width)
        return cls(
            state=np.full(shape, UNKNOWN, dtype=np.uint8),
            covered=np.zeros(shape, dtype=bool),
            cell_size=world.cell_size,
        )

    @property
    def height(self) -> int:
        return self.state.shape[0]

    @property
    def width(self) -> int:
        return self.state.shape[1]

    def in_bounds(self, r: int, c: int) -> bool:
        return 0 <= r < self.height and 0 <= c < self.width

    def is_known_free(self, r: int, c: int) -> bool:
        return self.in_bounds(r, c) and self.state[r, c] == KNOWN_FREE


# ---------------------------------------------------------------------------
# Ray casting
# ---------------------------------------------------------------------------

def bresenham_line(r0: int, c0: int, r1: int, c1: int) -> list[Cell]:
    """Integer line from (r0, c0) to (r1, c1), inclusive of both endpoints."""
    cells = []
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r1 >= r0 else -1
    sc = 1 if c1 >= c0 else -1
    err = dc - dr
    r, c = r0, c0
    while True:
        cells.append((r, c))
        if r == r1 and c == c1:
            break
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr
    return cells


_RAY_TABLES: dict[float, dict] = {}


def _ray_table(range_cells: float) -> dict:
    """Precomputed ray offsets: every target cell within range plus the
    interior Bresenham chain (endpoints excluded) used for occlusion checks.

    For visible_unknown_counts it also holds the chain table: the distinct
    chain offsets ("chain_cells"), each chain entry's row among them
    ("chain_row"), and the rays with a non-empty chain ("chained") with the
    starts of their chains ("chained_starts")."""
    key = round(range_cells, 9)
    tab = _RAY_TABLES.get(key)
    if tab is not None:
        return tab
    rmax = int(math.floor(range_cells + 1e-9))
    targets: list[Cell] = []
    for dr in range(-rmax, rmax + 1):
        for dc in range(-rmax, rmax + 1):
            if dr == 0 and dc == 0:
                continue
            if math.hypot(dr, dc) <= range_cells + 1e-9:
                targets.append((dr, dc))
    chain_cells: list[Cell] = []
    starts: list[int] = []
    lens: list[int] = []
    for dr, dc in targets:
        interior = bresenham_line(0, 0, dr, dc)[1:-1]
        starts.append(len(chain_cells))
        lens.append(len(interior))
        chain_cells.extend(interior)
    chain = np.asarray(chain_cells, dtype=np.int64).reshape(-1, 2)
    distinct, row = np.unique(chain, axis=0, return_inverse=True)
    chained = np.flatnonzero(np.asarray(lens) > 0)
    tab = {
        "targets": np.asarray(targets, dtype=np.int64).reshape(-1, 2),
        "chain": chain,
        "starts": np.asarray(starts, dtype=np.int64),
        "lens": np.asarray(lens, dtype=np.int64),
        "chain_cells": distinct,
        "chain_row": row.reshape(-1),
        "chained": chained,
        "chained_starts": np.asarray(starts, dtype=np.int64)[chained],
    }
    _RAY_TABLES[key] = tab
    return tab


def _segment_any(flags: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-ray 'any flag set on the interior chain' via one reduceat pass."""
    if starts.size == 0:
        return np.zeros(0, dtype=bool)
    if flags.size == 0:
        return np.zeros(starts.shape, dtype=bool)
    padded = np.append(flags.astype(np.int64), 0)
    out = np.add.reduceat(padded, starts) > 0
    out[lens == 0] = False
    return out


def _visible_targets(
    grid: np.ndarray,
    blocking_value: int,
    pose: Cell,
    range_cells: float,
    occlusion: bool,
    arc: float = 2.0 * math.pi,
    heading: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute (row, col) arrays of in-range target cells visible from pose."""
    h, w = grid.shape
    r0, c0 = pose
    tab = _ray_table(range_cells)
    tgt = tab["targets"]
    tr = tgt[:, 0] + r0
    tc = tgt[:, 1] + c0
    ok = (tr >= 0) & (tr < h) & (tc >= 0) & (tc < w)
    if arc < 2.0 * math.pi - 1e-12:
        ang = np.arctan2(tgt[:, 0].astype(float), tgt[:, 1].astype(float))
        diff = np.mod(ang - heading + math.pi, 2.0 * math.pi) - math.pi
        ok &= np.abs(diff) <= arc / 2.0 + 1e-12
    if occlusion and tab["chain"].size:
        crr = np.clip(tab["chain"][:, 0] + r0, 0, h - 1)
        ccc = np.clip(tab["chain"][:, 1] + c0, 0, w - 1)
        blocked = grid[crr, ccc] == blocking_value
        ok &= ~_segment_any(blocked, tab["starts"], tab["lens"])
    return tr[ok], tc[ok]


def sense(
    world: WorldModel,
    belief: BeliefGrid,
    pose: Cell,
    sensor: SensorSpec | None = None,
    heading: float = 0.0,
) -> BeliefGrid:
    """Update belief from one sensor sweep at pose.

    Every free cell on an unobstructed ray within range becomes known and
    covered; the first obstacle on a ray becomes known (not covered) and
    blocks everything behind it. Idempotent for a fixed pose and belief.
    """
    sensor = sensor or SensorSpec()
    r0, c0 = int(pose[0]), int(pose[1])
    if not world.in_bounds(r0, c0) or world.occupancy[r0, c0] != FREE:
        raise InvalidPoseError(f"pose {pose!r} is not a free in-bounds cell")
    range_cells = sensor.range_m / world.cell_size
    vr, vc = _visible_targets(
        world.occupancy, OBSTACLE, (r0, c0), range_cells,
        sensor.occlusion, sensor.arc, heading,
    )
    vals = world.occupancy[vr, vc]
    free_sel = vals == FREE
    belief.state[vr[free_sel], vc[free_sel]] = KNOWN_FREE
    belief.covered[vr[free_sel], vc[free_sel]] = True
    belief.state[vr[~free_sel], vc[~free_sel]] = KNOWN_OBSTACLE
    belief.state[r0, c0] = KNOWN_FREE
    belief.covered[r0, c0] = True
    return belief


def visible_unknown_count(
    belief: BeliefGrid,
    pose: Cell,
    sensor: SensorSpec | None = None,
) -> int:
    """Count unknown cells with line of sight from pose within sensor range.

    Optimistic proxy for newly coverable area: rays are blocked by believed
    obstacles only, so unknown space is treated as see-through.
    """
    return int(visible_unknown_counts(belief, [pose], sensor)[0])


def visible_unknown_counts(
    belief: BeliefGrid,
    poses,
    sensor: SensorSpec | None = None,
) -> np.ndarray:
    """visible_unknown_count for every (row, col) in poses, as one int array.

    The target and chain-offset cells of all poses are gathered at once,
    bit-packed over the pose axis (8 poses a byte). A border as wide as the
    range reads as known free, so off-grid targets never count. A ray is
    blocked when the or of its chain's obstacle bits is set: one reduceat
    over the chain table cached on _ray_table. A pose off the grid raises
    InvalidPoseError.
    """
    sensor = sensor or SensorSpec()
    poses = np.asarray(poses, dtype=np.int64).reshape(-1, 2)
    h, w = belief.state.shape
    off_grid = poses[((poses < 0) | (poses >= (h, w))).any(axis=1)]
    if len(off_grid):
        raise InvalidPoseError(f"pose {tuple(off_grid[0].tolist())} is outside the {h} x {w} grid")
    tab = _ray_table(sensor.range_m / belief.cell_size)
    pad = int(np.abs(tab["targets"]).max(initial=0))
    wp = w + 2 * pad
    grid = np.full((h + 2 * pad, wp), KNOWN_FREE, dtype=np.uint8)
    grid[pad:pad + h, pad:pad + w] = belief.state
    grid = grid.ravel()
    origin = (poses[:, 0] + pad) * wp + (poses[:, 1] + pad)

    def bits(offsets: np.ndarray, value: int) -> np.ndarray:
        cells = (offsets[:, 0] * wp + offsets[:, 1])[:, None] + origin[None, :]
        return np.packbits(grid[cells] == value, axis=1)

    unknown = bits(tab["targets"], UNKNOWN)
    if sensor.occlusion and tab["chained"].size:
        obstacle = bits(tab["chain_cells"], KNOWN_OBSTACLE)
        unknown[tab["chained"]] &= ~np.bitwise_or.reduceat(
            obstacle[tab["chain_row"]], tab["chained_starts"], axis=0)
    return np.unpackbits(unknown, axis=1, count=len(poses)).sum(axis=0, dtype=np.int64)


def covered_area(belief: BeliefGrid) -> float:
    """Covered cells converted to square meters."""
    return float(np.sum(belief.covered)) * belief.cell_size * belief.cell_size


# ---------------------------------------------------------------------------
# Connectivity helpers
# ---------------------------------------------------------------------------

def padded_mask(mask: np.ndarray) -> tuple[bytes, int]:
    """A boolean mask with a one-cell False border, flattened for grid_bfs:
    (bytes, padded row width). Cell (r, c) sits at index (r + 1) * width + c + 1."""
    h, w = mask.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = mask
    return padded.tobytes(), w + 2


def grid_bfs(passable: bytes, width: int, start: int):
    """4-connected breadth-first search over a padded_mask from the flat
    index start, which must be an in-bounds cell and is entered whether or
    not it is passable. Neighbours are tried in the order (1, 0), (-1, 0),
    (0, 1), (0, -1). Yields (index, depth) for every cell reached, in
    discovery order, the start first with depth 0."""
    unseen = bytearray(passable)
    unseen[start] = 0
    steps = (width, -width, 1, -1)
    yield start, 0
    level = [start]
    depth = 0
    while level:
        depth += 1
        reached = []
        for i in level:
            for step in steps:
                j = i + step
                if unseen[j]:
                    unseen[j] = 0
                    reached.append(j)
                    yield j, depth
        level = reached


def flood_fill_free(occupancy: np.ndarray, start: Cell) -> np.ndarray:
    """4-connected reachability mask over free cells from start."""
    h, w = occupancy.shape
    r0, c0 = start
    if not (0 <= r0 < h and 0 <= c0 < w) or occupancy[r0, c0] != FREE:
        return np.zeros((h, w), dtype=bool)
    passable, wp = padded_mask(occupancy == FREE)
    mask = np.zeros((h + 2) * wp, dtype=bool)
    mask[[i for i, _ in grid_bfs(passable, wp, (r0 + 1) * wp + c0 + 1)]] = True
    return mask.reshape(h + 2, wp)[1:-1, 1:-1].copy()


def reachable_free_count(world: WorldModel) -> int:
    return int(np.sum(flood_fill_free(world.occupancy, world.spawn)))


def label_components(mask: np.ndarray, diagonal: bool = False) -> tuple[np.ndarray, int]:
    """Connected components of a boolean mask: (labels, count), with 0 for
    background and components numbered from 1 in raster order of their first
    cell. 4-connected, or 8-connected with diagonal=True. This is the
    numbering of scipy.ndimage.label with the matching structure."""
    h, w = mask.shape
    wp = w + 2
    padded = np.zeros((h + 2, wp), dtype=bool)
    padded[1:-1, 1:-1] = mask
    if diagonal:
        steps = (-wp - 1, -wp, -wp + 1, -1, 1, wp - 1, wp, wp + 1)
    else:
        steps = (-wp, -1, 1, wp)
    inside = padded.ravel().tolist()
    labels = [0] * len(inside)
    count = 0
    for first in np.flatnonzero(padded).tolist():
        if labels[first]:
            continue
        count += 1
        labels[first] = count
        stack = [first]
        while stack:
            i = stack.pop()
            for step in steps:
                j = i + step
                if inside[j] and not labels[j]:
                    labels[j] = count
                    stack.append(j)
    out = np.array(labels, dtype=np.int32).reshape(h + 2, wp)[1:-1, 1:-1]
    return out, count


def _obstacle_neighbours(occ: np.ndarray) -> np.ndarray:
    """Obstacles among each cell's 8 neighbours; cells beyond the border
    count as obstacles."""
    h, w = occ.shape
    p = np.ones((h + 2, w + 2), dtype=np.int16)
    p[1:-1, 1:-1] = occ == OBSTACLE
    return (p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:] + p[1:-1, :-2]
            + p[1:-1, 2:] + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:])


def _gaussian_smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of a 2-D array with mirrored borders and a kernel cut at
    4 sigma. Each output cell adds its terms in the order
    scipy.ndimage.gaussian_filter uses for a symmetric kernel (centre, then
    the mirrored pairs from the outermost in), so the result is the same to
    the last bit."""
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * offsets ** 2)
    kernel = kernel / kernel.sum()
    out = np.asarray(x, dtype=np.float64)
    for axis in (0, 1):
        line = np.moveaxis(out, axis, 0)
        n = line.shape[0]
        p = np.pad(line, ((radius, radius), (0, 0)), mode="symmetric")
        acc = p[radius:radius + n] * kernel[radius]
        for j in range(radius, 0, -1):
            acc += (p[radius - j:radius - j + n] + p[radius + j:radius + j + n]) * kernel[radius - j]
        out = np.moveaxis(acc, 0, axis)
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_subway(
    seed: int,
    rooms: int = 5,
    room_size_range: tuple[float, float] = (6.0, 10.0),
    cell_size: float = DEFAULT_CELL_SIZE,
) -> WorldModel:
    """Interconnected rectangular rooms joined by corridors, zero terrain risk."""
    if rooms < 1:
        raise ValueError("rooms must be >= 1")
    lo_m, hi_m = room_size_range
    if lo_m <= 0 or hi_m < lo_m:
        raise ValueError("bad room_size_range")
    lo = max(3, int(round(lo_m / cell_size)))
    hi = max(lo, int(round(hi_m / cell_size)))

    k = int(math.ceil(math.sqrt(rooms)))
    slot = hi + 6
    side = k * slot + 2
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, attempt]))
        occ = np.full((side, side), OBSTACLE, dtype=np.uint8)
        slots = [(i, j) for i in range(k) for j in range(k)]
        order = rng.permutation(len(slots))
        centers: list[Cell] = []
        for idx in range(rooms):
            si, sj = slots[order[idx]]
            rh = int(rng.integers(lo, hi + 1))
            rw = int(rng.integers(lo, hi + 1))
            max_jr = slot - rh - 2
            max_jc = slot - rw - 2
            jr = int(rng.integers(0, max_jr + 1)) if max_jr > 0 else 0
            jc = int(rng.integers(0, max_jc + 1)) if max_jc > 0 else 0
            r0 = 1 + si * slot + jr
            c0 = 1 + sj * slot + jc
            occ[r0:r0 + rh, c0:c0 + rw] = FREE
            centers.append((r0 + rh // 2, c0 + rw // 2))

        def carve_corridor(a: Cell, b: Cell) -> None:
            half = SUBWAY_CORRIDOR_WIDTH // 2
            r_lo, r_hi = sorted((a[0], b[0]))
            c_lo, c_hi = sorted((a[1], b[1]))
            # horizontal leg at a's row, then vertical leg at b's col
            occ[max(1, a[0] - half):min(side - 1, a[0] + SUBWAY_CORRIDOR_WIDTH - half),
                max(1, c_lo - half):min(side - 1, c_hi + SUBWAY_CORRIDOR_WIDTH - half)] = FREE
            occ[max(1, r_lo - half):min(side - 1, r_hi + SUBWAY_CORRIDOR_WIDTH - half),
                max(1, b[1] - half):min(side - 1, b[1] + SUBWAY_CORRIDOR_WIDTH - half)] = FREE

        for i in range(1, rooms):
            carve_corridor(centers[i - 1], centers[i])
        for i in range(2, rooms):
            if rng.random() < 0.3:
                j = int(rng.integers(0, i - 1))
                carve_corridor(centers[j], centers[i])

        spawn = centers[0]
        reach = flood_fill_free(occ, spawn)
        if int(reach.sum()) == int(np.sum(occ == FREE)):
            return make_world(
                occ, spawn, cell_size=cell_size, rng_seed=seed,
                generator="subway",
                params={"rooms": rooms, "room_size_range": [lo_m, hi_m],
                        "corridor_width": SUBWAY_CORRIDOR_WIDTH},
            )
    raise GenerationError(f"subway generation failed for seed={seed}, rooms={rooms}")


def _free_degree_grid(occ: np.ndarray) -> np.ndarray:
    """4-connected degree of each free cell (0 for obstacles)."""
    free = (occ == FREE).astype(np.int8)
    deg = np.zeros_like(free, dtype=np.int8)
    deg[1:, :] += free[:-1, :]
    deg[:-1, :] += free[1:, :]
    deg[:, 1:] += free[:, :-1]
    deg[:, :-1] += free[:, 1:]
    deg[occ != FREE] = 0
    return deg


def deadend_corridor_lengths(occ: np.ndarray) -> list[int]:
    """Length in cells of each dead-end corridor (from a degree-1 tip through
    degree-2 cells until the first junction)."""
    deg = _free_degree_grid(occ)
    free = occ == FREE
    tips = [tuple(x) for x in np.argwhere(free & (deg == 1))]
    lengths = []
    for tip in tips:
        prev = None
        cur = tip
        n = 0
        while True:
            n += 1
            if deg[cur] > 2:
                n -= 1
                break
            nxt = None
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                cand = (cur[0] + dr, cur[1] + dc)
                if cand != prev and 0 <= cand[0] < occ.shape[0] and \
                        0 <= cand[1] < occ.shape[1] and free[cand]:
                    nxt = cand
                    break
            if nxt is None:
                break
            prev, cur = cur, nxt
        lengths.append(n)
    return lengths


def _generate_maze_once(
    rng: np.random.Generator,
    width: int,
    height: int,
    deadend_fraction: float,
) -> np.ndarray:
    occ = np.full((height, width), OBSTACLE, dtype=np.uint8)
    lat_rows = list(range(1, height - 1, 2))
    lat_cols = list(range(1, width - 1, 2))
    in_lattice = lambda r, c: (1 <= r <= lat_rows[-1]) and (1 <= c <= lat_cols[-1]) \
        and r % 2 == 1 and c % 2 == 1

    # depth-first carve over the odd lattice
    start = (1, 1)
    occ[start] = FREE
    stack = [start]
    visited = {start}
    dirs = [(-2, 0), (2, 0), (0, -2), (0, 2)]
    while stack:
        r, c = stack[-1]
        options = []
        for dr, dc in dirs:
            nr, nc = r + dr, c + dc
            if in_lattice(nr, nc) and (nr, nc) not in visited:
                options.append((nr, nc))
        if not options:
            stack.pop()
            continue
        nr, nc = options[int(rng.integers(0, len(options)))]
        occ[(r + nr) // 2, (c + nc) // 2] = FREE
        occ[nr, nc] = FREE
        visited.add((nr, nc))
        stack.append((nr, nc))

    def lattice_neighbors(r: int, c: int, wall: int) -> list[Cell]:
        """Lattice neighbours of (r, c) whose wall cell holds the value wall."""
        out = []
        for dr, dc in dirs:
            nr, nc = r + dr, c + dc
            if in_lattice(nr, nc) and occ[(r + nr) // 2, (c + nc) // 2] == wall:
                out.append((nr, nc))
        return out

    deadends = [
        (r, c) for r in lat_rows for c in lat_cols
        if len(lattice_neighbors(r, c, FREE)) == 1
    ]
    n0 = len(deadends)
    target_keep = 0 if deadend_fraction == 0 else max(1, round(deadend_fraction * n0))

    protected: Cell | None = None
    if deadend_fraction > 0 and deadends:
        lengths = deadend_corridor_lengths(occ)
        tips = [tuple(x) for x in np.argwhere((occ == FREE) & (_free_degree_grid(occ) == 1))]
        if lengths:
            best = max(range(len(lengths)), key=lambda i: (lengths[i], -tips[i][0], -tips[i][1]))
            protected = tips[best]

    order = rng.permutation(len(deadends))
    remaining = n0
    for idx in order:
        if remaining <= target_keep:
            break
        cell = deadends[idx]
        if cell == protected:
            continue
        if len(lattice_neighbors(*cell, FREE)) != 1:
            remaining -= 1  # already braided away by a neighbor's wall opening
            continue
        closed = lattice_neighbors(*cell, OBSTACLE)
        if not closed:
            continue
        nr, nc = closed[int(rng.integers(0, len(closed)))]
        occ[(cell[0] + nr) // 2, (cell[1] + nc) // 2] = FREE
        remaining -= 1
    return occ


def generate_maze(
    seed: int,
    width: int = 51,
    height: int = 51,
    deadend_fraction: float = 1.0,
    cell_size: float = DEFAULT_CELL_SIZE,
) -> WorldModel:
    """Perfect-maze backbone with braiding; deadend_fraction is the share of
    dead-ends retained (0 gives a fully braided maze with no degree-1 cells)."""
    if width < 5 or height < 5:
        raise ValueError("maze width and height must be >= 5 cells")
    if not (0.0 <= deadend_fraction <= 1.0):
        raise ValueError("deadend_fraction must be in [0, 1]")
    occ = None
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, attempt]))
        cand = _generate_maze_once(rng, width, height, deadend_fraction)
        occ = cand if occ is None else occ
        if deadend_fraction == 0:
            occ = cand
            break
        lengths = deadend_corridor_lengths(cand)
        if lengths and max(lengths) >= 5:
            occ = cand
            break
        # tiny mazes may be geometrically unable to host a 5-cell dead end;
        # keep the first attempt in that case
    return make_world(
        occ, (1, 1), cell_size=cell_size, rng_seed=seed,
        generator="maze",
        params={"width": width, "height": height, "deadend_fraction": deadend_fraction},
    )


def generate_cave(
    seed: int,
    width: int = 51,
    height: int = 51,
    risk_intensity: float = 0.5,
    cell_size: float = DEFAULT_CELL_SIZE,
) -> WorldModel:
    """Cellular-automaton cavern with a spatially correlated terrain-risk field.

    The share of cells whose risk mean exceeds HIGH_RISK_MU grows monotonically
    with risk_intensity; intensity 0 yields a risk-free cave.
    """
    if width < 5 or height < 5:
        raise ValueError("cave width and height must be >= 5 cells")
    if not (0.0 <= risk_intensity <= 1.0):
        raise ValueError("risk_intensity must be in [0, 1]")
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, attempt]))
        occ = (rng.random((height, width)) < CAVE_FILL_PROBABILITY).astype(np.uint8)
        occ[0, :] = occ[-1, :] = OBSTACLE
        occ[:, 0] = occ[:, -1] = OBSTACLE
        for _ in range(CAVE_AUTOMATON_STEPS):
            occ = np.where(_obstacle_neighbours(occ) >= 5, OBSTACLE, FREE).astype(np.uint8)
            occ[0, :] = occ[-1, :] = OBSTACLE
            occ[:, 0] = occ[:, -1] = OBSTACLE

        labels, n_comp = label_components(occ == FREE)
        noise = rng.standard_normal((height, width))
        if n_comp == 0:
            continue
        sizes = np.bincount(labels.ravel(), minlength=n_comp + 1)[1:]
        keep = 1 + int(np.argmax(sizes))
        occ = np.where(labels == keep, FREE, OBSTACLE).astype(np.uint8)

        free_cells = np.argwhere(occ == FREE)
        if len(free_cells) < 10:
            continue
        center = np.array([height / 2.0, width / 2.0])
        d2 = np.sum((free_cells - center) ** 2, axis=1)
        spawn = tuple(int(x) for x in free_cells[int(np.argmin(d2))])

        smooth = _gaussian_smooth(noise, sigma=3.0)
        lo, hi = float(smooth.min()), float(smooth.max())
        base = (smooth - lo) / (hi - lo) if hi > lo else np.zeros_like(smooth)
        mu = risk_intensity * base
        sigma = 0.5 * mu
        return make_world(
            occ, spawn, cell_size=cell_size, risk_mu=mu, risk_sigma=sigma,
            rng_seed=seed, generator="cave",
            params={"width": width, "height": height, "risk_intensity": risk_intensity,
                    "fill_probability": CAVE_FILL_PROBABILITY,
                    "automaton_steps": CAVE_AUTOMATON_STEPS},
        )
    raise GenerationError(f"cave generation failed for seed={seed}")


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------

def world_to_dict(world: WorldModel) -> dict:
    rows = ["".join("#" if v == OBSTACLE else "." for v in row) for row in world.occupancy]
    return {
        "version": WORLD_SCHEMA_VERSION,
        "generator": world.generator,
        "params": world.params,
        "seed": world.rng_seed,
        "width": world.width,
        "height": world.height,
        "cell_size": world.cell_size,
        "spawn": [world.spawn[0], world.spawn[1]],
        "occupancy": rows,
        "risk_mu": [list(map(float, row)) for row in world.risk_mu],
        "risk_sigma": [list(map(float, row)) for row in world.risk_sigma],
    }


def world_from_dict(doc: dict) -> WorldModel:
    if doc.get("version") != WORLD_SCHEMA_VERSION:
        raise ValueError(f"unsupported world schema version: {doc.get('version')!r}")
    occ = np.array(
        [[OBSTACLE if ch == "#" else FREE for ch in row] for row in doc["occupancy"]],
        dtype=np.uint8,
    )
    return make_world(
        occ,
        spawn=(doc["spawn"][0], doc["spawn"][1]),
        cell_size=float(doc["cell_size"]),
        risk_mu=np.array(doc["risk_mu"], dtype=np.float64),
        risk_sigma=np.array(doc["risk_sigma"], dtype=np.float64),
        rng_seed=int(doc["seed"]),
        generator=doc["generator"],
        params=doc["params"],
    )


def save_world(world: WorldModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(world_to_dict(world), fh, sort_keys=True, separators=(",", ":"))


def load_world(path: str) -> WorldModel:
    with open(path, "r", encoding="utf-8") as fh:
        return world_from_dict(json.load(fh))
