"""Grid world state: ground truth, belief, sensing, and every world an episode
can run in (GENERATORS: procedural generators and scripted scenario worlds,
whose precovered rectangles BeliefGrid.for_world puts in the first belief).

Cells are addressed as (row, col). Metric coordinates put the center of cell
(r, c) at x = (c + 0.5) * cell_size, y = (r + 0.5) * cell_size.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

FREE = 0
OBSTACLE = 1
OFF_GRID = 2  # the border of WorldModel.padded_occupancy

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


def sum_left(values) -> float:
    """values added left to right from 0.0. Builtin sum() compensates float
    error from Python 3.12 on, so it would make logs depend on the Python
    version."""
    return functools.reduce(operator.add, values, 0.0)


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
        if not 0 < self.range_m < math.inf:
            raise ValueError("sensor range must be finite and > 0")
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
        # the square is the cell area behind every m^2 figure
        if not (0 < self.cell_size < math.inf and 0 < self.cell_area < math.inf):
            raise ValueError(f"cell_size and its square must be finite and > 0, "
                             f"got {self.cell_size!r}")
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

    @functools.cached_property
    def padded_occupancy(self) -> np.ndarray:
        """occupancy inside an OFF_GRID border of max(height, width) - 1
        cells, as wide as the widest sensor window (see _ray_table); read-only
        and built on first use, since the world never changes."""
        pad = max(self.height, self.width) - 1
        padded = np.full((self.height + 2 * pad, self.width + 2 * pad), OFF_GRID, dtype=np.uint8)
        padded[pad:pad + self.height, pad:pad + self.width] = self.occupancy
        padded.setflags(write=False)
        return padded


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
        """The belief an episode starts from: all unknown, but for the
        rectangles [r0, c0, r1, c1) of world.params["precover"], which hold
        the ground truth with their free cells covered."""
        shape = (world.height, world.width)
        belief = cls(
            state=np.full(shape, UNKNOWN, dtype=np.uint8),
            covered=np.zeros(shape, dtype=bool),
            cell_size=world.cell_size,
        )
        for r0, c0, r1, c1 in world.params.get("precover", ()):
            region = world.occupancy[r0:r1, c0:c1]
            belief.state[r0:r1, c0:c1] = np.where(region == OBSTACLE, KNOWN_OBSTACLE, KNOWN_FREE)
            belief.covered[r0:r1, c0:c1] = region == FREE
        return belief

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


@functools.lru_cache(maxsize=32)
def _ray_table(range_cells: float, height: int, width: int) -> dict:
    """Precomputed rays from a pose of a height x width grid, in the
    coordinates of the pose's window: the (2 * pad + 1)^2 cells around it,
    flattened row-major, the pose at its centre.

    "targets" holds the window position of every target offset within
    range, "offsets" its flat offset in the grid and "angles" its bearing
    (arctan2(dr, dc)). A ray's chain is the interior of its Bresenham line
    (endpoints excluded). "chain_cells" holds the window positions of the
    distinct chain cells and, last, of the sentinel (the centre, a stand-in
    whose flag _blocked clears); "chained" holds the rays with a non-empty
    chain; the matrix "chains" has one column per chained ray and one row
    per chain step, each entry an index into chain_cells, the sentinel's
    below the end of a shorter chain. No two cells of the grid lie farther
    apart than its diagonal, or than max(height, width) - 1 along a row or
    column, so the range and the window are cut there: every on-grid ray
    stays."""
    range_cells = min(range_cells, math.hypot(height, width))
    pad = min(int(math.floor(range_cells + 1e-9)), max(height, width) - 1)
    side = 2 * pad + 1
    targets: list[Cell] = []
    chains: list[list[int]] = []
    for dr in range(-pad, pad + 1):
        for dc in range(-pad, pad + 1):
            if (dr or dc) and math.hypot(dr, dc) <= range_cells + 1e-9:
                targets.append((dr, dc))
                chains.append([(r + pad) * side + c + pad
                               for r, c in bresenham_line(0, 0, dr, dc)[1:-1]])
    tgt = np.asarray(targets, dtype=np.intp).reshape(-1, 2)
    chained = [i for i, chain in enumerate(chains) if chain]
    steps = np.array([len(chains[i]) for i in chained], dtype=np.intp)
    distinct, row = np.unique(np.array([cell for i in chained for cell in chains[i]],
                                       dtype=np.intp), return_inverse=True)
    # each chain entry's column (its ray) and row (its step along the ray)
    ray = np.repeat(np.arange(len(chained)), steps)
    step = np.arange(len(ray)) - np.repeat(np.cumsum(steps) - steps, steps)
    matrix = np.full((steps.max(initial=0), len(chained)), len(distinct), dtype=np.intp)
    matrix[step, ray] = row
    return {
        "pad": pad,
        "targets": (tgt[:, 0] + pad) * side + tgt[:, 1] + pad,
        "offsets": tgt[:, 0] * width + tgt[:, 1],
        "angles": np.arctan2(tgt[:, 0].astype(float), tgt[:, 1].astype(float)),
        "chain_cells": np.append(distinct, pad * side + pad),
        "chained": np.asarray(chained, dtype=np.intp),
        "chains": matrix,
    }


def _blocked(flags: np.ndarray, tab: dict) -> np.ndarray:
    """Whether each chained ray of tab is blocked: the or down its column of
    the chain matrix. flags holds one row per entry of tab["chain_cells"],
    flagging the cells that block: a bool for a single pose, or a row of
    bytes of 8 poses' bits each for many. The sentinel's row is cleared
    here, in place."""
    flags[-1] = 0
    return np.bitwise_or.reduce(np.take(flags, tab["chains"], axis=0), axis=0)


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

    The pose's window is one slice of world.padded_occupancy, so a target
    off the grid reads OFF_GRID and needs no bounds check; a ray is blocked
    when any entry of its column of the chain matrix is an obstacle, and the
    cells seen are written through their flat offsets.
    """
    sensor = sensor or SensorSpec()
    r0, c0 = int(pose[0]), int(pose[1])
    if not world.in_bounds(r0, c0) or world.occupancy[r0, c0] != FREE:
        raise InvalidPoseError(f"pose {pose!r} is not a free in-bounds cell")
    tab = _ray_table(sensor.range_m / world.cell_size, world.height, world.width)
    side = 2 * tab["pad"] + 1
    # how far padded_occupancy's border reaches beyond the window's
    shift = max(world.height, world.width) - 1 - tab["pad"]
    window = world.padded_occupancy[r0 + shift:r0 + shift + side,
                                    c0 + shift:c0 + shift + side].ravel()
    vals = window[tab["targets"]]
    ok = vals != OFF_GRID
    if sensor.arc < 2.0 * math.pi - 1e-12:
        diff = np.mod(tab["angles"] - heading + math.pi, 2.0 * math.pi) - math.pi
        ok &= np.abs(diff) <= sensor.arc / 2.0 + 1e-12
    if sensor.occlusion and tab["chained"].size:
        ok[tab["chained"]] &= ~_blocked(window[tab["chain_cells"]] == OBSTACLE, tab)
    seen = tab["offsets"][ok] + (r0 * world.width + c0)
    vals = vals[ok]
    # KNOWN_FREE and KNOWN_OBSTACLE are FREE and OBSTACLE plus one
    belief.state.put(seen, vals + (KNOWN_FREE - FREE))
    belief.covered.put(seen[vals == FREE], True)
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
    obstacles only, so unknown space is treated as see-through. The count
    covers the full circle: it ignores sensor.arc, which sense honours.
    """
    return int(visible_unknown_counts(belief, [pose], sensor)[0])


def visible_unknown_counts(
    belief: BeliefGrid,
    poses,
    sensor: SensorSpec | None = None,
) -> np.ndarray:
    """visible_unknown_count for every (row, col) in poses, as one int array.

    Every pose's window (see _ray_table) is gathered at once, by one fancy
    index into a sliding_window_view of the belief inside a border as wide
    as the window's reach, which reads as known free, so off-grid targets
    never count. The flags are bit-packed over the pose axis (8 poses a
    byte), and rays are blocked by the chain matrix sense uses. Like
    visible_unknown_count, it ignores sensor.arc, which sense honours. A pose
    off the grid raises InvalidPoseError.
    """
    sensor = sensor or SensorSpec()
    poses = np.asarray(poses, dtype=np.intp).reshape(-1, 2)
    h, w = belief.state.shape
    off_grid = poses[((poses < 0) | (poses >= (h, w))).any(axis=1)]
    if len(off_grid):
        raise InvalidPoseError(f"pose {tuple(off_grid[0].tolist())} is outside the {h} x {w} grid")
    tab = _ray_table(sensor.range_m / belief.cell_size, h, w)
    pad = tab["pad"]
    grid = np.full((h + 2 * pad, w + 2 * pad), KNOWN_FREE, dtype=np.uint8)
    grid[pad:pad + h, pad:pad + w] = belief.state
    side = 2 * pad + 1
    # one column per pose
    windows = np.lib.stride_tricks.sliding_window_view(grid, (side, side))[
        poses[:, 0], poses[:, 1]].reshape(len(poses), side * side).T
    unknown = np.packbits(np.take(windows, tab["targets"], axis=0) == UNKNOWN, axis=1)
    if sensor.occlusion and tab["chained"].size:
        obstacle = np.packbits(np.take(windows, tab["chain_cells"], axis=0) == KNOWN_OBSTACLE,
                               axis=1)
        unknown[tab["chained"]] &= ~_blocked(obstacle, tab)
    return np.unpackbits(unknown, axis=1, count=len(poses)).sum(axis=0, dtype=np.int64)


def covered_area(belief: BeliefGrid) -> float:
    """Covered cells converted to square meters."""
    return float(np.count_nonzero(belief.covered)) * belief.cell_size * belief.cell_size


# ---------------------------------------------------------------------------
# Connectivity helpers
# ---------------------------------------------------------------------------

def padded_mask(mask: np.ndarray) -> tuple[bytes, int]:
    """A boolean mask with a one-cell False border, flattened for grid_bfs
    and row_runs: (bytes, padded row width). Cell (r, c) sits at index (r + 1) * width + c + 1."""
    h, w = mask.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = mask
    return padded.tobytes(), w + 2


def grid_bfs(passable: bytes, width: int, start: int):
    """Breadth-first search over a padded_mask from the flat index start,
    which must be an in-bounds cell and is entered whether or not it is
    passable. Neighbours are tried in the order (1, 0), (-1, 0), (0, 1),
    (0, -1). Yields (index, depth) for every cell reached, in discovery
    order, the start first with depth 0: for searches that need that order
    or stop early."""
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


def row_runs(passable: bytes, width: int,
             diagonal: bool = False) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """The runs of passable cells along the rows of a padded_mask, in raster
    order, as (starts, ends, near): run k covers the flat indices
    starts[k]:ends[k], and touches the runs near[0][k]:near[1][k] of the row
    above and near[2][k]:near[3][k] of the row below, each a list. Runs
    touch when their column spans share a column, or with diagonal=True
    (8-connected) when they also meet at a corner. The False border ends
    every run within its row."""
    cells = np.frombuffer(passable, dtype=np.uint8)
    # where the value changes: a run's start, then its end, and so on
    edges = np.flatnonzero(cells[1:] != cells[:-1]) + 1
    starts, ends = edges[::2], edges[1::2]
    # the runs of the row at offset d that touch a run: those that end after
    # its start and start before its end, a corner further with diagonal
    corner = int(diagonal)
    near = [bound.tolist() for d in (-width, width) for bound in (
        np.searchsorted(ends, starts + d - corner, side="right"),
        np.searchsorted(starts, ends + d + corner, side="left"))]
    return starts, ends, near


def flood_runs(near: list[list[int]], first: int, label: list[int], value: int) -> None:
    """Set label to value for run first and every run that row_runs' near
    joins to it, through runs whose label is 0: a stack flood."""
    up_lo, up_hi, down_lo, down_hi = near
    label[first] = value
    stack = [first]
    while stack:
        k = stack.pop()
        for j in itertools.chain(range(up_lo[k], up_hi[k]), range(down_lo[k], down_hi[k])):
            if not label[j]:
                label[j] = value
                stack.append(j)


def label_components(mask: np.ndarray, diagonal: bool = False) -> tuple[np.ndarray, int]:
    """Connected components of a boolean mask: (labels, count), with 0 for
    background and components numbered from 1 in raster order of their first
    cell. 4-connected, or 8-connected with diagonal=True. This is the
    numbering of scipy.ndimage.label with the matching structure. The
    components are flooded over the mask's row runs (row_runs), the first
    unlabelled run in raster order starting the next one, and the labels are
    made by one np.repeat."""
    passable, wp = padded_mask(mask)
    starts, ends, near = row_runs(passable, wp, diagonal)
    label = [0] * len(starts)
    count = 0
    for first in range(len(starts)):
        if not label[first]:
            count += 1
            flood_runs(near, first, label, count)
    # a label for each run and a 0 for each gap around them, repeated over
    # its cells
    values = np.zeros(2 * len(starts) + 1, dtype=np.int32)
    values[1::2] = label
    bounds = np.zeros(2 * len(starts) + 2, dtype=np.intp)
    bounds[1:-1:2], bounds[2:-1:2], bounds[-1] = starts, ends, len(passable)
    labels = np.repeat(values, np.diff(bounds))
    return labels.reshape(-1, wp)[1:-1, 1:-1], count


def reachable_free_count(world: WorldModel) -> int:
    """Free cells 4-connected to the spawn; 0 when the spawn is not free."""
    if not world.is_free(*world.spawn):
        return 0
    labels, _ = label_components(world.occupancy == FREE)
    return int(np.sum(labels == labels[world.spawn]))


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
# Generators: every world is made at DEFAULT_CELL_SIZE; one at another cell
# size comes from make_world
# ---------------------------------------------------------------------------

def generate_subway(
    seed: int,
    rooms: int = 5,
    room_size_range: tuple[float, float] = (6.0, 10.0),
) -> WorldModel:
    """Interconnected rectangular rooms joined by corridors, zero terrain risk."""
    if rooms < 1:
        raise ValueError("rooms must be >= 1")
    lo_m, hi_m = room_size_range
    if not 0 < lo_m <= hi_m < math.inf:
        raise ValueError("room_size_range must be finite with 0 < min <= max")
    lo = max(3, int(round(lo_m / DEFAULT_CELL_SIZE)))
    hi = max(lo, int(round(hi_m / DEFAULT_CELL_SIZE)))

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

        # one component: the spawn, a room centre, reaches every free cell
        _, components = label_components(occ == FREE)
        if components == 1:
            return make_world(
                occ, centers[0], rng_seed=seed, generator="subway",
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


def _deadend_corridors(occ: np.ndarray) -> list[tuple[Cell, int]]:
    """(tip, length) of each dead-end corridor (see deadend_corridor_lengths),
    tips in raster order."""
    deg = _free_degree_grid(occ)
    free = occ == FREE
    corridors = []
    for tip in (tuple(x) for x in np.argwhere(free & (deg == 1))):
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
        corridors.append((tip, n))
    return corridors


def deadend_corridor_lengths(occ: np.ndarray) -> list[int]:
    """Length in cells of each dead-end corridor (from a degree-1 tip through
    degree-2 cells until the first junction)."""
    return [n for _, n in _deadend_corridors(occ)]


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
    corridors = _deadend_corridors(occ) if deadend_fraction > 0 and deadends else []
    if corridors:
        # the longest corridor's tip, the first in raster order on a tie
        protected = max(corridors, key=lambda tip_n: (tip_n[1], -tip_n[0][0], -tip_n[0][1]))[0]

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
) -> WorldModel:
    """Perfect-maze backbone with braiding; deadend_fraction is the share of
    dead-ends retained (0 gives a fully braided maze with no degree-1 cells)."""
    if width < 5 or height < 5:
        raise ValueError("maze width and height must be >= 5 cells")
    if not (0.0 <= deadend_fraction <= 1.0):
        raise ValueError("deadend_fraction must be in [0, 1]")
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, attempt]))
        occ = _generate_maze_once(rng, width, height, deadend_fraction)
        if attempt == 0:
            first = occ
        if deadend_fraction == 0 or max(deadend_corridor_lengths(occ), default=0) >= 5:
            break
    else:
        # tiny mazes may be geometrically unable to host a 5-cell dead end;
        # keep the first attempt in that case
        occ = first
    return make_world(
        occ, (1, 1), rng_seed=seed, generator="maze",
        params={"width": width, "height": height, "deadend_fraction": deadend_fraction},
    )


def generate_cave(
    seed: int,
    width: int = 51,
    height: int = 51,
    risk_intensity: float = 0.5,
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
            occ, spawn, risk_mu=mu, risk_sigma=sigma,
            rng_seed=seed, generator="cave",
            params={"width": width, "height": height, "risk_intensity": risk_intensity,
                    "fill_probability": CAVE_FILL_PROBABILITY,
                    "automaton_steps": CAVE_AUTOMATON_STEPS},
        )
    raise GenerationError(f"cave generation failed for seed={seed}")


def _scenario_switchback_world(seed: int) -> WorldModel:
    """A long corridor to a distant frontier passing a side pocket that is
    invisible until the robot gets close: en-route local coverage appears
    after the robot commits to the far goal. The layout is fixed; seed is
    ignored."""
    h, w = 21, 46
    occ = np.full((h, w), OBSTACLE, dtype=np.uint8)
    occ[9:12, 1:45] = FREE          # main corridor
    occ[2:8, 24:33] = FREE          # side pocket
    occ[8, 28] = FREE               # one-cell shaft into the pocket
    occ[2:19, 38:45] = FREE         # far room
    return make_world(
        occ, spawn=(10, 3), rng_seed=0, generator="scenario_switchback",
        params={"precover": [[8, 1, 13, 38]]},
    )


def _scenario_riskpocket_world(seed: int) -> WorldModel:
    """A high-risk cluttered pocket around the robot with uncovered cells,
    plus a clean distant frontier: the risky local policy wins the score but
    trips the risk threshold. The layout is fixed; seed is ignored."""
    h, w = 25, 40
    occ = np.full((h, w), OBSTACLE, dtype=np.uint8)
    occ[6:15, 2:13] = FREE          # pocket
    occ[9:12, 13:31] = FREE         # corridor out
    occ[4:17, 31:39] = FREE         # far area
    # clutter inside the pocket
    for r, c in ((7, 5), (8, 9), (11, 4), (12, 8), (13, 11), (6, 11)):
        occ[r, c] = OBSTACLE
    mu = np.zeros((h, w))
    sigma = np.zeros((h, w))
    mu[6:15, 2:13] = 1.2
    sigma[6:15, 2:13] = 0.3
    return make_world(
        occ, spawn=(10, 6), risk_mu=mu, risk_sigma=sigma, rng_seed=0,
        generator="scenario_riskpocket",
        params={"precover": [[8, 2, 13, 10], [9, 13, 12, 30]]},
    )


# generator name -> (builder, the params it accepts with their defaults); a
# builder is called as builder(seed, **params), and its signature is the one
# home of those params: every param after the seed, each with a default
GENERATORS = {
    name: (builder, {param.name: param.default
                     for param in list(inspect.signature(builder).parameters.values())[1:]})
    for name, builder in (
        ("subway", generate_subway), ("maze", generate_maze), ("cave", generate_cave),
        ("scenario_switchback", _scenario_switchback_world),
        ("scenario_riskpocket", _scenario_riskpocket_world),
    )
}


# ---------------------------------------------------------------------------
# Export: gen-world writes this JSON; no command reads a world file back
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


def save_world(world: WorldModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(world_to_dict(world), fh, sort_keys=True, separators=(",", ":"))

