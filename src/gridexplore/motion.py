"""Policy execution: A* reference paths, turn-rate-limited smoothing, and the
discrepancy between the two.

Reference and executed paths are equal-length arrays of metric (x, y)
waypoints so the discrepancy is a plain per-index sum of Euclidean gaps.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import world as gw
from .risk import RiskField
from .world import BeliefGrid, SensorSpec, WorldModel, bresenham_line, sense, sum_left

Cell = tuple[int, int]

SQRT2 = math.sqrt(2.0)


@dataclass
class KinodynamicSpec:
    # default models a turn-in-place platform: any single-step heading change
    # up to a reversal tracks exactly, so grid paths (including coverage
    # sweeps that double back) carry no discrepancy; tighter budgets make the
    # discrepancy signal bite
    max_turn_rate: float = math.pi      # radians per step
    step_length: float = 0.5            # meters advanced per tracking substep
    smoothing_iterations: int = 1       # tracking substeps per waypoint

    def __post_init__(self) -> None:
        if not self.max_turn_rate > 0:
            raise ValueError("max_turn_rate must be > 0")
        if not self.step_length > 0:
            raise ValueError("step_length must be > 0")
        if not self.smoothing_iterations >= 1:
            raise ValueError("smoothing_iterations must be >= 1")


@dataclass
class PathPair:
    reference: np.ndarray   # (N, 2) metric waypoints
    executed: np.ndarray    # (N, 2) metric poses
    discrepancy: float


def cell_center(cell: Cell, cell_size: float) -> tuple[float, float]:
    return ((cell[1] + 0.5) * cell_size, (cell[0] + 0.5) * cell_size)


def point_cell(xy, cell_size: float) -> Cell:
    return (int(math.floor(xy[1] / cell_size)), int(math.floor(xy[0] / cell_size)))


def cells_to_waypoints(cells: list[Cell], cell_size: float) -> np.ndarray:
    return np.array([cell_center(c, cell_size) for c in cells], dtype=np.float64)


def astar(
    belief: BeliefGrid,
    risk_field: RiskField,
    start: Cell,
    goal: Cell,
    risk_weight: float = 1.0,
) -> list[Cell] | None:
    """Minimal-cost 8-connected path through believed-free space.

    Edge cost is metric length plus risk_weight times the entered cell's mean
    terrain cost; the Euclidean heuristic ignores risk, so it stays
    admissible. Diagonal moves may not cut corners past a cell that is not
    believed free. Nodes are re-expanded on strict g-improvement, which makes
    the returned cost bit-identical to a Dijkstra run over the same grid.
    Returns None when the goal is unreachable (not a fault).

    The search runs over flat indices of a padded_mask: the padded row-major
    index orders cells as (row, col) does, so heap ties pop in (f, g, row,
    col) order. Each pop reads its four straight neighbours once and pushes
    up, down, left, right, then the four diagonals; every push's f is its g
    plus math.hypot of the integer offset to the goal, times the cell size,
    a last bit the tests pin.
    """
    start = (int(start[0]), int(start[1]))
    goal = (int(goal[0]), int(goal[1]))
    if not belief.is_known_free(*start):
        raise gw.InvalidPoseError(f"A* start {start!r} is not believed free")
    if not belief.is_known_free(*goal):
        return None
    cs = belief.cell_size
    if risk_field.mu.shape != belief.state.shape:
        raise ValueError("risk field and belief shapes differ")
    free, width = gw.padded_mask(belief.state == gw.KNOWN_FREE)
    mu = risk_field.padded_mu
    straight, diagonal = 1.0 * cs, SQRT2 * cs
    hypot = math.hypot
    gr, gc = goal[0] + 1, goal[1] + 1
    source = (start[0] + 1) * width + start[1] + 1
    target = gr * width + gc

    inf = math.inf
    g_best = [inf] * len(free)
    g_best[source] = 0.0
    parent = [0] * len(free)
    open_heap = [(hypot(start[0] - goal[0], start[1] - goal[1]) * cs, 0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while open_heap:
        f, g, i = pop(open_heap)
        if g > g_best[i]:
            continue
        if i == target:
            path = [i]
            while i != source:
                i = parent[i]
                path.append(i)
            return [(j // width - 1, j % width - 1) for j in reversed(path)]
        r, c = divmod(i, width)
        dr, dc = r - gr, c - gc
        gs, gd = g + straight, g + diagonal
        up, down, left, right = i - width, i + width, i - 1, i + 1
        free_up, free_down, free_left, free_right = free[up], free[down], free[left], free[right]
        if free_up:
            ng = gs + risk_weight * mu[up]
            if ng < g_best[up]:
                g_best[up] = ng
                parent[up] = i
                push(open_heap, (ng + hypot(dr - 1, dc) * cs, ng, up))
        if free_down:
            ng = gs + risk_weight * mu[down]
            if ng < g_best[down]:
                g_best[down] = ng
                parent[down] = i
                push(open_heap, (ng + hypot(dr + 1, dc) * cs, ng, down))
        if free_left:
            ng = gs + risk_weight * mu[left]
            if ng < g_best[left]:
                g_best[left] = ng
                parent[left] = i
                push(open_heap, (ng + hypot(dr, dc - 1) * cs, ng, left))
        if free_right:
            ng = gs + risk_weight * mu[right]
            if ng < g_best[right]:
                g_best[right] = ng
                parent[right] = i
                push(open_heap, (ng + hypot(dr, dc + 1) * cs, ng, right))
        # a diagonal passes the two straight neighbours it lies between
        if free_up:
            if free_left and free[up - 1]:
                nb = up - 1
                ng = gd + risk_weight * mu[nb]
                if ng < g_best[nb]:
                    g_best[nb] = ng
                    parent[nb] = i
                    push(open_heap, (ng + hypot(dr - 1, dc - 1) * cs, ng, nb))
            if free_right and free[up + 1]:
                nb = up + 1
                ng = gd + risk_weight * mu[nb]
                if ng < g_best[nb]:
                    g_best[nb] = ng
                    parent[nb] = i
                    push(open_heap, (ng + hypot(dr - 1, dc + 1) * cs, ng, nb))
        if free_down:
            if free_left and free[down - 1]:
                nb = down - 1
                ng = gd + risk_weight * mu[nb]
                if ng < g_best[nb]:
                    g_best[nb] = ng
                    parent[nb] = i
                    push(open_heap, (ng + hypot(dr + 1, dc - 1) * cs, ng, nb))
            if free_right and free[down + 1]:
                nb = down + 1
                ng = gd + risk_weight * mu[nb]
                if ng < g_best[nb]:
                    g_best[nb] = ng
                    parent[nb] = i
                    push(open_heap, (ng + hypot(dr + 1, dc + 1) * cs, ng, nb))
    return None


def path_cost(
    path: list[Cell],
    risk_field: RiskField,
    cell_size: float,
    risk_weight: float = 1.0,
) -> float:
    """Canonical cost of a cell path under the A* cost model.

    Computed from the straight/diagonal step counts and an exactly rounded
    risk sum so the value does not depend on accumulation order; two optimal
    paths of equal real cost therefore produce bit-identical floats.
    """
    straight = 0
    diagonal = 0
    risks = []
    for a, b in zip(path, path[1:]):
        if a[0] != b[0] and a[1] != b[1]:
            diagonal += 1
        else:
            straight += 1
        risks.append(float(risk_field.mu[b]))
    return (
        straight * cell_size
        + diagonal * (cell_size * SQRT2)
        + risk_weight * math.fsum(risks)
    )


def path_length(path: list[Cell], cell_size: float) -> float:
    """Metric length of a cell path."""
    return sum_left(math.hypot(a[0] - b[0], a[1] - b[1]) * cell_size
                    for a, b in zip(path, path[1:]))


def path_length_lower_bound(a: Cell, b: Cell, cell_size: float) -> float:
    """A float never above path_length of any 8-connected path from a to b:
    the octile distance, shrunk by a relative 1e-9 that covers the rounding
    of path_length's sum."""
    dr, dc = abs(a[0] - b[0]), abs(a[1] - b[1])
    octile = abs(dr - dc) + SQRT2 * min(dr, dc)
    return octile * cell_size * (1.0 - 1e-9)


def smooth_kinodynamic(
    reference: np.ndarray,
    spec: KinodynamicSpec,
    belief: BeliefGrid | None = None,
) -> np.ndarray:
    """Track the reference under a per-step turn-rate limit.

    One pose is produced per reference waypoint, so both paths share index
    space. When the required heading change stays within the limit and the
    waypoint is within reach, the waypoint is copied exactly; otherwise the
    tracker turns as far as allowed and advances, drifting off the corner and
    steering back over later waypoints. If the next pose would land on a
    believed obstacle, the output stops short and repeats the last safe pose.

    The tracking runs over Python floats from ref.tolist(); their IEEE
    arithmetic is numpy float64's, so the poses match a numpy tracker bit
    for bit (tests/reference_impl.py keeps one).
    """
    ref = np.asarray(reference, dtype=np.float64)
    if ref.ndim != 2 or ref.shape[1] != 2 or len(ref) == 0:
        raise ValueError("reference must be a nonempty (N, 2) array")
    n = len(ref)
    if n == 1:
        return ref.copy()

    points = ref.tolist()
    x, y = points[0]
    heading = math.atan2(points[1][1] - y, points[1][0] - x)
    rate, step_length = spec.max_turn_rate, spec.step_length
    if belief is not None:
        state, cs = belief.state, belief.cell_size
        height, width = state.shape
    poses = [(x, y)]
    for tx, ty in points[1:]:
        for _ in range(spec.smoothing_iterations):
            dx = tx - x
            dy = ty - y
            dist = math.hypot(dx, dy)
            if dist < 1e-12:
                x, y = tx, ty
                break
            desired = math.atan2(dy, dx)
            delta = desired - heading
            delta = math.atan2(math.sin(delta), math.cos(delta))
            clamped = max(-rate, min(rate, delta))
            heading = heading + clamped
            if clamped == delta and dist <= step_length + 1e-12:
                x, y = tx, ty
                heading = desired
                break
            step = min(step_length, dist)
            x, y = x + step * math.cos(heading), y + step * math.sin(heading)
        if belief is not None:
            r, c = math.floor(y / cs), math.floor(x / cs)  # point_cell((x, y), cs)
            if not (0 <= r < height and 0 <= c < width) or state[r, c] == gw.KNOWN_OBSTACLE:
                poses += [poses[-1]] * (n - len(poses))
                break
        poses.append((x, y))
    return np.array(poses, dtype=np.float64)


def discrepancy(pair: tuple[np.ndarray, np.ndarray]) -> float:
    """Summed per-waypoint Euclidean distance between paired paths."""
    ref, ex = pair
    ref = np.asarray(ref, dtype=np.float64)
    ex = np.asarray(ex, dtype=np.float64)
    if ref.shape != ex.shape:
        raise ValueError(f"path length mismatch: {ref.shape} vs {ex.shape}")
    return float(np.sum(np.hypot(ref[:, 0] - ex[:, 0], ref[:, 1] - ex[:, 1])))


def make_path_pair(
    reference: np.ndarray,
    spec: KinodynamicSpec,
    belief: BeliefGrid | None = None,
) -> PathPair:
    executed = smooth_kinodynamic(reference, spec, belief)
    return PathPair(
        reference=np.asarray(reference, dtype=np.float64),
        executed=executed,
        discrepancy=discrepancy((reference, executed)),
    )


def execute_step(
    world: WorldModel,
    belief: BeliefGrid,
    pose: Cell,
    executed: np.ndarray,
    index: int,
    sensor: SensorSpec | None = None,
) -> tuple[Cell, bool]:
    """Advance one waypoint along the executed path and sense at the result.

    Hitting a ground-truth obstacle (known to the belief or not) halts the
    robot at its previous pose, marks the struck cell as a believed obstacle,
    and reports a collision event instead of failing.
    """
    executed = np.asarray(executed, dtype=np.float64)
    if len(executed) == 0:
        raise ValueError("executed path is empty")
    index = min(index, len(executed) - 1)
    target = point_cell(executed[index], world.cell_size)
    collided = False
    new_pose = pose
    if target != pose:
        segment = bresenham_line(pose[0], pose[1], target[0], target[1])
        for cell in segment[1:]:
            if not world.in_bounds(*cell) or world.occupancy[cell] == gw.OBSTACLE:
                collided = True
                if world.in_bounds(*cell):
                    belief.state[cell] = gw.KNOWN_OBSTACLE
                break
        if not collided:
            new_pose = target
    heading = math.atan2(new_pose[0] - pose[0], new_pose[1] - pose[1]) if new_pose != pose else 0.0
    sense(world, belief, new_pose, sensor, heading=heading)
    return new_pose, collided
