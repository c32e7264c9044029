"""Watch the belief grid fill in as the robot senses while moving.

The sensor marks every free cell on an unobstructed ray as known and covered;
the first obstacle on a ray becomes known and blocks what lies behind it.
Coverage in square meters only ever grows.
"""
import numpy as np

from gridexplore import (
    BeliefGrid, RiskField, SensorSpec, astar, covered_area, generate_subway,
    sense,
)
from gridexplore.world import FREE, KNOWN_FREE, KNOWN_OBSTACLE, UNKNOWN, label_components

world = generate_subway(seed=2, rooms=3)
belief = BeliefGrid.for_world(world)
risk = RiskField.for_world(world)
sensor = SensorSpec(range_m=5.0)

# pick the reachable free cell farthest from the spawn and drive to it,
# sensing at every cell along the way
sense(world, belief, world.spawn, sensor)
labels, _ = label_components(world.occupancy == FREE)
reach = labels == labels[world.spawn]
cells = np.argwhere(reach)
far = tuple(int(v) for v in cells[np.argmax(
    np.hypot(cells[:, 0] - world.spawn[0], cells[:, 1] - world.spawn[1]))])
# plan on ground truth knowledge for the demo drive
truth_belief = BeliefGrid(
    state=np.where(world.occupancy == 1, KNOWN_OBSTACLE, KNOWN_FREE).astype(np.uint8),
    covered=np.zeros_like(reach), cell_size=world.cell_size)
route = astar(truth_belief, risk, world.spawn, far)
print(f"driving {len(route)} cells from {world.spawn} to {far}")

trace = []
for pose in route:
    sense(world, belief, pose, sensor)
    trace.append(covered_area(belief))

print("\ncoverage every 5 sensing steps (m^2):")
print("  " + " ".join(f"{v:.0f}" for v in trace[::5]))
assert all(b >= a for a, b in zip(trace, trace[1:])), "coverage is monotone"

symbols = {UNKNOWN: " ", KNOWN_FREE: ".", KNOWN_OBSTACLE: "#"}
print("\nbelief after the drive ('.'=known free, '#'=known wall, blank=unknown):")
for r in range(0, world.height, 2):
    print("  " + "".join(symbols[int(v)] for v in belief.state[r, ::2]))

reachable = reach.sum() * world.cell_area
print(f"\ncovered {covered_area(belief):.0f} m^2 "
      f"of {reachable:.0f} m^2 reachable free area")
