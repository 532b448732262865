"""Wavefront navigation: distance field, backtracked path, action emission.

The planner is a simplified fast-marching scheme: grow a distance field out
of the source, then walk back from the sink by always stepping to the
minimum-distance neighbor. The field is the geodesic wavefront (unit-cost
BFS, 4-connected), under which the backtrack strictly descends and always
terminates; the backtrack still checks for a stall, so a corrupted field
raises instead of looping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .gridworld.world import HEADING_DELTAS, HEADING_ORDER, Cell

# Fixed tie-break order for neighbor inspection.
NEIGHBOR_ORDER = tuple(HEADING_DELTAS[h] for h in HEADING_ORDER)


class NoPathError(Exception):
    """Raised when no route to the requested sink exists."""


@dataclass(frozen=True)
class DistanceField:
    """Distances from ``source`` over a navigable grid; blocked cells are inf."""

    distances: np.ndarray
    source: Cell

    def at(self, cell: Cell) -> float:
        x, y = cell
        return float(self.distances[y, x])


def _check_grid(navigable: np.ndarray) -> np.ndarray:
    grid = np.asarray(navigable, dtype=bool)
    if grid.ndim != 2:
        raise ValueError(f"navigable grid must be 2-D, got shape {grid.shape}")
    return grid


def distance_field(navigable, source: Cell) -> DistanceField:
    """Compute the BFS distance of every navigable cell from ``source``.

    ``navigable`` is indexed [y, x]; cells are (x, y). The source must be
    navigable. Unreachable and blocked cells get inf.
    """
    grid = _check_grid(navigable)
    height, width = grid.shape
    sx, sy = source
    if not (0 <= sx < width and 0 <= sy < height) or not grid[sy, sx]:
        raise ValueError(f"source {source} is not a navigable cell")

    # The wavefront runs on flat Python lists, index y * width + x: numpy
    # scalar reads and writes inside this loop cost more than the search.
    open_cells = grid.ravel().tolist()
    inf = float("inf")
    flat = [inf] * (height * width)
    flat[sy * width + sx] = 0.0
    frontier = deque([source])
    while frontier:
        x, y = frontier.popleft()
        base = flat[y * width + x] + 1.0
        for dx, dy in NEIGHBOR_ORDER:
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                index = ny * width + nx
                if open_cells[index] and flat[index] == inf:
                    flat[index] = base
                    frontier.append((nx, ny))
    distances = np.array(flat, dtype=np.float64).reshape(height, width)
    return DistanceField(distances=distances, source=source)


def backtrack_path(field: DistanceField, sink: Cell) -> list[Cell]:
    """Walk from ``sink`` to the source along minimum-distance neighbors.

    Neighbor ties resolve in N, E, S, W order. Returns the path from source
    to sink inclusive. Raises NoPathError when the sink is unreachable or the
    descent stalls (impossible on a BFS field; checked so a bad field fails
    loudly).
    """
    height, width = field.distances.shape
    x, y = sink
    if not (0 <= x < width and 0 <= y < height) or not np.isfinite(field.distances[y, x]):
        raise NoPathError(f"sink {sink} is unreachable from {field.source}")

    path = [sink]
    current = sink
    limit = height * width + 1
    for _ in range(limit):
        if current == field.source:
            path.reverse()
            return path
        cx, cy = current
        best: Cell | None = None
        best_dist = np.inf
        for dx, dy in NEIGHBOR_ORDER:
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < width and 0 <= ny < height:
                dist = field.distances[ny, nx]
                if dist < best_dist:
                    best_dist = dist
                    best = (nx, ny)
        if best is None or best_dist >= field.distances[cy, cx]:
            raise NoPathError(f"backtrack stalled at {current}")
        current = best
        path.append(current)
    raise NoPathError(f"backtrack exceeded {limit} steps")


def heading_between(a: Cell, b: Cell) -> str:
    """Heading that faces from cell ``a`` to 4-adjacent cell ``b``."""
    delta = (b[0] - a[0], b[1] - a[1])
    for heading, d in HEADING_DELTAS.items():
        if d == delta:
            return heading
    raise ValueError(f"cells {a} and {b} are not 4-adjacent")


def turns_between(start: str, target: str) -> list[str]:
    """Minimal turn actions from one heading to another (at most two)."""
    diff = (HEADING_ORDER.index(target) - HEADING_ORDER.index(start)) % 4
    if diff == 0:
        return []
    if diff == 1:
        return ["turn_right"]
    if diff == 3:
        return ["turn_left"]
    return ["turn_right", "turn_right"]


def path_to_actions(path: list[Cell], start_heading: str) -> list[str]:
    """Convert a cell path into turn/forward actions.

    Each move gets the minimal turn prefix (at most two turns) followed by
    one forward, so the number of forwards equals ``len(path) - 1``.
    """
    if start_heading not in HEADING_ORDER:
        raise ValueError(f"unknown heading: {start_heading!r}")
    actions: list[str] = []
    heading = start_heading
    for a, b in zip(path, path[1:]):
        target = heading_between(a, b)
        actions.extend(turns_between(heading, target))
        actions.append("forward")
        heading = target
    return actions
