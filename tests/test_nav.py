"""Wavefront navigation tests against an independent BFS reference."""

from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest

from prag.gridworld.world import World
from prag.nav import (
    DistanceField,
    NoPathError,
    backtrack_path,
    distance_field,
    heading_between,
    path_to_actions,
    turns_between,
)
from tests.conftest import border_walls


def bfs_distances(navigable: np.ndarray, source) -> dict:
    """Plain queue BFS, the reference for geodesic distances."""
    height, width = navigable.shape
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x, y = queue.popleft()
        for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height and navigable[ny, nx]:
                if (nx, ny) not in dist:
                    dist[(nx, ny)] = dist[(x, y)] + 1
                    queue.append((nx, ny))
    return dist


def random_grid(rng: random.Random, width=10, height=10, obstacle_rate=0.2) -> np.ndarray:
    grid = np.ones((height, width), dtype=bool)
    for y in range(height):
        for x in range(width):
            if rng.random() < obstacle_rate:
                grid[y, x] = False
    return grid


class TestDistanceField:
    def test_geodesic_matches_bfs(self):
        rng = random.Random(42)
        # Non-square grids after the square ones: there a swapped flat index shows.
        shapes = [(10, 10)] * 20 + [(7, 13), (13, 7), (1, 9), (9, 1)] * 5
        for width, height in shapes:
            grid = random_grid(rng, width, height)
            cells = [(x, y) for y in range(height) for x in range(width) if grid[y, x]]
            if not cells:
                continue
            source = rng.choice(cells)
            field = distance_field(grid, source)
            assert field.distances.dtype == np.float64
            assert field.distances.shape == (height, width)
            assert np.isinf(field.distances[~grid]).all()
            reference = bfs_distances(grid, source)
            for cell in cells:
                if cell in reference:
                    assert field.at(cell) == reference[cell]
                else:
                    assert np.isinf(field.at(cell))

    def test_blocked_cells_are_infinite(self):
        grid = np.ones((3, 3), dtype=bool)
        grid[1, 1] = False
        field = distance_field(grid, (0, 0))
        assert np.isinf(field.at((1, 1)))

    def test_source_must_be_navigable(self):
        grid = np.ones((3, 3), dtype=bool)
        grid[0, 0] = False
        with pytest.raises(ValueError):
            distance_field(grid, (0, 0))



class TestBacktrackPath:
    def test_path_endpoints_and_steps(self):
        rng = random.Random(7)
        for _ in range(30):
            grid = random_grid(rng)
            cells = [(x, y) for y in range(10) for x in range(10) if grid[y, x]]
            source = rng.choice(cells)
            field = distance_field(grid, source)
            reachable = [c for c in cells if np.isfinite(field.at(c))]
            sink = rng.choice(reachable)
            path = backtrack_path(field, sink)
            assert path[0] == source
            assert path[-1] == sink
            assert len(path) - 1 == field.at(sink)
            for a, b in zip(path, path[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                assert grid[b[1], b[0]]

    def test_unreachable_sink_raises(self):
        grid = np.ones((3, 3), dtype=bool)
        grid[:, 1] = False  # wall column splits the grid
        field = distance_field(grid, (0, 0))
        with pytest.raises(NoPathError):
            backtrack_path(field, (2, 0))

    def test_stalled_descent_raises(self):
        # No BFS field has a local minimum; a hand-made one must raise, not loop.
        field = DistanceField(distances=np.array([[0.0, 5.0, 3.0]]), source=(0, 0))
        with pytest.raises(NoPathError, match="stalled"):
            backtrack_path(field, (2, 0))

    def test_source_equals_sink(self):
        grid = np.ones((3, 3), dtype=bool)
        field = distance_field(grid, (1, 1))
        assert backtrack_path(field, (1, 1)) == [(1, 1)]


class TestHeadingsAndActions:
    def test_heading_between_neighbors(self):
        assert heading_between((2, 2), (2, 1)) == "N"
        assert heading_between((2, 2), (3, 2)) == "E"
        assert heading_between((2, 2), (2, 3)) == "S"
        assert heading_between((2, 2), (1, 2)) == "W"

    def test_heading_between_rejects_non_neighbors(self):
        with pytest.raises(ValueError):
            heading_between((2, 2), (3, 3))

    def test_turns_between_minimal(self):
        assert turns_between("N", "N") == []
        assert turns_between("N", "E") == ["turn_right"]
        assert turns_between("N", "W") == ["turn_left"]
        assert turns_between("N", "S") == ["turn_right", "turn_right"]

    def test_path_to_actions_counts(self):
        path = [(1, 1), (2, 1), (2, 2)]
        actions = path_to_actions(path, "N")
        # turn E, forward, turn S, forward
        assert actions == ["turn_right", "forward", "turn_right", "forward"]

    def test_empty_and_singleton_paths(self):
        assert path_to_actions([(1, 1)], "N") == []
        assert path_to_actions([], "N") == []
        with pytest.raises(ValueError):
            path_to_actions([(1, 1)], "Q")


class TestExecutionInWorld:
    def test_actions_walk_the_world_to_the_sink(self):
        rng = random.Random(99)
        for _ in range(10):
            grid = random_grid(rng, width=8, height=8, obstacle_rate=0.15)
            grid[:, 0] = False
            grid[:, -1] = False
            grid[0, :] = False
            grid[-1, :] = False
            cells = [(x, y) for y in range(8) for x in range(8) if grid[y, x]]
            if not cells:
                continue
            source = rng.choice(cells)
            field = distance_field(grid, source)
            reachable = [c for c in cells if np.isfinite(field.at(c))]
            sink = rng.choice(reachable)
            path = backtrack_path(field, sink)
            actions = path_to_actions(path, "N")

            walls = frozenset(
                (x, y) for y in range(8) for x in range(8) if not grid[y, x]
            )
            world = World(8, 8, walls=walls, agent_position=source, agent_heading="N")
            for action in actions:
                world.apply_action(action)
            assert world.agent_position == sink
            moves = sum(1 for a in actions if a == "forward")
            assert moves == field.at(sink)
