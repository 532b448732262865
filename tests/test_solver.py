"""Optimal-step solver tests, cross-checked by exhaustive simulation search."""

from __future__ import annotations

from collections import deque

import pytest

from prag.gridworld import solver
from prag.gridworld.solver import (
    SolverLimitation,
    UnsolvableTaskError,
    shortest_solution_steps,
)
from prag.gridworld.tasks import AgentHolds, PlacedAt, Task, bundled_suite
from prag.gridworld.world import LOW_LEVEL_ACTIONS, World
from tests.conftest import border_walls, make_ball_task


def simulation_bfs(task: Task, limit: int = 40) -> int | None:
    """Reference solver: breadth-first over full simulator states.

    Slower but assumption-free; drives the real World dynamics action by
    action. Returns the minimal step count, or None within ``limit``.
    """

    def state_key(world: World):
        objects = tuple(
            (label, state.position, state.toggled, state.open)
            for label, state in sorted(world.objects.items())
        )
        stacks = tuple(sorted((cell, tuple(stack)) for cell, stack in world.stacks().items()))
        return (world.agent_position, world.agent_heading, world.agent_inventory, objects, stacks)

    start = task.world.copy()
    if task.predicate.holds(start):
        return 0
    seen = {state_key(start)}
    queue = deque([(start, 0)])
    while queue:
        world, depth = queue.popleft()
        if depth >= limit:
            continue
        for action in LOW_LEVEL_ACTIONS:
            nxt = world.copy()
            nxt.apply_action(action)
            key = state_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            if task.predicate.holds(nxt):
                return depth + 1
            queue.append((nxt, depth + 1))
    return None


# Frozen optimal step counts for the bundled layouts. Recomputed by the
# simulation BFS below; a layout edit that changes these must update both.
BUNDLED_OPTIMA = {
    "ball_to_table": 15,
    "book_from_box": 7,
    "fetch_key_from_cabinet": 7,
    "mug_to_coffee_maker": 8,
    "wash_mugs": 15,
    "water_houseplants": 24,
}


class TestBundledOptima:
    def test_pinned_step_counts(self):
        for task in bundled_suite():
            assert shortest_solution_steps(task) == BUNDLED_OPTIMA[task.id], task.id

    @pytest.mark.parametrize(
        "task_id", ["ball_to_table", "book_from_box", "fetch_key_from_cabinet", "mug_to_coffee_maker"]
    )
    def test_cross_checked_by_simulation_bfs(self, task_id):
        task = next(t for t in bundled_suite() if t.id == task_id)
        assert simulation_bfs(task) == BUNDLED_OPTIMA[task_id]

    def test_memoized_per_layout(self, monkeypatch):
        solves = []

        def counting_solve(task):
            solves.append(task.id)
            return original(task)

        original = solver._solve
        monkeypatch.setattr(solver, "_CACHE", {})
        monkeypatch.setattr(solver, "_solve", counting_solve)
        first = shortest_solution_steps(make_ball_task())
        second = shortest_solution_steps(make_ball_task())
        assert first == second == 6
        assert solves == ["ball_task"]

    def test_same_id_layouts_get_their_own_optima(self, monkeypatch):
        monkeypatch.setattr(solver, "_CACHE", {})
        near = make_ball_task(task_id="shared")
        world = World(7, 5, walls=border_walls(7, 5), agent_position=(1, 3), agent_heading="N")
        world.place_object("table_1", "table", (5, 1))
        world.place_object("ball_1", "ball", (1, 1))
        far = Task(
            id="shared",
            goal=near.goal,
            world=world,
            predicate=PlacedAt("ball_1", "table_1"),
            max_steps=near.max_steps,
        )
        assert shortest_solution_steps(near) == 6
        assert shortest_solution_steps(far) == simulation_bfs(far) == 8


class TestSmallWorlds:
    def test_hand_enumerated_minimum(self):
        # Agent at (1,3) facing N, ball at (1,1), table at (3,1): forward
        # (faces ball), pickup, forward onto the ball cell, turn_right,
        # forward to (2,1), drop facing the table. Six actions.
        task = make_ball_task()
        assert shortest_solution_steps(task) == 6
        assert simulation_bfs(task) == 6

    def test_agent_holds_goal(self):
        world = World(5, 5, walls=border_walls(5, 5), agent_position=(1, 2), agent_heading="N")
        world.place_object("key_1", "key", (1, 1))
        task = Task(
            id="grab_key",
            goal="Pick up the key",
            world=world,
            predicate=AgentHolds("key_1"),
            max_steps=20,
        )
        assert shortest_solution_steps(task) == 1  # already facing the key cell
        assert simulation_bfs(task) == 1

    def test_scenery_items_count_toward_capacity(self):
        # The target cell already holds two immovable-by-assumption items, so
        # the goal item still fits; with three it cannot.
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(1, 4), agent_heading="N")
        world.place_object("table_1", "table", (3, 1))
        world.place_object("mug_1", "mug", (3, 1))
        world.place_object("mug_2", "mug", (3, 1))
        world.place_object("ball_1", "ball", (1, 1))
        task = Task(
            id="squeeze_ball",
            goal="Put the ball on the crowded table",
            world=world,
            predicate=PlacedAt("ball_1", "table_1"),
            max_steps=30,
        )
        solver_steps = shortest_solution_steps(task)
        assert solver_steps == simulation_bfs(task)

    def test_full_target_cell_is_a_limitation_not_unsolvable(self):
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(1, 4), agent_heading="N")
        world.place_object("table_1", "table", (3, 1))
        world.place_object("mug_1", "mug", (3, 1))
        world.place_object("mug_2", "mug", (3, 1))
        world.place_object("mug_3", "mug", (3, 1))
        world.place_object("ball_1", "ball", (1, 1))
        task = Task(
            id="overflow_ball",
            goal="Put the ball on the full table",
            world=world,
            predicate=PlacedAt("ball_1", "table_1"),
            max_steps=30,
        )
        # The true world allows clearing a mug off the table first (the
        # exhaustive search proves it), so the restricted solver must report
        # its own limitation rather than claim the task unsolvable.
        with pytest.raises(SolverLimitation):
            shortest_solution_steps(task)
        assert simulation_bfs(task, limit=25) == 13

    def test_scenery_on_goal_item_is_a_limitation(self):
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(1, 4), agent_heading="N")
        world.place_object("table_1", "table", (3, 1))
        world.place_object("ball_1", "ball", (1, 1))
        world.place_object("mug_1", "mug", (1, 1))  # rests on the ball
        task = Task(
            id="buried_ball",
            goal="Put the buried ball on the table",
            world=world,
            predicate=PlacedAt("ball_1", "table_1"),
            max_steps=30,
        )
        with pytest.raises(SolverLimitation):
            shortest_solution_steps(task)

    def test_unreachable_goal_is_unsolvable(self):
        # A wall ring around the table makes the placement impossible.
        walls = set(border_walls(7, 7))
        for cell in [(2, 1), (3, 1), (4, 1), (2, 2), (4, 2), (2, 3), (3, 3), (4, 3)]:
            walls.add(cell)
        world = World(7, 7, walls=frozenset(walls), agent_position=(1, 5), agent_heading="N")
        world.place_object("table_1", "table", (3, 2))
        world.place_object("ball_1", "ball", (1, 4))
        task = Task(
            id="sealed_table",
            goal="Put the ball on the sealed table",
            world=world,
            predicate=PlacedAt("ball_1", "table_1"),
            max_steps=30,
        )
        with pytest.raises(UnsolvableTaskError):
            shortest_solution_steps(task)
