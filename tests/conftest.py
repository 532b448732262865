"""Shared test helpers: scripted backends and small worlds."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import settings

from prag.backends import PlannerBackend
from prag.gridworld.tasks import PlacedAt, Task
from prag.gridworld.world import World
from prag.trajectory_db import TaskRecord

# Every property runs on the same examples each time (a seed from the test's
# source), and without hypothesis's 200 ms deadline, which is wall-clock time
# and trips at random on a machine whose speed drifts.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


class ScriptedBackend(PlannerBackend):
    """Returns queued replies verbatim and records every prompt and bundle."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0
        self.prompts = []
        self.bundles = []

    def begin_episode(self, task_id, iteration, goal_text, world):
        pass

    def complete(self, prompt, bundle):
        self.prompts.append(prompt)
        self.bundles.append(bundle)
        index = self.calls
        self.calls += 1
        if index < len(self.replies):
            return self.replies[index]
        return "Action: done()"


def border_walls(width: int, height: int) -> frozenset:
    cells = set()
    for x in range(width):
        cells.add((x, 0))
        cells.add((x, height - 1))
    for y in range(height):
        cells.add((0, y))
        cells.add((width - 1, y))
    return frozenset(cells)


def make_ball_world() -> World:
    """5x5 bordered room: table at (3,1), ball at (1,1), agent at (1,3)."""
    world = World(5, 5, walls=border_walls(5, 5), agent_position=(1, 3), agent_heading="N")
    world.place_object("table_1", "table", (3, 1))
    world.place_object("ball_1", "ball", (1, 1))
    return world


def make_ball_task(task_id: str = "ball_task", max_steps: int = 40) -> Task:
    return Task(
        id=task_id,
        goal="Put the ball on the table",
        world=make_ball_world(),
        predicate=PlacedAt("ball_1", "table_1"),
        max_steps=max_steps,
    )


@pytest.fixture
def ball_task() -> Task:
    return make_ball_task()


# A field of a stored record, or the header's dimension, set to a value of the
# wrong type; each is written to a store by ``write_mistyped_store``.
MISTYPED_STORE_FIELDS = {
    "done-string": ("done", "no"),
    "fractional-iteration": ("iteration", 1.5),
    "boolean-iteration": ("iteration", True),
    "integer-goal-text": ("goal_text", 7),
    "integer-task-id": ("task_id", 7),
    "boolean-dimension": ("dimension", True),
    "integer-history-step": ("history", [[1, 2]]),
    "string-history-step": ("history", ["ab"]),
    "boolean-goal-entry": ("goal_embedding", [1.0, True, 0.0, 1.0]),
    "string-goal-entry": ("goal_embedding", ["1.5", 1.0, 0.0, 1.0]),
    "boolean-step-entry": ("obs_embeddings", [[1.0, 0.0, 1.0, False]]),
    "string-step-entry": ("obs_embeddings", [[1.0, 0.0, "1.5", 1.0]]),
}


def write_mistyped_store(path, case: str, separators=None) -> int:
    """Write a two-record store with one mistyped field; return its line number.

    ``separators`` is passed to ``json.dumps``; the default is the layout
    ``TrajectoryDB.save`` writes.
    """
    name, value = MISTYPED_STORE_FIELDS[case]
    lines = [{"format": "prag-trajectory-db", "version": 1, "dimension": 4}]
    for task_id in ("a", "b"):
        record = TaskRecord(
            task_id=task_id,
            iteration=1,
            goal_text="g",
            goal_embedding=np.ones(4),
            obs_embeddings=(np.ones(4),),
            history=(("done()", ""),),
            done=True,
        )
        lines.append(json.loads(record.to_json_line()))
    line = 1 if name == "dimension" else 3
    lines[line - 1][name] = value
    path.write_text("".join(json.dumps(data, separators=separators) + "\n" for data in lines))
    return line
