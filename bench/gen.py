"""Seeded task generator for the benchmark.

Emits task YAML in the three goal shapes the program knows (``placed_at``,
``items_in_container_toggled``, ``agent_holds``). Every task is loaded with
``load_task_text`` and solved with ``shortest_solution_steps`` before it is
written, so a generated suite never holds a task the program rejects.

A task is an *activity* (its goal text) placed in a room. The activity fixes
the object inventory and labels, as an activity definition does in household
benchmarks: two tasks with the same goal text hold the same objects under
the same labels and differ only in layout. A trajectory the replay-oracle
retrieves for the same goal therefore names objects that exist. Task ``i``
of a suite has the same activity and room size under every seed; the seed
decides positions, placements and headings. That keeps the amount of work in
a suite close across seeds.

The solver's breadth-first state space is roughly
cells x 4 headings x 2 (holding or not) x 2^flags x multisets of goal-item
positions, and it keeps every visited state in memory. A room size whose
estimate exceeds ``MAX_SOLVER_STATES`` is never drawn, so no such task is
solved: an uncapped three-item sink goal on a large grid can exhaust
the machine's memory, and a few slow solves would dominate a run's time.

Output is a pure function of (seed, prefix, count): the same
arguments give byte-identical files. The solver memoizes its answer by task
id for the life of the process, so a later candidate that reuses an id the
process already solved would pass unchecked: call ``generate`` once per
prefix in a process, as ``workloads.py`` does.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from prag.gridworld.solver import (
    SolverLimitation,
    UnsolvableTaskError,
    shortest_solution_steps,
)
from prag.gridworld.tasks import TaskFileError, load_task_text

MAX_SIZES_PER_TASK = 20
DRAWS_PER_SIZE = 25

LANDMARKS = ("sink", "table", "counter", "cabinet", "box", "coffee_maker")
OPENABLE = ("cabinet", "box")
CONTAINERS = ("cabinet", "box", "sink")
PORTABLES = ("plant", "mug", "key", "ball", "book", "towel")
CAPACITY = 3


# Bundled-suite size: small rooms, every goal shape, closed containers.
WIDTH = (5, 9)
HEIGHT = (5, 9)
LANDMARKS_PER_TASK = (2, 4)
PORTABLES_PER_TASK = (2, 4)
GOALS = ("placed_at", "items_in_container_toggled", "agent_holds")
MAX_STEPS = 60
MAX_SOLVER_STATES = 200_000
STREAM = "prag-bench/household"


class Redraw(Exception):
    """The drawn layout breaks a generator rule; draw again."""


@dataclass(frozen=True)
class Activity:
    """A goal and the objects that come with it, the same in every room."""

    goal: str
    text: str
    goal_kind: str
    goal_items: int
    anchor: str | None  # placed_at target or agent_holds container, as a label
    landmark_kinds: tuple[str, ...]
    scenery_kinds: tuple[str, ...]


def _words(kind: str) -> str:
    return kind.replace("_", " ")


def _activity(rng: random.Random, goal: str) -> Activity:
    """Draw a goal; its inventory comes from a stream keyed by the goal text."""
    goal_kind = rng.choice(PORTABLES)
    if goal == "placed_at":
        anchor_kind = rng.choice(LANDMARKS)
        prep = "in" if anchor_kind in CONTAINERS else "on"
        text = f"Put the {_words(goal_kind)} {prep} the {_words(anchor_kind)}"
    elif goal == "items_in_container_toggled":
        anchor_kind = "sink"
        text = f"Wash the {_words(goal_kind)}s in the sink"
    else:
        anchor_kind = rng.choice([None] + [k for k in LANDMARKS if k in OPENABLE])
        if anchor_kind is None:
            text = f"Pick up the {_words(goal_kind)}"
        else:
            text = f"Fetch the {_words(goal_kind)} from the {_words(anchor_kind)}"

    inventory = random.Random(f"{STREAM}/activity/{text}")
    n_landmarks = inventory.randint(*LANDMARKS_PER_TASK)
    n_portables = inventory.randint(*PORTABLES_PER_TASK)
    kinds = [anchor_kind] if anchor_kind is not None else []
    while len(kinds) < n_landmarks:
        kinds.append(inventory.choice(LANDMARKS))
    goal_items = 1
    if goal == "items_in_container_toggled":
        goal_items = inventory.randint(1, min(3, n_portables))
    return Activity(
        goal=goal,
        text=text,
        goal_kind=goal_kind,
        goal_items=goal_items,
        anchor=f"{anchor_kind}_1" if anchor_kind is not None else None,
        landmark_kinds=tuple(kinds),
        scenery_kinds=tuple(inventory.choice(PORTABLES) for _ in range(n_portables - goal_items)),
    )


def solver_states(activity: Activity, width: int, height: int) -> int:
    """Upper estimate of the solver's state count for this activity and room."""
    cells = (width - 2) * (height - 2)
    flags = sum(1 for kind in activity.landmark_kinds if kind in OPENABLE)
    flags += activity.goal == "items_in_container_toggled"
    multisets = math.comb(cells + activity.goal_items - 1, activity.goal_items)
    return cells * 4 * 2 * 2**flags * multisets


def _connected(free: set, start) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for nxt in ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y)):
            if nxt in free and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _draw(rng: random.Random, task_id: str, activity: Activity, width: int, height: int) -> str:
    """The YAML text of one candidate layout of the activity."""
    interior = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)]
    counters: dict[str, int] = {}

    def label_for(kind: str) -> str:
        counters[kind] = counters.get(kind, 0) + 1
        return f"{kind}_{counters[kind]}"

    cells = rng.sample(interior, len(activity.landmark_kinds) + 1)
    agent = cells[0]
    landmarks = [(label_for(kind), kind, cell) for kind, cell in zip(activity.landmark_kinds, cells[1:])]
    cell_of = {label: cell for label, _, cell in landmarks}

    reach = _connected(set(interior) - set(cell_of.values()), agent)
    for label, _, (x, y) in landmarks:
        if not any(n in reach for n in ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y))):
            raise Redraw(f"{label} cannot be reached")
    floor = sorted(reach - {agent})
    if not floor:
        raise Redraw("no free floor")

    # Goal items take the first labels of their kind; they are written last
    # so that no scenery rests on top of a goal item.
    goal_labels = [label_for(activity.goal_kind) for _ in range(activity.goal_items)]
    scenery_labels = [label_for(kind) for kind in activity.scenery_kinds]

    load: dict = {}
    placements: dict[str, str] = {}

    def put(label: str, cell, where: str) -> bool:
        if load.get(cell, 0) >= CAPACITY:
            return False
        load[cell] = load.get(cell, 0) + 1
        placements[label] = where
        return True

    def place(label: str, hosts: list) -> None:
        for _ in range(20):
            if hosts and rng.random() < 0.5:
                host_label, host_kind, cell = rng.choice(hosts)
                prep = "in" if host_kind in CONTAINERS else '"on"'
                where = f"{prep}: {host_label}"
            else:
                cell = rng.choice(floor)
                where = f"at: [{cell[0]}, {cell[1]}]"
            if put(label, cell, where):
                return
        raise Redraw("no room for portable items")

    for label in scenery_labels:
        place(label, landmarks)
    if activity.goal == "agent_holds" and activity.anchor is not None:
        if not put(goal_labels[0], cell_of[activity.anchor], f"in: {activity.anchor}"):
            raise Redraw("container is full")
    else:
        hosts = [lm for lm in landmarks if lm[1] not in OPENABLE and lm[0] != activity.anchor]
        for label in goal_labels:
            place(label, hosts)
    if activity.goal == "placed_at" and load.get(cell_of[activity.anchor], 0) >= CAPACITY:
        raise Redraw("target is full")

    if activity.goal == "placed_at":
        predicate = ["  kind: placed_at", f"  item: {goal_labels[0]}", f"  target: {activity.anchor}"]
    elif activity.goal == "items_in_container_toggled":
        predicate = [
            "  kind: items_in_container_toggled",
            f"  items: [{', '.join(goal_labels)}]",
            f"  container: {activity.anchor}",
        ]
    else:
        predicate = ["  kind: agent_holds", f"  item: {goal_labels[0]}"]

    lines = [f"id: {task_id}", f"goal: {activity.text}", f"max_steps: {MAX_STEPS}", "grid: |"]
    for y in range(height):
        row = "".join("#" if x in (0, width - 1) or y in (0, height - 1) else "." for x in range(width))
        lines.append(f"  {row}")
    lines.append("objects:")
    for label, kind, cell in landmarks:
        extra = ", open: true" if kind in OPENABLE and rng.random() < 0.3 else ""
        lines.append(f"  {label}: {{kind: {kind}, at: [{cell[0]}, {cell[1]}]{extra}}}")
    for label in scenery_labels + goal_labels:
        lines.append(f"  {label}: {{kind: {label.rsplit('_', 1)[0]}, {placements[label]}}}")
    lines.append("agent:")
    lines.append(f"  at: [{agent[0]}, {agent[1]}]")
    lines.append(f"  heading: {rng.choice('NESW')}")
    lines.append("goal_predicate:")
    lines.extend(predicate)
    return "\n".join(lines) + "\n"


def _first_valid(rng: random.Random, task_id: str, activity: Activity,
                 width: int, height: int) -> str | None:
    for _ in range(DRAWS_PER_SIZE):
        try:
            text = _draw(rng, task_id, activity, width, height)
        except Redraw:
            continue
        try:
            shortest_solution_steps(load_task_text(text, source=task_id))
        except (TaskFileError, SolverLimitation, UnsolvableTaskError):
            continue
        return text
    return None


def generate(seed: int, prefix: str, count: int) -> list[tuple[str, str]]:
    """``count`` solvable tasks as (task id, yaml text), reproducible per seed."""
    tasks = []
    for index in range(count):
        task_id = f"{prefix}_{index:04d}"
        rng = random.Random(f"{STREAM}/{prefix}/{seed}/{index}")
        shape = random.Random(f"{STREAM}/{prefix}/shape/{index}")
        activity = _activity(shape, GOALS[index % len(GOALS)])
        sizes = [
            (width, height)
            for width in range(WIDTH[0], WIDTH[1] + 1)
            for height in range(HEIGHT[0], HEIGHT[1] + 1)
            if solver_states(activity, width, height) <= MAX_SOLVER_STATES
        ]
        text = None
        for _ in range(MAX_SIZES_PER_TASK if sizes else 0):
            width, height = shape.choice(sizes)
            text = _first_valid(rng, task_id, activity, width, height)
            if text is not None:
                break
        if text is None:
            raise RuntimeError(f"no valid task for {task_id}")
        tasks.append((task_id, text))
    return tasks


def write_suite(directory: Path, tasks: list[tuple[str, str]]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for task_id, text in tasks:
        (directory / f"{task_id}.yaml").write_text(text, encoding="utf-8")
