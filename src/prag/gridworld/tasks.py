"""Task definitions: an initial world, a goal instruction, a goal predicate.

Tasks load from YAML files that carry the room as ASCII rows plus object and
goal declarations. Single letters in the grid act as placement anchors so a
task file reads like a floor plan. The bundled everyday-task suite ships as
such files under ``prag/gridworld/suite/``.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .world import HEADING_ORDER, KINDS, Cell, World

DEFAULT_MAX_STEPS = 60

# libyaml's parser when PyYAML was built with it: about 10x faster on task
# files, same documents.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_ANCHOR_RE = re.compile(r"^[A-Za-z]$")


class TaskFileError(Exception):
    """Raised when a task file is malformed or describes an illegal world."""


class GoalPredicate(ABC):
    """Decidable success condition over a world state."""

    kind: str

    @abstractmethod
    def holds(self, world: World) -> bool: ...

    @abstractmethod
    def relevant_labels(self) -> tuple[str, ...]:
        """Objects whose configuration the predicate depends on."""


@dataclass(frozen=True)
class PlacedAt(GoalPredicate):
    """Item rests in the same cell as the target object."""

    item: str
    target: str
    kind = "placed_at"

    def holds(self, world: World) -> bool:
        item = world.objects[self.item]
        target = world.objects[self.target]
        return item.position is not None and item.position == target.position

    def relevant_labels(self) -> tuple[str, ...]:
        return (self.item, self.target)


@dataclass(frozen=True)
class ItemsInContainerToggled(GoalPredicate):
    """Every item sits in the container's cell and the container is on."""

    items: tuple[str, ...]
    container: str
    kind = "items_in_container_toggled"

    def holds(self, world: World) -> bool:
        target = world.objects[self.container]
        if not target.toggled:
            return False
        return all(
            world.objects[item].position == target.position for item in self.items
        )

    def relevant_labels(self) -> tuple[str, ...]:
        return tuple(self.items) + (self.container,)


@dataclass(frozen=True)
class AgentHolds(GoalPredicate):
    """The agent carries the item (retrieval goals)."""

    item: str
    kind = "agent_holds"

    def holds(self, world: World) -> bool:
        return world.agent_inventory == self.item

    def relevant_labels(self) -> tuple[str, ...]:
        return (self.item,)


def predicate_from_params(params: dict) -> GoalPredicate:
    kind = params.get("kind")
    if kind == "placed_at":
        return PlacedAt(item=params["item"], target=params["target"])
    if kind == "items_in_container_toggled":
        items = params["items"]
        if not isinstance(items, list) or not items:
            raise TaskFileError("items_in_container_toggled needs a non-empty items list")
        return ItemsInContainerToggled(items=tuple(items), container=params["container"])
    if kind == "agent_holds":
        return AgentHolds(item=params["item"])
    raise TaskFileError(f"unknown goal predicate kind: {kind!r}")


@dataclass
class Task:
    """Immutable task template. ``world`` is copied by the simulator on reset."""

    id: str
    goal: str
    world: World
    predicate: GoalPredicate
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        if not _LABEL_RE.match(self.id):
            raise TaskFileError(f"illegal task id: {self.id!r}")
        if not self.goal.strip():
            raise TaskFileError("goal instruction must be non-empty")
        if self.max_steps < 1:
            raise TaskFileError(f"max_steps must be >= 1, got {self.max_steps}")
        for label in self.predicate.relevant_labels():
            if label not in self.world.objects:
                raise TaskFileError(f"goal references unknown object: {label!r}")
        if self.predicate.holds(self.world):
            raise TaskFileError("goal predicate already holds in the initial world")


def _parse_grid(grid_text: str) -> tuple[int, int, frozenset[Cell], dict[str, Cell]]:
    rows = [line for line in grid_text.splitlines() if line.strip()]
    if not rows:
        raise TaskFileError("grid is empty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise TaskFileError("grid rows have unequal width")
    walls: set[Cell] = set()
    anchors: dict[str, Cell] = {}
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch == "#":
                walls.add((x, y))
            elif ch == ".":
                continue
            elif _ANCHOR_RE.match(ch):
                if ch in anchors:
                    raise TaskFileError(f"duplicate grid anchor {ch!r}")
                anchors[ch] = (x, y)
            else:
                raise TaskFileError(f"illegal grid character {ch!r} at {(x, y)}")
    return width, len(rows), frozenset(walls), anchors


def _resolve_cell(spec, anchors: dict[str, Cell], placed: dict[str, Cell]) -> Cell:
    if isinstance(spec, str):
        if spec in anchors:
            return anchors[spec]
        if spec in placed:
            return placed[spec]
        raise TaskFileError(f"unknown placement anchor or label: {spec!r}")
    if isinstance(spec, list) and len(spec) == 2:
        return (int(spec[0]), int(spec[1]))
    raise TaskFileError(f"bad cell spec: {spec!r}")


def load_task_text(text: str, source: str = "<string>") -> Task:
    """Parse one task from YAML text. Raises TaskFileError with context."""
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise TaskFileError(f"{source}: invalid YAML: {exc}")
    if not isinstance(data, dict):
        raise TaskFileError(f"{source}: task document must be a mapping")

    try:
        task_id = data["id"]
        goal = data["goal"]
        grid_text = data["grid"]
        object_specs = data.get("objects", {})
        agent_spec = data["agent"]
        predicate_params = data["goal_predicate"]
    except KeyError as exc:
        raise TaskFileError(f"{source}: missing required key {exc}")

    try:
        width, height, walls, anchors = _parse_grid(grid_text)

        agent_cell = _resolve_cell(agent_spec.get("at"), anchors, {})
        heading = agent_spec.get("heading", "N")
        if heading not in HEADING_ORDER:
            raise TaskFileError(f"unknown agent heading: {heading!r}")
        world = World(
            width,
            height,
            walls=walls,
            agent_position=agent_cell,
            agent_heading=heading,
        )

        if not isinstance(object_specs, dict):
            raise TaskFileError("objects must be a mapping of label to spec")
        placed: dict[str, Cell] = {}
        for label, spec in object_specs.items():
            if isinstance(spec, dict):
                # YAML 1.1 reads a bare `on:` key as boolean True.
                spec = {("on" if key is True else key): v for key, v in spec.items()}
            if not _LABEL_RE.match(str(label)):
                raise TaskFileError(f"illegal object label: {label!r}")
            if not isinstance(spec, dict) or "kind" not in spec:
                raise TaskFileError(f"object {label!r} needs a kind")
            kind = spec["kind"]
            if kind not in KINDS:
                raise TaskFileError(f"object {label!r} has unknown kind {kind!r}")
            where_keys = [k for k in ("at", "on", "in") if k in spec]
            if len(where_keys) != 1:
                raise TaskFileError(
                    f"object {label!r} needs exactly one of at/on/in placement"
                )
            cell = _resolve_cell(spec[where_keys[0]], anchors, placed)
            try:
                world.place_object(
                    label,
                    kind,
                    cell,
                    toggled=bool(spec.get("toggled", False)),
                    open=bool(spec.get("open", False)),
                )
            except ValueError as exc:
                raise TaskFileError(str(exc))
            placed[label] = cell

        if not world.navigable(agent_cell):
            raise TaskFileError(f"agent start cell {agent_cell} is blocked")

        predicate = predicate_from_params(predicate_params)
        return Task(
            id=str(task_id),
            goal=str(goal),
            world=world,
            predicate=predicate,
            max_steps=int(data.get("max_steps", DEFAULT_MAX_STEPS)),
        )
    except TaskFileError as exc:
        raise TaskFileError(f"{source}: {exc}") from None
    except ValueError as exc:
        raise TaskFileError(f"{source}: {exc}") from None


def load_task_file(path: str | Path) -> Task:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TaskFileError(f"cannot read task file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise TaskFileError(f"task file {path} is not UTF-8 text: {exc}")
    return load_task_text(text, source=str(path))


def load_task_dir(path: str | Path) -> list[Task]:
    """Load every *.yaml task in a directory, ordered by task id.

    An existing directory with no task files yields an empty suite; a missing
    path is an error.
    """
    path = Path(path)
    if not path.is_dir():
        raise TaskFileError(f"task directory not found: {path}")
    files = sorted(path.glob("*.yaml"))
    tasks = [load_task_file(f) for f in files]
    ids = [t.id for t in tasks]
    if len(set(ids)) != len(ids):
        raise TaskFileError(f"duplicate task ids in {path}")
    return sorted(tasks, key=lambda t: t.id)


def bundled_suite() -> list[Task]:
    """The everyday-task suite shipped with the package, ordered by task id."""
    suite_dir = resources.files("prag.gridworld") / "suite"
    tasks = []
    for entry in sorted(suite_dir.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            tasks.append(load_task_text(entry.read_text(encoding="utf-8"), source=entry.name))
    return sorted(tasks, key=lambda t: t.id)


def bundled_task(task_id: str) -> Task:
    for task in bundled_suite():
        if task.id == task_id:
            return task
    raise KeyError(f"no bundled task named {task_id!r}")
