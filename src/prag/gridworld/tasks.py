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

from .world import Cell, World

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
    where = "goal_predicate."
    kind = _field(params, "kind", str, where)
    if kind == "placed_at":
        return PlacedAt(
            item=_field(params, "item", str, where), target=_field(params, "target", str, where)
        )
    if kind == "items_in_container_toggled":
        items = _field(params, "items", list, where)
        if not items or not all(isinstance(item, str) for item in items):
            raise TaskFileError("items_in_container_toggled needs a non-empty list of labels")
        return ItemsInContainerToggled(
            items=tuple(items), container=_field(params, "container", str, where)
        )
    if kind == "agent_holds":
        return AgentHolds(item=_field(params, "item", str, where))
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


_REQUIRED = object()


def _field(mapping: dict, key: str, kind: type, where: str = "", default=_REQUIRED):
    """``mapping[key]``, checked to be a ``kind``; ``where`` prefixes the key in errors."""
    if key not in mapping:
        if default is _REQUIRED:
            raise TaskFileError(f"missing required key '{where}{key}'")
        return default
    value = mapping[key]
    # YAML reads true and false as bools, which Python counts as ints.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise TaskFileError(f"{where}{key} must be {kind.__name__}, got {value!r}")
    return value


def _resolve_cell(spec, anchors: dict[str, Cell], placed: dict[str, Cell]) -> Cell:
    if isinstance(spec, str):
        if spec in anchors:
            return anchors[spec]
        if spec in placed:
            return placed[spec]
        raise TaskFileError(f"unknown placement anchor or label: {spec!r}")
    if (
        isinstance(spec, list)
        and len(spec) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in spec)
    ):
        return (spec[0], spec[1])
    raise TaskFileError(f"bad cell spec: {spec!r}")


def load_task_text(text: str, source: str = "<string>") -> Task:
    """Parse one task from YAML text. Raises TaskFileError with context.

    Every key is checked for its type where it is read, so a malformed file
    raises TaskFileError, never another exception.
    """
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise TaskFileError(f"{source}: invalid YAML: {exc}")
    if not isinstance(data, dict):
        raise TaskFileError(f"{source}: task document must be a mapping")

    try:
        task_id = _field(data, "id", str)
        goal = _field(data, "goal", str)
        width, height, walls, anchors = _parse_grid(_field(data, "grid", str))
        agent_spec = _field(data, "agent", dict)
        agent_cell = _resolve_cell(agent_spec.get("at"), anchors, {})
        world = World(
            width,
            height,
            walls=walls,
            agent_position=agent_cell,
            agent_heading=_field(agent_spec, "heading", str, "agent.", "N"),
        )

        placed: dict[str, Cell] = {}
        for label, spec in _field(data, "objects", dict, default={}).items():
            if not (isinstance(label, str) and _LABEL_RE.match(label)):
                raise TaskFileError(f"illegal object label: {label!r}")
            where = f"objects.{label}."
            if not isinstance(spec, dict):
                raise TaskFileError(f"objects.{label} must be dict, got {spec!r}")
            # YAML 1.1 reads a bare `on:` key as boolean True.
            spec = {("on" if key is True else key): v for key, v in spec.items()}
            where_keys = [k for k in ("at", "on", "in") if k in spec]
            if len(where_keys) != 1:
                raise TaskFileError(
                    f"object {label!r} needs exactly one of at/on/in placement"
                )
            cell = _resolve_cell(spec[where_keys[0]], anchors, placed)
            world.place_object(
                label,
                _field(spec, "kind", str, where),
                cell,
                toggled=_field(spec, "toggled", bool, where, False),
                open=_field(spec, "open", bool, where, False),
            )
            placed[label] = cell

        if not world.navigable(agent_cell):
            raise TaskFileError(f"agent start cell {agent_cell} is blocked")

        predicate = predicate_from_params(_field(data, "goal_predicate", dict))
        return Task(
            id=task_id,
            goal=goal,
            world=world,
            predicate=predicate,
            max_steps=_field(data, "max_steps", int, default=DEFAULT_MAX_STEPS),
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
