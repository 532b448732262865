"""Grid-world state and low-level dynamics.

An 8-action household world in the MINI-BEHAVIOR mold: the agent occupies a
cell, faces one of four headings, and interacts with the cell directly in
front of it. Landmarks (furniture) block movement and never move; portable
items can be carried one at a time and stack up to three per cell. Invalid
actions are silent no-ops, so dynamics are total and safe to fuzz.
``World.observe`` returns a private copy of the world, nothing more.

Snapshots are copy-on-write. Object states are frozen and cell stacks are
tuples, so an action replaces the one state and the one or two stacks it
changes, and a copy is two shallow dict copies that share everything else
with the world it was taken from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scene_graph import AGENT_LABEL, RELATION_NAMES, check_label

Cell = tuple[int, int]

HEADING_ORDER = ("N", "E", "S", "W")
HEADING_DELTAS: dict[str, Cell] = {
    "N": (0, -1),
    "E": (1, 0),
    "S": (0, 1),
    "W": (-1, 0),
}

LOW_LEVEL_ACTIONS = (
    "turn_left",
    "turn_right",
    "forward",
    "pickup",
    "drop",
    "toggle",
    "open",
    "close",
)

# Max portable items per cell. Furniture does not count against it, otherwise
# a sink could never hold three plants.
CELL_ITEM_CAPACITY = 3


@dataclass(frozen=True)
class Kind:
    """Static properties of an object kind."""

    name: str
    landmark: bool = False
    container: bool = False
    toggleable: bool = False
    openable: bool = False


KINDS: dict[str, Kind] = {
    k.name: k
    for k in (
        Kind("sink", landmark=True, container=True, toggleable=True),
        Kind("table", landmark=True),
        Kind("counter", landmark=True),
        Kind("cabinet", landmark=True, container=True, openable=True),
        Kind("box", landmark=True, container=True, openable=True),
        Kind("coffee_maker", landmark=True, toggleable=True),
        Kind("plant"),
        Kind("mug"),
        Kind("key"),
        Kind("ball"),
        Kind("book"),
        Kind("towel"),
    )
}


@dataclass(frozen=True)
class ObjectState:
    """One object instance. ``position`` is None while held by the agent.

    Frozen: a change replaces the state, so world copies can share every
    state that did not change.
    """

    label: str
    kind: str
    landmark: bool
    container: bool
    toggleable: bool
    openable: bool
    position: Cell | None
    toggled: bool = False
    open: bool = False

    # One constructor call: ``dataclasses.replace`` reads every field by
    # name and costs several times as much.
    def changed(self, position: Cell | None, toggled: bool, open: bool) -> "ObjectState":
        """This object with its mutable fields set to the given values."""
        return ObjectState(
            self.label, self.kind, self.landmark, self.container, self.toggleable,
            self.openable, position, toggled, open,
        )


def turn(heading: str, direction: str) -> str:
    index = HEADING_ORDER.index(heading)
    step = -1 if direction == "left" else 1
    return HEADING_ORDER[(index + step) % 4]


class World:
    """Mutable grid-world state: layout, objects, and the agent."""

    def __init__(
        self,
        width: int,
        height: int,
        walls: frozenset[Cell] = frozenset(),
        agent_position: Cell = (1, 1),
        agent_heading: str = "N",
    ):
        if width < 3 or height < 3:
            raise ValueError(f"world must be at least 3x3, got {width}x{height}")
        self.width = width
        self.height = height
        for cell in walls:
            if not self.in_bounds(cell):
                raise ValueError(f"wall out of bounds: {cell}")
        if agent_heading not in HEADING_ORDER:
            raise ValueError(f"unknown heading: {agent_heading!r}")
        self.walls = frozenset(walls)
        self.objects: dict[str, ObjectState] = {}
        self._stacks: dict[Cell, tuple[str, ...]] = {}
        self.agent_position = agent_position
        self.agent_heading = agent_heading
        self.agent_inventory: str | None = None
        if not self.in_bounds(agent_position) or agent_position in self.walls:
            raise ValueError(f"agent placed on wall or out of bounds: {agent_position}")

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def stacks(self) -> dict[Cell, tuple[str, ...]]:
        """All occupied cells and their stacks, bottom to top."""
        return dict(self._stacks)

    def portable_count(self, cell: Cell) -> int:
        return sum(
            1 for label in self._stacks.get(cell, ()) if not self.objects[label].landmark
        )

    def navigable(self, cell: Cell) -> bool:
        """Agent can stand here: in bounds, no wall, no landmark."""
        if not self.in_bounds(cell) or cell in self.walls:
            return False
        return not any(
            self.objects[label].landmark for label in self._stacks.get(cell, ())
        )

    def navigable_grid(self) -> np.ndarray:
        """``navigable`` for every cell, indexed ``[y, x]``."""
        grid = np.ones((self.height, self.width), dtype=bool)
        for x, y in self.walls:
            grid[y, x] = False
        for obj in self.objects.values():
            if obj.landmark:  # never picked up, so always placed
                x, y = obj.position
                grid[y, x] = False
        return grid

    def faced_cell(self) -> Cell:
        dx, dy = HEADING_DELTAS[self.agent_heading]
        x, y = self.agent_position
        return (x + dx, y + dy)

    def place_object(
        self,
        label: str,
        kind: str,
        cell: Cell,
        toggled: bool = False,
        open: bool = False,
    ) -> ObjectState:
        """Add an object at construction time. Raises on layout violations."""
        check_label(label)  # scene_graph.extract trusts every label it reads
        if label in self.objects or label == AGENT_LABEL:
            raise ValueError(f"duplicate or reserved label: {label!r}")
        if kind not in KINDS:
            raise ValueError(f"unknown object kind: {kind!r}")
        if not self.in_bounds(cell) or cell in self.walls:
            raise ValueError(f"object {label!r} placed on wall or out of bounds: {cell}")
        info = KINDS[kind]
        if info.landmark:
            if not self.navigable(cell):
                raise ValueError(f"landmark {label!r} overlaps another landmark: {cell}")
            if cell == self.agent_position:
                raise ValueError(f"landmark {label!r} placed on the agent: {cell}")
        elif self.portable_count(cell) >= CELL_ITEM_CAPACITY:
            raise ValueError(f"cell {cell} already holds {CELL_ITEM_CAPACITY} items")
        state = ObjectState(
            label=label,
            kind=kind,
            landmark=info.landmark,
            container=info.container,
            toggleable=info.toggleable,
            openable=info.openable,
            position=cell,
            toggled=toggled,
            open=open,
        )
        if toggled and not info.toggleable:
            raise ValueError(f"{label!r} ({kind}) cannot start toggled")
        if open and not info.openable:
            raise ValueError(f"{label!r} ({kind}) cannot start open")
        self.objects[label] = state
        self._stacks[cell] = self._stacks.get(cell, ()) + (label,)
        return state

    def _sealed(self, cell: Cell) -> bool:
        """True when a closed openable container occupies ``cell``."""
        return any(
            self.objects[label].openable
            and self.objects[label].container
            and not self.objects[label].open
            for label in self._stacks.get(cell, ())
        )

    def _remove_from_cell(self, label: str) -> None:
        obj = self.objects[label]
        stack = tuple(other for other in self._stacks[obj.position] if other != label)
        if stack:
            self._stacks[obj.position] = stack
        else:
            del self._stacks[obj.position]
        self.objects[label] = obj.changed(None, obj.toggled, obj.open)

    def _place_in_cell(self, label: str, cell: Cell) -> None:
        obj = self.objects[label]
        self.objects[label] = obj.changed(cell, obj.toggled, obj.open)
        self._stacks[cell] = self._stacks.get(cell, ()) + (label,)

    def apply_action(self, action: str) -> None:
        """Execute one low-level action; impossible actions are no-ops."""
        if action == "turn_left":
            self.agent_heading = turn(self.agent_heading, "left")
        elif action == "turn_right":
            self.agent_heading = turn(self.agent_heading, "right")
        elif action == "forward":
            target = self.faced_cell()
            if self.navigable(target):
                self.agent_position = target
        elif action == "pickup":
            if self.agent_inventory is not None:
                return
            cell = self.faced_cell()
            if self._sealed(cell):
                return
            for label in reversed(self._stacks.get(cell, ())):
                if not self.objects[label].landmark:
                    self._remove_from_cell(label)
                    self.agent_inventory = label
                    return
        elif action == "drop":
            if self.agent_inventory is None:
                return
            cell = self.faced_cell()
            if not self.in_bounds(cell) or cell in self.walls:
                return
            if self._sealed(cell):
                return
            if self.portable_count(cell) >= CELL_ITEM_CAPACITY:
                return
            self._place_in_cell(self.agent_inventory, cell)
            self.agent_inventory = None
        elif action == "toggle":
            for label in self._stacks.get(self.faced_cell(), ()):
                obj = self.objects[label]
                if obj.toggleable:
                    self.objects[label] = obj.changed(obj.position, not obj.toggled, obj.open)
                    return
        elif action == "open":
            for label in self._stacks.get(self.faced_cell(), ()):
                obj = self.objects[label]
                if obj.openable:
                    self.objects[label] = obj.changed(obj.position, obj.toggled, True)
                    return
        elif action == "close":
            for label in self._stacks.get(self.faced_cell(), ()):
                obj = self.objects[label]
                if obj.openable:
                    self.objects[label] = obj.changed(obj.position, obj.toggled, False)
                    return
        else:
            raise ValueError(f"unknown low-level action: {action!r}")

    def relation_query(self, subject: str, obj: str, name: str) -> bool:
        """Decide one relation triple against the current state.

        ``scene_graph.extract`` derives every true triple at once from the
        stacks; this per-triple definition is the reference it is tested
        against.
        """
        if name not in RELATION_NAMES:
            raise ValueError(f"unknown relation name: {name!r}")
        if name == "held_by":
            if subject not in self.objects:
                raise ValueError(f"unknown object label: {subject!r}")
            if obj != AGENT_LABEL:
                return False
            return self.agent_inventory == subject
        s = self.objects.get(subject)
        o = self.objects.get(obj)
        if s is None or o is None:
            missing = subject if s is None else obj
            raise ValueError(f"unknown object label: {missing!r}")
        if name == "toggled_on":
            return subject == obj and s.toggleable and s.toggled
        if name == "is_open":
            return subject == obj and s.openable and s.open
        # Spatial relations are irreflexive and false for anything held.
        if subject == obj or s.position is None or o.position is None:
            return False
        if name == "next_to":
            dx = abs(s.position[0] - o.position[0])
            dy = abs(s.position[1] - o.position[1])
            return max(dx, dy) <= 1
        if name == "inside_of":
            return s.position == o.position and o.container
        if name == "on_top_of":
            if o.container or s.position != o.position:
                return False
            stack = self._stacks[s.position]
            return stack.index(subject) == stack.index(obj) + 1
        raise AssertionError(f"unhandled relation: {name}")

    def copy(self) -> "World":
        """Two shallow dict copies: walls, object states and stacks are immutable and shared."""
        clone = World.__new__(World)
        clone.width = self.width
        clone.height = self.height
        clone.walls = self.walls
        clone.objects = dict(self.objects)
        clone._stacks = dict(self._stacks)
        clone.agent_position = self.agent_position
        clone.agent_heading = self.agent_heading
        clone.agent_inventory = self.agent_inventory
        return clone

    def observe(self) -> "World":
        """A private snapshot: the copy every reader of one planning step reads.

        The live world never writes to a copy it handed out (it replaces the
        states and stacks it changes instead of editing them), so the copy's
        objects, stacks, walls and navigable grid keep describing the moment
        of observation after the simulator moves on. Readers take the agent's
        pose from ``agent_position`` and ``agent_heading`` and each object's
        flags from its ``ObjectState``; the held object is the one whose
        ``position`` is None.
        """
        return self.copy()
