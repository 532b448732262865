"""Exact shortest-solution lengths, by breadth-first search.

The search runs over (agent pose, inventory, goal-relevant object
configuration) states with the real 8-action dynamics, so the result is the
true minimal number of low-level steps. Two deliberate restrictions keep the
state space tractable:

* objects the goal predicate does not mention are treated as immovable
  scenery (they still count against cell capacity and container sealing);
* all goal-relevant portable items must share one kind, so their positions
  fold into a multiset (same-kind items are interchangeable under both the
  dynamics and the bundled predicates).

Worlds where an optimal plan would have to relocate scenery are outside this
model; the bundled suite never needs that, and the test suite cross-checks
the solver against exhaustive search driven through the simulator itself.
"""

from __future__ import annotations

from dataclasses import astuple

from .tasks import AgentHolds, GoalPredicate, ItemsInContainerToggled, PlacedAt, Task
from .world import CELL_ITEM_CAPACITY, HEADING_DELTAS, HEADING_ORDER, World

_CACHE: dict[tuple, int] = {}


class UnsolvableTaskError(Exception):
    """The goal cannot be reached from the initial world."""


class SolverLimitation(Exception):
    """The task falls outside the solver's state model."""


def shortest_solution_steps(task: Task) -> int:
    """Minimal number of low-level actions that completes ``task``.

    Memoized for the lifetime of the process by the initial world and the
    goal predicate, the only inputs of the search; tasks that share an id
    but not a layout each get their own optimum.
    """
    key = _problem_key(task)
    if key not in _CACHE:
        _CACHE[key] = _solve(task)
    return _CACHE[key]


def _problem_key(task: Task) -> tuple:
    world = task.world
    return (
        task.predicate,
        world.width,
        world.height,
        world.walls,
        world.agent_position,
        world.agent_heading,
        world.agent_inventory,
        tuple(astuple(world.objects[label]) for label in sorted(world.objects)),
        tuple(sorted(world.stacks().items())),
    )


def _goal_check(predicate: GoalPredicate, cell_index, world: World):
    """Compile the predicate into a fast check over encoded states."""
    if isinstance(predicate, PlacedAt):
        target_cell = world.objects[predicate.target].position
        target = cell_index[target_cell]

        def check(held: int, flags: int, positions: tuple[int, ...]) -> bool:
            return positions == (target,)

        return check
    if isinstance(predicate, ItemsInContainerToggled):
        container_cell = world.objects[predicate.container].position
        target = cell_index[container_cell]
        count = len(predicate.items)

        def check(held: int, flags: int, positions: tuple[int, ...]) -> bool:
            # Bit 0 is reserved for the container's toggled flag.
            return (
                flags & 1
                and len(positions) == count
                and all(p == target for p in positions)
            )

        return check
    if isinstance(predicate, AgentHolds):

        def check(held: int, flags: int, positions: tuple[int, ...]) -> bool:
            return held == 1

        return check
    raise SolverLimitation(f"no solver model for predicate {type(predicate).__name__}")


def _solve(task: Task) -> int:
    world = task.world
    predicate = task.predicate

    cells = [
        (x, y)
        for y in range(world.height)
        for x in range(world.width)
        if (x, y) not in world.walls
    ]
    cell_index = {cell: i for i, cell in enumerate(cells)}
    ncells = len(cells)

    relevant = [
        label
        for label in predicate.relevant_labels()
        if not world.objects[label].landmark
    ]
    kinds = {world.objects[label].kind for label in relevant}
    if len(kinds) != 1:
        raise SolverLimitation(
            f"goal-relevant items must share one kind, got {sorted(kinds)}"
        )
    relevant_set = set(relevant)

    # Scenery: portable objects the goal does not mention. They must not sit
    # on top of a relevant item, otherwise the relevant item is unreachable
    # under the immovable-scenery model.
    static_count = [0] * ncells
    has_scenery = False
    for cell, stack in world.stacks().items():
        seen_relevant = False
        for label in stack:
            obj = world.objects[label]
            if obj.landmark:
                continue
            if label in relevant_set:
                seen_relevant = True
            else:
                if seen_relevant:
                    raise SolverLimitation(
                        f"scenery item {label!r} rests on a goal item at {cell}"
                    )
                static_count[cell_index[cell]] += 1
                has_scenery = True

    # Dynamic flags, packed into one bitmask. Bit 0 is the goal container's
    # toggled flag when the predicate needs one; open flags of every openable
    # object follow (they gate pickup and drop at their cells).
    flag_bits: dict[tuple[str, str], int] = {}
    next_bit = 0
    if isinstance(predicate, ItemsInContainerToggled):
        flag_bits[("toggled", predicate.container)] = 0
        next_bit = 1
    openables = [label for label, obj in world.objects.items() if obj.openable]
    for label in openables:
        flag_bits[("open", label)] = next_bit
        next_bit += 1

    flags0 = 0
    for (flag, label), bit in flag_bits.items():
        value = world.objects[label].toggled if flag == "toggled" else world.objects[label].open
        if value:
            flags0 |= 1 << bit

    # Per-cell interaction tables.
    sealed_mask = [0] * ncells  # open-flag bits that must be set for access
    toggle_bit = [-1] * ncells  # tracked toggle target, -1 when toggling is a no-op
    open_bit = [-1] * ncells  # first openable in the stack
    for cell, stack in world.stacks().items():
        ci = cell_index[cell]
        for label in stack:
            obj = world.objects[label]
            if obj.openable and obj.container:
                sealed_mask[ci] |= 1 << flag_bits[("open", label)]
            if obj.openable and open_bit[ci] < 0:
                open_bit[ci] = flag_bits[("open", label)]
            if obj.toggleable and toggle_bit[ci] == -1:
                key = ("toggled", label)
                toggle_bit[ci] = flag_bits.get(key, -2)  # -2: untracked, pure no-op

    # Movement tables.
    deltas = [HEADING_DELTAS[h] for h in HEADING_ORDER]
    forward_to = [[-1] * 4 for _ in range(ncells)]
    faced_idx = [[-1] * 4 for _ in range(ncells)]
    for ci, (x, y) in enumerate(cells):
        for h, (dx, dy) in enumerate(deltas):
            target = (x + dx, y + dy)
            ti = cell_index.get(target, -1)
            faced_idx[ci][h] = ti
            if ti >= 0 and world.navigable(target):
                forward_to[ci][h] = ti

    positions0 = tuple(
        sorted(cell_index[world.objects[label].position] for label in relevant)
    )
    agent0 = cell_index[world.agent_position]
    heading0 = HEADING_ORDER.index(world.agent_heading)
    start = (agent0, heading0, 0, flags0, positions0)

    check = _goal_check(predicate, cell_index, world)
    if check(0, flags0, positions0):
        return 0  # Task validation forbids this, but stay total.

    capacity = CELL_ITEM_CAPACITY
    visited = {start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for agent, heading, held, flags, positions in frontier:
            # Turns and forward change only the pose, which no goal check
            # reads, and the parent state already failed the check.
            moves = [
                (agent, (heading - 1) % 4, held, flags, positions),
                (agent, (heading + 1) % 4, held, flags, positions),
            ]
            fwd = forward_to[agent][heading]
            if fwd >= 0:
                moves.append((fwd, heading, held, flags, positions))
            for succ in moves:
                if succ not in visited:
                    visited.add(succ)
                    next_frontier.append(succ)
            succs = []
            faced = faced_idx[agent][heading]
            if faced >= 0:
                sealed = (sealed_mask[faced] & flags) != sealed_mask[faced]
                if held == 0:
                    if not sealed and faced in positions:
                        remaining = list(positions)
                        remaining.remove(faced)
                        succs.append((agent, heading, 1, flags, tuple(remaining)))
                else:
                    load = static_count[faced] + sum(1 for p in positions if p == faced)
                    if not sealed and load < capacity:
                        placed = tuple(sorted(positions + (faced,)))
                        succs.append((agent, heading, 0, flags, placed))
                tb = toggle_bit[faced]
                if tb >= 0:
                    succs.append((agent, heading, held, flags ^ (1 << tb), positions))
                ob = open_bit[faced]
                if ob >= 0:
                    mask = 1 << ob
                    # open when closed, close when open; the other is a no-op
                    succs.append((agent, heading, held, flags ^ mask, positions))
            for succ in succs:
                if succ not in visited:
                    if check(succ[2], succ[3], succ[4]):
                        return depth
                    visited.add(succ)
                    next_frontier.append(succ)
        frontier = next_frontier
    if has_scenery:
        # Moving scenery might unlock a solution; claiming "unsolvable" would
        # misreport the restriction as a fact about the task.
        raise SolverLimitation(
            f"task {task.id!r} has no solution with scenery items held immovable"
        )
    raise UnsolvableTaskError(f"task {task.id!r} has no solution")
