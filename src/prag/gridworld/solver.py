"""Exact shortest-solution lengths, by A* search.

The search runs over (agent pose, inventory, goal-relevant object
configuration) states with the real 8-action dynamics, so the result is the
true minimal number of low-level steps. Three deliberate restrictions keep
the state space tractable:

* objects the goal predicate does not mention are treated as immovable
  scenery (they still count against cell capacity and container sealing);
* all goal-relevant portable items must share one kind, so their positions
  fold into a multiset (same-kind items are interchangeable under both the
  dynamics and the bundled predicates);
* a ``placed_at`` target is a landmark, so the goal cell is fixed.

Worlds where an optimal plan would have to relocate scenery are outside this
model; the bundled suite never needs that, and the test suite cross-checks
the solver against exhaustive search driven through the simulator itself.

Every action costs 1. A* (Hart, Nilsson and Raphael, 1968) orders states by
moves so far plus a lower bound on the moves left, read from a pose table.
A pose is a (cell, heading) pair. Walls and landmarks never move, so the
turn/forward moves between poses are fixed for the task. For a cell ``c``,
``to_face(c)`` holds the fewest moves from every pose to a pose facing ``c``.
``via(c)`` holds the fewest moves to face ``c`` and then face the goal
target ``T``: the minimum, over poses ``q`` facing ``c``, of the moves to
reach ``q`` plus ``to_face(T)[q]``. Both come from a backward breadth-first
search over the pose graph, computed the first time a cell needs them.

The bound for ``placed_at`` and ``items_in_container_toggled`` is the sum of
interactions left and moves left:

* interactions: 2 per goal item neither on ``T`` nor held (pickup and drop),
  1 for a held item (drop), 1 if the container's toggle is needed and off,
  and 1 (open) if ``T`` is sealed while an item still has to go there;
* moves: each outstanding item has a value at the agent's pose,
  ``via(c)`` for an item on a cell ``c`` other than ``T`` and
  ``to_face(T)`` for the held item. With the m values sorted in descending
  order, v_0 >= v_1 >= ..., the moves left are at least the maximum of
  v_i + 2i: the item delivered last takes at least its own value, and
  each delivery before it at least 2 moves more, since between two drops
  onto ``T`` the agent faces another cell to pick the next item up, so it
  turns away from ``T`` and back. With none outstanding, ``to_face(T)``
  while the toggle is left, else 0.

For ``agent_holds`` the bound is 0 when holding, else 1 plus the fewest
moves to face an item.

The bound is consistent: no action lowers it by more than 1.

* A turn or forward changes only the pose. Each table is a shortest-move
  count, so each value falls by at most 1; then so does the value at each
  rank of the sorted list, and so does the maximum.
* The other actions leave the pose alone. At a pose ``p`` facing ``c``,
  ``via(c)[p]`` equals ``to_face(T)[p]``, since reaching ``T`` from ``p``
  through another pose facing ``c`` is never shorter. So a pickup or a
  drop away from ``T`` keeps every value (an item's ``via`` value becomes
  the held item's ``to_face`` value, or back) and changes the interaction
  count by 1.
* A pickup from ``T`` adds a value and an interaction; an added value never
  lowers the maximum.
* A drop onto ``T`` removes an interaction and the held item's value, 0,
  which ranks last and adds 2(m - 1). Every other value belongs to an item
  away from ``T``, and from a pose facing ``T`` it takes at least 1 move to
  face another cell and 1 more to face ``T`` again, so the value ranked
  m - 2 adds at least 2 + 2(m - 2) and the maximum does not fall.
* Toggle and open change one interaction term by 1.

Goal states score 0. A consistent bound makes the first goal state taken
off the queue an optimal one, and it never overestimates, so a state it
scores as unreachable is dropped without changing the answer.
"""

from __future__ import annotations

from .tasks import AgentHolds, ItemsInContainerToggled, PlacedAt, Task
from .world import CELL_ITEM_CAPACITY, HEADING_DELTAS, HEADING_ORDER

# Pose distance of an unreachable pose. A sum of a few stays above any real
# solution length, which marks a state as unable to reach the goal.
_FAR = 1 << 30


class UnsolvableTaskError(Exception):
    """The goal cannot be reached from the initial world."""


class SolverLimitation(Exception):
    """The task falls outside the solver's state model."""


def shortest_solution_steps(task: Task) -> int:
    """Minimal number of low-level actions that completes ``task``.

    A pure function of the initial world and the goal predicate; a caller
    that needs the optimum more than once keeps the result.
    """
    model = _Model(task)
    start = model.start
    if model.is_goal(start):
        return 0  # Task validation forbids this, but stay total.

    # Buckets of (moves so far, state) by f = moves so far + bound. With a
    # consistent bound a successor's f is never below its parent's, so the
    # smallest key is the one to drain; within it, the deepest state first.
    start_bound = model.bound(start)
    buckets: dict[int, list] = {start_bound: [(0, start)]} if start_bound < _FAR else {}
    best = {start: 0}
    while buckets:
        f = min(buckets)
        bucket = buckets[f]
        while bucket:
            depth, state = bucket.pop()
            if best[state] < depth:
                continue  # superseded by a shorter route
            if model.is_goal(state):
                return depth
            depth += 1
            for succ in model.successors(state):
                if best.get(succ, _FAR) <= depth:
                    continue
                bound = model.bound(succ)
                if bound >= _FAR:
                    continue
                best[succ] = depth
                buckets.setdefault(depth + bound, []).append((depth, succ))
        del buckets[f]
    if model.has_scenery:
        # Moving scenery might unlock a solution; claiming "unsolvable" would
        # misreport the restriction as a fact about the task.
        raise SolverLimitation(
            f"task {task.id!r} has no solution with scenery items held immovable"
        )
    raise UnsolvableTaskError(f"task {task.id!r} has no solution")


def _backward_bfs(seeds: dict[int, int], arrivals: list[list[int]]) -> list[int]:
    """Fewest moves from every pose to a seed pose plus that seed's cost.

    ``arrivals[p]`` lists every pose with a move into ``p``. Costs are
    settled in increasing order, so a pose's first cost is its final one.
    """
    dist = [_FAR] * len(arrivals)
    pending = sorted((cost, pose) for pose, cost in seeds.items() if cost < _FAR)
    frontier: list[int] = []
    i = 0
    level = 0
    while frontier or i < len(pending):
        if not frontier:
            level = pending[i][0]
        while i < len(pending) and pending[i][0] == level:
            pose = pending[i][1]
            i += 1
            if dist[pose] == _FAR:
                dist[pose] = level
                frontier.append(pose)
        level += 1
        reached = []
        for pose in frontier:
            for prev in arrivals[pose]:
                if dist[prev] == _FAR:
                    dist[prev] = level
                    reached.append(prev)
        frontier = reached
    return dist


class _Model:
    """One task's search problem: start state, successors, goal and bound.

    A state is ``(pose, (held, flags, positions))``: pose is
    ``cell * 4 + heading``, ``held`` is 1 while the agent carries a goal
    item, ``flags`` packs the dynamic flags and ``positions`` is the sorted
    tuple of the cells of the goal items on the floor.
    """

    def __init__(self, task: Task) -> None:
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

        # The landmark goal items must reach (None for agent_holds), and how
        # many of them must rest in its cell.
        if isinstance(predicate, PlacedAt):
            anchor, goal_items = world.objects[predicate.target], 1
            if not anchor.landmark:  # it would move, and the model keeps it still
                raise SolverLimitation(
                    f"task {task.id!r}: placed_at target {predicate.target!r}"
                    " is not a landmark"
                )
        elif isinstance(predicate, ItemsInContainerToggled):
            anchor, goal_items = world.objects[predicate.container], len(predicate.items)
        elif isinstance(predicate, AgentHolds):
            anchor, goal_items = None, 0
        else:
            raise SolverLimitation(f"no solver model for predicate {type(predicate).__name__}")
        self._target = None if anchor is None else cell_index[anchor.position]
        self._goal_positions = (self._target,) * goal_items
        self._need_toggle = isinstance(predicate, ItemsInContainerToggled)

        relevant = [
            label
            for label in predicate.relevant_labels()
            if not world.objects[label].landmark
        ]
        kinds = {world.objects[label].kind for label in relevant}
        if len(kinds) != 1:
            raise SolverLimitation(
                f"task {task.id!r}: goal-relevant items must share one kind,"
                f" got {sorted(kinds)}"
            )
        relevant_set = set(relevant)

        # One pass over the stacks fills the per-cell tables and the start
        # flags. Scenery: portable objects the goal does not mention. They
        # must not sit on top of a relevant item, otherwise the relevant item
        # is unreachable under the immovable-scenery model. Dynamic flags pack
        # into one bitmask: bit 0 is the goal container's toggled flag when
        # the predicate needs one, and each openable object takes the next
        # free bit as the pass reaches it (open flags gate pickup and drop at
        # their cells). Bit numbers only name states; no order depends on them.
        goal_container = predicate.container if self._need_toggle else None
        next_bit = int(self._need_toggle)
        flags0 = int(goal_container is not None and world.objects[goal_container].toggled)
        static_count = [0] * ncells
        has_scenery = False
        sealed_mask = [0] * ncells  # open-flag bits that must be set for access
        toggle_bit = [-1] * ncells  # tracked toggle target, -1 when toggling is a no-op
        open_bit = [-1] * ncells  # first openable in the stack
        for cell, stack in world.stacks().items():
            ci = cell_index[cell]
            seen_relevant = False
            for label in stack:
                obj = world.objects[label]
                if obj.openable:
                    bit = next_bit
                    next_bit += 1
                    if obj.open:
                        flags0 |= 1 << bit
                    if obj.container:
                        sealed_mask[ci] |= 1 << bit
                    if open_bit[ci] < 0:
                        open_bit[ci] = bit
                if obj.toggleable and toggle_bit[ci] == -1:
                    toggle_bit[ci] = 0 if label == goal_container else -2  # -2: untracked, pure no-op
                if obj.landmark:
                    continue
                if label in relevant_set:
                    seen_relevant = True
                elif seen_relevant:
                    raise SolverLimitation(
                        f"task {task.id!r}: scenery item {label!r} rests on"
                        f" a goal item at {cell}"
                    )
                else:
                    static_count[ci] += 1
                    has_scenery = True

        # Pose graph: the cell each pose faces (-1 for a wall) and the poses
        # one turn or forward move away.
        deltas = [HEADING_DELTAS[h] for h in HEADING_ORDER]
        npose = 4 * ncells
        faced = [-1] * npose
        moves: list[tuple[int, ...]] = [()] * npose
        for ci, (x, y) in enumerate(cells):
            for h, (dx, dy) in enumerate(deltas):
                pose = 4 * ci + h
                target = (x + dx, y + dy)
                ti = cell_index.get(target, -1)
                faced[pose] = ti
                turns = (4 * ci + (h - 1) % 4, 4 * ci + (h + 1) % 4)
                if ti >= 0 and world.navigable(target):
                    moves[pose] = turns + (4 * ti + h,)
                else:
                    moves[pose] = turns

        positions0 = tuple(
            sorted(cell_index[world.objects[label].position] for label in relevant)
        )
        agent0 = cell_index[world.agent_position]
        heading0 = HEADING_ORDER.index(world.agent_heading)

        self.start = (4 * agent0 + heading0, (0, flags0, positions0))
        self.has_scenery = has_scenery
        self._static_count = static_count
        self._sealed_mask = sealed_mask
        self._toggle_bit = toggle_bit
        self._open_bit = open_bit
        self._faced = faced
        self._moves = moves

        # Bound tables (see the module docstring), filled on first use.
        self._arrivals: list[list[int]] = [[] for _ in range(npose)]
        for pose, nexts in enumerate(moves):
            for nxt in nexts:
                self._arrivals[nxt].append(pose)
        self._facing: list[list[int]] = [[] for _ in range(ncells)]
        for pose, ci in enumerate(faced):
            if ci >= 0:
                self._facing[ci].append(pose)
        self._to_face_tables: dict[int, list[int]] = {}
        self._via_tables: dict[int, list[int]] = {}
        self._no_moves = [0] * npose
        self._terms: dict[tuple, tuple[int, tuple[list[int], ...]]] = {}

    def is_goal(self, state) -> bool:
        held, flags, positions = state[1]
        if self._target is None:
            return held == 1
        # Bit 0 is the container's toggled flag when the goal needs it on.
        return positions == self._goal_positions and (bool(flags & 1) or not self._need_toggle)

    def bound(self, state) -> int:
        """Lower bound on the actions left; ``_FAR`` or more when none reach the goal."""
        pose, config = state
        terms = self._terms.get(config)
        if terms is None:
            terms = self._terms[config] = self._config_terms(*config)
        interactions, tables = terms
        if len(tables) == 1:
            return interactions + tables[0][pose]
        # The maximum of v_i + 2i over the values in descending order.
        values = sorted([table[pose] for table in tables], reverse=True)
        return interactions + max(value + 2 * rank for rank, value in enumerate(values))

    def successors(self, state) -> list:
        """The states one action away; actions that change nothing are left out."""
        pose, config = state
        succs = [(nxt, config) for nxt in self._moves[pose]]
        faced = self._faced[pose]
        if faced < 0:
            return succs
        held, flags, positions = config
        mask = self._sealed_mask[faced]
        sealed = (mask & flags) != mask
        if held == 0:
            if not sealed and faced in positions:
                remaining = list(positions)
                remaining.remove(faced)
                succs.append((pose, (1, flags, tuple(remaining))))
        else:
            load = self._static_count[faced] + positions.count(faced)
            if not sealed and load < CELL_ITEM_CAPACITY:
                placed = tuple(sorted(positions + (faced,)))
                succs.append((pose, (0, flags, placed)))
        tb = self._toggle_bit[faced]
        if tb >= 0:
            succs.append((pose, (held, flags ^ (1 << tb), positions)))
        ob = self._open_bit[faced]
        if ob >= 0:
            # open when closed, close when open; the other is a no-op
            succs.append((pose, (held, flags ^ (1 << ob), positions)))
        return succs

    def _to_face(self, ci: int) -> list[int]:
        """Fewest moves from every pose to a pose facing cell ``ci``."""
        table = self._to_face_tables.get(ci)
        if table is None:
            seeds = dict.fromkeys(self._facing[ci], 0)
            table = self._to_face_tables[ci] = _backward_bfs(seeds, self._arrivals)
        return table

    def _via(self, ci: int) -> list[int]:
        """Fewest moves from every pose to face cell ``ci``, then the target."""
        table = self._via_tables.get(ci)
        if table is None:
            to_target = self._to_face(self._target)
            seeds = {pose: to_target[pose] for pose in self._facing[ci]}
            table = self._via_tables[ci] = _backward_bfs(seeds, self._arrivals)
        return table

    def _config_terms(self, held: int, flags: int, positions: tuple[int, ...]):
        """(interactions left, the move tables of the outstanding items) for one configuration."""
        if self._target is None:  # agent_holds, whose one item is held or on the floor
            return (0, (self._no_moves,)) if held else (1, (self._to_face(positions[0]),))
        target = self._target
        away = [ci for ci in positions if ci != target]
        toggle_left = self._need_toggle and not flags & 1
        interactions = 2 * len(away) + held + toggle_left
        seal = self._sealed_mask[target]
        if (away or held) and (flags & seal) != seal:
            interactions += 1
        tables = [self._via(ci) for ci in away]
        if held:
            tables.append(self._to_face(target))
        if not tables:
            tables.append(self._to_face(target) if toggle_left else self._no_moves)
        return interactions, tuple(tables)
