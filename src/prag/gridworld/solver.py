"""Exact shortest-solution lengths, by A* search.

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
* moves: the maximum of ``via(c)`` over the cells of outstanding items.
  With none outstanding, ``to_face(T)`` while an item is held or the toggle
  is left, else 0.

For ``agent_holds`` the bound is 0 when holding, else 1 plus the fewest
moves to face an item.

The bound is consistent: no action lowers it by more than 1. A turn or
forward changes only the pose, and each table is a shortest-move count, so
it changes by at most 1. The other actions leave the pose alone. At a pose
``p`` facing ``c``, ``via(c)[p]`` equals ``to_face(T)[p]``, since reaching
``T`` from ``p`` through another pose facing ``c`` is never shorter. So a
pickup or a drop away from ``T`` swaps equal move terms and changes the
interaction count by 1, and a drop onto ``T`` removes a move term of 0.
Toggle and open change one interaction term by 1. Goal states score 0. A
consistent bound makes the first goal state taken off the queue an optimal
one, and it never overestimates, so a state it scores as unreachable is
dropped without changing the answer.
"""

from __future__ import annotations

from .tasks import AgentHolds, GoalPredicate, ItemsInContainerToggled, PlacedAt, Task
from .world import CELL_ITEM_CAPACITY, HEADING_DELTAS, HEADING_ORDER, World

# Pose distance of an unreachable pose. A sum of a few stays above any real
# solution length, which marks a state as unable to reach the goal.
_FAR = 1 << 30


class UnsolvableTaskError(Exception):
    """The goal cannot be reached from the initial world."""


class SolverLimitation(Exception):
    """The task falls outside the solver's state model."""


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

        # Scenery: portable objects the goal does not mention. They must not
        # sit on top of a relevant item, otherwise the relevant item is
        # unreachable under the immovable-scenery model.
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
                            f"task {task.id!r}: scenery item {label!r} rests on"
                            f" a goal item at {cell}"
                        )
                    static_count[cell_index[cell]] += 1
                    has_scenery = True

        # Dynamic flags, packed into one bitmask. Bit 0 is the goal
        # container's toggled flag when the predicate needs one; open flags of
        # every openable object follow (they gate pickup and drop at their
        # cells).
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
            obj = world.objects[label]
            if obj.toggled if flag == "toggled" else obj.open:
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
        self._check = _goal_check(predicate, cell_index, world)
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
        self._via_tables: dict[tuple[int, ...], list[int]] = {}
        self._no_moves = [0] * npose
        self._terms: dict[tuple, tuple[int, list[int]]] = {}
        # The cell goal items must reach; None for agent_holds.
        self._target: int | None = None
        if isinstance(predicate, PlacedAt):
            self._target = cell_index[world.objects[predicate.target].position]
        elif isinstance(predicate, ItemsInContainerToggled):
            self._target = cell_index[world.objects[predicate.container].position]
        self._need_toggle = isinstance(predicate, ItemsInContainerToggled)

    def is_goal(self, state) -> bool:
        return bool(self._check(*state[1]))

    def bound(self, state) -> int:
        """Lower bound on the actions left; ``_FAR`` or more when none reach the goal."""
        pose, config = state
        terms = self._terms.get(config)
        if terms is None:
            terms = self._terms[config] = self._config_terms(*config)
        interactions, moves_left = terms
        return interactions + moves_left[pose]

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

    def _via(self, cells: tuple[int, ...]) -> list[int]:
        """Fewest moves from every pose to face a cell of ``cells``, then the target.

        For several cells it is the largest of their single-cell counts: each
        cell has to be faced at some point, and the target after it.
        """
        table = self._via_tables.get(cells)
        if table is None:
            if len(cells) == 1:
                to_target = self._to_face(self._target)
                seeds = {pose: to_target[pose] for pose in self._facing[cells[0]]}
                table = _backward_bfs(seeds, self._arrivals)
            else:
                singles = [self._via((ci,)) for ci in cells]
                table = [max(column) for column in zip(*singles)]
            self._via_tables[cells] = table
        return table

    def _config_terms(self, held: int, flags: int, positions: tuple[int, ...]):
        """(interactions left, moves-left table) for one configuration."""
        if self._target is None:  # agent_holds, whose one item is held or on the floor
            return (0, self._no_moves) if held else (1, self._to_face(positions[0]))
        target = self._target
        away = [ci for ci in positions if ci != target]
        toggle_left = self._need_toggle and not flags & 1
        interactions = 2 * len(away) + held + toggle_left
        seal = self._sealed_mask[target]
        if (away or held) and (flags & seal) != seal:
            interactions += 1
        if not away:
            return interactions, self._to_face(target) if held or toggle_left else self._no_moves
        # via(c) >= to_face(target) at every pose, so the target's own table
        # only matters once no item is outstanding.
        return interactions, self._via(tuple(dict.fromkeys(away)))
