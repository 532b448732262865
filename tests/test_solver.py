"""Optimal-step solver tests.

The A* solver is cross-checked against exhaustive simulation search and
against the breadth-first solver it replaced, and its bound is checked for
consistency along random walks.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from prag.gridworld import solver
from prag.gridworld.solver import (
    SolverLimitation,
    UnsolvableTaskError,
    shortest_solution_steps,
)
from prag.gridworld.tasks import (
    AgentHolds,
    ItemsInContainerToggled,
    PlacedAt,
    Task,
    TaskFileError,
    bundled_suite,
)
from prag.gridworld.world import (
    CELL_ITEM_CAPACITY,
    HEADING_DELTAS,
    HEADING_ORDER,
    KINDS,
    LOW_LEVEL_ACTIONS,
    World,
)
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


def goal_check(predicate, cell_index, world: World):
    """Compile the predicate into a check over ``bfs_solve``'s encoded states."""
    if isinstance(predicate, PlacedAt):
        if not world.objects[predicate.target].landmark:
            raise SolverLimitation(f"placed_at target {predicate.target!r} is not a landmark")
        target = cell_index[world.objects[predicate.target].position]

        def check(held: int, flags: int, positions: tuple[int, ...]) -> bool:
            return positions == (target,)

        return check
    if isinstance(predicate, ItemsInContainerToggled):
        target = cell_index[world.objects[predicate.container].position]
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


def bfs_solve(task: Task) -> int:
    """Reference solver: the breadth-first search A* replaced, kept verbatim.

    Same state model, successor rules and exceptions as ``shortest_solution_steps``,
    with no bound, so every optimum A* returns must equal this one.
    """
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

    check = goal_check(predicate, cell_index, world)
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

    def test_same_id_layouts_get_their_own_optima(self):
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

    def test_a_portable_placed_at_target_is_a_limitation(self):
        # mug_2 moves as soon as it is picked up, so "mug_1 on mug_2" is not
        # "mug_1 on mug_2's start cell": the real optimum is 4, not 1.
        world = World(5, 5, walls=border_walls(5, 5), agent_position=(1, 2), agent_heading="N")
        world.place_object("mug_1", "mug", (1, 1))
        world.place_object("mug_2", "mug", (3, 2))
        task = Task(
            id="mug_on_mug",
            goal="Put the mug with the other mug",
            world=world,
            predicate=PlacedAt("mug_1", "mug_2"),
            max_steps=20,
        )
        with pytest.raises(SolverLimitation, match="'mug_2' is not a landmark"):
            shortest_solution_steps(task)
        assert simulation_bfs(task) == 4

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


PORTABLE_KINDS = tuple(sorted(k for k, info in KINDS.items() if not info.landmark))
LANDMARK_KINDS = tuple(sorted(k for k, info in KINDS.items() if info.landmark))


def random_task(rng: random.Random, index: int) -> Task | None:
    """A small seeded room with one goal, or None when the draw is not a task.

    Rooms have 3-5 x 3-4 interior cells and up to three inner walls, so some
    layouts are cut in two and unsolvable. Goals cover all three shapes:
    ``items_in_container_toggled`` aims at a sink (a toggleable container)
    or a coffee maker. Extra landmarks include openable cabinets and boxes,
    some closed, and goal items may start inside them. Scenery items (other
    portables, sometimes of the goal kind) can rest on a goal item, and a
    goal may mix item kinds: both are outside the solver's model.
    """
    width, height = rng.randint(5, 7), rng.randint(5, 6)
    walls = set(border_walls(width, height))
    interior = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        walls.add(rng.choice(interior))
    free = [cell for cell in interior if cell not in walls]
    if len(free) < 4:
        return None
    agent = rng.choice(free)
    world = World(
        width,
        height,
        walls=frozenset(walls),
        agent_position=agent,
        agent_heading=rng.choice(HEADING_ORDER),
    )
    spots = [cell for cell in free if cell != agent]
    rng.shuffle(spots)

    shape = rng.choice(("placed_at", "items_in_container_toggled", "agent_holds"))
    if shape == "placed_at":
        target_kind = rng.choice(LANDMARK_KINDS)
    elif shape == "items_in_container_toggled":
        target_kind = rng.choice(("sink", "sink", "coffee_maker"))
    else:
        target_kind = None
    landmarks = []
    if target_kind is not None:
        landmarks.append(("target_1", target_kind))
    for i in range(rng.randint(0, 2)):
        landmarks.append((f"furniture_{i}", rng.choice(LANDMARK_KINDS)))
    landmark_cells = []
    for label, kind in landmarks:
        cell = spots.pop()
        landmark_cells.append(cell)
        info = KINDS[kind]
        world.place_object(
            label,
            kind,
            cell,
            toggled=info.toggleable and rng.random() < 0.2,
            open=info.openable and rng.random() < 0.5,
        )

    goal_kind = rng.choice(PORTABLE_KINDS)
    count = 1
    if shape == "items_in_container_toggled":
        count = rng.choice((1, 2, 2, 3)) if len(free) <= 9 else rng.choice((1, 2))
    item_cells = spots + landmark_cells
    goal_items = []
    for i in range(count):
        kind = goal_kind
        if i > 0 and rng.random() < 0.1:
            kind = rng.choice(PORTABLE_KINDS)  # mixed kinds: out of model
        label = f"{kind}_{i}"
        cell = rng.choice(item_cells) if rng.random() < 0.3 else item_cells[i]
        try:
            world.place_object(label, kind, cell)
        except ValueError:
            return None  # label clash or a full cell
        goal_items.append(label)
    for i in range(rng.choice((0, 0, 1, 2))):
        kind = rng.choice(PORTABLE_KINDS)
        cell = world.objects[goal_items[0]].position if rng.random() < 0.15 else rng.choice(item_cells)
        try:
            world.place_object(f"scenery_{i}", kind, cell)
        except ValueError:
            return None

    if shape == "placed_at":
        predicate = PlacedAt(goal_items[0], "target_1")
    elif shape == "items_in_container_toggled":
        predicate = ItemsInContainerToggled(tuple(goal_items), "target_1")
    else:
        predicate = AgentHolds(goal_items[0])
    try:
        return Task(
            id=f"random_{index:04d}",
            goal="Reach the generated goal",
            world=world,
            predicate=predicate,
            max_steps=60,
        )
    except TaskFileError:
        return None  # the goal already holds


def random_tasks(seed: int, count: int) -> list[Task]:
    rng = random.Random(seed)
    tasks: list[Task] = []
    while len(tasks) < count:
        task = random_task(rng, len(tasks))
        if task is not None:
            tasks.append(task)
    return tasks


def outcome(solve, task: Task):
    """The optimum, or the type of the exception the solve raised."""
    try:
        return solve(task)
    except (SolverLimitation, UnsolvableTaskError) as exc:
        return type(exc)


class TestAStarMatchesBreadthFirst:
    def test_bundled_suite(self):
        for task in bundled_suite():
            optimum = shortest_solution_steps(task)
            assert optimum == bfs_solve(task) == BUNDLED_OPTIMA[task.id], task.id

    def test_generated_rooms(self):
        seen = {}
        for task in random_tasks(seed=7, count=600):
            expected = outcome(bfs_solve, task)
            assert outcome(shortest_solution_steps, task) == expected, task.id
            key = expected if isinstance(expected, type) else task.predicate.kind
            seen[key] = seen.get(key, 0) + 1
        # The draw covers every goal shape solved, and both ways to fail.
        for key in (
            "placed_at",
            "items_in_container_toggled",
            "agent_holds",
            SolverLimitation,
            UnsolvableTaskError,
        ):
            assert seen.get(key, 0) >= 10, (key, seen)


class TestBoundIsConsistent:
    def test_random_walks(self):
        far = solver._FAR
        rng = random.Random(11)
        goals = {}
        checked = 0
        for task in random_tasks(seed=5, count=250):
            try:
                model = solver._Model(task)
            except SolverLimitation:
                continue
            for _walk in range(3):
                state = model.start
                for _step in range(60):
                    bound = model.bound(state)
                    if model.is_goal(state):
                        assert bound == 0, task.id
                        goals[task.predicate.kind] = goals.get(task.predicate.kind, 0) + 1
                    succs = model.successors(state)
                    for succ in succs:
                        after = model.bound(succ)
                        if bound >= far:
                            # No route from here, so none from a successor.
                            assert after >= far, task.id
                        else:
                            assert bound <= 1 + after, (task.id, state, succ)
                        checked += 1
                    # Favour interactions, the actions that change the goal terms.
                    interactions = [s for s in succs if s[0] == state[0]]
                    if interactions and rng.random() < 0.5:
                        state = rng.choice(interactions)
                    else:
                        state = rng.choice(succs)
        assert checked > 50_000
        for kind in ("placed_at", "items_in_container_toggled", "agent_holds"):
            assert goals.get(kind, 0) >= 5, goals

    @staticmethod
    def mug_room(width, height, agent, items, inner_walls=(), cabinet=None):
        """Mugs to wash in a sink at the top right; a closed cabinet seals what it holds."""
        walls = frozenset(border_walls(width, height) | set(inner_walls))
        world = World(width, height, walls=walls, agent_position=agent, agent_heading="N")
        world.place_object("sink_1", "sink", (width - 2, 1))
        if cabinet is not None:
            world.place_object("cabinet_1", "cabinet", cabinet)
        labels = tuple(f"mug_{i}" for i in range(1, len(items) + 1))
        for label, cell in zip(labels, items):
            world.place_object(label, "mug", cell)
        return Task(
            id=f"wash_{len(items)}_mugs",
            goal="Wash the mugs",
            world=world,
            predicate=ItemsInContainerToggled(labels, "sink_1"),
            max_steps=60,
        )

    @pytest.mark.parametrize(
        "room",
        [
            dict(width=5, height=5, agent=(1, 2), items=[(1, 1), (1, 1)]),
            dict(width=5, height=5, agent=(2, 2), items=[(1, 1), (1, 3), (3, 3)]),
            dict(
                width=6, height=5, agent=(1, 1), items=[(1, 3), (4, 3), (1, 3)],
                inner_walls=[(2, 2)], cabinet=(4, 3),
            ),
        ],
        ids=["two-mugs-one-cell", "three-mugs", "three-mugs-one-sealed"],
    )
    def test_every_reachable_state(self, room):
        # Random walks rarely reach a state holding one mug while facing the
        # sink with others still away, where a bound that charges too much
        # for each later delivery falls by more than one on the drop.
        model = solver._Model(self.mug_room(**room))
        far = solver._FAR
        seen = {model.start}
        frontier = deque(seen)
        goals = 0
        while frontier:
            state = frontier.popleft()
            bound = model.bound(state)
            if model.is_goal(state):
                assert bound == 0, state
                goals += 1
            for succ in model.successors(state):
                after = model.bound(succ)
                if bound >= far:
                    assert after >= far, (state, succ)
                else:
                    assert bound <= 1 + after, (state, succ)
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        assert goals > 0
        assert len(seen) > 3_000


class TestDeliveryBound:
    def test_each_item_owed_after_the_next_costs_two_more_moves(self):
        # Two mugs share a cell. Whichever goes first, the agent turns from
        # the sink to the mugs and back again before the second drop.
        world = World(5, 5, walls=border_walls(5, 5), agent_position=(1, 2), agent_heading="N")
        world.place_object("sink_1", "sink", (3, 1))
        world.place_object("mug_1", "mug", (1, 1))
        world.place_object("mug_2", "mug", (1, 1))
        task = Task(
            id="two_mugs",
            goal="Wash both mugs",
            world=world,
            predicate=ItemsInContainerToggled(("mug_1", "mug_2"), "sink_1"),
            max_steps=30,
        )
        model = solver._Model(task)
        pose, (_, _, positions) = model.start
        moves = model._via(positions[0])[pose]
        # Two pickups, two drops and the toggle, then the moves.
        assert model.bound(model.start) == 5 + moves + 2
        assert model.bound(model.start) <= shortest_solution_steps(task) == simulation_bfs(task) == 12
