"""World mechanics, task loading, and simulator behavior."""

from __future__ import annotations

import dataclasses
import random
import textwrap

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from prag.gridworld.sim import EpisodeResult, SimulationError, Simulator
from prag.gridworld.tasks import (
    MAX_YAML_DEPTH,
    AgentHolds,
    ItemsInContainerToggled,
    PlacedAt,
    Task,
    TaskFileError,
    bundled_suite,
    _depth_bound,
    bundled_task,
    load_task_text,
    load_yaml_mapping,
)
from prag.gridworld.world import (
    CELL_ITEM_CAPACITY,
    KINDS,
    LOW_LEVEL_ACTIONS,
    ObjectState,
    World,
    turn,
)
from prag.scene_graph import extract, render_text
from tests.conftest import border_walls, make_ball_task, make_ball_world


def random_walled_world(rng: random.Random) -> World:
    """A bordered room with inner walls, a few landmarks and loose items."""
    width, height = rng.randint(5, 9), rng.randint(5, 9)
    interior = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)]
    inner_walls = set(rng.sample(interior, len(interior) // 6))
    free = [cell for cell in interior if cell not in inner_walls]
    world = World(
        width,
        height,
        walls=border_walls(width, height) | inner_walls,
        agent_position=rng.choice(free),
        agent_heading=rng.choice("NESW"),
    )
    kinds = sorted(KINDS)
    for i in range(rng.randint(3, 10)):
        kind = rng.choice(kinds)
        try:
            world.place_object(f"{kind}_{i}", kind, rng.choice(free))
        except ValueError:
            pass  # landmark overlap, the agent's cell or a full cell
    return world


def describe(snapshot: World) -> tuple:
    """What a snapshot says: the agent's state, each object's state, the scene text."""
    return (
        snapshot.agent_position,
        snapshot.agent_heading,
        snapshot.agent_inventory,
        {
            label: (obj.position, obj.toggled, obj.open)
            for label, obj in snapshot.objects.items()
        },
        render_text(extract(snapshot)),
    )


class TestHeadings:
    def test_turn_cycles(self):
        assert turn("N", "right") == "E"
        assert turn("E", "right") == "S"
        assert turn("S", "right") == "W"
        assert turn("W", "right") == "N"
        assert turn("N", "left") == "W"


class TestMovement:
    def test_forward_moves_one_cell(self):
        world = World(5, 5, walls=border_walls(5, 5), agent_position=(2, 2), agent_heading="N")
        world.apply_action("forward")
        assert world.agent_position == (2, 1)

    def test_wall_blocks_forward(self):
        world = World(5, 5, walls=border_walls(5, 5), agent_position=(2, 1), agent_heading="N")
        world.apply_action("forward")
        assert world.agent_position == (2, 1)

    def test_landmark_blocks_forward_but_item_does_not(self):
        world = World(7, 7, walls=border_walls(7, 7), agent_position=(3, 3), agent_heading="N")
        world.place_object("table_1", "table", (3, 2))
        world.place_object("ball_1", "ball", (3, 4))
        world.apply_action("forward")
        assert world.agent_position == (3, 3)
        world.agent_heading = "S"
        world.apply_action("forward")
        assert world.agent_position == (3, 4)

    def test_turns_do_not_move(self):
        world = World(5, 5, walls=border_walls(5, 5), agent_position=(2, 2), agent_heading="N")
        world.apply_action("turn_left")
        assert world.agent_position == (2, 2)
        assert world.agent_heading == "W"

    def test_unknown_action_raises(self):
        world = World(5, 5, walls=border_walls(5, 5))
        with pytest.raises(ValueError):
            world.apply_action("teleport")


class TestManipulation:
    def facing_world(self):
        # Agent at (2,3) facing north at the table cell (2,2).
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(2, 3), agent_heading="N")
        world.place_object("table_1", "table", (2, 2))
        world.place_object("mug_1", "mug", (2, 2))
        return world

    def test_pickup_takes_topmost_item(self):
        world = self.facing_world()
        world.place_object("key_1", "key", (2, 2))
        world.apply_action("pickup")
        assert world.agent_inventory == "key_1"
        assert world.objects["key_1"].position is None

    def test_pickup_with_full_hands_is_noop(self):
        world = self.facing_world()
        world.place_object("key_1", "key", (2, 2))
        world.apply_action("pickup")
        world.apply_action("pickup")
        assert world.agent_inventory == "key_1"
        assert world.objects["mug_1"].position == (2, 2)

    def test_pickup_never_takes_landmark(self):
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(2, 3), agent_heading="N")
        world.place_object("table_1", "table", (2, 2))
        world.apply_action("pickup")
        assert world.agent_inventory is None

    def test_drop_places_on_faced_cell(self):
        world = self.facing_world()
        world.apply_action("pickup")
        world.agent_heading = "E"
        world.apply_action("drop")
        assert world.agent_inventory is None
        assert world.objects["mug_1"].position == (3, 3)

    def test_drop_into_full_cell_is_noop(self):
        world = self.facing_world()
        world.place_object("ball_1", "ball", (2, 2))
        world.place_object("ball_2", "ball", (2, 2))
        # Cell (2,2) now holds mug, ball, ball: at capacity.
        world.apply_action("pickup")  # topmost item comes off
        picked = world.agent_inventory
        assert picked == "ball_2"
        world.place_object("key_1", "key", (2, 2))  # back to capacity
        world.apply_action("drop")
        assert world.agent_inventory == picked
        assert world.objects[picked].position is None

    def test_capacity_rejected_at_placement(self):
        world = self.facing_world()
        world.place_object("ball_1", "ball", (2, 2))
        world.place_object("ball_2", "ball", (2, 2))
        with pytest.raises(ValueError):
            world.place_object("ball_3", "ball", (2, 2))

    def test_toggle_flips_toggleable_only(self):
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(2, 3), agent_heading="N")
        world.place_object("sink_1", "sink", (2, 2))
        world.place_object("table_2", "table", (3, 3))
        world.apply_action("toggle")
        assert world.objects["sink_1"].toggled is True
        world.apply_action("toggle")
        assert world.objects["sink_1"].toggled is False
        world.agent_heading = "E"
        world.apply_action("toggle")
        assert world.objects["table_2"].toggled is False

    def test_open_close_only_openables(self):
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(2, 3), agent_heading="N")
        world.place_object("cabinet_1", "cabinet", (2, 2))
        assert world.objects["cabinet_1"].open is False
        world.apply_action("open")
        assert world.objects["cabinet_1"].open is True
        world.apply_action("close")
        assert world.objects["cabinet_1"].open is False

    def test_closed_container_seals_contents(self):
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(2, 3), agent_heading="N")
        world.place_object("box_1", "box", (2, 2))
        world.place_object("book_1", "book", (2, 2))
        world.apply_action("pickup")
        assert world.agent_inventory is None
        world.apply_action("open")
        world.apply_action("pickup")
        assert world.agent_inventory == "book_1"
        # Dropping into a re-closed container is also blocked.
        world.apply_action("close")
        world.apply_action("drop")
        assert world.agent_inventory == "book_1"

    def test_manipulation_into_wall_is_noop(self):
        world = World(5, 5, walls=border_walls(5, 5), agent_position=(1, 1), agent_heading="N")
        world.place_object("ball_1", "ball", (1, 1))
        world.apply_action("pickup")  # faces the wall at (1,0)
        assert world.agent_inventory is None


class TestPlacementValidation:
    def test_rejects_wall_cell(self):
        world = World(5, 5, walls=border_walls(5, 5))
        with pytest.raises(ValueError):
            world.place_object("ball_1", "ball", (0, 0))

    def test_rejects_duplicate_label(self):
        world = make_ball_world()
        with pytest.raises(ValueError):
            world.place_object("ball_1", "ball", (2, 2))

    def test_rejects_two_landmarks_per_cell(self):
        world = World(6, 6, walls=border_walls(6, 6))
        world.place_object("table_1", "table", (2, 2))
        with pytest.raises(ValueError):
            world.place_object("sink_1", "sink", (2, 2))

    def test_rejects_unknown_kind(self):
        world = World(5, 5, walls=border_walls(5, 5))
        with pytest.raises(ValueError):
            world.place_object("x_1", "spaceship", (1, 1))

    def test_rejects_agent_on_landmark(self):
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(2, 2))
        with pytest.raises(ValueError):
            world.place_object("table_1", "table", (2, 2))


class TestObservation:
    def test_copy_isolates_mutation(self):
        world = make_ball_world()
        clone = world.copy()
        clone.apply_action("forward")
        assert world.agent_position == (1, 3)
        assert clone.agent_position == (1, 2)

    def test_object_states_are_frozen(self):
        world = make_ball_world()
        with pytest.raises(dataclasses.FrozenInstanceError):
            world.objects["ball_1"].position = (2, 2)

    def test_state_changes_equal_dataclasses_replace(self):
        # ``changed`` passes every field by position; a new field must be
        # added to it too.
        assert [f.name for f in dataclasses.fields(ObjectState)] == [
            "label", "kind", "landmark", "container", "toggleable", "openable",
            "position", "toggled", "open",
        ]
        state = ObjectState("box_1", "box", True, True, True, True, (2, 3), True, True)
        assert state.changed(None, True, True) == dataclasses.replace(state, position=None)
        assert state.changed((4, 1), True, True) == dataclasses.replace(state, position=(4, 1))
        assert state.changed((2, 3), False, True) == dataclasses.replace(state, toggled=False)
        assert state.changed((2, 3), True, False) == dataclasses.replace(state, open=False)

    def test_a_primitive_replaces_only_what_it_changes(self):
        # Agent at (2,4) facing north; the mug is two cells ahead, the sink
        # east of the cell in front, the cabinet west of it.
        world = World(7, 6, walls=border_walls(7, 6), agent_position=(2, 4), agent_heading="N")
        world.place_object("mug_1", "mug", (2, 2))
        world.place_object("sink_1", "sink", (3, 3))
        world.place_object("cabinet_1", "cabinet", (1, 3))
        world.place_object("table_1", "table", (4, 1))
        script = [
            ("forward", set()),
            ("pickup", {"mug_1"}),
            ("turn_right", set()),
            ("drop", {"mug_1"}),
            ("toggle", {"sink_1"}),
            ("turn_right", set()),
            ("turn_right", set()),
            ("open", {"cabinet_1"}),
        ]
        before = world.observe()
        for action, expected in script:
            world.apply_action(action)
            after = world.observe()
            changed = {
                label for label, state in after.objects.items()
                if state is not before.objects[label]
            }
            assert changed == expected, action
            assert all(after.objects[label] != before.objects[label] for label in changed)
            old_stacks, new_stacks = before.stacks(), after.stacks()
            for cell, stack in new_stacks.items():
                if stack == old_stacks.get(cell):
                    assert stack is old_stacks[cell], (action, cell)
            before = after
        assert world.objects["sink_1"].toggled and world.objects["cabinet_1"].open

    def test_navigable_grid_matches_walls_and_landmarks(self):
        world = make_ball_world()
        grid = world.navigable_grid()
        assert not grid[0, 0]            # wall
        assert not grid[1, 3]            # table_1 landmark at (3,1)
        assert grid[1, 1]                # ball cell is walkable
        assert grid.shape == (5, 5)
        # The grid is built from walls and landmark positions; per-cell
        # ``navigable`` scans each stack and is the reference. Snapshots are
        # taken as the agent moves, picks up and drops items.
        rng = random.Random(7)
        seen = set()
        for _ in range(30):
            world = random_walled_world(rng)
            for _step in range(80):
                snapshot = world.observe()
                expected = np.array(
                    [
                        [snapshot.navigable((x, y)) for x in range(world.width)]
                        for y in range(world.height)
                    ]
                )
                assert np.array_equal(snapshot.navigable_grid(), expected)
                position, held = world.agent_position, world.agent_inventory
                world.apply_action(rng.choice(LOW_LEVEL_ACTIONS))
                if world.agent_position != position:
                    seen.add("move")
                if world.agent_inventory != held:
                    seen.add("pickup" if held is None else "drop")
            if any(
                len(stack) > 1 and world.objects[stack[0]].landmark
                for stack in world.stacks().values()
            ):
                seen.add("item-on-landmark")
        assert seen == {"move", "pickup", "drop", "item-on-landmark"}

    def test_conservation_of_labels(self):
        world = make_ball_world()
        initial = set(world.objects)
        world.apply_action("turn_left")
        world.apply_action("forward")
        assert set(world.objects) == initial


class TestTaskLoading:
    GOOD = textwrap.dedent(
        """
        id: sample_task
        goal: Put the ball on the table
        grid: |
          #####
          #..T#
          #...#
          #b..#
          #####
        agent:
          at: [1, 2]
          heading: E
        objects:
          table_1:
            kind: table
            at: T
          ball_1:
            kind: ball
            at: b
        goal_predicate:
          kind: placed_at
          item: ball_1
          target: table_1
        """
    )

    def test_loads_complete_task(self):
        task = load_task_text(self.GOOD, source="<test>")
        assert task.id == "sample_task"
        assert task.world.objects["table_1"].position == (3, 1)
        assert task.world.objects["ball_1"].position == (1, 3)
        assert task.world.agent_position == (1, 2)
        assert isinstance(task.predicate, PlacedAt)

    def test_unquoted_on_key_is_normalized(self):
        # An unquoted `on:` parses as boolean True in YAML 1.1; the loader
        # must still treat it as the placement key. Goal switched to a
        # predicate that is false with the ball on the table.
        text = self.GOOD.replace(
            "    kind: ball\n    at: b", "    kind: ball\n    on: table_1"
        ).replace(
            "goal_predicate:\n  kind: placed_at\n  item: ball_1\n  target: table_1",
            "goal_predicate:\n  kind: agent_holds\n  item: ball_1",
        )
        task = load_task_text(text, source="<test>")
        assert task.world.objects["ball_1"].position == (3, 1)

    def test_missing_goal_errors(self):
        text = self.GOOD.replace("goal: Put the ball on the table\n", "")
        with pytest.raises(TaskFileError):
            load_task_text(text, source="<test>")

    def test_unknown_anchor_errors(self):
        text = self.GOOD.replace("at: T", "at: Z")
        with pytest.raises(TaskFileError):
            load_task_text(text, source="<test>")

    def test_predicate_already_true_errors(self):
        text = self.GOOD.replace("at: b", "on: table_1")
        with pytest.raises(TaskFileError):
            load_task_text(text, source="<test>")

    def test_bad_task_id_errors(self):
        text = self.GOOD.replace("id: sample_task", "id: Sample-Task")
        with pytest.raises(TaskFileError):
            load_task_text(text, source="<test>")


def _event_depth(text: str) -> int:
    """How deep the collections of ``text`` nest, as libyaml's parse events say."""
    depth = deepest = 0
    for event in yaml.parse(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            deepest = max(deepest, depth)
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return deepest


# YAML's indicators with a little else, so random texts that parse hold flow
# and block collections, compact entries, flow pairs and explicit keys.
_YAML_CHARACTERS = "[]{}-?:, \n\tab#&*!'\""

_YAML_DATA = st.recursive(
    st.none() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
)


class TestYamlDepth:
    @settings(max_examples=500)
    @given(st.text(alphabet=_YAML_CHARACTERS, max_size=40))
    def test_the_bound_is_never_below_the_depth_of_a_text(self, text):
        try:
            depth = _event_depth(text)
        except yaml.YAMLError:
            return
        assert _depth_bound(text) >= depth

    @given(_YAML_DATA, st.sampled_from([False, True, None]), st.booleans())
    def test_the_bound_is_never_below_the_depth_of_a_dumped_document(
        self, data, flow_style, canonical
    ):
        text = yaml.safe_dump(data, default_flow_style=flow_style, canonical=canonical)
        assert _depth_bound(text) >= _event_depth(text)

    @pytest.mark.parametrize(
        "nested", [lambda n: "[" * n + "]" * n, lambda n: "- " * n + "x"], ids=["flow", "block"]
    )
    def test_collections_may_nest_as_deep_as_the_limit_and_no_deeper(self, nested):
        at_limit = "a:\n  " + nested(MAX_YAML_DEPTH - 1)
        assert _event_depth(at_limit) == MAX_YAML_DEPTH
        assert list(load_yaml_mapping(at_limit)) == ["a"]
        with pytest.raises(ValueError, match=f"nest deeper than {MAX_YAML_DEPTH} levels"):
            load_yaml_mapping("a:\n  " + nested(MAX_YAML_DEPTH))


class TestBundledSuite:
    def test_six_tasks_sorted_by_id(self):
        tasks = bundled_suite()
        ids = [t.id for t in tasks]
        assert ids == sorted(ids)
        assert len(tasks) == 6
        assert "water_houseplants" in ids

    def test_bundled_task_lookup(self):
        task = bundled_task("ball_to_table")
        assert task.goal == "Put the ball on the table"
        with pytest.raises(KeyError):
            bundled_task("no_such_task")

    def test_all_goals_start_false(self):
        for task in bundled_suite():
            assert not task.predicate.holds(task.world)


class TestSimulator:
    def test_reset_returns_initial_observation(self, ball_task):
        sim = Simulator(ball_task)
        obs = sim.reset()
        assert obs.agent_position == (1, 3)
        assert sim.step_count == 0

    def test_reset_is_deterministic(self, ball_task):
        sim = Simulator(ball_task)
        first = sim.reset()
        sim.step("forward")
        second = sim.reset()
        assert second is not first
        assert describe(first) == describe(second)

    def test_step_before_reset_raises(self, ball_task):
        sim = Simulator(ball_task)
        with pytest.raises(SimulationError):
            sim.step("forward")

    def test_task_world_is_never_mutated(self, ball_task):
        sim = Simulator(ball_task)
        sim.reset()
        sim.step("forward")
        assert ball_task.world.agent_position == (1, 3)

    def test_observation_keeps_describing_its_own_step(self):
        world = World(7, 7, walls=border_walls(7, 7), agent_position=(2, 3), agent_heading="N")
        world.place_object("ball_1", "ball", (2, 1))
        world.place_object("cabinet_1", "cabinet", (3, 2))
        world.place_object("sink_1", "sink", (1, 2))
        world.place_object("key_1", "key", (4, 4))
        task = Task(id="snap", goal="Hold the key", world=world, predicate=AgentHolds("key_1"))
        sim = Simulator(task)
        taken = [sim.reset()]
        described = [describe(taken[0])]
        script = ("forward", "pickup", "turn_right", "open", "drop", "turn_left", "turn_left", "toggle")
        for action in script:
            assert not sim.step(action)
            taken.append(sim.observe())
            described.append(describe(taken[-1]))
            assert [describe(observation) for observation in taken] == described
        # Every primitive changed the live world, so each snapshot is distinct.
        assert len({repr(description) for description in described}) == len(script) + 1
        after_pickup = described[2]
        assert after_pickup[2] == "ball_1" and after_pickup[3]["ball_1"][0] is None
        assert described[-1][:3] == ((2, 2), "W", None)
        assert described[-1][3] == {
            "ball_1": ((3, 2), False, False),
            "cabinet_1": ((3, 2), False, True),
            "sink_1": ((1, 2), True, False),
            "key_1": ((4, 4), False, False),
        }
        assert describe(taken[0]) == describe(task.world.observe())

    def test_success_latches_and_ends_episode(self):
        task = make_ball_task()
        sim = Simulator(task)
        sim.reset()
        # Grab the ball from the adjacent cell, carry it to the table, drop.
        script = ["forward", "pickup", "turn_right", "forward", "forward", "turn_left", "drop"]
        done = False
        for action in script:
            assert not done
            done = sim.step(action)
        assert done
        assert sim.succeeded

    def test_step_after_done_raises(self):
        task = make_ball_task(max_steps=2)
        sim = Simulator(task)
        sim.reset()
        sim.step("turn_left")
        done = sim.step("turn_left")
        assert done
        assert not sim.succeeded
        with pytest.raises(SimulationError):
            sim.step("turn_left")

    def test_max_steps_exhaustion_fails(self):
        task = make_ball_task(max_steps=3)
        sim = Simulator(task)
        sim.reset()
        done = False
        while not done:
            done = sim.step("turn_left")
        assert sim.step_count == 3
        assert not sim.succeeded


class TestGoalPredicates:
    def test_placed_at_requires_same_cell_not_held(self):
        world = make_ball_world()
        predicate = PlacedAt("ball_1", "table_1")
        assert not predicate.holds(world)
        world.agent_position = (1, 2)
        world.agent_heading = "N"
        world.apply_action("forward")  # onto (1,1)? blocked by nothing; ball doesn't block
        world.agent_position = (1, 2)
        world.apply_action("pickup")  # faces (1,1) where the ball sits
        assert world.agent_inventory == "ball_1"
        assert not predicate.holds(world)  # held does not count
        world.agent_position = (3, 2)
        world.agent_heading = "N"
        world.apply_action("drop")
        assert predicate.holds(world)

    def test_items_in_container_toggled(self):
        world = World(6, 6, walls=border_walls(6, 6), agent_position=(2, 3), agent_heading="N")
        world.place_object("sink_1", "sink", (2, 2))
        world.place_object("mug_1", "mug", (2, 2))
        predicate = ItemsInContainerToggled(("mug_1",), "sink_1")
        assert not predicate.holds(world)
        world.apply_action("toggle")
        assert predicate.holds(world)

    def test_agent_holds(self):
        world = make_ball_world()
        predicate = AgentHolds("ball_1")
        assert not predicate.holds(world)
        world.agent_position = (1, 2)
        world.agent_heading = "N"
        world.apply_action("pickup")
        assert predicate.holds(world)


class TestEpisodeResult:
    def test_validation(self):
        result = EpisodeResult("t", True, 10, 5)
        assert result.success
        with pytest.raises(ValueError):
            EpisodeResult("t", False, -1, 5)
        with pytest.raises(ValueError):
            EpisodeResult("t", False, 3, 0)
