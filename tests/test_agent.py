"""Action decomposition, the retry loop, and whole-episode runs."""

from __future__ import annotations

import random

import numpy as np
import pytest

import prag.agent as agent_module
import prag.prompting as prompting_module

from prag.agent import (
    DecompositionError,
    PlannerFailure,
    decompose,
    plan_step,
    run_episode,
)
from prag.backends import BackendError, PlannerBackend, ReplayOracleBackend, ScriptedReplyBackend
from prag.driver import RunConfig, run_iterations
from prag.embedding import EncoderError, HashingEncoder
from prag.gridworld.sim import Simulator
from prag.gridworld.solver import shortest_solution_steps
from prag.gridworld.tasks import bundled_suite
from prag.gridworld.world import World
from prag.nav import distance_field
from prag.prompting import (
    OUTPUT_INSTRUCTION,
    HighLevelAction,
    PromptBundle,
    action_space_text,
    build_prompt,
)
from prag.scene_graph import extract, render_text
from prag.trajectory_db import TrajectoryDB, TaskRecord

from tests.conftest import ScriptedBackend, border_walls, make_ball_task, make_ball_world


def run_low_level(world, actions):
    """Apply decomposed actions on a copy; return the mutated copy."""
    out = world.copy()
    for action in actions:
        out.apply_action(action)
    return out


def executed(outcome):
    """The actions an episode executed: its record's history, if it has one."""
    return [action for action, _ in outcome.record.history] if outcome.record else []


def make_bundle(world, goal="goal"):
    return PromptBundle(
        goal=goal,
        scene_text=render_text(extract(world)),
        action_space_text=action_space_text(world),
    )


class TestDecompose:
    def test_done_is_a_stop_marker(self):
        obs = make_ball_world().observe()
        assert decompose(HighLevelAction("done"), obs) == ()

    def test_navigate_to_cell_walks_onto_it(self):
        world = make_ball_world()
        obs = world.observe()
        plan = decompose(HighLevelAction("navigate", (2, 2)), obs)
        after = run_low_level(world, plan)
        assert after.agent_position == (2, 2)

    def test_navigate_to_own_cell_is_empty(self):
        world = make_ball_world()
        obs = world.observe()
        plan = decompose(HighLevelAction("navigate", world.agent_position), obs)
        assert plan == ()

    def test_navigate_to_object_stands_adjacent_and_faces_it(self):
        world = make_ball_world()
        obs = world.observe()
        plan = decompose(HighLevelAction("navigate", "table_1"), obs)
        after = run_low_level(world, plan)
        ax, ay = after.agent_position
        assert abs(ax - 3) + abs(ay - 1) == 1
        from prag.gridworld.world import HEADING_DELTAS

        dx, dy = HEADING_DELTAS[after.agent_heading]
        assert (ax + dx, ay + dy) == (3, 1)

    def test_pickup_plan_ends_with_the_primitive_and_works(self):
        world = make_ball_world()
        obs = world.observe()
        plan = decompose(HighLevelAction("pickup", "ball_1"), obs)
        assert plan[-1] == "pickup"
        after = run_low_level(world, plan)
        assert after.agent_inventory == "ball_1"

    def test_stand_cell_ties_resolve_north_first(self):
        from prag.gridworld.world import World

        walls = frozenset(border_walls(7, 7) | {(4, 3)})
        world = World(7, 7, walls=walls, agent_position=(5, 3), agent_heading="N")
        world.place_object("table_1", "table", (3, 3))
        plan = decompose(HighLevelAction("toggle", "table_1"), world.observe())
        after = run_low_level(world, plan[:-1])
        assert after.agent_position == (3, 2)
        assert after.agent_heading == "S"

    def test_manipulating_a_wall_cell_is_an_error(self):
        obs = make_ball_world().observe()
        with pytest.raises(DecompositionError, match="is a wall"):
            decompose(HighLevelAction("pickup", (0, 0)), obs)

    def test_navigating_to_a_blocked_cell_is_an_error(self):
        obs = make_ball_world().observe()
        with pytest.raises(DecompositionError, match="not walkable"):
            decompose(HighLevelAction("navigate", (0, 0)), obs)

    def test_held_item_has_no_cell(self):
        world = make_ball_world()
        obs = world.observe()
        plan = decompose(HighLevelAction("pickup", "ball_1"), obs)
        world = run_low_level(world, plan)
        with pytest.raises(DecompositionError, match="held"):
            decompose(HighLevelAction("navigate", "ball_1"), world.observe())

    @pytest.mark.parametrize("verb", ["navigate", "pickup", "drop", "toggle", "open", "close"])
    def test_a_held_object_is_rejected_by_every_verb(self, verb):
        sim = Simulator(make_ball_task())
        sim.reset()
        for primitive in ("forward", "pickup"):  # from (1,3) up to face the ball at (1,1)
            sim.step(primitive)
        obs = sim.observe()
        assert obs.agent_inventory == "ball_1"
        assert obs.objects["ball_1"].position is None
        with pytest.raises(DecompositionError, match="ball_1 is being held"):
            decompose(HighLevelAction(verb, "ball_1"), obs)

    def test_unknown_label_is_an_error(self):
        obs = make_ball_world().observe()
        with pytest.raises(DecompositionError, match="ghost_9"):
            decompose(HighLevelAction("pickup", "ghost_9"), obs)

    def test_unreachable_target_is_an_error(self):
        from prag.gridworld.world import World

        # The ball sits in a fully walled-off pocket.
        walls = frozenset(
            border_walls(7, 7) | {(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (3, 4), (4, 4)}
        )
        world = World(7, 7, walls=walls, agent_position=(1, 1), agent_heading="N")
        world.place_object("ball_1", "ball", (3, 3))
        with pytest.raises(DecompositionError, match="no reachable cell adjacent"):
            decompose(HighLevelAction("pickup", "ball_1"), world.observe())


class TestPlanStep:
    def test_good_reply_uses_one_call(self):
        obs = make_ball_world().observe()
        backend = ScriptedBackend(["Action: pickup(ball_1)"])
        action, plan = plan_step(backend, make_bundle(obs), obs, 0)
        assert backend.calls == 1
        assert action == HighLevelAction("pickup", "ball_1")
        assert plan[-1] == "pickup"

    def test_two_bad_replies_then_good_uses_three_calls(self):
        obs = make_ball_world().observe()
        backend = ScriptedBackend(
            ["no action here", "Action: jump(ball_1)", "Action: pickup(ball_1)"]
        )
        action, _ = plan_step(backend, make_bundle(obs), obs, 0)
        assert backend.calls == 3
        assert action == HighLevelAction("pickup", "ball_1")

    def test_budget_exhaustion_raises_planner_failure(self):
        obs = make_ball_world().observe()
        backend = ScriptedBackend(["bad"] * 10)
        with pytest.raises(PlannerFailure) as info:
            plan_step(backend, make_bundle(obs), obs, 0, max_retries=3)
        assert backend.calls == 4
        assert len(info.value.failures) == 4
        assert {f.reason for f in info.value.failures} == {"bad-format"}

    def test_the_backend_receives_the_bundle_the_prompt_was_rendered_from(self):
        obs = make_ball_world().observe()
        bundle = make_bundle(obs)
        backend = ScriptedBackend(["Action: jump(ball_1)", "Action: done()"])
        plan_step(backend, bundle, obs, 0)
        assert backend.bundles[0] is bundle
        assert backend.prompts[0] == build_prompt(bundle)
        assert backend.bundles[1] is bundle  # a retry renders from the same bundle

    def test_retry_prompt_carries_feedback(self):
        obs = make_ball_world().observe()
        backend = ScriptedBackend(["Action: jump(ball_1)", "Action: done()"])
        plan_step(backend, make_bundle(obs), obs, 0)
        assert len(backend.prompts) == 2
        base = backend.prompts[0]
        assert backend.prompts[1].startswith(base)
        assert "previous reply was not usable (unknown-verb" in backend.prompts[1]
        assert backend.prompts[1].endswith(OUTPUT_INSTRUCTION)

    def test_decomposition_errors_share_the_budget(self):
        obs = make_ball_world().observe()
        backend = ScriptedBackend(["Action: pickup(0,0)"] * 4)
        with pytest.raises(PlannerFailure) as info:
            plan_step(backend, make_bundle(obs), obs, 0, max_retries=1)
        assert backend.calls == 2
        assert all(f.reason == "invalid-argument" for f in info.value.failures)
        assert "is a wall" in info.value.failures[0].detail

    def test_backend_error_propagates(self):
        class Exploding(PlannerBackend):
            def complete(self, prompt, bundle):
                raise BackendError("down")

        obs = make_ball_world().observe()
        with pytest.raises(BackendError, match="down"):
            plan_step(Exploding(), make_bundle(obs), obs, 0)

    def test_negative_retry_budget_rejected(self):
        obs = make_ball_world().observe()
        with pytest.raises(ValueError, match="max_retries"):
            plan_step(ScriptedBackend([]), make_bundle(obs), obs, 0, max_retries=-1)


SOLVE_BALL = ["Action: pickup(ball_1)", "Action: drop(table_1)"]


class StubEncoder:
    """Hashing encoder that logs every text and raises after ``limit`` calls."""

    def __init__(self, limit=None):
        self.inner = HashingEncoder(dimension=64)
        self.dimension = self.inner.dimension
        self.limit = limit
        self.texts = []

    def encode(self, text):
        if self.limit is not None and len(self.texts) >= self.limit:
            raise EncoderError("encoder down")
        self.texts.append(text)
        return self.inner.encode(text)


def episode(task, backend, encoder, db, **kwargs):
    """``run_episode`` with the task's optimum solved here, as the driver does."""
    return run_episode(
        task, backend, encoder, db, shortest_steps=shortest_solution_steps(task), **kwargs
    )


class TestRunEpisode:
    def setup_method(self):
        self.encoder = HashingEncoder(dimension=64)
        self.db = TrajectoryDB(dimension=64)

    def test_empty_db_means_zero_retrieval_calls(self, ball_task):
        backend = ScriptedBackend(SOLVE_BALL)
        outcome = episode(ball_task, backend, self.encoder, self.db)
        assert outcome.retrieval_calls == 0
        assert outcome.result.success is True
        assert outcome.failure is None

    def test_success_record_fields(self, ball_task):
        backend = ScriptedBackend(SOLVE_BALL)
        outcome = episode(ball_task, backend, self.encoder, self.db, iteration=4)
        record = outcome.record
        assert record is not None
        assert record.task_id == ball_task.id
        assert record.iteration == 4
        assert record.goal_text == ball_task.goal
        assert record.done is True
        assert [a for a, _ in record.history] == ["pickup(ball_1)", "drop(table_1)"]
        assert len(record.obs_embeddings) == len(record.history) == 2
        assert executed(outcome) == ["pickup(ball_1)", "drop(table_1)"]
        assert outcome.result.shortest_steps == 6
        assert outcome.result.steps_taken >= 6

    def test_record_pairs_pre_action_embeddings_with_post_action_text(self, ball_task):
        backend = ScriptedBackend(SOLVE_BALL)
        outcome = episode(ball_task, backend, self.encoder, self.db)
        record = outcome.record
        initial_scene = render_text(extract(ball_task.world.observe()))
        # Embedding for step 1 is the scene the action was chosen in.
        assert np.array_equal(
            record.obs_embeddings[0], self.encoder.encode(initial_scene)
        )
        # The paired text is what the action led to.
        assert record.history[0][1] != initial_scene
        assert "ball_1/agent/held_by: True" in record.history[0][1]

    def test_nonempty_db_queries_every_planning_step(self, ball_task):
        seed_record = TaskRecord(
            task_id="other",
            iteration=1,
            goal_text="something else",
            goal_embedding=self.encoder.encode("something else"),
            obs_embeddings=(self.encoder.encode("x"),),
            history=(("done()", ""),),
            done=False,
        )
        self.db.update_after_iteration([seed_record])
        backend = ScriptedBackend(SOLVE_BALL + ["Action: done()"])
        outcome = episode(ball_task, backend, self.encoder, self.db)
        # Two acting steps; success ends the episode before a third planning step.
        assert outcome.retrieval_calls == 2
        assert outcome.result.success is True

    def test_a_coordinate_too_long_for_int_is_a_parse_failure(self, ball_task):
        events = []
        backend = ScriptedReplyBackend(["Action: navigate(" + "1" * 5000 + ",1)", *SOLVE_BALL])
        outcome = episode(
            ball_task, backend, self.encoder, self.db,
            log=lambda event, **payload: events.append((event, payload)),
        )
        failures = [payload for event, payload in events if event == "parse-failure"]
        assert [(f["step"], f["reason"]) for f in failures] == [(0, "invalid-argument")]
        assert outcome.failure is None
        assert outcome.result.success is True

    @pytest.mark.parametrize(
        "reply",
        [
            "Action: pickup(" + "x" * 100_000 + ")",
            "Action: navigate(" + "1" * 100_000 + ",1)",
            "Action: " + "x" * 100_000 + "(ball_1)",
        ],
        ids=["label", "cell", "verb"],
    )
    def test_a_long_reply_grows_the_retry_prompt_by_a_bounded_detail(self, ball_task, reply):
        events = []
        backend = ScriptedReplyBackend([reply] * 3 + SOLVE_BALL)
        outcome = episode(
            ball_task, backend, self.encoder, self.db, max_retries=3,
            log=lambda event, **payload: events.append((event, payload)),
        )
        first, *retries = [payload["text"] for event, payload in events if event == "prompt"][:4]
        assert len(retries) == 3
        assert all(len(retry) <= len(first) + 200 for retry in retries)
        assert outcome.result.success is True

    def test_done_only_episode_yields_no_record(self, ball_task):
        backend = ScriptedBackend(["Action: done()"])
        outcome = episode(ball_task, backend, self.encoder, self.db)
        assert outcome.record is None
        assert executed(outcome) == []
        assert outcome.result.success is False
        assert outcome.result.steps_taken == 0

    def test_planner_failure_is_recorded_not_raised(self, ball_task):
        backend = ScriptedBackend(["garbage"] * 40)
        outcome = episode(ball_task, backend, self.encoder, self.db, max_retries=2)
        assert outcome.failure == "planner-failure"
        assert outcome.result.success is False
        assert outcome.record is None
        assert backend.calls == 3

    def test_backend_error_is_recorded_not_raised(self, ball_task):
        class Exploding(PlannerBackend):
            def complete(self, prompt, bundle):
                raise BackendError("down")

        outcome = episode(ball_task, Exploding(), self.encoder, self.db)
        assert outcome.failure == "backend-error"
        assert outcome.result.success is False

    def test_goal_is_encoded_once_per_episode(self, ball_task):
        encoder = StubEncoder()
        outcome = episode(ball_task, ScriptedBackend(SOLVE_BALL), encoder, self.db)
        assert encoder.texts.count(ball_task.goal) == 1
        assert len(encoder.texts) == 1 + len(outcome.record.history)
        assert np.array_equal(
            outcome.record.goal_embedding, self.encoder.encode(ball_task.goal)
        )

    def test_encoder_error_is_recorded_not_raised(self, ball_task):
        backend = ScriptedBackend(SOLVE_BALL)
        outcome = episode(ball_task, backend, StubEncoder(limit=0), self.db)
        assert outcome.failure == "encoder-error"
        assert outcome.result.success is False
        assert outcome.record is None
        assert backend.calls == 0

    def test_encoder_error_midway_keeps_partial_history(self, ball_task):
        # Calls: goal, first scene, then the second scene fails.
        encoder = StubEncoder(limit=2)
        outcome = episode(ball_task, ScriptedBackend(SOLVE_BALL), encoder, self.db)
        assert outcome.failure == "encoder-error"
        assert outcome.result.success is False
        assert [a for a, _ in outcome.record.history] == ["pickup(ball_1)"]

    def test_partial_history_is_recorded_after_midway_failure(self, ball_task):
        backend = ScriptedBackend(["Action: pickup(ball_1)"] + ["garbage"] * 40)
        outcome = episode(ball_task, backend, self.encoder, self.db, max_retries=1)
        assert outcome.failure == "planner-failure"
        assert outcome.record is not None
        assert outcome.record.done is False
        assert [a for a, _ in outcome.record.history] == ["pickup(ball_1)"]

    def test_action_free_plans_cannot_loop_forever(self):
        task = make_ball_task(max_steps=5)
        # Navigating to the agent's own cell decomposes to zero simulator steps.
        backend = ScriptedBackend(["Action: navigate(1,3)"] * 100)
        outcome = episode(task, backend, self.encoder, self.db)
        assert outcome.result.success is False
        assert len(executed(outcome)) == 5
        assert backend.calls == 5

    def test_max_steps_override_caps_the_simulator(self, ball_task):
        backend = ScriptedBackend(["Action: navigate(2,3)", "Action: navigate(1,3)"] * 50)
        outcome = episode(ball_task, backend, self.encoder, self.db, max_steps=3)
        assert outcome.result.steps_taken <= 3

    def count_snapshots(self, monkeypatch):
        """Count scene-graph extracts and world snapshots during a run."""
        import prag.agent as agent_module
        from prag.gridworld.world import World

        counts = {"extract": 0, "observe": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(agent_module, "extract", counting("extract", extract))
        monkeypatch.setattr(World, "observe", counting("observe", World.observe))
        return counts

    def test_one_snapshot_and_one_scene_graph_per_step(self, ball_task, monkeypatch):
        counts = self.count_snapshots(monkeypatch)
        backend = ScriptedBackend(SOLVE_BALL)
        outcome = episode(ball_task, backend, self.encoder, self.db)
        assert outcome.result.success is True
        assert outcome.result.steps_taken > len(executed(outcome)) == 2
        # One per planning step plus one per episode (the initial scene) ...
        assert counts["extract"] == backend.calls + 1 == 3
        # ... and one world snapshot per executed action, plus the reset.
        assert counts["observe"] == len(executed(outcome)) + 1 == 3

    @pytest.mark.parametrize(
        "replies",
        [
            ["Action: pickup(ball_1)", "Action: done()"],
            ["Action: navigate(1,3)", "Action: navigate(2,3)", "Action: done()"],
            ["Action: done()"],
        ],
    )
    def test_stopped_episodes_snapshot_once_per_action(self, ball_task, monkeypatch, replies):
        counts = self.count_snapshots(monkeypatch)
        outcome = episode(ball_task, ScriptedBackend(replies), self.encoder, self.db)
        assert len(executed(outcome)) == len(replies) - 1
        assert counts["extract"] == counts["observe"] == len(executed(outcome)) + 1

    def test_episodes_are_deterministic(self, ball_task):
        def once():
            backend = ScriptedBackend(SOLVE_BALL)
            return episode(
                make_ball_task(), backend, HashingEncoder(dimension=64), TrajectoryDB(dimension=64)
            )

        a, b = once(), once()
        assert a.result == b.result
        assert executed(a) == executed(b)
        assert a.record.history == b.record.history
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.record.obs_embeddings, b.record.obs_embeddings)
        )


class TestNavigationMemo:
    """An episode builds its grid once and grows each field once per source."""

    def setup_method(self):
        self.encoder = HashingEncoder(dimension=64)
        self.db = TrajectoryDB(dimension=64)

    def test_action_fuzz_never_changes_the_navigable_grid(self):
        rng = random.Random(909)
        actions = (
            "forward", "turn_left", "turn_right", "pickup", "drop", "toggle", "open", "close"
        )
        pickups = 0
        for task in bundled_suite():
            world = task.world.copy()
            first = world.navigable_grid()
            for _ in range(2000):
                held = world.agent_inventory
                world.apply_action(rng.choice(actions))
                pickups += held is None and world.agent_inventory is not None
                assert np.array_equal(world.navigable_grid(), first)
        assert pickups >= 20  # portable objects really moved

    def count_navigation(self, monkeypatch):
        """Record the source of every field grown and count grid builds."""
        sources = []
        grids = []

        def counting_field(grid, source):
            sources.append(source)
            return distance_field(grid, source)

        def counting_grid(world):
            grids.append(world)
            return navigable_grid(world)

        navigable_grid = World.navigable_grid
        monkeypatch.setattr(agent_module, "distance_field", counting_field)
        monkeypatch.setattr(World, "navigable_grid", counting_grid)
        return sources, grids

    WANDER = [
        "Action: navigate(2,3)",  # from (1,3)
        "Action: navigate(1,3)",  # from (2,3)
        "Action: navigate(0,0)",  # a wall: rejected, retried at the same cell
        "Action: navigate(2,3)",  # from (1,3) again
        "Action: pickup(ball_1)",  # from (2,3) again
        "Action: done()",
    ]

    def test_one_field_per_distinct_source_in_an_episode(self, ball_task, monkeypatch):
        sources, grids = self.count_navigation(monkeypatch)
        backend = ScriptedBackend(self.WANDER)
        outcome = episode(ball_task, backend, self.encoder, self.db)
        assert executed(outcome) == [
            "navigate(2,3)", "navigate(1,3)", "navigate(2,3)", "pickup(ball_1)"
        ]
        assert sources == [(1, 3), (2, 3)]
        assert len(grids) == 1

    def test_a_second_episode_grows_its_own_fields(self, ball_task, monkeypatch):
        sources, grids = self.count_navigation(monkeypatch)
        for _ in range(2):
            episode(ball_task, ScriptedBackend(self.WANDER), self.encoder, self.db)
        assert sources == [(1, 3), (2, 3)] * 2
        assert len(grids) == 2

    def test_shared_fields_are_read_only(self, ball_task):
        nav = agent_module.NavigationMemo()
        world = ball_task.world.observe()
        decompose(HighLevelAction("navigate", (2, 3)), world, nav)
        with pytest.raises(ValueError):
            nav.grid[1, 1] = False
        with pytest.raises(ValueError):
            nav.fields[(1, 3)].distances[1, 1] = 0.0


class TestExperienceMemo:
    """An episode renders each retrieved record once; prompts do not change."""

    def test_a_suite_run_prompts_as_an_unmemoized_render(self, monkeypatch):
        received = []  # (episode, prompt, bundle)
        episodes = []
        renders = []
        complete = ReplayOracleBackend.complete
        begin_episode = ReplayOracleBackend.begin_episode
        render = prompting_module._render_experience_body

        def recording_complete(self, prompt, bundle):
            received.append((len(episodes), prompt, bundle))
            return complete(self, prompt, bundle)

        def counting_begin(self, *args):
            episodes.append(args)
            return begin_episode(self, *args)

        def counting_render(record, history_limit):
            renders.append(record)
            return render(record, history_limit)

        monkeypatch.setattr(ReplayOracleBackend, "complete", recording_complete)
        monkeypatch.setattr(ReplayOracleBackend, "begin_episode", counting_begin)
        monkeypatch.setattr(prompting_module, "_render_experience_body", counting_render)
        run_iterations(RunConfig(tasks="suite", iterations=3, early_stop=False))
        run_renders = len(renders)

        assert received
        for _episode, prompt, bundle in received:
            assert prompt == build_prompt(bundle)

        uses = [(ep, hit.record) for ep, _, bundle in received for hit in bundle.experiences]
        # The memo renders each (episode, record) once, where a render per
        # prompt would redo the records every step retrieves again.
        distinct = {(ep, id(record)) for ep, record in uses}
        assert run_renders == len(distinct) < len(uses)
        for _ep, record in uses:
            assert not hasattr(record, "__dict__")
