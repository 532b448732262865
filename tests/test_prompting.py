"""Prompt rendering and the action grammar: parsing, failures, golden output."""

from __future__ import annotations

import re
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prag.prompting as prompting_module
from prag.prompting import (
    DEFAULT_HISTORY_LIMIT,
    HIGH_LEVEL_VERBS,
    OUTPUT_INSTRUCTION,
    HighLevelAction,
    ParseFailure,
    PromptBundle,
    action_space_text,
    build_prompt,
    parse_action,
    render_action,
)
from prag.scene_graph import extract, render_text
from prag.trajectory_db import RetrievalHit, TaskRecord

from tests.conftest import border_walls, make_ball_world

GOLDEN_PATH = Path(__file__).parent / "data" / "prompt_golden.txt"

# The reference the parser's linear pattern must agree with. Its lazy
# argument between two whitespace runs backtracks in cubic time on long runs.
REFERENCE_ACTION_LINE_RE = re.compile(r"^\s*Action:\s*([A-Za-z_]+)\s*\(\s*(.*?)\s*\)\s*$")

# Pieces of action lines, with whitespace that str.strip and \s both know
# beyond the ASCII space, and no line breaks (parse_action splits on those).
LINE_PIECES = (
    " ", "  ", "\t", "\xa0", "\u2003", "\x1f", "Action:", "Action", ":", "(", ")",
    "pickup", "done", "_", "x", "1", ",", "é",
)


def make_record(task_id, goal_text, history, done, iteration=1):
    steps = len(history)
    return TaskRecord(
        task_id=task_id,
        iteration=iteration,
        goal_text=goal_text,
        goal_embedding=np.zeros(4),
        obs_embeddings=tuple(np.zeros(4) for _ in range(steps)),
        history=tuple(history),
        done=done,
    )


@pytest.fixture
def observation():
    return make_ball_world().observe()


class TestActionValues:
    def test_verb_tuple_is_fixed(self):
        assert HIGH_LEVEL_VERBS == (
            "navigate",
            "pickup",
            "drop",
            "toggle",
            "open",
            "close",
            "done",
        )

    def test_unknown_verb_rejected(self):
        with pytest.raises(ValueError, match="unknown high-level verb"):
            HighLevelAction("jump", "ball_1")

    def test_done_takes_no_argument(self):
        with pytest.raises(ValueError, match="no argument"):
            HighLevelAction("done", "ball_1")

    def test_other_verbs_require_argument(self):
        with pytest.raises(ValueError, match="requires an argument"):
            HighLevelAction("pickup")

    def test_render_forms(self):
        assert render_action(HighLevelAction("done")) == "done()"
        assert render_action(HighLevelAction("pickup", "ball_1")) == "pickup(ball_1)"
        assert render_action(HighLevelAction("navigate", (2, 3))) == "navigate(2,3)"


class TestParseAction:
    def test_plain_verb_and_label(self, observation):
        action = parse_action("Action: pickup(ball_1)", observation)
        assert action == HighLevelAction("pickup", "ball_1")

    def test_done_parses(self, observation):
        assert parse_action("Action: done()", observation) == HighLevelAction("done")

    def test_cell_argument_with_spaces(self, observation):
        action = parse_action("Action: navigate( 2 , 3 )", observation)
        assert action == HighLevelAction("navigate", (2, 3))

    def test_first_action_line_wins(self, observation):
        text = "I think I should grab it.\nAction: pickup(ball_1)\nAction: done()"
        assert parse_action(text, observation) == HighLevelAction("pickup", "ball_1")

    def test_surrounding_whitespace_tolerated(self, observation):
        action = parse_action("   Action:  drop( table_1 )  ", observation)
        assert action == HighLevelAction("drop", "table_1")

    def test_no_action_line_is_bad_format(self, observation):
        failure = parse_action("let me think about this", observation)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "bad-format"

    def test_missing_parens_is_bad_format(self, observation):
        failure = parse_action("Action: pickup ball_1", observation)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "bad-format"

    def test_unknown_verb(self, observation):
        failure = parse_action("Action: jump(ball_1)", observation)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "unknown-verb"

    def test_verbs_are_case_sensitive(self, observation):
        failure = parse_action("Action: Pickup(ball_1)", observation)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "unknown-verb"

    def test_done_with_argument_is_invalid(self, observation):
        failure = parse_action("Action: done(now)", observation)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "invalid-argument"

    def test_missing_argument_is_invalid(self, observation):
        failure = parse_action("Action: pickup()", observation)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "invalid-argument"

    def test_out_of_bounds_cell_is_invalid(self, observation):
        failure = parse_action("Action: navigate(9,9)", observation)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "invalid-argument"

    def test_unknown_label_is_invalid(self, observation):
        failure = parse_action("Action: pickup(ghost_7)", observation)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "invalid-argument"
        assert "ghost_7" in failure.detail

    def test_cell_with_more_digits_than_int_reads_is_invalid(self, observation):
        failure = parse_action("Action: navigate(" + "1" * 5000 + ",1)", observation)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "invalid-argument"
        assert "outside the grid" in failure.detail

    def test_a_long_run_of_spaces_parses_in_linear_time(self, observation):
        def timed_out(signum, frame):
            raise TimeoutError("parse_action backtracked for over 5 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            failure = parse_action("Action: a(" + " " * 100_000, observation)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert failure == ParseFailure("bad-format", "no 'Action: <verb>(<argument>)' line found")

    @settings(max_examples=500)
    @given(
        st.one_of(
            st.lists(st.sampled_from(LINE_PIECES), max_size=12).map("".join),
            st.tuples(
                *(st.lists(st.sampled_from(LINE_PIECES), max_size=4).map("".join) for _ in range(3))
            ).map(lambda p: f"{p[0]}Action:{p[1]}pickup ({p[2]}) "),
        )
    )
    def test_lines_split_as_the_reference_pattern_splits_them(self, line):
        reference = REFERENCE_ACTION_LINE_RE.match(line)
        match = prompting_module._ACTION_LINE_RE.fullmatch(line)
        assert (match is None) == (reference is None)
        if match is not None:
            assert (match.group(1), match.group(2).strip()) == reference.groups()

    @pytest.mark.parametrize(
        "action",
        [
            HighLevelAction("done"),
            HighLevelAction("pickup", "ball_1"),
            HighLevelAction("drop", "table_1"),
            HighLevelAction("navigate", (2, 3)),
            HighLevelAction("toggle", "table_1"),
        ],
    )
    def test_render_parse_round_trip(self, observation, action):
        assert parse_action("Action: " + render_action(action), observation) == action


class TestActionSpaceText:
    def test_lists_sorted_labels(self, observation):
        text = action_space_text(observation)
        assert text.endswith("Visible objects: ball_1, table_1")

    def test_empty_world_says_none(self):
        from prag.gridworld.world import World

        obs = World(3, 3, agent_position=(1, 1), agent_heading="N").observe()
        assert action_space_text(obs).endswith("Visible objects: (none)")

    def test_every_verb_is_documented(self, observation):
        text = action_space_text(observation)
        for verb in HIGH_LEVEL_VERBS:
            assert f"{verb}(" in text


def experiences_text(record, **limit) -> str:
    """The EXPERIENCES section of a prompt that retrieved only ``record``."""
    bundle = PromptBundle(
        goal="g",
        scene_text="",
        action_space_text="",
        experiences=(RetrievalHit(1.0, record),),
        **limit,
    )
    text = build_prompt(bundle)
    return text[text.index("EXPERIENCES\n") : text.index(OUTPUT_INSTRUCTION)]


class TestExperiences:
    def test_histories_pass_through_untruncated(self):
        record = make_record("t", "goal", [("done()", "")], done=True)
        text = experiences_text(record)
        assert "[1] done=True\ngoal: goal\nsteps:\n1. done() => (nothing visible)\n" in text

    def test_default_limit_is_twenty(self):
        assert DEFAULT_HISTORY_LIMIT == 20
        assert PromptBundle(goal="g", scene_text="", action_space_text="").history_limit == 20
        history = [(f"navigate({i},1)", f"obs {i}") for i in range(21)]
        record = make_record("t", "goal", history, done=True)
        assert "steps (last 20 of 21):\n2. navigate(1,1) => obs 1\n" in experiences_text(record)

    def test_long_history_keeps_last_n(self):
        history = [(f"navigate({i},1)", f"obs {i}") for i in range(25)]
        record = make_record("t", "goal", history, done=True)
        step_lines = [
            line for line in experiences_text(record, history_limit=20).splitlines()
            if "=>" in line
        ]
        assert len(step_lines) == 20
        assert step_lines[0] == "6. navigate(5,1) => obs 5"
        assert step_lines[-1] == "25. navigate(24,1) => obs 24"

    def test_truncated_rendering_keeps_original_numbering(self):
        history = [(f"navigate({i},1)", f"obs {i}") for i in range(25)]
        record = make_record("t", "long goal", history, done=False)
        text = experiences_text(record, history_limit=20)
        assert "steps (last 20 of 25):" in text
        assert "\n6. navigate(5,1) => obs 5\n" in text
        assert "\n25. navigate(24,1) => obs 24\n" in text
        assert "\n5. navigate(4,1)" not in text

    def test_limit_below_one_rejected(self):
        with pytest.raises(ValueError, match="history_limit"):
            PromptBundle(goal="g", scene_text="", action_space_text="", history_limit=0)


class TestBuildPrompt:
    def test_matches_golden_file(self):
        from prag.gridworld.world import World

        world = World(
            5, 5, walls=border_walls(5, 5), agent_position=(1, 3), agent_heading="N"
        )
        world.place_object("table_1", "table", (3, 1))
        world.place_object("ball_1", "ball", (3, 1))
        obs = world.observe()

        first = make_record(
            "wash_mugs",
            "Wash the mugs in the sink",
            [
                (
                    "pickup(mug_1)",
                    "mug_1/agent/held_by: True\nsink_1/sink_1/toggled_on: True",
                ),
                ("drop(sink_1)", "mug_1/sink_1/inside_of: True"),
            ],
            done=True,
            iteration=2,
        )
        second = make_record(
            "ball_task",
            "Put the ball on the table",
            [("navigate(table_1)", "")],
            done=False,
        )
        bundle = PromptBundle(
            goal="Put the ball on the table",
            scene_text=render_text(extract(obs)),
            action_space_text=action_space_text(obs),
            experiences=(RetrievalHit(1.842, first), RetrievalHit(0.317, second)),
        )
        assert build_prompt(bundle) == GOLDEN_PATH.read_text()

    def test_section_order(self, observation):
        bundle = PromptBundle(
            goal="g",
            scene_text=render_text(extract(observation)),
            action_space_text=action_space_text(observation),
        )
        text = build_prompt(bundle)
        positions = [text.index(h) for h in ("GOAL", "OBSERVATION", "ACTIONS", "EXPERIENCES")]
        assert positions == sorted(positions)
        assert text.endswith(OUTPUT_INSTRUCTION)

    def test_empty_scene_placeholder(self):
        bundle = PromptBundle(goal="g", scene_text="", action_space_text="a")
        assert "OBSERVATION\n(nothing visible)\n" in build_prompt(bundle)

    def test_no_experiences_placeholder(self):
        bundle = PromptBundle(goal="g", scene_text="s", action_space_text="a")
        assert "EXPERIENCES\n(none)\n" in build_prompt(bundle)

    def test_empty_step_observation_placeholder(self):
        record = make_record("t", "g", [("done()", "")], done=True)
        bundle = PromptBundle(
            goal="g",
            scene_text="s",
            action_space_text="a",
            experiences=(RetrievalHit(1.0, record),),
        )
        assert "1. done() => (nothing visible)" in build_prompt(bundle)

    def test_deterministic_for_equal_bundles(self, observation):
        def make():
            record = make_record("t", "goal", [("done()", "x")], done=True)
            return PromptBundle(
                goal="g",
                scene_text=render_text(extract(observation)),
                action_space_text=action_space_text(observation),
                experiences=(RetrievalHit(0.5, record),),
            )

        assert build_prompt(make()) == build_prompt(make())


class TestEquality:
    def test_hits_and_bundles_holding_equal_records_compare_without_raising(self):
        def make_hit():
            return RetrievalHit(0.5, make_record("t", "goal", [("done()", "x")], done=True))

        def make_bundle(hit):
            return PromptBundle(goal="g", scene_text="s", action_space_text="a", experiences=(hit,))

        first, second = make_hit(), make_hit()
        assert first.record.to_json_line() == second.record.to_json_line()
        # Records compare by identity, so equal contents are still two records.
        assert first != second
        assert first == RetrievalHit(0.5, first.record)
        assert make_bundle(first) != make_bundle(second)
        assert make_bundle(first) == make_bundle(first)
