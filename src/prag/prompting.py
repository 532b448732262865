"""Prompt assembly and the high-level action grammar.

The prompt shown to a planner backend has four fixed sections, always in the
same order: GOAL, OBSERVATION (current scene graph), ACTIONS (the grammar),
EXPERIENCES (retrieved trajectories, best first), then one output-format
instruction. Rendering is deterministic down to the byte so prompts can be
golden-file tested and replayed. A ``PromptBundle`` holds a step's inputs,
and the planner hands the backend the bundle beside the text it renders.
Experiences are the retrieval hits as the database returned them; each
record's history is cut to its last ``history_limit`` steps only as it is
rendered. Parsing and the action vocabulary read the step's world snapshot.

The reply grammar is a single line ``Action: <verb>(<argument>)``. Parsing
never raises on bad model output; it returns a ParseFailure value with one of
three reasons (bad-format, unknown-verb, invalid-argument) that the planning
loop feeds back into a retry prompt (``retry_prompt``). The planner and
``prag prompt``, which rebuilds logged prompts, render through these same
functions.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass

from .gridworld.world import Cell, World
from .trajectory_db import RetrievalHit, TaskRecord

DEFAULT_HISTORY_LIMIT = 20

HIGH_LEVEL_VERBS = ("navigate", "pickup", "drop", "toggle", "open", "close", "done")

OUTPUT_INSTRUCTION = "Respond with exactly one line: Action: <verb>(<argument>)"

# Matched with fullmatch. The argument is everything up to the line's last
# ")", stripped after the match: a lazy argument between two whitespace runs,
# as in r"\(\s*(.*?)\s*\)", backtracks in cubic time on a long run of spaces.
_ACTION_LINE_RE = re.compile(r"\s*Action:\s*([A-Za-z_]+)\s*\((.*)\)\s*")
_CELL_ARG_RE = re.compile(r"^(\d+)\s*,\s*(\d+)$")

_GRAMMAR_LINES = (
    "navigate(<target>): walk next to the target and face it",
    "pickup(<target>): go to the target and take the top item there (hands must be empty)",
    "drop(<target>): go to the target and put the held item there",
    "toggle(<target>): go to the target and switch it on or off",
    "open(<target>): go to the target and open it",
    "close(<target>): go to the target and close it",
    "done(): declare the task finished",
    '<target> is a visible object label, or a cell given as "x,y".',
)


@dataclass(frozen=True)
class HighLevelAction:
    """One planner decision: a verb plus an object label or cell argument."""

    verb: str
    argument: str | Cell | None = None

    def __post_init__(self) -> None:
        if self.verb not in HIGH_LEVEL_VERBS:
            raise ValueError(f"unknown high-level verb: {self.verb!r}")
        if self.verb == "done":
            if self.argument is not None:
                raise ValueError("done takes no argument")
        elif self.argument is None:
            raise ValueError(f"{self.verb} requires an argument")


@dataclass(frozen=True)
class ParseFailure:
    """Why a reply could not be turned into an action. Returned, not raised."""

    reason: str  # bad-format | unknown-verb | invalid-argument
    detail: str


def render_action(action: HighLevelAction) -> str:
    if action.argument is None:
        return f"{action.verb}()"
    if isinstance(action.argument, tuple):
        x, y = action.argument
        return f"{action.verb}({x},{y})"
    return f"{action.verb}({action.argument})"


def parse_action(text: str, world: World) -> HighLevelAction | ParseFailure:
    """Parse the first well-formed action line out of a backend reply.

    The argument must resolve against the step's world: either a visible
    object label or an in-bounds cell. Matching takes time linear in the
    reply, so any reply, however long, is at worst a ParseFailure. A
    failure's detail quotes the verb and argument through ``reprlib``, so
    the retry prompt that appends it grows by a bounded amount.
    """
    match = None
    for line in text.splitlines():
        match = _ACTION_LINE_RE.fullmatch(line)
        if match:
            break
    if not match:
        return ParseFailure("bad-format", "no 'Action: <verb>(<argument>)' line found")

    verb, arg = match.group(1), match.group(2).strip()
    if verb not in HIGH_LEVEL_VERBS:
        return ParseFailure("unknown-verb", f"{reprlib.repr(verb)} is not an available action")

    if verb == "done":
        if arg:
            return ParseFailure("invalid-argument", "done takes no argument")
        return HighLevelAction("done")

    if not arg:
        return ParseFailure("invalid-argument", f"{verb} requires a target")
    cell_match = _CELL_ARG_RE.match(arg)
    if cell_match:
        try:
            cell = (int(cell_match.group(1)), int(cell_match.group(2)))
        except ValueError:  # more digits than int() reads: rejected like any off-grid cell
            cell = None
        if cell is None or not world.in_bounds(cell):
            return ParseFailure("invalid-argument", f"cell {reprlib.repr(arg)} is outside the grid")
        return HighLevelAction(verb, cell)
    if arg not in world.objects:
        return ParseFailure("invalid-argument", f"no visible object named {reprlib.repr(arg)}")
    return HighLevelAction(verb, arg)


def action_space_text(world: World) -> str:
    """The ACTIONS section: fixed grammar plus the current object vocabulary."""
    labels = ", ".join(sorted(world.objects)) or "(none)"
    return "\n".join(_GRAMMAR_LINES + (f"Visible objects: {labels}",))


@dataclass(frozen=True)
class PromptBundle:
    """Everything the planner sees for one step, in render order.

    ``experiences`` are retrieval hits, best first. Each is rendered with at
    most the last ``history_limit`` steps of its record's history.
    """

    goal: str
    scene_text: str
    action_space_text: str
    experiences: tuple[RetrievalHit, ...] = ()
    history_limit: int = DEFAULT_HISTORY_LIMIT

    def __post_init__(self) -> None:
        if self.history_limit < 1:
            raise ValueError(f"history_limit must be >= 1, got {self.history_limit}")


# Rendered experience text, keyed by (record, history limit): everything of
# an experience but its "[i] done=" header. Records hash by identity, and a
# key holds its record, so no other record can come to share its key.
ExperienceMemo = dict[tuple[TaskRecord, int], str]


def _render_experience_body(record: TaskRecord, history_limit: int) -> str:
    lines = [f"goal: {record.goal_text}"]
    history = record.history
    total = len(history)
    shown = history[-history_limit:]
    if len(shown) < total:
        lines.append(f"steps (last {len(shown)} of {total}):")
    else:
        lines.append("steps:")
    for i, (action_text, obs_text) in enumerate(shown, start=total - len(shown) + 1):
        flat_obs = obs_text.replace("\n", "; ") if obs_text else "(nothing visible)"
        lines.append(f"{i}. {action_text} => {flat_obs}")
    return "\n".join(lines)


def build_prompt(bundle: PromptBundle, memo: ExperienceMemo | None = None) -> str:
    """Render the full prompt. Byte-identical for equal bundles.

    ``memo`` keeps each experience's text past the call, so a record
    retrieved again renders only its header; ``run_episode`` owns one per
    episode. A direct call without a memo starts an empty one; the text is
    the same either way.
    """
    if memo is None:
        memo = {}
    sections = [
        "GOAL",
        bundle.goal,
        "",
        "OBSERVATION",
        bundle.scene_text if bundle.scene_text else "(nothing visible)",
        "",
        "ACTIONS",
        bundle.action_space_text,
        "",
        "EXPERIENCES",
    ]
    if bundle.experiences:
        limit = bundle.history_limit
        rendered = []
        for i, hit in enumerate(bundle.experiences, start=1):
            record = hit.record
            body = memo.get((record, limit))
            if body is None:
                body = memo[record, limit] = _render_experience_body(record, limit)
            rendered.append(f"[{i}] done={record.done}\n{body}")
        sections.append("\n\n".join(rendered))
    else:
        sections.append("(none)")
    sections.extend(["", OUTPUT_INSTRUCTION])
    return "\n".join(sections)


def retry_prompt(base_prompt: str, failure: ParseFailure) -> str:
    """The prompt after an unusable reply: the step's prompt plus why it failed."""
    return (
        f"{base_prompt}\n\nYour previous reply was not usable"
        f" ({failure.reason}: {failure.detail}). {OUTPUT_INSTRUCTION}"
    )
