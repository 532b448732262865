"""The planning agent: one high-level action per backend call.

plan_step asks a backend for an action line, retrying with feedback on
malformed or undecomposable replies up to max_retries times (so at most
max_retries + 1 backend calls). decompose expands a parsed action into a
tuple of simulator primitives using the navigation planner; done() expands
to none and ends the episode. run_episode drives one task episode end to
end: it encodes the goal once, then per step encodes the current scene
graph, retrieves the top-K similar trajectories when the database is
non-empty, builds the prompt, plans, executes, and finally packages the
trajectory as a TaskRecord for the database, whose history is the one list
of the episode's executed actions. Each executed action costs one world
snapshot (a private copy of the world, from ``Simulator.observe``) and one
scene graph: the post-action scene text stored in the record is also the
next step's pre-action scene. Every reader of a step reads that one copy:
the agent's pose from the world, object flags from each ``ObjectState``,
and a held object as one whose ``position`` is None. The retrieval hits go
into the prompt bundle as they are; the prompt cuts each record's history
as it renders it, and the backend receives the bundle beside the prompt
text. K and the retry budget have their defaults here, the history limit in
``prompting``; the run configuration imports them.

An episode's only inputs from outside the planner are the backend's replies
and the retrieved hits; with the task, the step budget and the history
limit they fix every prompt. ``prag prompt`` rebuilds an episode's prompts
by running it here again, fed the replies and hits its event log holds.

Navigation work is shared across an episode's steps through one
NavigationMemo that run_episode owns and hands to plan_step and decompose.
Walls never change and landmarks are never picked up, so the navigable grid
built at the episode's first decomposition holds for the whole episode, and
a distance field depends only on its source, the agent's cell: each field
is grown once per source cell per episode. A direct call without a memo
starts an empty one.

Prompt text is shared the same way: run_episode owns one ExperienceMemo and
plan_step hands it to build_prompt. The store is frozen for a pass, so a
record retrieved at many steps is rendered once per episode, and each later
prompt formats only its ``[i] done=`` header. The memo dies with the
episode; nothing is cached on a record or in the module. A direct call
without a memo starts an empty one.

Retrieval is shared the same way: run_episode owns one RetrievalMemo and
hands it to every ``retrieve_top_k`` of the episode. The goal is fixed for
the episode, so that one object holds every record's goal term, computed
once, the records those terms leave in reach of the top K and the hits of
each scene: each query scans only those records, and a scene the episode
asks about again (a navigation changes no relation) gets its hits without
a scan. The memo dies with the episode too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .backends import BackendError, PlannerBackend
from .embedding import Encoder, EncoderError
from .gridworld.sim import EpisodeResult, Simulator
# Not called here: the driver solves tasks through this name, where the tracer wraps it.
from .gridworld.solver import shortest_solution_steps
from .gridworld.tasks import Task
from .gridworld.world import Cell, World
from .nav import (
    NEIGHBOR_ORDER,
    DistanceField,
    NoPathError,
    backtrack_path,
    distance_field,
    heading_between,
    path_to_actions,
    turns_between,
)
from .prompting import (
    DEFAULT_HISTORY_LIMIT,
    ExperienceMemo,
    HighLevelAction,
    ParseFailure,
    PromptBundle,
    action_space_text,
    build_prompt,
    parse_action,
    render_action,
    retry_prompt,
)
from .scene_graph import extract, render_text
from .trajectory_db import RetrievalHit, RetrievalMemo, RetrievalQuery, TaskRecord, TrajectoryDB

DEFAULT_MAX_RETRIES = 3
DEFAULT_TOP_K = 3

LogFn = Callable[..., None]


def _no_log(event: str, **payload) -> None:
    return None


class DecompositionError(Exception):
    """A parsed action cannot be grounded in the current world."""


class PlannerFailure(Exception):
    """The retry budget ran out without one executable action."""

    def __init__(self, message: str, failures: tuple[ParseFailure, ...]) -> None:
        super().__init__(message)
        self.failures = failures


@dataclass
class NavigationMemo:
    """One episode's navigable grid and its distance fields, by source cell.

    Valid only within one episode: the grid is fixed there (walls never
    change, landmarks are never picked up), so a field depends only on its
    source. Both are read-only, since every later step reads them.
    """

    grid: np.ndarray | None = None
    fields: dict[Cell, DistanceField] = field(default_factory=dict)

    def navigable_grid(self, world: World) -> np.ndarray:
        if self.grid is None:
            self.grid = world.navigable_grid()
            self.grid.setflags(write=False)
        return self.grid

    def field_from(self, world: World) -> DistanceField:
        """The distance field from the agent's cell."""
        source = world.agent_position
        field_ = self.fields.get(source)
        if field_ is None:
            field_ = distance_field(self.navigable_grid(world), source)
            field_.distances.setflags(write=False)
            self.fields[source] = field_
        return field_


def _stand_and_face(
    world: World, target: Cell, nav: NavigationMemo
) -> tuple[Cell, list[Cell]]:
    """Pick the reachable navigable cell 4-adjacent to target, plus the path.

    Ties between equally near stand cells resolve in N, E, S, W order around
    the target. Raises DecompositionError when no adjacent cell is reachable.
    """
    # The field is grown over the navigable grid, so it is inf on every
    # cell the grid blocks.
    field_ = nav.field_from(world)
    best: tuple[float, int, Cell] | None = None
    for order, (dx, dy) in enumerate(NEIGHBOR_ORDER):
        cell = (target[0] + dx, target[1] + dy)
        if not world.in_bounds(cell):
            continue
        dist = field_.at(cell)
        if not np.isfinite(dist):
            continue
        if best is None or (dist, order) < (best[0], best[1]):
            best = (dist, order, cell)
    if best is None:
        raise DecompositionError(f"no reachable cell adjacent to {target}")
    path = backtrack_path(field_, best[2])
    return best[2], path


def decompose(
    action: HighLevelAction,
    world: World,
    nav: NavigationMemo | None = None,
) -> tuple[str, ...]:
    """Expand a high-level action into the simulator primitives that realize it.

    navigate moves next to its target (or onto it, for a cell argument) and
    turns to face it. Manipulation verbs navigate the same way and append
    their single primitive. done() expands to no primitives; the episode
    runner ends the episode on it. ``nav`` is the episode's navigation memo;
    without one, an empty memo is used.
    """
    if nav is None:
        nav = NavigationMemo()
    if action.verb == "done":
        return ()

    arg = action.argument
    if isinstance(arg, tuple):
        target = arg
    else:
        obj = world.objects.get(arg)  # type: ignore[arg-type]
        if obj is None:
            raise DecompositionError(f"no visible object named {arg!r}")
        if obj.position is None:
            raise DecompositionError(f"{arg} is being held, it has no cell")
        target = obj.position

    heading = world.agent_heading

    if action.verb == "navigate" and isinstance(arg, tuple):
        # Walking onto a cell rather than next to an object: no facing turn.
        grid = nav.navigable_grid(world)
        if not grid[target[1], target[0]]:
            raise DecompositionError(f"cell {target} is not walkable")
        field_ = nav.field_from(world)
        try:
            path = backtrack_path(field_, target)
        except NoPathError as exc:
            raise DecompositionError(str(exc)) from exc
        return tuple(path_to_actions(path, heading))

    if action.verb != "navigate" and isinstance(arg, tuple):
        if target in world.walls:
            raise DecompositionError(f"cell {target} is a wall")

    stand, path = _stand_and_face(world, target, nav)
    actions = path_to_actions(path, heading)
    if len(path) > 1:
        heading = heading_between(path[-2], path[-1])
    actions.extend(turns_between(heading, heading_between(stand, target)))
    if action.verb != "navigate":
        # Manipulation verbs share their names with the simulator primitives.
        actions.append(action.verb)
    return tuple(actions)


def plan_step(
    backend: PlannerBackend,
    bundle: PromptBundle,
    world: World,
    step: int,
    *,
    max_retries: int = DEFAULT_MAX_RETRIES,
    log: LogFn = _no_log,
    nav: NavigationMemo | None = None,
    experience_memo: ExperienceMemo | None = None,
) -> tuple[HighLevelAction, tuple[str, ...]]:
    """Obtain one executable action and its primitives, retrying bad replies.

    Parse failures and decomposition failures share the same retry budget.
    Raises PlannerFailure once max_retries + 1 replies were all unusable;
    BackendError propagates to the caller untouched. Returns the parsed
    action with ``decompose``'s primitives for it. ``nav`` is passed to
    every decompose call, ``experience_memo`` to ``build_prompt``. Every
    attempt hands the backend ``bundle``, the bundle the step's prompt was
    rendered from; ``step`` is the step index the events carry.

    Each attempt passes ``log`` a ``prompt`` event with the whole prompt
    text, a ``completion`` event with the reply, and, for an unusable reply,
    a ``parse-failure`` event whose reason and detail are what
    ``retry_prompt`` appends to the next prompt. What to keep of the text is
    the sink's choice: a run directory's ``EpisodeLog`` keeps its sha256 and
    size, so a run without a log never hashes a prompt.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    base_prompt = build_prompt(bundle, experience_memo)
    prompt = base_prompt
    failures: list[ParseFailure] = []
    for _attempt in range(max_retries + 1):
        log("prompt", step=step, text=prompt)
        reply = backend.complete(prompt, bundle)
        log("completion", step=step, text=reply)
        parsed = parse_action(reply, world)
        if isinstance(parsed, ParseFailure):
            failure = parsed
        else:
            try:
                return parsed, decompose(parsed, world, nav)
            except DecompositionError as exc:
                failure = ParseFailure("invalid-argument", str(exc))
        failures.append(failure)
        log("parse-failure", step=step, reason=failure.reason, detail=failure.detail)
        prompt = retry_prompt(base_prompt, failure)
    raise PlannerFailure(
        f"no executable action after {max_retries + 1} attempts", tuple(failures)
    )


@dataclass
class EpisodeOutcome:
    """Everything one episode produced; its executed actions are the record's history."""

    result: EpisodeResult
    record: TaskRecord | None
    failure: str | None = None  # None | planner-failure | backend-error | encoder-error
    retrieval_calls: int = 0  # database queries; a pass sums them for its report


def run_episode(
    task: Task,
    backend: PlannerBackend,
    encoder: Encoder,
    db: TrajectoryDB,
    *,
    shortest_steps: int,
    iteration: int = 1,
    k: int = DEFAULT_TOP_K,
    seed: int = 0,
    max_retries: int = DEFAULT_MAX_RETRIES,
    max_steps: int | None = None,
    history_limit: int = DEFAULT_HISTORY_LIMIT,
    log: LogFn = _no_log,
) -> EpisodeOutcome:
    """Run one task episode under the progressive retrieval loop.

    The goal text is encoded once, at the first planning step. Per planning
    step: encode the pre-action scene graph, query the database only when it
    is non-empty, prompt the backend, expand the chosen action, execute its
    primitives in the simulator, then observe and render the scene once. The
    stored record pairs each action with that post-action scene text, while
    the embedding kept for step t is the pre-action scene (the state the
    action was chosen in). A backend or encoder error ends the episode as a
    failure, not the run. Episodes that fail before any action yield no
    record.
    The number of planning steps is capped by the simulator step budget, so
    action-free decompositions cannot loop forever. ``shortest_steps`` is the
    task's optimum, solved once by the caller (the driver solves every task
    before its first pass) and copied into the result for path-weighted
    success. Events passed to ``log`` do not name the task; a caller that
    logs several episodes to one place adds the task id.

    Besides ``plan_step``'s events, each step that queries the database
    logs a ``retrieval`` event with its hits, and each executed action a
    ``step`` event with its low-level primitives and the simulator's step
    count after them. ``prag prompt`` reads the ``completion`` and
    ``retrieval`` events back and runs the episode here again to rebuild
    every prompt; the ``step`` events are for readers of the log.
    """
    sim = Simulator(task, max_steps=max_steps)
    world = sim.reset()
    backend.begin_episode(task.id, iteration, task.goal, world)
    log(
        "episode-start",
        iteration=iteration,
        goal=task.goal,
        seed=seed,
    )

    history: list[tuple[str, str]] = []
    obs_embeddings: list[np.ndarray] = []
    failure: str | None = None
    retrieval_calls = 0
    done = False
    goal_embedding: np.ndarray | None = None
    scene_text = render_text(extract(world))
    nav = NavigationMemo()
    experience_memo: ExperienceMemo = {}
    retrieval_memo = RetrievalMemo()

    for step_index in range(sim.max_steps):
        if done:
            break
        try:
            if goal_embedding is None:
                goal_embedding = encoder.encode(task.goal)
            obs_embedding = encoder.encode(scene_text)
        except EncoderError as exc:
            failure = "encoder-error"
            log("encoder-error", step=step_index, detail=str(exc))
            break
        hits: tuple[RetrievalHit, ...] = ()
        if len(db) > 0:
            query = RetrievalQuery(goal_embedding, obs_embedding)
            hits = tuple(db.retrieve_top_k(query, k, memo=retrieval_memo))
            retrieval_calls += 1
            log("retrieval", step=step_index, hits=hits)
        bundle = PromptBundle(task.goal, scene_text, action_space_text(world), hits, history_limit)
        try:
            action, primitives = plan_step(
                backend, bundle, world, step_index,
                max_retries=max_retries, log=log, nav=nav,
                experience_memo=experience_memo,
            )
        except PlannerFailure as exc:
            failure = "planner-failure"
            log("planner-failure", step=step_index, detail=str(exc))
            break
        except BackendError as exc:
            failure = "backend-error"
            log("backend-error", step=step_index, detail=str(exc))
            break
        if action.verb == "done":
            log("stop", step=step_index)
            break
        for low_level in primitives:
            done = sim.step(low_level)
            if done:
                break
        world = sim.observe()
        scene_text = render_text(extract(world))
        action_text = render_action(action)
        history.append((action_text, scene_text))
        obs_embeddings.append(obs_embedding)
        log(
            "step",
            step=step_index,
            action=action_text,
            low_level=list(primitives),
            sim_steps=sim.step_count,
            succeeded=sim.succeeded,
        )

    result = EpisodeResult(
        task_id=task.id,
        success=sim.succeeded,
        steps_taken=sim.step_count,
        shortest_steps=shortest_steps,
    )
    record = None
    if history:
        record = TaskRecord(
            task_id=task.id,
            iteration=iteration,
            goal_text=task.goal,
            goal_embedding=goal_embedding,
            obs_embeddings=obs_embeddings,
            history=history,
            done=sim.succeeded,
        )
    log(
        "episode-end",
        success=sim.succeeded,
        steps=sim.step_count,
        failure=failure,
        recorded=record is not None,
    )
    return EpisodeOutcome(
        result=result,
        record=record,
        failure=failure,
        retrieval_calls=retrieval_calls,
    )
