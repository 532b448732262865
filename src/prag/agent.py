"""The planning agent: one high-level action per backend call.

plan_step asks a backend for an action line, retrying with feedback on
malformed or undecomposable replies up to max_retries times (so at most
max_retries + 1 backend calls). decompose expands a parsed action into a
sequence of low-level simulator actions using the navigation planner.
run_episode drives one task episode end to end: it encodes the goal once,
then per step encodes the current scene graph, retrieves the top-K similar
trajectories when the database is non-empty, builds the prompt, plans,
executes, and finally packages the trajectory as a TaskRecord for the
database. Each executed action costs one observation and one scene graph:
the post-action scene text stored in the record is also the next step's
pre-action scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .backends import BackendError, PlannerBackend, StepContext
from .embedding import Encoder, EncoderError
from .gridworld.sim import EpisodeResult, Simulator
# Not called here: the driver solves tasks through this name, where the tracer wraps it.
from .gridworld.solver import shortest_solution_steps
from .gridworld.tasks import Task
from .gridworld.world import Cell, HEADING_DELTAS, Observation
from .nav import (
    NEIGHBOR_ORDER,
    NoPathError,
    backtrack_path,
    distance_field,
    heading_between,
    path_to_actions,
    turns_between,
)
from .prompting import (
    HighLevelAction,
    OUTPUT_INSTRUCTION,
    ParseFailure,
    PromptBundle,
    action_space_text,
    build_prompt,
    experiences_from_hits,
    parse_action,
    render_action,
)
from .scene_graph import extract, render_text
from .trajectory_db import RetrievalHit, RetrievalQuery, TaskRecord, TrajectoryDB

DEFAULT_MAX_RETRIES = 3

LogFn = Callable[..., None]


def _no_log(event: str, **payload) -> None:
    return None


class DecompositionError(Exception):
    """A parsed action cannot be grounded in the current observation."""


class PlannerFailure(Exception):
    """The retry budget ran out without one executable action."""

    def __init__(self, message: str, failures: tuple[ParseFailure, ...]) -> None:
        super().__init__(message)
        self.failures = failures


@dataclass(frozen=True)
class Decomposition:
    """Low-level actions realizing one high-level action.

    ``stop`` marks the done() action: no simulator steps, end the episode.
    """

    actions: tuple[str, ...] = ()
    stop: bool = False


def _stand_and_face(
    observation: Observation, target: Cell
) -> tuple[Cell, list[Cell]]:
    """Pick the reachable navigable cell 4-adjacent to target, plus the path.

    Ties between equally near stand cells resolve in N, E, S, W order around
    the target. Raises DecompositionError when no adjacent cell is reachable.
    """
    grid = observation.navigable_grid()
    field_ = distance_field(grid, observation.agent_position)
    best: tuple[float, int, Cell] | None = None
    for order, (dx, dy) in enumerate(NEIGHBOR_ORDER):
        cell = (target[0] + dx, target[1] + dy)
        if not (0 <= cell[0] < observation.width and 0 <= cell[1] < observation.height):
            continue
        if not grid[cell[1], cell[0]]:
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


def decompose(action: HighLevelAction, observation: Observation) -> Decomposition:
    """Expand a high-level action into simulator actions.

    navigate moves next to its target (or onto it, for a cell argument) and
    turns to face it. Manipulation verbs navigate the same way and append
    their single primitive. done() produces a stop marker.
    """
    if action.verb == "done":
        return Decomposition(stop=True)

    arg = action.argument
    if isinstance(arg, tuple):
        target = arg
    else:
        view = observation.objects.get(arg)  # type: ignore[arg-type]
        if view is None:
            raise DecompositionError(f"no visible object named {arg!r}")
        if view.held:
            raise DecompositionError(f"{arg} is being held, it has no cell")
        assert view.position is not None
        target = view.position

    heading = observation.agent_heading

    if action.verb == "navigate" and isinstance(arg, tuple):
        # Walking onto a cell rather than next to an object: no facing turn.
        grid = observation.navigable_grid()
        if not grid[target[1], target[0]]:
            raise DecompositionError(f"cell {target} is not walkable")
        field_ = distance_field(grid, observation.agent_position)
        try:
            path = backtrack_path(field_, target)
        except NoPathError as exc:
            raise DecompositionError(str(exc)) from exc
        return Decomposition(tuple(path_to_actions(path, heading)))

    if action.verb != "navigate" and isinstance(arg, tuple):
        if target in observation.world.walls:
            raise DecompositionError(f"cell {target} is a wall")

    stand, path = _stand_and_face(observation, target)
    actions = path_to_actions(path, heading)
    end_heading = heading
    for step_from, step_to in zip(path, path[1:]):
        end_heading = heading_between(step_from, step_to)
    actions.extend(turns_between(end_heading, heading_between(stand, target)))
    if action.verb != "navigate":
        # Manipulation verbs share their names with the simulator primitives.
        actions.append(action.verb)
    return Decomposition(tuple(actions))


def plan_step(
    backend: PlannerBackend,
    bundle: PromptBundle,
    observation: Observation,
    context: StepContext,
    *,
    max_retries: int = DEFAULT_MAX_RETRIES,
    log: LogFn = _no_log,
) -> tuple[HighLevelAction, Decomposition]:
    """Obtain one executable action, retrying bad replies with feedback.

    Parse failures and decomposition failures share the same retry budget.
    Raises PlannerFailure once max_retries + 1 replies were all unusable;
    BackendError propagates to the caller untouched.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    base_prompt = build_prompt(bundle)
    prompt = base_prompt
    failures: list[ParseFailure] = []
    for _attempt in range(max_retries + 1):
        log("prompt", step=context.step_index, text=prompt)
        reply = backend.complete(prompt, context)
        log("completion", step=context.step_index, text=reply)
        parsed = parse_action(reply, observation)
        if isinstance(parsed, ParseFailure):
            failure = parsed
        else:
            try:
                return parsed, decompose(parsed, observation)
            except DecompositionError as exc:
                failure = ParseFailure("invalid-argument", str(exc))
        failures.append(failure)
        log("parse-failure", step=context.step_index, reason=failure.reason, detail=failure.detail)
        prompt = (
            f"{base_prompt}\n\nYour previous reply was not usable"
            f" ({failure.reason}: {failure.detail}). {OUTPUT_INSTRUCTION}"
        )
    raise PlannerFailure(
        f"no executable action after {max_retries + 1} attempts", tuple(failures)
    )


@dataclass
class EpisodeOutcome:
    """Everything one episode produced."""

    result: EpisodeResult
    record: TaskRecord | None
    failure: str | None = None  # None | planner-failure | backend-error | encoder-error
    retrieval_calls: int = 0  # database queries; a pass sums them for its report
    actions: list[str] = field(default_factory=list)


def run_episode(
    task: Task,
    backend: PlannerBackend,
    encoder: Encoder,
    db: TrajectoryDB,
    *,
    shortest_steps: int,
    iteration: int = 1,
    k: int = 3,
    seed: int = 0,
    max_retries: int = DEFAULT_MAX_RETRIES,
    max_steps: int | None = None,
    history_limit: int = 20,
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
    """
    sim = Simulator(task, max_steps=max_steps)
    observation = sim.reset()
    backend.begin_episode(task.id, iteration, task.goal, observation)
    log(
        "episode-start",
        iteration=iteration,
        goal=task.goal,
        seed=seed,
    )

    history: list[tuple[str, str]] = []
    obs_embeddings: list[np.ndarray] = []
    executed: list[str] = []
    failure: str | None = None
    retrieval_calls = 0
    done = False
    goal_embedding: np.ndarray | None = None
    scene_text = render_text(extract(observation))

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
            hits = tuple(db.retrieve_top_k(RetrievalQuery(goal_embedding, obs_embedding), k))
            retrieval_calls += 1
        bundle = PromptBundle(
            goal=task.goal,
            scene_text=scene_text,
            action_space_text=action_space_text(observation),
            experiences=experiences_from_hits(hits, history_limit),
        )
        context = StepContext(
            task_id=task.id,
            iteration=iteration,
            goal_text=task.goal,
            step_index=step_index,
            hits=hits,
            observation=observation,
            seed=seed,
        )
        try:
            action, decomposition = plan_step(
                backend, bundle, observation, context, max_retries=max_retries, log=log
            )
        except PlannerFailure as exc:
            failure = "planner-failure"
            log("planner-failure", step=step_index, detail=str(exc))
            break
        except BackendError as exc:
            failure = "backend-error"
            log("backend-error", step=step_index, detail=str(exc))
            break
        if decomposition.stop:
            log("stop", step=step_index)
            break
        for low_level in decomposition.actions:
            done = sim.step(low_level)
            if done:
                break
        observation = sim.observe()
        scene_text = render_text(extract(observation))
        action_text = render_action(action)
        executed.append(action_text)
        history.append((action_text, scene_text))
        obs_embeddings.append(obs_embedding)
        log(
            "step",
            step=step_index,
            action=action_text,
            low_level=list(decomposition.actions),
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
            obs_embeddings=tuple(obs_embeddings),
            history=tuple(history),
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
        actions=executed,
    )
