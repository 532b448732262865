"""Rebuild the logged prompts of one episode (``prag prompt``).

A run directory's event log keeps each prompt only as its sha256 and size.
Every prompt is a function of inputs the directory already holds:

- the task, from the task source in ``run_config.json``;
- the scene and the action space at each step. A fresh simulator replays
  the logged low-level primitives and stops each step at its logged
  ``sim_steps``: a decomposition is cut short when the episode finishes,
  so its logged list can hold primitives that never ran;
- the retrieved hits, looked up by task id in the store that pass read.
  That is ``db_iter_{N-1}.jsonl`` for train pass N (an empty store for
  N = 1), the last checkpoint ``db_iter_NN.jsonl`` for a ``train-eval``
  eval pass, and the file named in ``episode-start`` for a ``prag eval``
  pass. Each hit's logged iteration and done flag must match the stored
  record;
- ``history_limit``, from ``run_config.json``;
- for a retry, the ``parse-failure`` event before it.

Prompts are rendered through the planner's own functions (``step_bundle``,
``build_prompt`` and ``retry_prompt``), and each one is checked against its
logged digest. No encoder or backend is needed, so a remote-chat run can be
inspected offline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .agent import step_bundle
from .driver import load_tasks, read_run_config
from .gridworld.sim import SimulationError, Simulator
from .gridworld.tasks import Task
from .prompting import ParseFailure, build_prompt, retry_prompt
from .scene_graph import extract, render_text
from .trajectory_db import RetrievalHit, TrajectoryDB

PHASES = ("train", "eval")


class RebuildError(Exception):
    """A logged prompt whose inputs are missing or whose rebuild does not match."""


@dataclass(frozen=True)
class RebuiltPrompt:
    """One prompt as the planner sent it. ``attempt`` counts from 1 per step."""

    step: int
    attempt: int
    text: str
    sha256: str


def rebuild_prompts(
    run_dir: str | Path, phase: str, iteration: int, task_id: str
) -> list[RebuiltPrompt]:
    """Every prompt of one logged episode, in order, each checked against its digest."""
    run_dir = Path(run_dir)
    if phase not in PHASES:
        raise RebuildError(f"unknown phase {phase!r}, expected one of {PHASES}")
    config = read_run_config(run_dir)
    log_path = run_dir / f"{phase}_iter_{iteration:02d}.jsonl"
    if not log_path.is_file():
        raise RebuildError(f"{run_dir} has no {phase} pass {iteration} ({log_path.name})")
    events = _episode_events(log_path, task_id)
    source = config.eval_tasks if phase == "eval" and config.mode == "train-eval" else config.tasks
    assert source is not None
    task = _find_task(source, task_id)
    try:
        db = _pass_store(run_dir, phase, iteration, events[0])
        return _replay(task, events, db, config.max_steps, config.history_limit)
    except (KeyError, TypeError, ValueError, SimulationError) as exc:
        raise RebuildError(f"malformed {log_path.name} events for {task_id!r}: {exc!r}") from exc


def _episode_events(log_path: Path, task_id: str) -> list[dict[str, Any]]:
    events = []
    with log_path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RebuildError(f"{log_path.name} line {lineno} is not JSON: {exc}") from exc
            if event.get("task_id") == task_id:
                events.append(event)
    if not events:
        raise RebuildError(f"{log_path.name} holds no episode of task {task_id!r}")
    if events[0].get("event") != "episode-start":
        raise RebuildError(f"{log_path.name}: the episode of {task_id!r} has no episode-start")
    return events


def _find_task(source: str, task_id: str) -> Task:
    try:
        tasks = load_tasks(source)
    except OSError as exc:
        raise RebuildError(f"cannot load tasks from {source!r}: {exc}") from exc
    for task in tasks:
        if task.id == task_id:
            return task
    raise RebuildError(f"task source {source!r} has no task {task_id!r}")


def _pass_store(
    run_dir: Path, phase: str, iteration: int, start: dict[str, Any]
) -> TrajectoryDB:
    """The store the pass retrieved from, as it stood during the pass."""
    if "db" in start:
        path = Path(start["db"])
    elif phase == "eval":
        path = run_dir / f"db_iter_{iteration:02d}.jsonl"
    elif iteration == 1:
        return TrajectoryDB()
    else:
        path = run_dir / f"db_iter_{iteration - 1:02d}.jsonl"
    try:
        return TrajectoryDB.load(path)
    except OSError as exc:
        raise RebuildError(f"cannot read the store the pass read: {exc}") from exc


def _hit(db: TrajectoryDB, logged: list) -> RetrievalHit:
    task_id, iteration, done, score = logged
    record = db.get(task_id)
    if record is None:
        raise RebuildError(f"retrieved record {task_id!r} is not in the store the pass read")
    if (record.iteration, record.done) != (iteration, done):
        raise RebuildError(
            f"retrieved record {task_id!r} was iteration {iteration}, done={done};"
            f" the store holds iteration {record.iteration}, done={record.done}"
        )
    return RetrievalHit(score=float(score), record=record)


def _replay(
    task: Task,
    events: list[dict[str, Any]],
    db: TrajectoryDB,
    max_steps: int | None,
    history_limit: int,
) -> list[RebuiltPrompt]:
    sim = Simulator(task, max_steps=max_steps)
    world = sim.reset()
    scene_text = render_text(extract(world))
    hits: tuple[RetrievalHit, ...] = ()
    base_prompt = ""
    failure: ParseFailure | None = None
    attempt = 0
    prompts: list[RebuiltPrompt] = []
    for event in events:
        kind = event["event"]
        if kind == "retrieval":
            hits = tuple(_hit(db, logged) for logged in event["hits"])
        elif kind == "prompt":
            if failure is None:
                bundle = step_bundle(task.goal, world, scene_text, hits, history_limit)
                base_prompt = text = build_prompt(bundle)
                attempt = 1
            else:
                text = retry_prompt(base_prompt, failure)
                attempt += 1
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != event["sha256"]:
                raise RebuildError(
                    f"step {event['step']} attempt {attempt}: the rebuilt prompt's sha256"
                    f" {digest} differs from the logged {event['sha256']}"
                )
            prompts.append(RebuiltPrompt(event["step"], attempt, text, digest))
        elif kind == "parse-failure":
            failure = ParseFailure(event["reason"], event["detail"])
        elif kind == "step":
            for primitive in event["low_level"]:
                if sim.step_count >= event["sim_steps"]:
                    break
                sim.step(primitive)
            if sim.step_count != event["sim_steps"]:
                raise RebuildError(
                    f"step {event['step']} replays to simulator step {sim.step_count},"
                    f" the log says {event['sim_steps']}"
                )
            world = sim.observe()
            scene_text = render_text(extract(world))
            hits, failure = (), None
    return prompts
