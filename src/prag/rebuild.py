"""Rebuild the logged prompts of one episode (``prag prompt``).

A run directory's event log keeps each prompt only as its sha256 and size.
Every prompt is a function of inputs the directory already holds:

- the task, from the task source ``driver.task_source`` names for the pass;
- the backend's replies, from the ``completion`` events;
- the retrieved hits, from the ``retrieval`` events, each looked up by task
  id in the store that pass read. That is ``db_iter_{N-1}.jsonl`` for train
  pass N (an empty store for N = 1), the last checkpoint
  ``db_iter_NN.jsonl`` for a ``train-eval`` eval pass, and the file named
  in ``episode-start`` for a ``prag eval`` pass. Each hit's logged
  iteration and done flag must match the stored record;
- ``max_retries``, ``max_steps`` and ``history_limit``, from
  ``run_config.json``.

The planner's own ``run_episode`` runs the episode again on those inputs,
and each prompt it sends is checked against the logged step and digest. No
remote encoder or backend is needed, so a remote-chat run can be inspected
offline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .agent import run_episode
from .backends import ScriptedReplyBackend
from .driver import RunConfig, load_tasks, read_run_config, task_source
from .embedding import HashingEncoder
from .gridworld.tasks import Task
from .trajectory_db import RetrievalHit, RetrievalMemo, RetrievalQuery, TrajectoryDB

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
    source = task_source(config, phase)
    task = next((t for t in load_tasks(source) if t.id == task_id), None)
    if task is None:
        raise RebuildError(f"task source {source!r} has no task {task_id!r}")
    try:
        db = _pass_store(run_dir, phase, iteration, events[0])
        return _replay(task, events, db, config)
    except (KeyError, TypeError, ValueError) as exc:
        raise RebuildError(f"malformed {log_path.name} events for {task_id!r}: {exc!r}") from exc


def _episode_events(log_path: Path, task_id: str) -> list[dict[str, Any]]:
    events = []
    with log_path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                event = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or deep nesting
                raise RebuildError(f"{log_path.name} line {lineno} is not JSON: {exc}") from exc
            if not isinstance(event, dict):
                raise RebuildError(
                    f"{log_path.name} line {lineno} is not a JSON object:"
                    f" {type(event).__name__}"
                )
            if event.get("task_id") == task_id:
                events.append(event)
    if not events:
        raise RebuildError(f"{log_path.name} holds no episode of task {task_id!r}")
    if events[0].get("event") != "episode-start":
        raise RebuildError(f"{log_path.name}: the episode of {task_id!r} has no episode-start")
    return events


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


class _LoggedRetrievals:
    """The pass's store as the episode saw it: its size, then the logged hits in order."""

    def __init__(self, db: TrajectoryDB, logged: list[list]) -> None:
        self._db = db
        self._logged = iter(logged)

    def __len__(self) -> int:
        return len(self._db)

    def retrieve_top_k(
        self, query: RetrievalQuery, k: int, memo: RetrievalMemo | None = None
    ) -> tuple[RetrievalHit, ...]:
        """The next logged hits, one list per call; ``memo`` is not needed."""
        return tuple(_hit(self._db, hit) for hit in next(self._logged, ()))


def _replay(
    task: Task, events: list[dict[str, Any]], db: TrajectoryDB, config: RunConfig
) -> list[RebuiltPrompt]:
    replies = [event["text"] for event in events if event["event"] == "completion"]
    if not all(isinstance(reply, str) for reply in replies):
        raise TypeError("a logged reply is not a string")
    logged = [event for event in events if event["event"] == "prompt"]
    sent: list[tuple[int, str]] = []

    def capture(event: str, **payload: Any) -> None:
        if event == "prompt":
            sent.append((payload["step"], payload["text"]))

    run_episode(
        task,
        ScriptedReplyBackend(replies),
        # Only feeds the queries the logged hits answer: no remote encoder needed.
        HashingEncoder(config.dimension),
        _LoggedRetrievals(db, [e["hits"] for e in events if e["event"] == "retrieval"]),
        shortest_steps=1,  # only fills the unused EpisodeResult
        max_retries=config.max_retries,
        max_steps=config.max_steps,
        history_limit=config.history_limit,
        log=capture,
    )
    # An episode the encoder ended sends one more prompt here, at the failing
    # step, answered by done(): only the logged prompts are compared.
    if len(sent) < len(logged):
        raise RebuildError(
            f"the rebuilt episode sent {len(sent)} prompts, the log holds {len(logged)}"
        )
    prompts: list[RebuiltPrompt] = []
    for (step, text), event in zip(sent, logged):
        attempt = prompts[-1].attempt + 1 if prompts and prompts[-1].step == step else 1
        if step != event["step"]:
            raise RebuildError(
                f"step {event['step']}: the rebuilt episode sent step {step} attempt {attempt}"
            )
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != event["sha256"]:
            raise RebuildError(
                f"step {step} attempt {attempt}: the rebuilt prompt's sha256"
                f" {digest} differs from the logged {event['sha256']}"
            )
        prompts.append(RebuiltPrompt(step, attempt, text, digest))
    return prompts
