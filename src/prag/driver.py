"""Run orchestration: iterate episodes, grow the database, write artifacts.

A run executes the progressive loop: for each iteration, every task runs one
episode against the current database, and all records produced in that
iteration are committed together afterwards, so episodes within an iteration
never see each other. Two modes exist: ``self-iter`` iterates one task set,
``train-eval`` additionally runs a frozen evaluation pass (no database
updates) on a held-out task set after training.

Every task of both task sets is solved once, before the first pass, so a
task the solver rejects stops the run before any episode starts. The run
keeps each set's optima and hands every episode its task's optimum.

Each iteration writes a database checkpoint ``db_iter_NN.jsonl``, a report
``report_iter_NN.json``, and one JSONL event log per pass,
``<phase>_iter_NN.jsonl``, holding every episode's events in task order,
each line tagged with its ``task_id``. Any iteration can be reproduced by
reloading the previous checkpoint. Checkpoints and reports are replaced
atomically, so a killed run leaves each of them whole.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

import yaml

from . import agent
from .agent import run_episode
from .atomic_io import open_atomic
from .backends import (
    PlannerBackend,
    RemoteChatBackend,
    ReplayOracleBackend,
    SeededExplorerBackend,
)
from .embedding import DEFAULT_DIMENSION, Encoder, HashingEncoder, RemoteEncoder
from .gridworld.sim import EpisodeResult
from .gridworld.tasks import Task, bundled_suite, load_task_dir
from .metrics import TransitionReport, spl, task_sr, total_sr
from .trajectory_db import TrajectoryDB

DEFAULT_ITERATIONS = 6
DEFAULT_TOP_K = 3
BACKEND_NAMES = ("replay-oracle", "seeded-explorer", "remote-chat")
ENCODER_NAMES = ("hash", "remote")
MODES = ("self-iter", "train-eval")


class ConfigError(Exception):
    """A run configuration that cannot be executed."""


@dataclass
class RunConfig:
    """Everything a run needs. Field names double as config-file keys."""

    mode: str = "self-iter"
    tasks: str = "suite"
    eval_tasks: str | None = None
    iterations: int = DEFAULT_ITERATIONS
    k: int = DEFAULT_TOP_K
    seed: int = 0
    backend: str = "replay-oracle"
    encoder: str = "hash"
    dimension: int = DEFAULT_DIMENSION
    encoder_url: str | None = None
    chat_url: str | None = None
    chat_model: str | None = None
    max_retries: int = 3
    max_steps: int | None = None
    history_limit: int = 20
    early_stop: bool = True
    out: str | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "train-eval" and not self.eval_tasks:
            raise ConfigError("train-eval mode requires eval_tasks")
        if self.mode != "train-eval" and self.eval_tasks:
            raise ConfigError(f"eval_tasks is used only in train-eval mode, not {self.mode!r}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.backend not in BACKEND_NAMES:
            raise ConfigError(f"backend must be one of {BACKEND_NAMES}, got {self.backend!r}")
        if self.encoder not in ENCODER_NAMES:
            raise ConfigError(f"encoder must be one of {ENCODER_NAMES}, got {self.encoder!r}")
        if self.dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dimension}")
        if self.encoder == "remote" and not self.encoder_url:
            raise ConfigError("remote encoder requires encoder_url")
        if self.backend == "remote-chat" and not (self.chat_url and self.chat_model):
            raise ConfigError("remote-chat backend requires chat_url and chat_model")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.history_limit < 1:
            raise ConfigError(f"history_limit must be >= 1, got {self.history_limit}")

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict[str, Any] | None = None) -> RunConfig:
        """Load a YAML mapping of config fields, then apply overrides."""
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged = dict(raw)
        if overrides:
            merged.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**merged)


@dataclass
class IterationReport:
    """Outcome of one full pass over the task set."""

    iteration: int
    phase: str  # train | eval
    results: list[EpisodeResult]
    total_sr: float
    task_sr: float
    spl: float
    retrieval_calls: int
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def done_vector(self) -> dict[str, bool]:
        return {r.task_id: r.success for r in self.results}

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> IterationReport:
        results = [
            EpisodeResult(
                task_id=r["task_id"],
                success=bool(r["success"]),
                steps_taken=int(r["steps_taken"]),
                shortest_steps=int(r["shortest_steps"]),
            )
            for r in data["results"]
        ]
        return cls(
            iteration=int(data["iteration"]),
            phase=str(data["phase"]),
            results=results,
            total_sr=float(data["total_sr"]),
            task_sr=float(data["task_sr"]),
            spl=float(data["spl"]),
            retrieval_calls=int(data["retrieval_calls"]),
            failures=dict(data.get("failures", {})),
        )


class EpisodeLog:
    """Line-delimited JSON event log for one pass over the task set.

    Payloads JSON cannot encode are written as their ``repr``.
    """

    def __init__(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] = path.open("w", encoding="utf-8")
        # ``json.dumps(..., default=repr)`` would build this encoder per event.
        self._encode = json.JSONEncoder(default=repr).encode

    def __call__(self, event: str, **payload: Any) -> None:
        record = {"event": event, **payload}
        self._handle.write(self._encode(record) + "\n")

    def close(self) -> None:
        self._handle.close()


def build_encoder(config: RunConfig) -> Encoder:
    if config.encoder == "hash":
        return HashingEncoder(dimension=config.dimension)
    assert config.encoder_url is not None
    return RemoteEncoder(config.encoder_url, dimension=config.dimension)


def build_backend(config: RunConfig) -> PlannerBackend:
    if config.backend == "replay-oracle":
        return ReplayOracleBackend(seed=config.seed)
    if config.backend == "seeded-explorer":
        return SeededExplorerBackend(seed=config.seed)
    assert config.chat_url is not None and config.chat_model is not None
    return RemoteChatBackend(config.chat_url, config.chat_model)


def load_tasks(source: str) -> list[Task]:
    """Resolve a task source: the literal name "suite" or a directory path."""
    if source == "suite":
        return bundled_suite()
    return load_task_dir(source)


def _load_tasks_or_fail(source: str) -> list[Task]:
    try:
        return load_tasks(source)
    except OSError as exc:
        raise ConfigError(f"cannot load tasks from {source!r}: {exc}") from exc


def _solve_all(tasks: list[Task]) -> list[int]:
    """Every task's optimum, solved now so a task the solver rejects fails first."""
    # Looked up on ``agent``, where the benchmark's tracer wraps the solver.
    return [agent.shortest_solution_steps(task) for task in tasks]


def run_pass(
    tasks: list[Task],
    db: TrajectoryDB,
    backend: PlannerBackend,
    encoder: Encoder,
    config: RunConfig,
    *,
    optima: list[int],
    iteration: int,
    phase: str = "train",
    out_dir: Path | None = None,
) -> IterationReport:
    """One pass over the task set. Commits new records only in train phase.

    ``optima`` holds each task's shortest solution length, in task order.
    The report's retrieval count is the sum of its episodes' counts. With
    ``out_dir``, every episode's events go to one log,
    ``<phase>_iter_NN.jsonl``, each line tagged with the episode's task id.
    """
    results: list[EpisodeResult] = []
    failures: dict[str, str] = {}
    batch = []
    retrieval_calls = 0
    log = None
    if out_dir is not None:
        log = EpisodeLog(out_dir / f"{phase}_iter_{iteration:02d}.jsonl")
    try:
        for task, shortest_steps in zip(tasks, optima, strict=True):
            outcome = run_episode(
                task,
                backend,
                encoder,
                db,
                shortest_steps=shortest_steps,
                iteration=iteration,
                k=config.k,
                seed=config.seed,
                max_retries=config.max_retries,
                max_steps=config.max_steps,
                history_limit=config.history_limit,
                log=(
                    functools.partial(log, task_id=task.id)
                    if log is not None
                    else (lambda event, **payload: None)
                ),
            )
            results.append(outcome.result)
            retrieval_calls += outcome.retrieval_calls
            if outcome.failure is not None:
                failures[task.id] = outcome.failure
            if phase == "train" and outcome.record is not None:
                batch.append(outcome.record)
    finally:
        if log is not None:
            log.close()
    if phase == "train":
        db.update_after_iteration(batch)
    return IterationReport(
        iteration=iteration,
        phase=phase,
        results=results,
        total_sr=total_sr(results),
        task_sr=task_sr(results),
        spl=spl(results),
        retrieval_calls=retrieval_calls,
        failures=failures,
    )


def _write_report(report: IterationReport, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_atomic(path) as fh:
        fh.write(json.dumps(report.to_dict(), indent=2) + "\n")


def format_summary(reports: list[IterationReport]) -> str:
    """Human-readable run summary: per-iteration metrics plus transitions."""
    lines = ["iter  phase  total_sr  task_sr     spl  retrievals  failures"]
    for report in reports:
        lines.append(
            f"{report.iteration:>4}  {report.phase:<5}"
            f"  {report.total_sr:>8.3f}  {report.task_sr:>7.3f}  {report.spl:>6.3f}"
            f"  {report.retrieval_calls:>10}  {len(report.failures):>8}"
        )
    train = [r for r in reports if r.phase == "train"]
    if len(train) >= 2:
        transitions = TransitionReport(
            [r.iteration for r in train], [r.done_vector for r in train]
        )
        lines.extend(["", "task outcome transitions:", transitions.format_table()])
    return "\n".join(lines) + "\n"


def run_iterations(config: RunConfig) -> list[IterationReport]:
    """Execute a full run per the configuration. Returns all reports."""
    config.validate()
    encoder = build_encoder(config)
    backend = build_backend(config)
    tasks = _load_tasks_or_fail(config.tasks)
    eval_tasks: list[Task] = []
    if config.mode == "train-eval":
        assert config.eval_tasks is not None
        eval_tasks = _load_tasks_or_fail(config.eval_tasks)
    optima = _solve_all(tasks)
    eval_optima = _solve_all(eval_tasks)

    out_dir = None
    if config.out is not None:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "run_config.json").write_text(
            json.dumps(dataclasses.asdict(config), indent=2) + "\n", encoding="utf-8"
        )

    db = TrajectoryDB(dimension=encoder.dimension)
    reports: list[IterationReport] = []
    previous_vector: dict[str, bool] | None = None
    for iteration in range(1, config.iterations + 1):
        report = run_pass(
            tasks, db, backend, encoder, config, optima=optima, iteration=iteration,
            out_dir=out_dir,
        )
        reports.append(report)
        if out_dir is not None:
            db.save(out_dir / f"db_iter_{iteration:02d}.jsonl")
            _write_report(report, out_dir / f"report_iter_{iteration:02d}.json")
        if config.early_stop and previous_vector == report.done_vector:
            break
        previous_vector = report.done_vector

    if config.mode == "train-eval":
        eval_report = run_pass(
            eval_tasks,
            db,
            backend,
            encoder,
            config,
            optima=eval_optima,
            iteration=reports[-1].iteration,
            phase="eval",
            out_dir=out_dir,
        )
        reports.append(eval_report)
        if out_dir is not None:
            _write_report(eval_report, out_dir / "report_eval.json")

    if out_dir is not None:
        db.save(out_dir / "db.jsonl")
        (out_dir / "summary.txt").write_text(format_summary(reports), encoding="utf-8")
    return reports


def run_eval(
    config: RunConfig, db: TrajectoryDB, *, out_dir: Path | None = None
) -> IterationReport:
    """Frozen evaluation pass against an existing database."""
    config.validate()
    encoder = build_encoder(config)
    if db.dimension is not None and db.dimension != encoder.dimension:
        raise ConfigError(
            f"database dimension {db.dimension} does not match encoder dimension"
            f" {encoder.dimension}"
        )
    backend = build_backend(config)
    tasks = _load_tasks_or_fail(config.tasks)
    optima = _solve_all(tasks)
    report = run_pass(
        tasks, db, backend, encoder, config, optima=optima, iteration=1, phase="eval",
        out_dir=out_dir,
    )
    if out_dir is not None:
        _write_report(report, out_dir / "report_eval.json")
    return report
