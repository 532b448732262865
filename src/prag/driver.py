"""Run orchestration: iterate episodes, grow the database, write artifacts.

A run executes the progressive loop: for each iteration, every task runs one
episode against the current database, and all records produced in that
iteration are committed together afterwards, so episodes within an iteration
never see each other. Two modes exist: ``self-iter`` iterates one task set,
``train-eval`` additionally runs a frozen evaluation pass (no database
updates) on a held-out task set after training. ``run_eval`` runs that eval
pass alone, over ``tasks``, against a given store.

Both go through one set-up, ``_set_up``: it loads and solves every task of
every pass before ``run_config.json`` is written, so a task the solver
rejects stops the run before any file or episode. Passes that name the same
source share one loaded and solved task list. ``task_source`` alone says
which task source a pass runs; ``prag prompt`` asks it too.

A run directory starts with ``run_config.json``. Each iteration writes a
database checkpoint ``db_iter_NN.jsonl``, a report ``report_iter_NN.json``,
and one JSONL event log per pass, ``<phase>_iter_NN.jsonl``, holding every
episode's events in task order, each line tagged with its ``task_id``. The
log records decisions (the hits retrieved, the replies, the primitives run),
and each prompt only by its sha256 and size (see ``EpisodeLog``); ``prag
prompt`` rebuilds the text. Any iteration can be reproduced by reloading the
previous checkpoint. The configuration, checkpoints, reports and summary are
replaced atomically, so a killed run leaves each of them whole.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import reprlib
import shutil
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from . import agent
from .agent import DEFAULT_MAX_RETRIES, DEFAULT_TOP_K, run_episode
from .atomic_io import open_atomic
from .backends import (
    PlannerBackend,
    RemoteChatBackend,
    ReplayOracleBackend,
    SeededExplorerBackend,
)
from .embedding import DEFAULT_DIMENSION, Encoder, HashingEncoder, RemoteEncoder
from .gridworld.sim import EpisodeResult
from .gridworld.tasks import Task, bundled_suite, load_task_dir, load_yaml_mapping
from .metrics import TransitionReport, spl, task_sr, total_sr
from .prompting import DEFAULT_HISTORY_LIMIT
from .trajectory_db import TrajectoryDB

DEFAULT_ITERATIONS = 6
BACKEND_NAMES = ("replay-oracle", "seeded-explorer", "remote-chat")
ENCODER_NAMES = ("hash", "remote")
MODES = ("self-iter", "train-eval")
RUN_CONFIG_NAME = "run_config.json"


class ConfigError(Exception):
    """A run configuration that cannot be executed."""


def _check_types(cls: type, values: dict[str, Any], where: str = "") -> None:
    """Refuse a value in ``values`` that is not of its ``cls`` field's declared type.

    ``where`` prefixes the field's name in the message. A bool is no int
    (``k: true`` is not a count), an int is a float, and a generic type is
    checked as its container.
    """
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.name not in values:
            continue
        value = values[f.name]
        origin = typing.get_origin(hints[f.name])
        allowed = (
            typing.get_args(hints[f.name]) if origin is types.UnionType else (origin or hints[f.name],)
        )
        if float in allowed:
            allowed += (int,)
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            raise ConfigError(f"{where}{f.name} must be {f.type}, got {reprlib.repr(value)}")


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
    max_retries: int = DEFAULT_MAX_RETRIES
    max_steps: int | None = None
    history_limit: int = DEFAULT_HISTORY_LIMIT
    early_stop: bool = True
    out: str | None = None

    def validate(self) -> None:
        _check_types(type(self), vars(self))
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
        """Load a YAML mapping of config fields (``load_yaml_mapping``), then apply overrides.

        An override that is not None replaces the file's value. An unknown
        key, or a file value of the wrong type that no override replaces,
        raises ``ConfigError`` naming the file.
        """
        try:
            raw = load_yaml_mapping(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"config file {path}: unknown config keys: {', '.join(unknown)}")
        overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        try:
            _check_types(cls, {k: v for k, v in raw.items() if k not in overrides})
        except ConfigError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        return cls(**{**raw, **overrides})


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
        """The report ``to_dict`` gave ``data``, each field checked for its type.

        A field of the wrong type raises ``ConfigError`` naming it: ``"no"``
        is no success flag, and 7.9 or 1e400 no step count.
        """
        _check_types(cls, data)
        results = []
        for i, r in enumerate(data["results"]):
            if not isinstance(r, dict):
                raise ConfigError(f"results[{i}] must be an object, got {reprlib.repr(r)}")
            _check_types(EpisodeResult, r, f"results[{i}].")
            results.append(
                EpisodeResult(r["task_id"], r["success"], r["steps_taken"], r["shortest_steps"])
            )
        return cls(
            iteration=data["iteration"],
            phase=data["phase"],
            results=results,
            total_sr=data["total_sr"],
            task_sr=data["task_sr"],
            spl=data["spl"],
            retrieval_calls=data["retrieval_calls"],
            failures=dict(data.get("failures", {})),
        )


class EpisodeLog:
    """Line-delimited JSON event log for one pass over the task set.

    The log keeps each step's decisions, not its prompt text. A ``prompt``
    event's ``text`` is written as its ``sha256`` and ``bytes`` (the UTF-8
    length), and a ``retrieval`` event's hits as ``[task_id, iteration,
    done, repr(score)]``; ``prag prompt`` rebuilds the text from those and
    checks it against the digest. The digest is taken here, in the sink, so
    a pass without a log never hashes a prompt. With ``db_path``, every
    ``episode-start`` event names the store file the pass retrieves from.
    Other payloads JSON cannot encode are written as their ``repr``.
    """

    def __init__(self, path: Path, db_path: str | None = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] = path.open("w", encoding="utf-8")
        # ``json.dumps(..., default=repr)`` would build this encoder per event.
        self._encode = json.JSONEncoder(default=repr).encode
        self._db_path = db_path

    def __call__(self, event: str, **payload: Any) -> None:
        if event == "prompt":
            data = payload.pop("text").encode("utf-8")
            payload["sha256"] = hashlib.sha256(data).hexdigest()
            payload["bytes"] = len(data)
        elif event == "retrieval":
            payload["hits"] = [
                [hit.record.task_id, hit.record.iteration, hit.record.done, repr(hit.score)]
                for hit in payload["hits"]
            ]
        elif event == "episode-start" and self._db_path is not None:
            payload["db"] = self._db_path
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
    """Resolve a task source: the literal name "suite" or a directory path.

    A source that holds no task raises ``ConfigError``: a run over it would
    report rates of zero episodes.
    """
    try:
        tasks = bundled_suite() if source == "suite" else load_task_dir(source)
    except OSError as exc:
        raise ConfigError(f"cannot load tasks from {source!r}: {exc}") from exc
    if not tasks:
        raise ConfigError(f"no task files in {source!r}: only *.yaml files are read")
    return tasks


def task_source(config: RunConfig, phase: str) -> str:
    """The task source a ``phase`` pass runs: ``eval_tasks`` for a train-eval eval pass."""
    if phase == "eval" and config.mode == "train-eval":
        assert config.eval_tasks is not None
        return config.eval_tasks
    return config.tasks


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
    db_path: str | None = None,
) -> IterationReport:
    """One pass over the task set. Commits new records only in train phase.

    ``optima`` holds each task's shortest solution length, in task order.
    The report's retrieval count is the sum of its episodes' counts. With
    ``out_dir``, every episode's events go to one log,
    ``<phase>_iter_NN.jsonl``, each line tagged with the episode's task id;
    ``db_path``, the file ``db`` was loaded from, goes into every
    ``episode-start`` event.
    """
    results: list[EpisodeResult] = []
    failures: dict[str, str] = {}
    batch = []
    retrieval_calls = 0
    log = None
    if out_dir is not None:
        log = EpisodeLog(out_dir / f"{phase}_iter_{iteration:02d}.jsonl", db_path)
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


def write_run_config(config: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open_atomic(out_dir / RUN_CONFIG_NAME) as fh:
        fh.write(json.dumps(dataclasses.asdict(config), indent=2) + "\n")


def read_run_config(run_dir: Path) -> RunConfig:
    """The configuration ``write_run_config`` left in ``run_dir``, validated."""
    path = run_dir / RUN_CONFIG_NAME
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        config = RunConfig(**data)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, TypeError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        raise ConfigError(f"{path} is not a run configuration: {exc}") from exc
    config.validate()
    return config


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


@dataclass(frozen=True)
class _Run:
    """What every pass of one run shares, set up once by ``_set_up``."""

    config: RunConfig
    encoder: Encoder
    backend: PlannerBackend
    passes: dict[str, tuple[list[Task], list[int]]]  # phase -> its tasks and their optima
    out_dir: Path | None

    def run_pass(
        self, db: TrajectoryDB, phase: str, iteration: int, db_path: str | None = None
    ) -> IterationReport:
        tasks, optima = self.passes[phase]
        return run_pass(
            tasks, db, self.backend, self.encoder, self.config, optima=optima,
            iteration=iteration, phase=phase, out_dir=self.out_dir, db_path=db_path,
        )

    def eval_pass(
        self, db: TrajectoryDB, iteration: int, db_path: str | None = None
    ) -> IterationReport:
        report = self.run_pass(db, "eval", iteration, db_path)
        if self.out_dir is not None:
            _write_report(report, self.out_dir / "report_eval.json")
        return report


def _set_up(config: RunConfig, phases: tuple[str, ...], store_dimension: int | None) -> _Run:
    """Validate, build, load and solve what the ``phases`` passes need, then write the config.

    ``config.out`` names the output directory; empty or None writes nothing.
    A directory that already holds a run's ``run_config.json`` is refused
    before anything is written, so two runs never mix their files in one.
    """
    config.validate()
    out_dir = Path(config.out) if config.out else None
    if out_dir is not None and (out_dir / RUN_CONFIG_NAME).exists():
        raise ConfigError(f"{out_dir} already holds a run; choose a new output directory")
    if config.mode == "train-eval" and "train" not in phases:
        raise ConfigError("a frozen eval pass runs tasks under mode 'self-iter', not 'train-eval'")
    encoder = build_encoder(config)
    if store_dimension is not None and store_dimension != encoder.dimension:
        raise ConfigError(
            f"database dimension {store_dimension} does not match encoder dimension"
            f" {encoder.dimension}"
        )
    backend = build_backend(config)
    # Passes that name one source share its tasks: each is loaded and solved once.
    sources = {phase: task_source(config, phase) for phase in phases}
    loaded = {source: load_tasks(source) for source in dict.fromkeys(sources.values())}
    solved = {source: (tasks, _solve_all(tasks)) for source, tasks in loaded.items()}
    passes = {phase: solved[source] for phase, source in sources.items()}
    if out_dir is not None:
        write_run_config(config, out_dir)
    return _Run(config, encoder, backend, passes, out_dir)


def run_iterations(config: RunConfig) -> list[IterationReport]:
    """Execute a full run per the configuration. Returns all reports."""
    phases = ("train", "eval") if config.mode == "train-eval" else ("train",)
    run = _set_up(config, phases, None)
    out_dir = run.out_dir
    db = TrajectoryDB(dimension=run.encoder.dimension)
    reports: list[IterationReport] = []
    previous_vector: dict[str, bool] | None = None
    for iteration in range(1, config.iterations + 1):
        report = run.run_pass(db, "train", iteration)
        reports.append(report)
        if out_dir is not None:
            db.save(out_dir / f"db_iter_{iteration:02d}.jsonl")
            _write_report(report, out_dir / f"report_iter_{iteration:02d}.json")
        if config.early_stop and previous_vector == report.done_vector:
            break
        previous_vector = report.done_vector

    if "eval" in phases:
        reports.append(run.eval_pass(db, reports[-1].iteration))

    if out_dir is not None:
        # The eval pass never changes the store, so the final store is the
        # last checkpoint: copy its bytes rather than serialize again.
        last = out_dir / f"db_iter_{reports[-1].iteration:02d}.jsonl"
        with last.open(encoding="utf-8") as src, open_atomic(out_dir / "db.jsonl") as fh:
            shutil.copyfileobj(src, fh)
        with open_atomic(out_dir / "summary.txt") as fh:
            fh.write(format_summary(reports))
    return reports


def run_eval(config: RunConfig, db: TrajectoryDB, *, db_path: str | None = None) -> IterationReport:
    """Frozen evaluation pass of ``tasks`` against an existing database.

    A ``train-eval`` configuration is refused. With ``config.out``, the
    configuration, the pass's event log and its report are written there;
    ``db_path`` names the file ``db`` was loaded from in every
    ``episode-start`` event, so ``prag prompt`` can find the store.
    """
    return _set_up(config, ("eval",), db.dimension).eval_pass(db, 1, db_path)
