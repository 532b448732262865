"""Command-line entry point.

Subcommands:
  run     execute a full progressive run from a config file and/or flags
  eval    run a frozen evaluation pass against an existing database file
  report  print metrics and the transition table from a run directory
  prompt  rebuild, check and print the logged prompts of one episode
  db      inspect or validate a database file

Exit status is 0 whenever the requested run completed, regardless of how many
tasks succeeded; configuration and I/O problems exit nonzero, as does a task
the optimal-step solver cannot solve or cannot model. Remote credentials are
read from environment variables only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .driver import (
    BACKEND_NAMES,
    ENCODER_NAMES,
    MODES,
    ConfigError,
    IterationReport,
    RunConfig,
    format_summary,
    run_eval,
    run_iterations,
)
from .gridworld.solver import SolverLimitation, UnsolvableTaskError
from .gridworld.tasks import DEFAULT_MAX_STEPS, TaskFileError
from .rebuild import RebuildError, rebuild_prompts
from .trajectory_db import DatabaseFormatError, TrajectoryDB


def _add_run_options(parser: argparse.ArgumentParser, *, include_mode: bool) -> None:
    defaults = RunConfig()
    parser.add_argument("--config", help="YAML config file; flags override its values")
    if include_mode:
        parser.add_argument("--mode", choices=MODES)
        parser.add_argument("--eval-tasks", dest="eval_tasks", help="held-out task source for train-eval")
        parser.add_argument("--iterations", type=int, help=f"iteration cap (default {defaults.iterations})")
        parser.add_argument(
            "--no-early-stop",
            action="store_true",
            help="disable stopping on two identical consecutive done vectors",
        )
    parser.add_argument("--tasks", help='task source: "suite" or a directory of task files')
    parser.add_argument("--k", type=int, help=f"retrieved experiences per step (default {defaults.k})")
    parser.add_argument("--seed", type=int, help=f"run seed (default {defaults.seed})")
    parser.add_argument("--backend", choices=BACKEND_NAMES)
    parser.add_argument("--encoder", choices=ENCODER_NAMES)
    parser.add_argument(
        "--dimension", type=int, help=f"embedding dimension (default {defaults.dimension})"
    )
    parser.add_argument("--encoder-url", dest="encoder_url", help="remote encoder endpoint")
    parser.add_argument("--chat-url", dest="chat_url", help="chat-completions base URL")
    parser.add_argument("--chat-model", dest="chat_model", help="chat model name")
    parser.add_argument(
        "--max-retries", dest="max_retries", type=int,
        help=f"retries after an unusable reply, per planning step (default {defaults.max_retries})",
    )
    parser.add_argument(
        "--max-steps", dest="max_steps", type=int,
        help="simulator step budget of every episode (default: each task's max_steps,"
        f" {DEFAULT_MAX_STEPS} when its file gives none)",
    )
    parser.add_argument(
        "--history-limit", dest="history_limit", type=int,
        help=f"latest steps shown of each retrieved record (default {defaults.history_limit})",
    )
    parser.add_argument("--out", help="output directory for logs, reports, checkpoints")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # Each run option is stored under its field's name; a subcommand without
    # an option leaves it None. ``--no-early-stop`` alone names the opposite.
    overrides: dict[str, Any] = {
        f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)
    }
    if getattr(args, "no_early_stop", False):
        overrides["early_stop"] = False
    if args.config:
        config = RunConfig.from_file(args.config, overrides)
    else:
        config = RunConfig(**{key: value for key, value in overrides.items() if value is not None})
    for name in ("tasks", "eval_tasks"):  # absolute, so ``prag prompt`` works anywhere
        source = getattr(config, name)
        if isinstance(source, str) and source not in ("", "suite"):
            setattr(config, name, str(Path(source).absolute()))
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    reports = run_iterations(config)
    sys.stdout.write(format_summary(reports))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    db = TrajectoryDB.load(args.db)
    report = run_eval(config, db, db_path=str(Path(args.db).absolute()))
    sys.stdout.write(format_summary([report]))
    return 0


def _load_reports(run_dir: Path) -> list[IterationReport]:
    """The run's iteration reports in iteration order, then its eval report."""
    # By the ``iteration`` field: file names sort 100 before 11.
    reports = sorted(
        (
            IterationReport.from_dict(json.loads(path.read_text(encoding="utf-8")))
            for path in run_dir.glob("report_iter_*.json")
        ),
        key=lambda report: report.iteration,
    )
    eval_path = run_dir / "report_eval.json"
    if eval_path.exists():
        reports.append(IterationReport.from_dict(json.loads(eval_path.read_text(encoding="utf-8"))))
    return reports


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"{run_dir} is not a directory")
    try:
        reports = _load_reports(run_dir)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse reports under {run_dir}: {exc}") from exc
    if not reports:
        raise ConfigError(f"no report files found under {run_dir}")
    sys.stdout.write(format_summary(reports))
    return 0


def _cmd_prompt(args: argparse.Namespace) -> int:
    prompts = rebuild_prompts(args.run_dir, args.phase, args.iteration, args.task)
    if args.step is not None:
        prompts = [p for p in prompts if p.step == args.step]
        if not prompts:
            raise RebuildError(f"the episode of {args.task!r} has no prompt at step {args.step}")
    for prompt in prompts:
        sys.stdout.write(
            f"=== step {prompt.step} attempt {prompt.attempt} sha256 {prompt.sha256}\n"
            f"{prompt.text}\n"
        )
    return 0


def _cmd_db(args: argparse.Namespace) -> int:
    db = TrajectoryDB.load(args.db)
    records = db.records()
    sys.stdout.write(
        f"database: {args.db}\n"
        f"dimension: {db.dimension}\n"
        f"records: {len(records)}\n"
    )
    for record in records:
        sys.stdout.write(
            f"  {record.task_id}: iteration={record.iteration}"
            f" steps={len(record.history)} done={record.done}\n"
        )
    if args.validate:
        sys.stdout.write("validation: OK\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prag",
        description="Progressive retrieval-augmented planning over a grid world.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a progressive run")
    _add_run_options(run_parser, include_mode=True)
    run_parser.set_defaults(handler=_cmd_run)

    eval_parser = sub.add_parser("eval", help="frozen pass against an existing database")
    eval_parser.add_argument("--db", required=True, help="database file to retrieve from")
    _add_run_options(eval_parser, include_mode=False)
    eval_parser.set_defaults(handler=_cmd_eval)

    report_parser = sub.add_parser("report", help="summarize a run directory")
    report_parser.add_argument("run_dir", help="directory written by `prag run --out`")
    report_parser.set_defaults(handler=_cmd_report)

    prompt_parser = sub.add_parser(
        "prompt", help="rebuild the logged prompts of one episode and check their digests"
    )
    prompt_parser.add_argument(
        "run_dir", help="directory written by `prag run --out` or `prag eval --out`"
    )
    prompt_parser.add_argument("--phase", required=True, help="train or eval")
    prompt_parser.add_argument("--iteration", type=int, required=True, help="the pass's iteration")
    prompt_parser.add_argument("--task", required=True, help="task id of the episode")
    prompt_parser.add_argument("--step", type=int, help="print only this planning step's prompts")
    prompt_parser.set_defaults(handler=_cmd_prompt)

    db_parser = sub.add_parser("db", help="inspect or validate a database file")
    db_parser.add_argument("db", help="database file")
    db_parser.add_argument("--validate", action="store_true", help="exit 0 only if the file is valid")
    db_parser.set_defaults(handler=_cmd_db)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        ConfigError,
        RebuildError,
        TaskFileError,
        DatabaseFormatError,
        SolverLimitation,
        UnsolvableTaskError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
