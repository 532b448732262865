"""Command-line entry point.

Subcommands:
  run     execute a full progressive run from a config file and/or flags
  eval    run a frozen evaluation pass against an existing database file
  report  print metrics and the transition table from a run directory
  db      inspect or validate a database file

Exit status is 0 whenever the requested run completed, regardless of how many
tasks succeeded; configuration and I/O problems exit nonzero, as does a task
the optimal-step solver cannot solve or cannot model. Remote credentials are
read from environment variables only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .driver import (
    ConfigError,
    IterationReport,
    RunConfig,
    format_summary,
    run_eval,
    run_iterations,
)
from .gridworld.solver import SolverLimitation, UnsolvableTaskError
from .gridworld.tasks import TaskFileError
from .trajectory_db import DatabaseFormatError, TrajectoryDB


def _add_run_options(parser: argparse.ArgumentParser, *, include_mode: bool) -> None:
    parser.add_argument("--config", help="YAML config file; flags override its values")
    if include_mode:
        parser.add_argument("--mode", choices=("self-iter", "train-eval"))
        parser.add_argument("--eval-tasks", dest="eval_tasks", help="held-out task source for train-eval")
        parser.add_argument("--iterations", type=int, help="iteration cap (default 6)")
        parser.add_argument(
            "--no-early-stop",
            action="store_true",
            help="disable stopping on two identical consecutive done vectors",
        )
    parser.add_argument("--tasks", help='task source: "suite" or a directory of task files')
    parser.add_argument("--k", type=int, help="retrieved experiences per step (default 3)")
    parser.add_argument("--seed", type=int, help="run seed (default 0)")
    parser.add_argument(
        "--backend", choices=("replay-oracle", "seeded-explorer", "remote-chat")
    )
    parser.add_argument("--encoder", choices=("hash", "remote"))
    parser.add_argument("--dimension", type=int, help="embedding dimension (default 384)")
    parser.add_argument("--encoder-url", dest="encoder_url", help="remote encoder endpoint")
    parser.add_argument("--chat-url", dest="chat_url", help="chat-completions base URL")
    parser.add_argument("--chat-model", dest="chat_model", help="chat model name")
    parser.add_argument("--max-retries", dest="max_retries", type=int)
    parser.add_argument("--max-steps", dest="max_steps", type=int)
    parser.add_argument("--history-limit", dest="history_limit", type=int)
    parser.add_argument("--out", help="output directory for logs, reports, checkpoints")


def _config_from_args(args: argparse.Namespace, *, include_mode: bool) -> RunConfig:
    overrides: dict[str, Any] = {
        "tasks": args.tasks,
        "k": args.k,
        "seed": args.seed,
        "backend": args.backend,
        "encoder": args.encoder,
        "dimension": args.dimension,
        "encoder_url": args.encoder_url,
        "chat_url": args.chat_url,
        "chat_model": args.chat_model,
        "max_retries": args.max_retries,
        "max_steps": args.max_steps,
        "history_limit": args.history_limit,
        "out": args.out,
    }
    if include_mode:
        overrides["mode"] = args.mode
        overrides["eval_tasks"] = args.eval_tasks
        overrides["iterations"] = args.iterations
        if args.no_early_stop:
            overrides["early_stop"] = False
    if args.config:
        return RunConfig.from_file(args.config, overrides)
    filtered = {key: value for key, value in overrides.items() if value is not None}
    return RunConfig(**filtered)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, include_mode=True)
    reports = run_iterations(config)
    sys.stdout.write(format_summary(reports))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args, include_mode=False)
    db = TrajectoryDB.load(args.db)
    out_dir = Path(config.out) if config.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    report = run_eval(config, db, out_dir=out_dir)
    sys.stdout.write(format_summary([report]))
    return 0


def _load_reports(run_dir: Path) -> list[IterationReport]:
    paths = sorted(run_dir.glob("report_iter_*.json"))
    reports = []
    for path in paths:
        reports.append(IterationReport.from_dict(json.loads(path.read_text(encoding="utf-8"))))
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
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse reports under {run_dir}: {exc}") from exc
    if not reports:
        raise ConfigError(f"no report files found under {run_dir}")
    sys.stdout.write(format_summary(reports))
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
