"""Command-line interface: subcommands, exit codes, artifact plumbing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prag
from prag.backends import ReplayOracleBackend
from prag.cli import main
from prag.driver import (
    IterationReport,
    RunConfig,
    _write_report,
    format_summary,
    write_run_config,
)
from prag.gridworld.sim import EpisodeResult
from prag.gridworld.tasks import MAX_YAML_DEPTH, bundled_suite
from prag.trajectory_db import TrajectoryDB

from tests.test_driver import TASK_A, TASK_B
from tests.conftest import MISTYPED_STORE_FIELDS, write_mistyped_store


@pytest.fixture
def task_dir(tmp_path):
    d = tmp_path / "tasks"
    d.mkdir()
    (d / "easy_ball.yaml").write_text(TASK_A)
    (d / "mug_to_sink.yaml").write_text(TASK_B)
    return d


# The ball cannot reach the table: a wall ring seals it off.
SEALED_TABLE = """\
id: sealed_table
goal: Put the ball on the sealed table
max_steps: 30
grid: |
  #######
  #.###.#
  #.#T#.#
  #.###.#
  #B....#
  #.....#
  #######
objects:
  table_1: {kind: table, at: T}
  ball_1: {kind: ball, at: B}
agent:
  at: [1, 5]
  heading: N
goal_predicate:
  kind: placed_at
  item: ball_1
  target: table_1
"""

# A mug rests on the goal ball, which the solver's model cannot move.
BURIED_BALL = """\
id: buried_ball
goal: Put the buried ball on the table
max_steps: 30
grid: |
  ######
  #B.T.#
  #....#
  #....#
  #....#
  ######
objects:
  table_1: {kind: table, at: T}
  ball_1: {kind: ball, at: B}
  mug_1: {kind: mug, on: ball_1}
agent:
  at: [1, 4]
  heading: N
goal_predicate:
  kind: placed_at
  item: ball_1
  target: table_1
"""

MUG_ON_MUG = """\
id: mug_on_mug
goal: Put the mug with the other mug
max_steps: 20
grid: |
  #####
  #A..#
  #..B#
  #...#
  #####
objects:
  mug_1: {kind: mug, at: A}
  mug_2: {kind: mug, at: B}
agent:
  at: [1, 2]
  heading: N
goal_predicate:
  kind: placed_at
  item: mug_1
  target: mug_2
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_run_prints_a_summary_and_exits_zero(self, capsys, task_dir):
        code, out, err = run_cli(
            capsys,
            "run",
            "--tasks",
            str(task_dir),
            "--iterations",
            "2",
            "--no-early-stop",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("iter  phase")
        assert lines[1].lstrip().startswith("1  train")
        assert lines[2].lstrip().startswith("2  train")
        assert "task outcome transitions:" in out

    def test_run_writes_artifacts(self, capsys, task_dir, tmp_path):
        out_dir = tmp_path / "run_out"
        code, _, _ = run_cli(
            capsys,
            "run",
            "--tasks",
            str(task_dir),
            "--iterations",
            "1",
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert (out_dir / "db.jsonl").exists()
        assert (out_dir / "report_iter_01.json").exists()
        assert (out_dir / "summary.txt").exists()

    def test_run_from_config_file_with_flag_override(self, capsys, task_dir, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(f"tasks: {task_dir}\niterations: 5\nearly_stop: false\n")
        code, out, _ = run_cli(
            capsys, "run", "--config", str(config), "--iterations", "1"
        )
        assert code == 0
        assert len(out.splitlines()) == 2  # header plus exactly one iteration row

    def test_unknown_config_key_names_the_file(self, capsys, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("bogus: 1\n")
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: config file {config}: unknown config keys: bogus\n"

    def test_a_flag_replaces_a_mistyped_file_value(self, capsys, task_dir, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(f'tasks: {task_dir}\niterations: 1\nk: "3"\n')
        code, out, err = run_cli(capsys, "run", "--config", str(config), "--k", "2")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2

    def test_invalid_config_value_exits_two(self, capsys, task_dir):
        code, _, err = run_cli(
            capsys, "run", "--tasks", str(task_dir), "--iterations", "0"
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("line", ['iterations: "3"', "tasks: [1, 2]", "k: 2.5"])
    def test_wrong_typed_config_value_exits_two(self, capsys, tmp_path, line):
        config = tmp_path / "run.yaml"
        config.write_text(line + "\n")
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: config file {config}: {line.split(':')[0]} must be ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("agent:\n  at: [1, 1]\n  heading: S\n", "agent: 5\n", "agent must be dict, got 5"),
            ("  at: [1, 1]\n", "  at: [[1], 1]\n", "bad cell spec: [[1], 1]"),
            ("  at: [1, 1]\n", "", "missing required key 'agent.at'"),
            ("grid: |\n  #####\n  #..T#\n  #...#\n  #B..#\n  #####\n", "grid: [1, 2]\n",
             "grid must be str, got [1, 2]"),
            ("goal_predicate:\n  kind: placed_at\n  item: ball_1\n  target: table_1\n",
             "goal_predicate: [1]\n", "goal_predicate must be dict, got [1]"),
            ("  item: ball_1\n", "", "missing required key 'goal_predicate.item'"),
            ("item: ball_1", "item: [ball_1]", "goal_predicate.item must be str, got ['ball_1']"),
            ("max_steps: 40", "max_steps: [3]", "max_steps must be int, got [3]"),
            ("goal: Put the ball on the table", "goal: [a]", "goal must be str, got ['a']"),
            ("kind: ball,", "kind: [ball],", "objects.ball_1.kind must be str, got ['ball']"),
            ("at: B}", "at: B, toggled: [x]}", "objects.ball_1.toggled must be bool, got ['x']"),
        ],
        ids=[
            "agent", "agent-cell", "agent-cell-missing", "grid", "goal-predicate",
            "predicate-item-missing", "predicate-item", "max-steps", "goal", "object-kind",
            "object-flag",
        ],
    )
    def test_wrong_typed_task_field_exits_two(self, capsys, tmp_path, old, new, message):
        task_dir = tmp_path / "tasks"
        task_dir.mkdir()
        assert old in TASK_A
        (task_dir / "easy_ball.yaml").write_text(TASK_A.replace(old, new))
        code, out, err = run_cli(capsys, "run", "--tasks", str(task_dir), "--iterations", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {task_dir / 'easy_ball.yaml'}: {message}\n"

    def test_missing_task_dir_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--tasks", str(tmp_path / "absent"), "--iterations", "1"
        )
        assert code == 2
        assert "task directory not found" in err

    def test_train_eval_mode_via_flags(self, capsys, task_dir):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--mode",
            "train-eval",
            "--tasks",
            str(task_dir),
            "--eval-tasks",
            str(task_dir),
            "--iterations",
            "1",
        )
        assert code == 0
        assert "eval" in out

    @pytest.mark.parametrize(
        "task_id, text, message",
        [
            ("sealed_table", SEALED_TABLE, "error: task 'sealed_table' has no solution"),
            ("buried_ball", BURIED_BALL, "error: task 'buried_ball': scenery item 'mug_1'"),
            (
                "mug_on_mug",
                MUG_ON_MUG,
                "error: task 'mug_on_mug': placed_at target 'mug_2' is not a landmark",
            ),
        ],
        ids=["unsolvable", "out-of-model", "portable-target"],
    )
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_task_the_solver_rejects_exits_two_before_its_episode(
        self, capsys, monkeypatch, task_dir, tmp_path, task_id, text, message, command
    ):
        argv = ["--iterations", "1"]
        phase = "train"
        if command == "eval":
            store_run = tmp_path / "store_run"
            assert run_cli(capsys, "run", "--tasks", str(task_dir), "--out", str(store_run))[0] == 0
            argv = ["--db", str(store_run / "db.jsonl")]
            phase = "eval"
        (task_dir / f"{task_id}.yaml").write_text(text)
        calls = []
        for name in ("begin_episode", "complete"):
            monkeypatch.setattr(
                ReplayOracleBackend, name, lambda *args, _name=name: calls.append(_name)
            )
        out_dir = tmp_path / "run_out"
        code, _, err = run_cli(
            capsys, command, "--tasks", str(task_dir), *argv, "--out", str(out_dir)
        )
        assert code == 2
        assert err.startswith(message)
        assert len(err.splitlines()) == 1
        # Every task is solved before the first episode, so whatever the load
        # order, no episode started and no file was written.
        assert calls == []
        assert not (out_dir / f"{phase}_iter_01.jsonl").exists()
        assert not (out_dir / "report_iter_01.json").exists()
        assert not (out_dir / "report_eval.json").exists()
        assert not (out_dir / "run_config.json").exists()

    def test_a_source_both_passes_name_is_loaded_and_solved_once(self, capsys, monkeypatch):
        import prag.agent as agent_module
        import prag.driver as driver_module

        loads, solved = [], []
        load_tasks = driver_module.load_tasks
        solve = agent_module.shortest_solution_steps

        def counting_load(source):
            loads.append(source)
            return load_tasks(source)

        def counting_solve(task):
            solved.append(task.id)
            return solve(task)

        monkeypatch.setattr(driver_module, "load_tasks", counting_load)
        monkeypatch.setattr(agent_module, "shortest_solution_steps", counting_solve)
        code, out, _ = run_cli(
            capsys, "run", "--mode", "train-eval", "--eval-tasks", "suite", "--iterations", "1"
        )
        assert code == 0
        assert "eval" in out
        assert loads == ["suite"]
        assert solved == [task.id for task in bundled_suite()]

    def test_unknown_backend_is_an_argparse_error(self, task_dir):
        with pytest.raises(SystemExit) as info:
            main(["run", "--tasks", str(task_dir), "--backend", "gpt4"])
        assert info.value.code == 2


class TestEvalCommand:
    def test_eval_against_a_run_database(self, capsys, task_dir, tmp_path):
        out_dir = tmp_path / "train_out"
        code, _, _ = run_cli(
            capsys,
            "run",
            "--tasks",
            str(task_dir),
            "--iterations",
            "2",
            "--no-early-stop",
            "--out",
            str(out_dir),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--db",
            str(out_dir / "db.jsonl"),
            "--tasks",
            str(task_dir),
        )
        assert code == 0
        assert "eval" in out
        assert "1.000" in out

    def test_a_train_eval_config_exits_two_and_writes_nothing(self, capsys, task_dir, tmp_path):
        # A frozen pass runs ``tasks``; recording mode train-eval would send
        # ``prag prompt --phase eval`` to ``eval_tasks`` for its task.
        run_dir = tmp_path / "train_out"
        code, _, _ = run_cli(
            capsys, "run", "--tasks", str(task_dir), "--iterations", "2", "--out", str(run_dir)
        )
        assert code == 0
        held_out = tmp_path / "held_out"
        held_out.mkdir()
        (held_out / "easy_ball.yaml").write_text(TASK_A)
        config = tmp_path / "eval.yaml"
        config.write_text(f"mode: train-eval\ntasks: {task_dir}\neval_tasks: {held_out}\n")
        out_dir = tmp_path / "eval_out"
        code, out, err = run_cli(
            capsys,
            "eval", "--config", str(config), "--db", str(run_dir / "db.jsonl"),
            "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: a frozen eval pass runs tasks under mode 'self-iter'")
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    def test_eval_missing_db_exits_nonzero(self, capsys, task_dir, tmp_path):
        code, _, err = run_cli(
            capsys, "eval", "--db", str(tmp_path / "absent.jsonl"), "--tasks", str(task_dir)
        )
        assert code in (1, 2)
        assert err.startswith("error:")

    def test_eval_corrupt_db_exits_two(self, capsys, task_dir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, _, err = run_cli(
            capsys, "eval", "--db", str(bad), "--tasks", str(task_dir)
        )
        assert code == 2
        assert "line 1" in err


class TestUsedOutputDirectory:
    """An ``--out`` that already holds a run is refused; its files keep their bytes."""

    @staticmethod
    def snapshot(directory):
        return {path: path.read_bytes() for path in sorted(directory.rglob("*")) if path.is_file()}

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_a_second_run_or_eval_into_a_run_directory_exits_two(
        self, capsys, task_dir, tmp_path, command
    ):
        run_dir = tmp_path / "run_out"
        code, _, _ = run_cli(
            capsys, "run", "--tasks", str(task_dir), "--iterations", "3", "--no-early-stop",
            "--out", str(run_dir),
        )
        assert code == 0
        before = self.snapshot(run_dir)
        assert run_dir / "report_iter_03.json" in before
        one = tmp_path / "one"
        one.mkdir()
        (one / "easy_ball.yaml").write_text(TASK_A)
        second = {
            "run": ("run", "--tasks", str(task_dir), "--iterations", "2", "--seed", "5"),
            "eval": ("eval", "--db", str(run_dir / "db.jsonl"), "--tasks", str(one)),
        }[command]
        code, out, err = run_cli(capsys, *second, "--out", str(run_dir))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {run_dir} already holds a run")
        assert len(err.splitlines()) == 1
        assert self.snapshot(run_dir) == before

    def test_an_existing_empty_directory_is_accepted(self, capsys, task_dir, tmp_path):
        out_dir = tmp_path / "empty"
        out_dir.mkdir()
        code, _, _ = run_cli(
            capsys, "run", "--tasks", str(task_dir), "--iterations", "1", "--out", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "run_config.json").exists()


class TestEmptyTaskSource:
    """A task source with no ``*.yaml`` file is refused before anything is written."""

    @pytest.mark.parametrize("files", [{}, {"easy_ball.yml": TASK_A}], ids=["empty", "yml-only"])
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_a_source_without_yaml_files_exits_two(self, capsys, tmp_path, command, files):
        source = tmp_path / "tasks"
        source.mkdir()
        for name, text in files.items():
            (source / name).write_text(text)
        store = tmp_path / "store.jsonl"
        TrajectoryDB().save(store)
        out_dir = tmp_path / "out"
        args = ["--db", str(store)] if command == "eval" else ["--iterations", "3"]
        code, out, err = run_cli(
            capsys, command, "--tasks", str(source), *args, "--out", str(out_dir)
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(source) in err and "*.yaml" in err
        assert not out_dir.exists()


class TestReportCommand:
    def test_report_replays_a_run_directory(self, capsys, task_dir, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(
            capsys,
            "run",
            "--tasks",
            str(task_dir),
            "--iterations",
            "2",
            "--no-early-stop",
            "--out",
            str(out_dir),
        )
        code, out, _ = run_cli(capsys, "report", str(out_dir))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("iter  phase")
        assert lines[1].lstrip().startswith("1  train")
        assert lines[2].lstrip().startswith("2  train")

    def test_reports_are_shown_in_iteration_order(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        reports = []
        for iteration in (9, 10, 11, 100):
            solved = iteration in (10, 100)
            report = IterationReport(
                iteration=iteration,
                phase="train",
                results=[EpisodeResult("t1", solved, 6 if solved else 40, 6)],
                total_sr=float(solved),
                task_sr=float(solved),
                spl=float(solved),
                retrieval_calls=iteration,
            )
            reports.append(report)
            # File names sort as 10, 100, 11, 9.
            _write_report(report, run_dir / f"report_iter_{iteration:02d}.json")
        eval_report = dataclasses.replace(reports[-1], phase="eval")
        _write_report(eval_report, run_dir / "report_eval.json")
        code, out, _ = run_cli(capsys, "report", str(run_dir))
        assert code == 0
        rows = [line.split()[:2] for line in out.splitlines()[1:6]]
        assert rows == [
            ["9", "train"], ["10", "train"], ["11", "train"], ["100", "train"], ["100", "eval"]
        ]
        assert out == format_summary(reports + [eval_report])

    def test_report_on_missing_directory_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "absent"))
        assert code == 2
        assert "not a directory" in err

    def test_report_on_empty_directory_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(capsys, "report", str(empty))
        assert code == 2
        assert "no report files" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"iteration": 1, "phase": "train", "results": null, "total_sr": 0.0,'
            ' "task_sr": 0.0, "spl": 0.0, "retrieval_calls": 0}',
            "[1, 2]",
        ],
    )
    def test_report_on_a_malformed_file_exits_two(self, capsys, tmp_path, text):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "report_iter_01.json").write_text(text)
        code, _, err = run_cli(capsys, "report", str(run_dir))
        assert code == 2
        assert err.startswith("error: cannot parse reports")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"steps_taken": 6', '"steps_taken": 1e400',
             "results[0].steps_taken must be int, got inf"),
            ('"steps_taken": 6', '"steps_taken": 7.9',
             "results[0].steps_taken must be int, got 7.9"),
            ('"success": true', '"success": "no"', "results[0].success must be bool, got 'no'"),
            ('"iteration": 1', '"iteration": true', "iteration must be int, got True"),
            ('"total_sr": 1.0', '"total_sr": "1.0"', "total_sr must be float, got '1.0'"),
            ('"results": [', '"results": [7, ', "results[0] must be an object, got 7"),
        ],
        ids=[
            "steps-past-float", "fractional-steps", "success-string", "boolean-iteration",
            "rate-string", "result-not-an-object",
        ],
    )
    def test_a_mistyped_field_exits_two_naming_its_file(self, capsys, tmp_path, old, new, message):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        report = IterationReport(
            iteration=1,
            phase="train",
            results=[EpisodeResult("t1", True, 6, 6)],
            total_sr=1.0,
            task_sr=1.0,
            spl=1.0,
            retrieval_calls=3,
        )
        text = json.dumps(report.to_dict())
        assert old in text
        (run_dir / "report_iter_01.json").write_text(text.replace(old, new))
        code, out, err = run_cli(capsys, "report", str(run_dir))
        assert (code, out) == (2, "")
        named = f"cannot parse reports under {run_dir}: report_iter_01.json"
        assert err == f"error: {named}: {message}\n"


class TestDbCommand:
    def test_db_summarises_records(self, capsys, task_dir, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(
            capsys,
            "run",
            "--tasks",
            str(task_dir),
            "--iterations",
            "2",
            "--no-early-stop",
            "--out",
            str(out_dir),
        )
        code, out, _ = run_cli(capsys, "db", str(out_dir / "db.jsonl"))
        assert code == 0
        assert "records: 2" in out
        assert "easy_ball" in out
        assert "done=True" in out

    def test_db_validate_flag(self, capsys, task_dir, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(
            capsys,
            "run",
            "--tasks",
            str(task_dir),
            "--iterations",
            "1",
            "--out",
            str(out_dir),
        )
        code, out, _ = run_cli(capsys, "db", str(out_dir / "db.jsonl"), "--validate")
        assert code == 0
        assert "validation: OK" in out

    def test_db_validate_rejects_corrupt_files(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "prag-trajectory-db", "version": 1, "dimension": 4}\n{\n')
        code, _, err = run_cli(capsys, "db", str(bad), "--validate")
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("case", sorted(MISTYPED_STORE_FIELDS))
    def test_db_validate_rejects_mistyped_fields(self, capsys, tmp_path, case):
        path = tmp_path / "db.jsonl"
        line = write_mistyped_store(path, case)
        code, out, err = run_cli(capsys, "db", str(path), "--validate")
        assert code == 2
        assert "validation: OK" not in out
        assert err.startswith(f"error: line {line}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "old, new",
        [('"iteration": 1', '"iteration": 1' + "0" * 4300), ("[1.0, ", "[1" + "0" * 400 + ", ")],
        ids=["integer-past-the-digit-limit", "entry-too-large-for-a-float"],
    )
    def test_db_validate_rejects_numbers_python_cannot_hold(self, capsys, tmp_path, old, new):
        path = tmp_path / "db.jsonl"
        write_mistyped_store(path, "done-string")
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(old, new, 1)
        path.write_text("\n".join(lines[:2]) + "\n")
        code, out, err = run_cli(capsys, "db", str(path), "--validate")
        assert code == 2
        assert "validation: OK" not in out
        assert err.startswith("error: line 2: ")
        assert len(err.splitlines()) == 1

    def test_db_missing_file_exits_nonzero(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "db", str(tmp_path / "absent.jsonl"))
        assert code in (1, 2)
        assert err.startswith("error:")


def _bad_store(tmp_path):
    # The bad byte sits in the record, yet the header read decodes it too.
    path = tmp_path / "db.jsonl"
    path.write_bytes(
        b'{"format": "prag-trajectory-db", "version": 1, "dimension": 4}\n'
        b'{"task_id": "\xff"}\n'
    )
    return ["db", path, "--validate"]


def _bad_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_bytes(b"seed: 1\ntasks: \xff\n")
    return ["run", "--config", path, "--out", tmp_path / "out"]


def _bad_task_file(tmp_path):
    tasks = tmp_path / "tasks"
    tasks.mkdir()
    (tasks / "easy_ball.yaml").write_text(TASK_A)
    (tasks / "bad.yaml").write_bytes(b"id: \xff\n")
    return ["run", "--tasks", tasks, "--out", tmp_path / "out"]


def _bad_run_config(tmp_path):
    (tmp_path / "run_config.json").write_bytes(b'{"tasks": "\xff"}\n')
    return ["prompt", tmp_path, "--phase", "train", "--iteration", "1", "--task", "wash_mugs"]


def _bad_event_log(tmp_path):
    write_run_config(RunConfig(tasks="suite"), tmp_path)
    (tmp_path / "train_iter_01.jsonl").write_bytes(
        b'{"event": "episode-start", "task_id": "wash_mugs"}\n\xff\n'
    )
    return ["prompt", tmp_path, "--phase", "train", "--iteration", "1", "--task", "wash_mugs"]


class TestInputsThatAreNotUtf8:
    @pytest.mark.parametrize(
        "write_input",
        [_bad_store, _bad_config, _bad_task_file, _bad_run_config, _bad_event_log],
        ids=["store", "config", "task-file", "run-config", "event-log"],
    )
    def test_a_byte_that_is_not_utf8_exits_two(self, capsys, tmp_path, write_input):
        argv = write_input(tmp_path)
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "0xff" in err


# Nested far past Python's recursion limit, so ``json.loads`` raises
# RecursionError rather than a ValueError.
_DEEP = "[" * 100_000


def _deep_store_record(tmp_path):
    path = tmp_path / "db.jsonl"
    path.write_text(f'{{"format": "prag-trajectory-db", "version": 1, "dimension": 4}}\n{_DEEP}\n')
    return ["db", path, "--validate"], "line 2: invalid JSON"


def _deep_store_header(tmp_path):
    path = tmp_path / "db.jsonl"
    path.write_text(f"{_DEEP}\n")
    return ["db", path, "--validate"], "line 1: invalid header JSON"


def _deep_report(tmp_path):
    (tmp_path / "report_iter_01.json").write_text(_DEEP)
    return ["report", tmp_path], "cannot parse reports"


def _deep_run_config(tmp_path):
    (tmp_path / "run_config.json").write_text(_DEEP)
    argv = ["prompt", tmp_path, "--phase", "train", "--iteration", "1", "--task", "wash_mugs"]
    return argv, "is not a run configuration"


def _deep_event_log(tmp_path):
    write_run_config(RunConfig(tasks="suite"), tmp_path)
    (tmp_path / "train_iter_01.jsonl").write_text(
        f'{{"event": "episode-start", "task_id": "wash_mugs"}}\n{_DEEP}\n'
    )
    argv = ["prompt", tmp_path, "--phase", "train", "--iteration", "1", "--task", "wash_mugs"]
    return argv, "train_iter_01.jsonl line 2 is not JSON"


class TestInputsNestedTooDeeply:
    @pytest.mark.parametrize(
        "write_input",
        [_deep_store_record, _deep_store_header, _deep_report, _deep_run_config, _deep_event_log],
        ids=["store-record", "store-header", "report", "run-config", "event-log"],
    )
    def test_json_nested_past_the_recursion_limit_exits_two(self, capsys, tmp_path, write_input):
        argv, named = write_input(tmp_path)
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert named in err


_GOAL = "goal: Put the ball on the table"


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def _holding(value: str) -> tuple[str, str]:
    """A task file whose goal is ``value``, and a config whose tasks are."""
    return TASK_A.replace(_GOAL, f"goal: {value}"), f"tasks: {value}"


# Within the depth limit, but PyYAML flattens merge keys recursively.
_MERGES = "a: " + "{<<: " * 990 + "{}" + "}" * 990

# YAML that made a loader raise, or crash, as (task file, --config file).
_YAML_INPUTS = {
    "integer-too-long": (
        TASK_A.replace("max_steps: 40", "max_steps: " + "9" * 5001), "k: " + "9" * 5001
    ),
    "value-nested-20000-deep": _holding(_nested(20_000)),
    "bare-on-key": (TASK_A + "on: 1\n", "on: 1"),
    "integer-key": (TASK_A + "1: 2\n", "1: 2"),
    "merge-keys-nested-990-deep": (TASK_A + _MERGES, _MERGES),
}


def _write_yaml_input(tmp_path, kind, texts):
    """Write the task-file or the config text of ``texts``; returns argv and the file."""
    task_text, config_text = texts
    if kind == "task-file":
        tasks = tmp_path / "tasks"
        tasks.mkdir()
        path = tasks / "easy_ball.yaml"
        path.write_text(task_text)
        return ["run", "--tasks", str(tasks), "--iterations", "1"], path
    path = tmp_path / "run.yaml"
    path.write_text(config_text + "\n")
    return ["run", "--config", str(path), "--iterations", "1"], path


class TestYamlInputsThatLoadersRaisedOn:
    @pytest.mark.parametrize("case", list(_YAML_INPUTS))
    @pytest.mark.parametrize("kind", ["task-file", "config"])
    def test_exits_two_naming_the_file(self, capsys, tmp_path, kind, case):
        argv, path = _write_yaml_input(tmp_path, kind, _YAML_INPUTS[case])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert f"{path}: " in err

    @pytest.mark.parametrize("kind, key", [("task-file", "goal"), ("config", "tasks")])
    def test_a_value_nested_to_the_limit_is_quoted_in_short(self, capsys, tmp_path, kind, key):
        # Inside the top-level mapping, this nests exactly to the limit.
        argv, path = _write_yaml_input(tmp_path, kind, _holding(_nested(MAX_YAML_DEPTH - 1)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert err.endswith(f"{path}: {key} must be str, got [[[[[[[...]]]]]]]\n")

    @pytest.mark.parametrize("kind", ["task-file", "config"])
    def test_30000_nested_brackets_exit_two_in_a_child(self, tmp_path, kind):
        # libyaml composes recursively in C, and this many levels overflowed
        # its stack and killed the interpreter: run it in a child process.
        argv, path = _write_yaml_input(tmp_path, kind, _holding(_nested(30_000)))
        src = str(Path(prag.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "prag.cli", *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert (result.returncode, result.stdout) == (2, ""), result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ")
        too_deep = f"not valid YAML: collections nest deeper than {MAX_YAML_DEPTH} levels"
        assert line.endswith(f"{path}: {too_deep}")


class TestParser:
    def test_no_subcommand_is_an_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_console_script_is_installed(self):
        """The `prag` script an install of this checkout creates runs `main`.

        The declaration in `pyproject.toml` is what an install turns into the
        script, so it is read from the checkout itself. Any `prag`
        distribution visible to `importlib.metadata` (an install, or
        egg-info left by a metadata step) must agree with it.
        """
        import importlib.metadata as md

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            scripts = tomllib.load(f)["project"].get("scripts", {})
        assert scripts.get("prag") == "prag.cli:main"

        declared = md.EntryPoint(
            name="prag", value=scripts["prag"], group="console_scripts"
        )
        assert declared.load() is main

        for dist in md.distributions():
            if (dist.metadata["Name"] or "").lower() != "prag":
                continue
            found = dist.entry_points.select(group="console_scripts", name="prag")
            assert [ep.value for ep in found] == [declared.value], dist.locate_file("")


class TestOutputPin:
    # sha256 of each deterministic artifact of the run below, as the code
    # wrote it before event logs stopped holding prompt text. A change that
    # moves these bytes on purpose re-pins them in the same change.
    PINNED = {
        "report_iter_01.json": "cca429dec35251eb97032136c49a74dd42ba0506284d79868a11ad80e6f7ad0c",
        "report_iter_02.json": "c8994fc5c784758c51493494e9bd2ab062a33c35b3655899c95bbf008d3c5616",
        "report_iter_03.json": "43a696f7e2e07df7df57e2b109f5d5eb430fe6e552025ed921c58a4e0d6b62a6",
        "report_iter_04.json": "5b3e877f059c18a6e422eeb9ab3df7759524515513d6c0e6626dbdaf86ef075e",
        "report_eval.json": "37c79bbd90459594b9b4bc53eddb0202b95b64a6f8cb51f12a8c8e7492dd6cda",
        "db.jsonl": "9d8c38660b3c049cc895e47f2009d1c3f4a1b8aad441c6971f6d490a87e41a92",
        "summary.txt": "b12d82210faa300149e22daba59e6c2b858d680792f305acf9e8b9f777cdd718",
        # The checkpoints, and the event logs as they record decisions.
        "db_iter_01.jsonl": "c7ac9a64f691a54db6f31ec28dea217c92051f0abe4727d81bbc118b2eb0ba9e",
        "db_iter_02.jsonl": "b7be03d64fd4ad385ed241d010888246e8e91b9f9ba8414e34909de2a9ac450c",
        "db_iter_03.jsonl": "d07230229e9e6d56bbd806a8955d0b1501990ea5cb7d1959b8b773f3fdb4bd2d",
        "db_iter_04.jsonl": "9d8c38660b3c049cc895e47f2009d1c3f4a1b8aad441c6971f6d490a87e41a92",
        "train_iter_01.jsonl": "2e3fc99b0afcc860f12de0d185b063742b2b28d49fa25c139f16877459c838ea",
        "train_iter_02.jsonl": "0b32ce84c1f35cc1ff275013993a35ae9532abc92ced7ee597d33478050887c2",
        "train_iter_03.jsonl": "bd90f28823d35620216a5ef5a72cb6a8f5363e1deb624154644f36c3e9d7d05f",
        "train_iter_04.jsonl": "ce83deb64fbe9fe006c3439bd39b0a73a252e401bb2360f1aea3658117c2f50e",
        "eval_iter_04.jsonl": "7660320894e1b5d7487856a5e9330ea0fccbeef9918fe8d56c96ea24b2259de1",
    }

    def test_train_eval_run_of_the_suite_keeps_its_bytes(self, capsys, tmp_path):
        out_dir = tmp_path / "pinned"
        code, _, _ = run_cli(
            capsys,
            "run", "--mode", "train-eval", "--eval-tasks", "suite",
            "--iterations", "4", "--no-early-stop", "--out", str(out_dir),
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.glob("report_*.json")) == sorted(
            name for name in self.PINNED if name.startswith("report_")
        )
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in self.PINNED
        }
        assert digests == self.PINNED
