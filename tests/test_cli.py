"""Command-line interface: subcommands, exit codes, artifact plumbing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from prag.backends import ReplayOracleBackend
from prag.cli import main

from tests.test_driver import TASK_A, TASK_B


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

    def test_invalid_config_value_exits_two(self, capsys, task_dir):
        code, _, err = run_cli(
            capsys, "run", "--tasks", str(task_dir), "--iterations", "0"
        )
        assert code == 2
        assert err.startswith("error:")

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
        ],
        ids=["unsolvable", "out-of-model"],
    )
    def test_task_the_solver_rejects_exits_two_before_its_episode(
        self, capsys, monkeypatch, task_dir, tmp_path, task_id, text, message
    ):
        (task_dir / f"{task_id}.yaml").write_text(text)
        calls = []
        for name in ("begin_episode", "complete"):
            monkeypatch.setattr(
                ReplayOracleBackend, name, lambda *args, _name=name: calls.append(_name)
            )
        out_dir = tmp_path / "run_out"
        code, _, err = run_cli(
            capsys, "run", "--tasks", str(task_dir), "--iterations", "1", "--out", str(out_dir)
        )
        assert code == 2
        assert err.startswith(message)
        assert len(err.splitlines()) == 1
        # Every task is solved before the first episode, so whatever the load
        # order, no episode started and no log was opened.
        assert calls == []
        assert not (out_dir / "train_iter_01.jsonl").exists()
        assert not (out_dir / "report_iter_01.json").exists()

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

    def test_db_missing_file_exits_nonzero(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "db", str(tmp_path / "absent.jsonl"))
        assert code in (1, 2)
        assert err.startswith("error:")


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
