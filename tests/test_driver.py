"""Run orchestration: config handling, pass isolation, artifacts, early stop."""

from __future__ import annotations

import itertools
import json

import pytest

from prag.atomic_io import open_atomic
from prag.driver import (
    ConfigError,
    EpisodeLog,
    IterationReport,
    RunConfig,
    _solve_all,
    _write_report,
    build_backend,
    build_encoder,
    format_summary,
    load_tasks,
    run_eval,
    run_iterations,
    run_pass,
)
from prag.embedding import HashingEncoder
from prag.gridworld.sim import EpisodeResult
from prag.gridworld.solver import shortest_solution_steps
from prag.gridworld.tasks import load_task_text
from prag.trajectory_db import TrajectoryDB

from tests.conftest import ScriptedBackend, make_ball_task

TASK_A = """\
id: easy_ball
goal: Put the ball on the table
max_steps: 40
grid: |
  #####
  #..T#
  #...#
  #B..#
  #####
objects:
  table_1: {kind: table, at: T}
  ball_1: {kind: ball, at: B}
agent:
  at: [1, 1]
  heading: S
goal_predicate:
  kind: placed_at
  item: ball_1
  target: table_1
"""

TASK_B = """\
id: mug_to_sink
goal: Put the mug in the sink
max_steps: 40
grid: |
  ######
  #S..T#
  #....#
  #.M..#
  #....#
  ######
objects:
  sink_1: {kind: sink, at: S}
  table_1: {kind: table, at: T}
  mug_1: {kind: mug, at: M}
agent:
  at: [4, 3]
  heading: W
goal_predicate:
  kind: placed_at
  item: mug_1
  target: sink_1
"""


@pytest.fixture
def task_dir(tmp_path):
    d = tmp_path / "tasks"
    d.mkdir()
    (d / "easy_ball.yaml").write_text(TASK_A)
    (d / "mug_to_sink.yaml").write_text(TASK_B)
    return d


def mini_config(task_dir, **kwargs):
    defaults = dict(tasks=str(task_dir), iterations=6, seed=0, early_stop=False)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"mode": "loop"}, "mode"),
            ({"mode": "train-eval"}, "eval_tasks"),
            ({"iterations": 0}, "iterations"),
            ({"k": 0}, "k must"),
            ({"backend": "gpt"}, "backend"),
            ({"encoder": "bert"}, "encoder"),
            ({"dimension": 0}, "dimension"),
            ({"encoder": "remote"}, "encoder_url"),
            ({"backend": "remote-chat"}, "chat_url"),
            ({"max_retries": -1}, "max_retries"),
            ({"max_steps": 0}, "max_steps"),
            ({"history_limit": 0}, "history_limit"),
            ({"eval_tasks": "held_out"}, "train-eval"),
        ],
    )
    def test_validation_failures(self, changes, message):
        config = RunConfig(**changes)
        with pytest.raises(ConfigError, match=message):
            config.validate()

    def test_from_file_reads_fields(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("iterations: 2\nseed: 7\nbackend: seeded-explorer\n")
        config = RunConfig.from_file(path)
        assert config.iterations == 2
        assert config.seed == 7
        assert config.backend == "seeded-explorer"
        assert config.k == 3

    def test_overrides_beat_the_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("iterations: 2\nseed: 7\n")
        config = RunConfig.from_file(path, {"seed": 9, "iterations": None})
        assert config.seed == 9
        assert config.iterations == 2

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("iterations: 2\nretries: 1\n")
        with pytest.raises(ConfigError, match="unknown config keys: retries"):
            RunConfig.from_file(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            RunConfig.from_file(tmp_path / "absent.yaml")

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            RunConfig.from_file(path)

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("iterations: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            RunConfig.from_file(path)

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("")
        assert RunConfig.from_file(path) == RunConfig()


class TestIterationReport:
    def test_round_trip(self):
        report = IterationReport(
            iteration=3,
            phase="train",
            results=[
                EpisodeResult(task_id="a", success=True, steps_taken=9, shortest_steps=6)
            ],
            total_sr=1.0,
            task_sr=1.0,
            spl=2 / 3,
            retrieval_calls=4,
            failures={"b": "backend-error"},
        )
        assert IterationReport.from_dict(report.to_dict()) == report

    def test_done_vector(self):
        report = IterationReport(
            iteration=1,
            phase="train",
            results=[
                EpisodeResult(task_id="a", success=True, steps_taken=1, shortest_steps=1),
                EpisodeResult(task_id="b", success=False, steps_taken=1, shortest_steps=1),
            ],
            total_sr=0.5,
            task_sr=0.5,
            spl=0.5,
            retrieval_calls=0,
        )
        assert report.done_vector == {"a": True, "b": False}


class TestAtomicWrites:
    def make_report(self, iteration=1):
        return IterationReport(
            iteration=iteration,
            phase="train",
            results=[EpisodeResult(task_id="a", success=True, steps_taken=7, shortest_steps=6)],
            total_sr=1.0,
            task_sr=1.0,
            spl=6 / 7,
            retrieval_calls=0,
        )

    def test_write_that_raises_midway_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError):
            with open_atomic(path) as fh:
                fh.write("half of the new ")
                fh.flush()
                raise RuntimeError("killed")
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_report_write_keeps_the_previous_report(self, tmp_path):
        path = tmp_path / "report_iter_01.json"
        report = self.make_report()
        _write_report(report, path)

        class Unserializable:
            def to_dict(self):
                return {"iteration": 2, "results": [object()]}

        with pytest.raises(TypeError):
            _write_report(Unserializable(), path)
        assert IterationReport.from_dict(json.loads(path.read_text())) == report
        assert [p.name for p in tmp_path.iterdir()] == ["report_iter_01.json"]

    def test_report_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "reports" / "report_iter_01.json"
        _write_report(self.make_report(1), path)
        _write_report(self.make_report(2), path)
        assert IterationReport.from_dict(json.loads(path.read_text())) == self.make_report(2)
        assert [p.name for p in path.parent.iterdir()] == ["report_iter_01.json"]


class TestBuilders:
    def test_backend_names_map_to_classes(self):
        assert build_backend(RunConfig(backend="replay-oracle")).name == "replay-oracle"
        assert build_backend(RunConfig(backend="seeded-explorer")).name == "seeded-explorer"
        remote = build_backend(
            RunConfig(backend="remote-chat", chat_url="http://x", chat_model="m")
        )
        assert remote.name == "remote-chat"

    def test_hash_encoder_dimension(self):
        encoder = build_encoder(RunConfig(encoder="hash", dimension=32))
        assert encoder.dimension == 32

    def test_load_tasks_suite_and_dir(self, task_dir):
        assert len(load_tasks("suite")) == 6
        assert [t.id for t in load_tasks(str(task_dir))] == ["easy_ball", "mug_to_sink"]


class TestRunPass:
    def test_train_pass_commits_one_batch(self, ball_task):
        db = TrajectoryDB(dimension=32)
        encoder = HashingEncoder(dimension=32)
        backend = ScriptedBackend(["Action: pickup(ball_1)", "Action: drop(table_1)"])
        report = run_pass(
            [ball_task], db, backend, encoder, RunConfig(), optima=[6], iteration=1
        )
        assert report.total_sr == 1.0
        assert report.retrieval_calls == 0
        assert len(db) == 1
        assert db.get(ball_task.id).done is True

    def test_eval_pass_never_writes(self, ball_task):
        db = TrajectoryDB(dimension=32)
        encoder = HashingEncoder(dimension=32)
        backend = ScriptedBackend(["Action: pickup(ball_1)", "Action: drop(table_1)"])
        report = run_pass(
            [ball_task], db, backend, encoder, RunConfig(), optima=[6], iteration=1, phase="eval"
        )
        assert report.phase == "eval"
        assert report.total_sr == 1.0
        assert len(db) == 0

    def test_episodes_in_one_pass_are_isolated(self, task_dir):
        config = mini_config(task_dir)
        db = TrajectoryDB(dimension=config.dimension)
        tasks = load_tasks(str(task_dir))
        report = run_pass(
            tasks,
            db,
            build_backend(config),
            build_encoder(config),
            config,
            optima=_solve_all(tasks),
            iteration=1,
        )
        # The database was empty throughout the pass, so no episode retrieved.
        assert report.retrieval_calls == 0
        assert len(db) == 2

    def test_failures_are_collected_per_task(self, ball_task):
        db = TrajectoryDB(dimension=32)
        backend = ScriptedBackend(["garbage"] * 50)
        report = run_pass(
            [ball_task],
            db,
            backend,
            HashingEncoder(dimension=32),
            RunConfig(max_retries=1),
            optima=[6],
            iteration=1,
        )
        assert report.failures == {ball_task.id: "planner-failure"}
        assert report.total_sr == 0.0

    def test_retrieval_calls_count_the_store_queries(self, task_dir, monkeypatch):
        config = mini_config(task_dir)
        tasks = load_tasks(str(task_dir))
        db = TrajectoryDB(dimension=config.dimension)
        backend, encoder = build_backend(config), build_encoder(config)
        queries = []
        original = TrajectoryDB.retrieve_top_k

        def counting(self, query, k):
            queries.append(k)
            return original(self, query, k)

        monkeypatch.setattr(TrajectoryDB, "retrieve_top_k", counting)
        optima = _solve_all(tasks)
        for iteration in (1, 2, 3):
            before = len(queries)
            report = run_pass(
                tasks, db, backend, encoder, config, optima=optima, iteration=iteration
            )
            assert report.retrieval_calls == len(queries) - before
        assert report.retrieval_calls > 0


class TestRunIterations:
    def test_progressive_arc_on_the_mini_suite(self, task_dir):
        reports = run_iterations(mini_config(task_dir, iterations=3))
        assert [r.iteration for r in reports] == [1, 2, 3]
        assert reports[0].retrieval_calls == 0
        assert reports[0].done_vector == {"easy_ball": True, "mug_to_sink": False}
        assert reports[1].done_vector == {"easy_ball": True, "mug_to_sink": True}
        assert reports[1].retrieval_calls > 0
        assert reports[0].total_sr == 0.5
        assert reports[1].total_sr == 1.0

    def test_early_stop_after_two_stable_vectors(self, task_dir):
        reports = run_iterations(mini_config(task_dir, early_stop=True))
        # Vectors stabilise at iteration 2; iteration 3 repeats it and stops.
        assert [r.iteration for r in reports] == [1, 2, 3]

    def test_no_early_stop_runs_all_iterations(self, task_dir):
        reports = run_iterations(mini_config(task_dir, iterations=5))
        assert [r.iteration for r in reports] == [1, 2, 3, 4, 5]

    def test_artifacts_are_written(self, task_dir, tmp_path):
        out = tmp_path / "out"
        config = mini_config(task_dir, iterations=2, out=str(out))
        run_iterations(config)
        assert json.loads((out / "run_config.json").read_text())["seed"] == 0
        for name in (
            "db_iter_01.jsonl",
            "db_iter_02.jsonl",
            "report_iter_01.json",
            "report_iter_02.json",
            "db.jsonl",
            "summary.txt",
        ):
            assert (out / name).exists(), name
        assert not (out / "train_iter_01").exists()
        for name in ("train_iter_01.jsonl", "train_iter_02.jsonl"):
            lines = (out / name).read_text().splitlines()
            # The driver tags every line with its task id, once.
            assert all(line.count('"task_id"') == 1 for line in lines)
            events = [json.loads(line) for line in lines]
            # One contiguous run of events per episode, in task order.
            runs = [
                (task_id, [e["event"] for e in group])
                for task_id, group in itertools.groupby(events, key=lambda e: e["task_id"])
            ]
            assert [task_id for task_id, _ in runs] == ["easy_ball", "mug_to_sink"]
            for _, names in runs:
                assert names[0] == "episode-start"
                assert names[-1] == "episode-end"
                assert names.count("episode-start") == names.count("episode-end") == 1

    def test_saved_reports_match_returned_ones(self, task_dir, tmp_path):
        out = tmp_path / "out"
        reports = run_iterations(mini_config(task_dir, iterations=2, out=str(out)))
        on_disk = json.loads((out / "report_iter_02.json").read_text())
        assert IterationReport.from_dict(on_disk) == reports[1]

    def test_checkpoints_make_iterations_reproducible(self, task_dir, tmp_path):
        out = tmp_path / "out"
        config = mini_config(task_dir, iterations=3, out=str(out))
        reports = run_iterations(config)

        db = TrajectoryDB.load(out / "db_iter_02.jsonl")
        tasks = load_tasks(str(task_dir))
        rerun = run_pass(
            tasks,
            db,
            build_backend(config),
            build_encoder(config),
            config,
            optima=_solve_all(tasks),
            iteration=3,
        )
        assert rerun.to_dict() == reports[2].to_dict()

    def test_final_db_matches_last_checkpoint(self, task_dir, tmp_path):
        out = tmp_path / "out"
        run_iterations(mini_config(task_dir, iterations=2, out=str(out)))
        final = (out / "db.jsonl").read_text()
        last = (out / "db_iter_02.jsonl").read_text()
        assert final == last

    def test_train_eval_mode_appends_a_frozen_pass(self, task_dir, tmp_path):
        out = tmp_path / "out"
        config = mini_config(
            task_dir,
            iterations=2,
            mode="train-eval",
            eval_tasks=str(task_dir),
            out=str(out),
        )
        reports = run_iterations(config)
        assert [r.phase for r in reports] == ["train", "train", "eval"]
        assert reports[-1].iteration == 2
        assert reports[-1].total_sr == 1.0
        eval_on_disk = json.loads((out / "report_eval.json").read_text())
        assert eval_on_disk["phase"] == "eval"
        assert (out / "eval_iter_02.jsonl").read_text().count('"episode-end"') == 2
        # The eval pass must not have grown the saved database.
        assert (out / "db.jsonl").read_text() == (out / "db_iter_02.jsonl").read_text()

    def test_each_task_is_solved_once_per_run(self, task_dir, monkeypatch):
        import prag.agent as agent_module

        solved = []

        def counting(task):
            solved.append(task.id)
            return shortest_solution_steps(task)

        monkeypatch.setattr(agent_module, "shortest_solution_steps", counting)
        config = mini_config(
            task_dir, iterations=3, mode="train-eval", eval_tasks=str(task_dir)
        )
        reports = run_iterations(config)
        assert [r.phase for r in reports] == ["train"] * 3 + ["eval"]
        # Once per train task, then once per eval task; never per episode.
        assert solved == ["easy_ball", "mug_to_sink"] * 2

    def test_eval_task_sharing_a_train_id_keeps_its_own_optimum(
        self, task_dir, tmp_path
    ):
        eval_dir = tmp_path / "eval_tasks"
        eval_dir.mkdir()
        # Same id as a train task, but the ball starts one row nearer the agent.
        near_ball = TASK_A.replace("#...#\n  #B..#", "#B..#\n  #...#")
        (eval_dir / "easy_ball.yaml").write_text(near_ball)
        train_optimum = shortest_solution_steps(load_task_text(TASK_A))
        eval_optimum = shortest_solution_steps(load_task_text(near_ball))
        assert train_optimum != eval_optimum

        out = tmp_path / "out"
        config = mini_config(
            task_dir, iterations=2, mode="train-eval", eval_tasks=str(eval_dir), out=str(out)
        )
        run_iterations(config)
        train = json.loads((out / "report_iter_02.json").read_text())
        evaluated = json.loads((out / "report_eval.json").read_text())
        assert {r["task_id"]: r["shortest_steps"] for r in train["results"]}[
            "easy_ball"
        ] == train_optimum
        assert [(r["task_id"], r["shortest_steps"]) for r in evaluated["results"]] == [
            ("easy_ball", eval_optimum)
        ]

    def test_empty_task_dir_reports_zero_tasks(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.warns(UserWarning):
            reports = run_iterations(
                RunConfig(tasks=str(empty), iterations=1, early_stop=False)
            )
        assert len(reports) == 1
        assert reports[0].results == []
        assert reports[0].total_sr == 0.0

    def test_invalid_config_raises_before_running(self, task_dir):
        with pytest.raises(ConfigError):
            run_iterations(mini_config(task_dir, iterations=0))


class TestRunEval:
    def test_eval_against_saved_database(self, task_dir, tmp_path):
        out = tmp_path / "out"
        config = mini_config(task_dir, iterations=2, out=str(out))
        run_iterations(config)

        db = TrajectoryDB.load(out / "db_iter_02.jsonl")
        eval_dir = tmp_path / "eval"
        report = run_eval(mini_config(task_dir), db, out_dir=eval_dir)
        assert report.phase == "eval"
        assert report.total_sr == 1.0
        assert (eval_dir / "report_eval.json").exists()
        assert len(db) == 2

    def test_dimension_mismatch_is_a_config_error(self, task_dir):
        db = TrajectoryDB(dimension=17)
        with pytest.raises(ConfigError, match="dimension"):
            run_eval(mini_config(task_dir), db)


class TestFormatSummary:
    def test_summary_lists_iterations_and_transitions(self, task_dir):
        reports = run_iterations(mini_config(task_dir, iterations=2))
        text = format_summary(reports)
        lines = text.splitlines()
        assert lines[0].startswith("iter  phase")
        assert lines[1].lstrip().startswith("1  train")
        assert "task outcome transitions:" in text
        assert "100.0%" in text

    def test_single_iteration_has_no_transition_block(self, task_dir):
        reports = run_iterations(mini_config(task_dir, iterations=1))
        assert "transitions" not in format_summary(reports)


class TestEpisodeLog:
    def test_unserialisable_payloads_fall_back_to_repr(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EpisodeLog(path)
        log("event", data={1, 2})
        log.close()
        record = json.loads(path.read_text())
        assert record["event"] == "event"
        assert "1" in record["data"]
