"""`prag prompt`: every logged prompt is rebuilt, byte for byte, from the run directory."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

import prag.driver as driver_module
import prag.gridworld as gridworld_package
import prag.trajectory_db as trajectory_db_module
from prag.backends import BackendError, PlannerBackend, ReplayOracleBackend
from prag.cli import main
from prag.driver import EpisodeLog, RunConfig, run_iterations
from prag.embedding import EncoderError, HashingEncoder
from prag.rebuild import rebuild_prompts

LOG_NAME = re.compile(r"^(train|eval)_iter_(\d\d)\.jsonl$")


def run_capturing(monkeypatch, argv=None, config=None):
    """Run through the CLI or ``run_iterations``; return the prompts each log was given.

    Keys are (phase, iteration, task id); values list (step, prompt text) in
    the order the planner sent them.
    """
    captured: dict[tuple[str, int, str], list[tuple[int, str]]] = {}

    class CapturingLog(EpisodeLog):
        def __init__(self, path, db_path=None):
            super().__init__(path, db_path)
            phase, iteration = LOG_NAME.match(path.name).groups()
            self.pass_key = (phase, int(iteration))

        def __call__(self, event, **payload):
            if event == "prompt":
                key = (*self.pass_key, payload["task_id"])
                captured.setdefault(key, []).append((payload["step"], payload["text"]))
            super().__call__(event, **payload)

    monkeypatch.setattr(driver_module, "EpisodeLog", CapturingLog)
    if argv is not None:
        assert main(argv) == 0
    else:
        run_iterations(config)
    monkeypatch.undo()
    return captured


def assert_rebuilds(run_dir, captured):
    assert captured
    for (phase, iteration, task_id), sent in captured.items():
        rebuilt = rebuild_prompts(run_dir, phase, iteration, task_id)
        assert [(p.step, p.text) for p in rebuilt] == sent, (phase, iteration, task_id)


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_events(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """A 4-iteration train-eval run of the bundled suite and the prompts it sent."""
    out = tmp_path_factory.mktemp("suite_run")
    with pytest.MonkeyPatch.context() as monkeypatch:
        captured = run_capturing(
            monkeypatch,
            argv=[
                "run", "--mode", "train-eval", "--eval-tasks", "suite",
                "--iterations", "4", "--no-early-stop", "--out", str(out),
            ],
        )
    return out, captured


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestRebuildMatchesTheRun:
    def test_every_prompt_of_every_phase_is_rebuilt_byte_for_byte(self, suite_run):
        out, captured = suite_run
        assert {phase for phase, _, _ in captured} == {"train", "eval"}
        assert {iteration for phase, iteration, _ in captured if phase == "train"} == {1, 2, 3, 4}
        assert_rebuilds(out, captured)

    def test_log_keeps_digests_and_hits_not_text(self, suite_run):
        out, _ = suite_run
        events = read_events(out / "train_iter_02.jsonl")
        prompts = [e for e in events if e["event"] == "prompt"]
        assert prompts
        assert all(set(e) == {"event", "task_id", "step", "sha256", "bytes"} for e in prompts)
        retrievals = [e for e in events if e["event"] == "retrieval"]
        # The store is non-empty from pass 2 on: one retrieval per prompted step.
        assert len(retrievals) == len({(e["task_id"], e["step"]) for e in prompts})
        task_id, iteration, done, score = retrievals[0]["hits"][0]
        assert isinstance(task_id, str) and iteration == 1 and isinstance(done, bool)
        assert repr(float(score)) == score
        assert not any(e["event"] == "retrieval" for e in read_events(out / "train_iter_01.jsonl"))

    def test_cli_prints_one_step_with_its_digest(self, suite_run, capsys):
        out, captured = suite_run
        sent = captured[("eval", 4, "wash_mugs")]
        code, stdout, _ = run_cli(
            capsys, "prompt", out, "--phase", "eval", "--iteration", 4,
            "--task", "wash_mugs", "--step", 1,
        )
        assert code == 0
        [text] = [text for step, text in sent if step == 1]
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert stdout == f"=== step 1 attempt 1 sha256 {digest}\n{text}\n"


class _FirstReplyMalformed(PlannerBackend):
    """Answers each episode's first prompt with an unusable reply, then replays."""

    def __init__(self, seed, reply="I would rather not."):
        self.inner = ReplayOracleBackend(seed=seed)
        self.reply = reply
        self.first = False

    def begin_episode(self, *args):
        self.first = True
        self.inner.begin_episode(*args)

    def complete(self, prompt, bundle):
        if self.first:
            self.first = False
            return self.reply
        return self.inner.complete(prompt, bundle)


class TestRetryPrompts:
    @pytest.mark.parametrize(
        "reply, failure",
        [
            ("I would rather not.", "bad-format:"),
            ("Action: fly(x)", "unknown-verb: 'fly'"),
            # A wall: parse_action accepts the cell, decompose rejects it.
            ("Action: navigate(0,0)", "invalid-argument: cell (0, 0) is not walkable"),
        ],
        ids=["bad-format", "unknown-verb", "invalid-argument"],
    )
    def test_retry_prompts_are_rebuilt_from_parse_failures(
        self, tmp_path, monkeypatch, reply, failure
    ):
        monkeypatch.setattr(
            driver_module, "build_backend",
            lambda config: _FirstReplyMalformed(config.seed, reply),
        )
        out = tmp_path / "run"
        config = RunConfig(tasks="suite", iterations=2, early_stop=False, out=str(out))
        captured = run_capturing(monkeypatch, config=config)
        assert_rebuilds(out, captured)
        rebuilt = rebuild_prompts(out, "train", 2, "ball_to_table")
        assert [(p.step, p.attempt) for p in rebuilt[:2]] == [(0, 1), (0, 2)]
        assert f"Your previous reply was not usable ({failure}" in rebuilt[1].text

    def test_episodes_cut_short_by_the_step_budget_are_rebuilt(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = RunConfig(
            tasks="suite", backend="seeded-explorer", iterations=3, early_stop=False,
            max_steps=12, history_limit=2, out=str(out),
        )
        captured = run_capturing(monkeypatch, config=config)
        assert_rebuilds(out, captured)
        # Some decomposition ran into the budget, so its logged primitives
        # outnumber the simulator steps it took.
        cut_short = 0
        for path in out.glob("train_iter_*.jsonl"):
            before = {}
            for e in read_events(path):
                if e["event"] == "step":
                    ran = e["sim_steps"] - before.get(e["task_id"], 0)
                    cut_short += ran < len(e["low_level"])
                    before[e["task_id"]] = e["sim_steps"]
        assert cut_short


class TestRevisitedScenes:
    def test_an_episode_that_asks_about_a_scene_again_is_rebuilt(self, tmp_path, monkeypatch):
        # A navigation changes no relation, so the next step asks the store
        # about the scene it asked about before, and the episode's retrieval
        # memo answers without a scan. Count each episode's retrievals and
        # scans to find those steps.
        asked: dict[tuple[int, str], list[int]] = {}
        episode = {}
        run_episode = driver_module.run_episode

        def counting_episode(task, *args, iteration, **kwargs):
            episode["key"] = (iteration, task.id)
            asked[episode["key"]] = [0, 0]
            return run_episode(task, *args, iteration=iteration, **kwargs)

        memo_top_k = trajectory_db_module.RetrievalMemo.top_k
        scan_top_k = trajectory_db_module.RetrievalMemo._scan

        def counting_memo(self, *args):
            asked[episode["key"]][0] += 1
            return memo_top_k(self, *args)

        def counting_scan(self, *args):
            asked[episode["key"]][1] += 1
            return scan_top_k(self, *args)

        monkeypatch.setattr(driver_module, "run_episode", counting_episode)
        monkeypatch.setattr(trajectory_db_module.RetrievalMemo, "top_k", counting_memo)
        monkeypatch.setattr(trajectory_db_module.RetrievalMemo, "_scan", counting_scan)
        out = tmp_path / "run"
        config = RunConfig(tasks="suite", iterations=3, early_stop=False, out=str(out))
        captured = run_capturing(monkeypatch, config=config)
        revisited = [key for key, (queries, scans) in asked.items() if queries > scans]
        assert revisited
        for iteration, task_id in revisited:
            rebuilt = rebuild_prompts(out, "train", iteration, task_id)
            assert [(p.step, p.text) for p in rebuilt] == captured[("train", iteration, task_id)]


class _FlakyEncoder:
    """The run's hashing encoder, except that every ``every``-th call fails."""

    def __init__(self, dimension, every):
        self.inner = HashingEncoder(dimension)
        self.dimension = dimension
        self.every = every
        self.calls = 0

    def encode(self, text):
        self.calls += 1
        if self.calls % self.every == 0:
            raise EncoderError(f"call {self.calls} timed out")
        return self.inner.encode(text)


class _FlakyBackend(PlannerBackend):
    """The replay oracle, except that every ``every``-th reply fails."""

    def __init__(self, seed, every):
        self.inner = ReplayOracleBackend(seed=seed)
        self.every = every
        self.calls = 0

    def begin_episode(self, *args):
        self.inner.begin_episode(*args)

    def complete(self, prompt, bundle):
        self.calls += 1
        if self.calls % self.every == 0:
            raise BackendError(f"call {self.calls} timed out")
        return self.inner.complete(prompt, bundle)


class TestRemoteFailures:
    @pytest.mark.parametrize(
        "builder, flaky, event",
        [
            ("build_encoder", lambda config: _FlakyEncoder(config.dimension, 23), "encoder-error"),
            ("build_backend", lambda config: _FlakyBackend(config.seed, 11), "backend-error"),
        ],
        ids=["encoder", "backend"],
    )
    def test_episodes_a_remote_ended_are_rebuilt(
        self, tmp_path, monkeypatch, builder, flaky, event
    ):
        monkeypatch.setattr(driver_module, builder, flaky)
        out = tmp_path / "run"
        config = RunConfig(tasks="suite", iterations=3, early_stop=False, out=str(out))
        captured = run_capturing(monkeypatch, config=config)
        assert_rebuilds(out, captured)
        logged = [e["event"] for path in out.glob("train_iter_*.jsonl") for e in read_events(path)]
        assert event in logged


class TestRebuildFailures:
    @pytest.fixture
    def run_copy(self, suite_run, tmp_path):
        out, _ = suite_run
        copy = tmp_path / "copy"
        copy.mkdir()
        for path in out.iterdir():
            (copy / path.name).write_bytes(path.read_bytes())
        return copy

    def test_an_altered_hit_id_exits_two(self, run_copy, capsys):
        log = run_copy / "train_iter_02.jsonl"
        events = read_events(log)
        retrieval = next(e for e in events if e["event"] == "retrieval")
        task_id = retrieval["task_id"]
        hits = retrieval["hits"]
        # Swap in another stored record with the same iteration and done flag,
        # so only the digest can catch the change.
        stored = read_events(run_copy / "db_iter_01.jsonl")[1:]
        logged = {hit[0] for hit in hits}
        other = next(
            r for r in stored
            if r["task_id"] not in logged and [r["iteration"], r["done"]] == hits[-1][1:3]
        )
        hits[-1][0] = other["task_id"]
        write_events(log, events)
        code, _, err = run_cli(
            capsys, "prompt", run_copy, "--phase", "train", "--iteration", 2, "--task", task_id
        )
        assert code == 2
        assert_one_error_line(err)
        assert "sha256" in err

    @pytest.mark.parametrize(
        "field, value, named",
        [(0, "no_such_task", "no_such_task"), (1, 9, "iteration 9"), (2, None, "done=None")],
        ids=["task_id", "iteration", "done"],
    )
    def test_a_hit_the_store_does_not_hold_exits_two(self, run_copy, capsys, field, value, named):
        log = run_copy / "train_iter_03.jsonl"
        events = read_events(log)
        retrieval = next(e for e in events if e["event"] == "retrieval")
        retrieval["hits"][0][field] = value
        write_events(log, events)
        code, _, err = run_cli(
            capsys, "prompt", run_copy, "--phase", "train", "--iteration", 3,
            "--task", retrieval["task_id"],
        )
        assert code == 2
        assert_one_error_line(err)
        assert named in err

    @pytest.mark.parametrize(
        "reply, named",
        [
            (7, "train_iter_02.jsonl"),
            # Still usable, so step 1 is prompted as logged, but from another scene.
            ("Action: navigate(table_1)", "step 1 attempt 1: the rebuilt prompt's sha256"),
        ],
        ids=["not-text", "edited"],
    )
    def test_a_tampered_reply_exits_two(self, run_copy, capsys, reply, named):
        log = run_copy / "train_iter_02.jsonl"
        events = read_events(log)
        completion = next(
            e for e in events if e["event"] == "completion" and e["task_id"] == "ball_to_table"
        )
        assert (completion["step"], completion["text"]) == (0, "Action: pickup(ball_1)")
        completion["text"] = reply
        write_events(log, events)
        code, _, err = run_cli(
            capsys, "prompt", run_copy, "--phase", "train", "--iteration", 2,
            "--task", "ball_to_table",
        )
        assert code == 2
        assert_one_error_line(err)
        assert named in err

    def test_a_log_line_that_is_no_object_exits_two(self, run_copy, capsys):
        log = run_copy / "train_iter_01.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        lines[2] = "[1, 2]\n"
        log.write_text("".join(lines))
        code, stdout, err = run_cli(
            capsys, "prompt", run_copy, "--phase", "train", "--iteration", 1,
            "--task", "wash_mugs",
        )
        assert code == 2
        assert stdout == ""
        assert_one_error_line(err)
        assert "train_iter_01.jsonl line 3 is not a JSON object" in err

    def test_the_wrong_checkpoint_exits_two(self, run_copy, tmp_path, capsys):
        eval_dir = tmp_path / "eval"
        code, _, _ = run_cli(
            capsys, "eval", "--db", run_copy / "db_iter_04.jsonl", "--tasks", "suite",
            "--out", eval_dir,
        )
        assert code == 0
        config = json.loads((eval_dir / "run_config.json").read_text())
        assert config["out"] == str(eval_dir)
        log = eval_dir / "eval_iter_01.jsonl"
        events = read_events(log)
        starts = [e for e in events if e["event"] == "episode-start"]
        assert starts and all(e["db"] == str(run_copy / "db_iter_04.jsonl") for e in starts)
        for task_id in sorted({e["task_id"] for e in starts}):
            assert rebuild_prompts(eval_dir, "eval", 1, task_id)

        for event in starts:
            event["db"] = str(run_copy / "db_iter_01.jsonl")
        write_events(log, events)
        code, _, err = run_cli(
            capsys, "prompt", eval_dir, "--phase", "eval", "--iteration", 1,
            "--task", "wash_mugs",
        )
        assert code == 2
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "phase, iteration, task",
        [("test", 2, "wash_mugs"), ("train", 7, "wash_mugs"), ("train", 2, "no_such_task")],
        ids=["phase", "iteration", "task"],
    )
    def test_an_unknown_episode_exits_two(self, suite_run, capsys, phase, iteration, task):
        out, _ = suite_run
        code, stdout, err = run_cli(
            capsys, "prompt", out, "--phase", phase, "--iteration", iteration, "--task", task
        )
        assert code == 2
        assert stdout == ""
        assert_one_error_line(err)

    def test_a_missing_run_config_exits_two(self, run_copy, capsys):
        (run_copy / "run_config.json").unlink()
        code, _, err = run_cli(
            capsys, "prompt", run_copy, "--phase", "train", "--iteration", 1, "--task", "wash_mugs"
        )
        assert code == 2
        assert_one_error_line(err)


class TestRelativePaths:
    def test_runs_started_with_relative_paths_rebuild_from_elsewhere(
        self, tmp_path, monkeypatch, capsys
    ):
        work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
        (work / "tasks").mkdir(parents=True)
        elsewhere.mkdir()
        for path in (Path(gridworld_package.__file__).parent / "suite").glob("*.yaml"):
            (work / "tasks" / path.name).write_bytes(path.read_bytes())
        monkeypatch.chdir(work)
        code, _, err = run_cli(
            capsys, "run", "--mode", "train-eval", "--tasks", "tasks", "--eval-tasks", "tasks",
            "--iterations", 2, "--no-early-stop", "--out", "run",
        )
        assert code == 0, err
        code, _, err = run_cli(
            capsys, "eval", "--db", "run/db.jsonl", "--tasks", "tasks", "--out", "eval"
        )
        assert code == 0, err
        # The run directories name their inputs by absolute path.
        run_config = json.loads((work / "run" / "run_config.json").read_text())
        eval_config = json.loads((work / "eval" / "run_config.json").read_text())
        start = read_events(work / "eval" / "eval_iter_01.jsonl")[0]
        named = [run_config["tasks"], run_config["eval_tasks"], eval_config["tasks"], start["db"]]
        assert [Path(p) for p in named] == [work / "tasks"] * 3 + [work / "run" / "db.jsonl"]

        monkeypatch.chdir(elsewhere)
        for run, phase, iteration in (("run", "train", 2), ("run", "eval", 2), ("eval", "eval", 1)):
            code, stdout, err = run_cli(
                capsys, "prompt", work / run, "--phase", phase, "--iteration", iteration,
                "--task", "wash_mugs",
            )
            assert code == 0, err
            assert stdout.startswith("=== step 0 attempt 1 sha256 ")
