"""Planner backends: scripted exploration, replay, and the chat client."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
import requests

import prag
from prag.backends import (
    CHAT_API_KEY_ENV,
    SYSTEM_PROMPT,
    BackendError,
    RemoteChatBackend,
    ReplayOracleBackend,
    SeededExplorerBackend,
    exploration_script,
)
from prag.embedding import EncoderError, RemoteEncoder
from prag.prompting import HighLevelAction, PromptBundle, action_space_text, parse_action
from prag.trajectory_db import RetrievalHit, TaskRecord

from tests.conftest import border_walls, make_ball_world
from prag.gridworld.world import World


def make_kitchen_world() -> World:
    """7x7 room with fixtures of every behaviour plus loose items."""
    world = World(7, 7, walls=border_walls(7, 7), agent_position=(1, 5), agent_heading="N")
    world.place_object("sink_1", "sink", (1, 1))
    world.place_object("table_1", "table", (3, 1))
    world.place_object("cabinet_1", "cabinet", (5, 1))
    world.place_object("mug_1", "mug", (2, 3))
    world.place_object("ball_1", "ball", (3, 3))
    world.place_object("key_1", "key", (4, 3))
    return world


def make_bundle(world, hits=(), goal="goal"):
    return PromptBundle(
        goal=goal,
        scene_text="",
        action_space_text=action_space_text(world),
        experiences=tuple(hits),
    )


def make_record(goal_text, history, done):
    return TaskRecord(
        task_id="t1",
        iteration=1,
        goal_text=goal_text,
        goal_embedding=np.zeros(4),
        obs_embeddings=tuple(np.zeros(4) for _ in history),
        history=tuple(history),
        done=done,
    )


def drain(backend, task_id, iteration, world, steps=40):
    """begin_episode then collect replies for a fixed number of steps."""
    backend.begin_episode(task_id, iteration, "goal", world)
    bundle = make_bundle(world)
    return [backend.complete("prompt", bundle) for _ in range(steps)]


class TestExplorationScript:
    def test_pure_function_of_inputs(self):
        obs = make_kitchen_world().observe()
        a = exploration_script(7, "wash", 3, obs)
        b = exploration_script(7, "wash", 3, obs)
        assert a == b

    def test_iteration_changes_the_script(self):
        obs = make_kitchen_world().observe()
        scripts = {tuple(exploration_script(0, "wash", i, obs)) for i in range(1, 9)}
        assert len(scripts) > 1

    def test_task_id_changes_the_script(self):
        obs = make_kitchen_world().observe()
        scripts = {
            tuple(exploration_script(0, task_id, 1, obs))
            for task_id in ("a", "b", "c", "d", "e", "f")
        }
        assert len(scripts) > 1

    def test_every_line_parses_under_the_grammar(self):
        obs = make_kitchen_world().observe()
        for iteration in range(1, 6):
            for line in exploration_script(0, "wash", iteration, obs):
                action = parse_action(line, obs)
                assert isinstance(action, HighLevelAction), line

    def test_ends_with_done(self):
        obs = make_kitchen_world().observe()
        for iteration in range(1, 6):
            script = exploration_script(0, "wash", iteration, obs)
            assert script[-1] == "Action: done()"
            assert script.count("Action: done()") == 1

    def test_every_pickup_is_followed_by_a_drop(self):
        obs = make_kitchen_world().observe()
        for seed in range(5):
            script = exploration_script(seed, "wash", 1, obs)
            for i, line in enumerate(script):
                if line.startswith("Action: pickup("):
                    assert script[i + 1].startswith("Action: drop(")

    def test_no_carry_moves_without_items_or_fixtures(self):
        world = World(4, 4, walls=border_walls(4, 4), agent_position=(1, 1), agent_heading="N")
        obs = world.observe()
        for iteration in range(1, 6):
            assert exploration_script(0, "t", iteration, obs) == ["Action: done()"]


class TestSeededExplorer:
    def test_replays_script_then_done_forever(self):
        obs = make_kitchen_world().observe()
        backend = SeededExplorerBackend(seed=0)
        script = exploration_script(0, "t1", 2, obs)
        backend.begin_episode("t1", 2, "goal", obs)
        bundle = make_bundle(obs)
        replies = [backend.complete("p", bundle) for _ in range(len(script) + 3)]
        assert replies[: len(script)] == script
        assert replies[len(script) :] == ["Action: done()"] * 3

    def test_same_seed_same_replies(self):
        obs = make_kitchen_world().observe()
        a = drain(SeededExplorerBackend(seed=5), "t1", 1, obs)
        b = drain(SeededExplorerBackend(seed=5), "t1", 1, obs)
        assert a == b

    def test_begin_episode_resets_the_cursor(self):
        obs = make_kitchen_world().observe()
        backend = SeededExplorerBackend(seed=0)
        first = drain(backend, "t1", 1, obs)
        second = drain(backend, "t1", 1, obs)
        assert first == second

    def test_different_seeds_diverge(self):
        obs = make_kitchen_world().observe()
        replies = {tuple(drain(SeededExplorerBackend(seed=s), "t1", 1, obs)) for s in range(6)}
        assert len(replies) > 1


class TestReplayOracle:
    HISTORY = (
        ("pickup(ball_1)", "ball_1/agent/held_by: True"),
        ("drop(table_1)", "ball_1/table_1/on_top_of: True"),
        ("done()", "ball_1/table_1/on_top_of: True"),
    )

    def test_replays_matching_done_record(self):
        obs = make_ball_world().observe()
        record = make_record("goal", self.HISTORY, done=True)
        hits = (RetrievalHit(2.0, record),)
        backend = ReplayOracleBackend(seed=0)
        backend.begin_episode("t1", 2, "goal", obs)
        replies = [
            backend.complete("p", make_bundle(obs, hits=hits))
            for i in range(5)
        ]
        assert replies == [
            "Action: pickup(ball_1)",
            "Action: drop(table_1)",
            "Action: done()",
            "Action: done()",
            "Action: done()",
        ]

    def test_only_the_top_hit_is_consulted(self):
        obs = make_ball_world().observe()
        bad = make_record("goal", (("toggle(sink_1)", ""),), done=False)
        good = make_record("goal", self.HISTORY, done=True)
        hits = (RetrievalHit(2.0, bad), RetrievalHit(1.0, good))
        backend = ReplayOracleBackend(seed=0)
        backend.begin_episode("t1", 2, "goal", obs)
        reply = backend.complete("p", make_bundle(obs, hits=hits))
        explorer_first = drain(SeededExplorerBackend(seed=0), "t1", 2, obs, steps=1)[0]
        assert reply == explorer_first

    @pytest.mark.parametrize(
        "record_goal,record_done",
        [("goal", False), ("another goal", True)],
    )
    def test_unusable_hit_falls_back_to_explorer(self, record_goal, record_done):
        obs = make_kitchen_world().observe()
        record = make_record(record_goal, self.HISTORY, done=record_done)
        hits = (RetrievalHit(2.0, record),)
        backend = ReplayOracleBackend(seed=3)
        backend.begin_episode("t1", 1, "goal", obs)
        replies = [
            backend.complete("p", make_bundle(obs, hits=hits))
            for i in range(10)
        ]
        assert replies == drain(SeededExplorerBackend(seed=3), "t1", 1, obs, steps=10)

    def test_no_hits_falls_back_to_explorer(self):
        obs = make_kitchen_world().observe()
        backend = ReplayOracleBackend(seed=3)
        replies = drain(backend, "t1", 1, obs, steps=10)
        assert replies == drain(SeededExplorerBackend(seed=3), "t1", 1, obs, steps=10)

    def test_cursor_resets_between_episodes(self):
        obs = make_ball_world().observe()
        record = make_record("goal", self.HISTORY, done=True)
        hits = (RetrievalHit(2.0, record),)
        backend = ReplayOracleBackend(seed=0)
        for _ in range(2):
            backend.begin_episode("t1", 2, "goal", obs)
            assert backend.complete("p", make_bundle(obs, hits=hits)) == (
                "Action: pickup(ball_1)"
            )


class FakeResponse:
    def __init__(self, body):
        self.body = body

    def raise_for_status(self):
        pass

    def json(self):
        return self.body


GOOD_BODY = {"choices": [{"message": {"content": "Action: done()"}}]}


def answer_with(monkeypatch, response) -> list[dict]:
    """Make every POST get ``response``; returns each call's arguments."""
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        return response

    monkeypatch.setattr(requests, "post", fake_post)
    return calls


@pytest.fixture
def capture_post(monkeypatch):
    monkeypatch.delenv(CHAT_API_KEY_ENV, raising=False)
    return answer_with(monkeypatch, FakeResponse(GOOD_BODY))


class TestRemoteChatBackend:
    def make_backend(self, **kwargs):
        defaults = dict(base_url="http://chat.test/v1", model="planner-small")
        defaults.update(kwargs)
        return RemoteChatBackend(**defaults)

    def test_requires_base_url_and_model(self):
        with pytest.raises(ValueError, match="base_url"):
            RemoteChatBackend("", "m")
        with pytest.raises(ValueError, match="model"):
            RemoteChatBackend("http://chat.test", "")

    def test_posts_chat_completions_payload(self, capture_post):
        obs = make_ball_world().observe()
        reply = self.make_backend().complete("PROMPT", make_bundle(obs))
        assert reply == "Action: done()"
        (call,) = capture_post
        assert call["url"] == "http://chat.test/v1/chat/completions"
        assert call["timeout"] == 30.0
        assert call["json"] == {
            "model": "planner-small",
            "messages": [
                {"role": "system", "content": SYSTEM_PROMPT},
                {"role": "user", "content": "PROMPT"},
            ],
            "temperature": 0.0,
        }

    def test_trailing_slash_is_normalised(self, capture_post):
        obs = make_ball_world().observe()
        self.make_backend(base_url="http://chat.test/v1/").complete("p", make_bundle(obs))
        assert capture_post[0]["url"] == "http://chat.test/v1/chat/completions"

    def test_no_authorization_header_without_key(self, capture_post):
        obs = make_ball_world().observe()
        self.make_backend().complete("p", make_bundle(obs))
        assert "Authorization" not in capture_post[0]["headers"]

    def test_bearer_token_from_environment(self, capture_post, monkeypatch):
        monkeypatch.setenv(CHAT_API_KEY_ENV, "sekret")
        obs = make_ball_world().observe()
        self.make_backend().complete("p", make_bundle(obs))
        assert capture_post[0]["headers"]["Authorization"] == "Bearer sekret"

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"choices": []},
            {"choices": [{"message": {}}]},
            {"choices": [{}]},
        ],
    )
    def test_missing_content_becomes_backend_error(self, monkeypatch, body):
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(body))
        obs = make_ball_world().observe()
        with pytest.raises(BackendError, match="missing message content"):
            self.make_backend().complete("p", make_bundle(obs))

    def test_non_string_content_becomes_backend_error(self, monkeypatch):
        body = {"choices": [{"message": {"content": ["Action: done()"]}}]}
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(body))
        obs = make_ball_world().observe()
        with pytest.raises(BackendError, match="not a string"):
            self.make_backend().complete("p", make_bundle(obs))


def http_response(content: bytes, status: int = 200) -> requests.Response:
    """A response as ``requests`` builds it from a server's reply."""
    response = requests.models.Response()
    response.status_code = status
    response.reason = "Server Error" if status >= 400 else "OK"
    response.url = "http://remote.test/"
    response.encoding = "utf-8"
    response._content = content
    return response


@dataclass(frozen=True)
class RemoteClient:
    """A remote client under test: its error type, key variable and a good reply."""

    error: type[Exception]
    key_env: str
    body: dict
    build: Callable[..., Callable[[], object]]  # constructor keywords -> one request


def chat_request(**kwargs):
    backend = RemoteChatBackend("http://chat.test/v1", "planner-small", **kwargs)
    bundle = make_bundle(make_ball_world().observe())
    return lambda: backend.complete("p", bundle)


def encoder_request(**kwargs):
    encoder = RemoteEncoder("http://enc.test/embed", dimension=2, **kwargs)
    return lambda: encoder.encode("x")


REMOTE_CLIENTS = {
    "chat": RemoteClient(BackendError, CHAT_API_KEY_ENV, GOOD_BODY, chat_request),
    "encoder": RemoteClient(
        EncoderError, "PRAG_ENCODER_API_KEY", {"embedding": [1.0, 0.0]}, encoder_request
    ),
}


@pytest.fixture(params=list(REMOTE_CLIENTS))
def remote(request, monkeypatch):
    client = REMOTE_CLIENTS[request.param]
    monkeypatch.delenv(client.key_env, raising=False)
    return client


class TestRemoteClients:
    """The chat backend and the remote encoder make one HTTP call the same way."""

    def good_reply(self, remote) -> requests.Response:
        return http_response(json.dumps(remote.body).encode())

    def test_transport_error_becomes_client_error(self, remote, monkeypatch):
        def boom(*args, **kwargs):
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(requests, "post", boom)
        with pytest.raises(remote.error, match="request failed: refused"):
            remote.build()()

    def test_error_status_becomes_client_error(self, remote, monkeypatch):
        answer_with(monkeypatch, http_response(b"{}", status=500))
        with pytest.raises(remote.error, match="request failed: 500 Server Error"):
            remote.build()()

    def test_non_json_body_becomes_client_error(self, remote, monkeypatch):
        # requests' own decode error is also a RequestException, so this
        # reply must not be reported as a failed request.
        answer_with(monkeypatch, http_response(b"<html>busy</html>"))
        with pytest.raises(remote.error, match="response is not JSON") as failure:
            remote.build()()
        assert "request failed" not in str(failure.value)

    def test_too_deeply_nested_body_becomes_client_error(self, remote, monkeypatch):
        answer_with(monkeypatch, http_response(b"[" * 100_000))
        with pytest.raises(remote.error, match="response is not JSON"):
            remote.build()()

    def test_key_is_read_at_call_time(self, remote, monkeypatch):
        calls = answer_with(monkeypatch, self.good_reply(remote))
        request = remote.build()
        request()
        monkeypatch.setenv(remote.key_env, "late")
        request()
        assert "Authorization" not in calls[0]["headers"]
        assert calls[1]["headers"]["Authorization"] == "Bearer late"

    def test_custom_key_env_name(self, remote, monkeypatch):
        monkeypatch.setenv("OTHER_KEY", "tok")
        calls = answer_with(monkeypatch, self.good_reply(remote))
        remote.build(api_key_env="OTHER_KEY")()
        assert calls[0]["headers"]["Authorization"] == "Bearer tok"

    def test_timeout_is_passed_through(self, remote, monkeypatch):
        calls = answer_with(monkeypatch, self.good_reply(remote))
        remote.build(timeout=5.0)()
        assert calls[0]["timeout"] == 5.0


def test_importing_prag_leaves_requests_unimported():
    """Only the remote clients need ``requests``; a plain run never pays for it."""
    src = Path(prag.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import prag, prag.cli;"
        " print('requests' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "False"
