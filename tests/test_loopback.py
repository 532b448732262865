"""The remote clients over a real socket, against loopback servers.

Each server is a tests-only ``http.server`` handler on 127.0.0.1, on a port
the system picks, answering from one thread. The embedding server gives each
posted text ``HashingEncoder``'s vector, so a remote run must write a hashed
run's bytes. The chat server answers ``/chat/completions`` with the lines of
a script, then with ``Action: done()``, so a remote episode must be the
episode ``ScriptedReplyBackend`` runs with that script; it can also answer
one request with a fault. ``requests`` sends through any proxy its
environment names, so ``_serving`` lists 127.0.0.1 in ``NO_PROXY`` and in
``no_proxy``, which ``requests`` reads first, for the test's duration. A
socket left for the garbage collector fails a test through the
``ResourceWarning`` filter in ``pyproject.toml``.
"""

from __future__ import annotations

import contextlib
import json
import socketserver
import threading
from http.server import BaseHTTPRequestHandler

import pytest

from prag.agent import run_episode
from prag.backends import (
    BackendError,
    RemoteChatBackend,
    ScriptedReplyBackend,
    SeededExplorerBackend,
    exploration_script,
)
from prag.driver import RunConfig, _solve_all, run_iterations, run_pass
from prag.embedding import DEFAULT_DIMENSION, HashingEncoder
from prag.gridworld.tasks import bundled_suite
from prag.trajectory_db import TrajectoryDB


class _EmbeddingHandler(BaseHTTPRequestHandler):
    """Answers ``{"text": ...}`` with ``{"embedding": [...]}``, or 500 for a failing request."""

    def do_POST(self) -> None:
        server = self.server
        server.requests += 1
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if server.requests in server.failing:
            self.send_error(500)
            return
        vector = server.encoder.encode(json.loads(body)["text"])
        reply = json.dumps({"embedding": vector.tolist()}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, format, *args) -> None:  # keeps the test output quiet
        pass


class _EmbeddingServer(socketserver.TCPServer):
    """The server: ``requests`` counts the requests, ``failing`` numbers those to fail.

    A plain ``TCPServer``: ``http.server.HTTPServer`` would also look up the
    host's name.
    """

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _EmbeddingHandler)
        self.encoder = HashingEncoder(DEFAULT_DIMENSION)
        self.requests = 0
        self.failing: set[int] = set()
        self.url = f"http://127.0.0.1:{self.server_address[1]}/embed"


class _ChatHandler(BaseHTTPRequestHandler):
    """Answers a chat-completions request with the script's next line, or with a fault."""

    def do_POST(self) -> None:
        server = self.server
        server.requests += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path != "/chat/completions":
            self.send_error(404)
            return
        server.prompts.append(body["messages"][-1]["content"])
        fault = server.faults.get(server.requests)
        if fault in (429, 503):
            self.send_error(fault)
            return
        if fault == "drop":
            return  # the connection closes with no reply at all
        if fault == "slow":
            server.release.wait(timeout=10)  # bounded, so a lost release cannot hang the server
        content = next(server.script, "Action: done()")
        reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        data = {
            "not-json": b"<html>busy</html>",
            "no-choices": b'{"id": "chat-1"}',
        }.get(fault, json.dumps(reply).encode())
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data[: len(data) // 2] if fault == "truncated" else data)
        except OSError:  # a slow reply's client has hung up
            pass

    def log_message(self, format, *args) -> None:
        pass


class _ChatServer(socketserver.TCPServer):
    """The chat server: ``script`` yields the replies, ``prompts`` keeps every prompt.

    ``faults`` maps a request number to its fault. A ``"slow"`` reply waits
    on ``release``, which is set once the client has given up on it.
    """

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.requests = 0
        self.prompts: list[str] = []
        self.faults: dict[int, object] = {}
        self.release = threading.Event()
        self.script = iter(())
        self.url = f"http://127.0.0.1:{self.server_address[1]}"


class _ReleasingChatBackend(RemoteChatBackend):
    """A chat client that sets its server's ``release`` once a request has failed."""

    def __init__(self, server: _ChatServer, timeout: float) -> None:
        super().__init__(server.url, "planner", timeout=timeout)
        self.server = server

    def complete(self, prompt, bundle) -> str:
        try:
            return super().complete(prompt, bundle)
        except BackendError:
            self.server.release.set()
            raise


@contextlib.contextmanager
def _serving(monkeypatch, server):
    """Serve ``server`` from one thread, bypassing any proxy, and close it afterwards."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    assert not thread.is_alive()


@pytest.fixture
def encoder_server(monkeypatch):
    with _serving(monkeypatch, _EmbeddingServer()) as server:
        yield server


@pytest.fixture
def chat_server(monkeypatch):
    with _serving(monkeypatch, _ChatServer()) as server:
        try:
            yield server
        finally:
            server.release.set()  # a held reply must not keep the server from shutting down


def test_a_remote_run_writes_the_bytes_of_a_hashed_run(encoder_server, tmp_path):
    runs = {
        "hash": RunConfig(iterations=4, early_stop=False, out=str(tmp_path / "hash")),
        "remote": RunConfig(
            iterations=4, early_stop=False, out=str(tmp_path / "remote"),
            encoder="remote", encoder_url=encoder_server.url,
        ),
    }
    for config in runs.values():
        run_iterations(config)
    files = {
        name: {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
        for name in runs
    }
    assert sorted(files["remote"]) == sorted(files["hash"])
    assert len(files["hash"]) == 15
    differing = [name for name in files["hash"] if files["hash"][name] != files["remote"][name]]
    # Only the config names the encoder.
    assert differing == ["run_config.json"]
    assert encoder_server.requests > 0


def test_a_failed_request_ends_one_episode_and_the_pass_goes_on(encoder_server, tmp_path):
    # Requests 1 and 2 encode the first task's goal and first scene; 3 its second scene.
    encoder_server.failing = {3}
    (report,) = run_iterations(
        RunConfig(
            iterations=1, out=str(tmp_path), encoder="remote", encoder_url=encoder_server.url
        )
    )
    tasks = bundled_suite()
    assert report.failures == {tasks[0].id: "encoder-error"}
    assert [result.task_id for result in report.results] == [task.id for task in tasks]
    log = (tmp_path / "train_iter_01.jsonl").read_text()
    events = [json.loads(line) for line in log.splitlines()]
    errors = [event for event in events if event.get("event") == "encoder-error"]
    assert len(errors) == 1 and "500" in errors[0]["detail"]
    assert encoder_server.requests > 3


def test_a_remote_episode_is_the_scripted_episode(chat_server):
    tasks = bundled_suite()
    optima = _solve_all(tasks)
    encoder = HashingEncoder(DEFAULT_DIMENSION)
    db = TrajectoryDB(dimension=DEFAULT_DIMENSION)
    # One explorer pass first, so the episode retrieves.
    run_pass(tasks, db, SeededExplorerBackend(), encoder, RunConfig(), optima=optima, iteration=1)
    task = tasks[0]
    # An unparseable reply first, so the first step retries.
    script = ["I would look around first.", *exploration_script(0, task.id, 2, task.world)]
    chat_server.script = iter(script)
    runs = []
    for backend in (RemoteChatBackend(chat_server.url, "planner"), ScriptedReplyBackend(script)):
        events = []
        outcome = run_episode(
            task, backend, encoder, db, shortest_steps=optima[0], iteration=2,
            log=lambda event, **payload: events.append((event, payload)),
        )
        runs.append((outcome, events))
    (remote, remote_events), (scripted, scripted_events) = runs
    assert remote.failure is None and remote.record is not None
    assert remote.result == scripted.result
    assert remote.record.to_json_line() == scripted.record.to_json_line()
    assert remote_events == scripted_events
    logged = [event for event, _ in remote_events]
    assert "retrieval" in logged and "parse-failure" in logged
    prompts = [payload["text"] for event, payload in remote_events if event == "prompt"]
    assert chat_server.prompts == prompts


@pytest.mark.parametrize(
    "fault, detail",
    [
        (429, "429"),
        (503, "503"),
        ("not-json", "chat response is not JSON"),
        ("no-choices", "chat response missing message content"),
        ("truncated", "chat request failed"),
        ("drop", "chat request failed"),
        ("slow", "timed out"),
    ],
)
def test_a_chat_fault_ends_one_episode_and_the_pass_goes_on(chat_server, tmp_path, fault, detail):
    chat_server.faults = {1: fault}
    tasks = bundled_suite()[:2]
    backend = _ReleasingChatBackend(chat_server, timeout=0.2 if fault == "slow" else 30.0)
    report = run_pass(
        tasks, TrajectoryDB(dimension=DEFAULT_DIMENSION), backend, HashingEncoder(DEFAULT_DIMENSION),
        RunConfig(), optima=_solve_all(tasks), iteration=1, out_dir=tmp_path,
    )
    assert report.failures == {tasks[0].id: "backend-error"}
    assert [result.task_id for result in report.results] == [task.id for task in tasks]
    events = [json.loads(line) for line in (tmp_path / "train_iter_01.jsonl").read_text().splitlines()]
    (error,) = [event for event in events if event["event"] == "backend-error"]
    assert error["task_id"] == tasks[0].id and detail in error["detail"]
    # The second task's one request was answered with done().
    assert chat_server.requests == 2
