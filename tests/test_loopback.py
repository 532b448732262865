"""The remote encoder over a real socket, against a loopback embedding server.

The server is a tests-only ``http.server`` handler on 127.0.0.1, on a port
the system picks, answering from one thread: each posted text gets
``HashingEncoder``'s vector, so a remote run must write a hashed run's
bytes. ``requests`` sends through any proxy its environment names, so the
fixture lists 127.0.0.1 in ``NO_PROXY`` and in ``no_proxy``, which
``requests`` reads first, for the test's duration. A socket left for the
garbage collector fails a test through the ``ResourceWarning`` filter in
``pyproject.toml``.
"""

from __future__ import annotations

import json
import socketserver
import threading
from http.server import BaseHTTPRequestHandler

import pytest

from prag.driver import RunConfig, run_iterations
from prag.embedding import DEFAULT_DIMENSION, HashingEncoder
from prag.gridworld.tasks import bundled_suite


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


@pytest.fixture
def encoder_server(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = _EmbeddingServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    assert not thread.is_alive()


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
