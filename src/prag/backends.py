"""Planner backends: the things that turn a prompt into an action line.

A backend sees the rendered prompt plus a structured StepContext and returns
raw reply text. Three implementations ship here:

- RemoteChatBackend talks to an OpenAI-style chat-completions endpoint.
- SeededExplorerBackend follows a short scripted exploration routine derived
  deterministically from (seed, task id, iteration), so different iterations
  try different things without any model in the loop.
- ReplayOracleBackend replays the best retrieved trajectory verbatim when it
  solved the same goal, and falls back to the seeded explorer otherwise. It
  exists to exercise the progressive retrieval loop deterministically.

Transport or protocol problems raise BackendError; the episode runner treats
that as a failed episode, not a crashed run.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from .embedding import fnv1a64
from .gridworld.world import Observation
from .trajectory_db import RetrievalHit

DEFAULT_CHAT_TIMEOUT = 30.0
CHAT_API_KEY_ENV = "PRAG_CHAT_API_KEY"

SYSTEM_PROMPT = (
    "You control a household robot on a small grid. Read the goal, the current"
    " observation, and any prior experiences, then choose the single best next"
    " action."
)


class BackendError(RuntimeError):
    """A backend could not produce reply text at all."""


@dataclass(frozen=True)
class StepContext:
    """Structured view of one planning step, alongside the rendered prompt."""

    task_id: str
    iteration: int
    goal_text: str
    step_index: int
    hits: tuple[RetrievalHit, ...]
    observation: Observation
    seed: int


class PlannerBackend:
    """Base backend. Subclasses must implement complete()."""

    name = "base"

    def begin_episode(
        self, task_id: str, iteration: int, goal_text: str, observation: Observation
    ) -> None:
        """Called once before each episode. Default: no state to reset."""

    def complete(self, prompt: str, context: StepContext) -> str:
        raise NotImplementedError


class RemoteChatBackend(PlannerBackend):
    """OpenAI-style chat-completions client.

    The API key is read from the environment (PRAG_CHAT_API_KEY by default)
    at request time; it is never taken as a constructor argument and never
    logged. Requests use temperature 0 so reruns are as stable as the remote
    model allows.
    """

    name = "remote-chat"

    def __init__(
        self,
        base_url: str,
        model: str,
        *,
        temperature: float = 0.0,
        timeout: float = DEFAULT_CHAT_TIMEOUT,
        api_key_env: str = CHAT_API_KEY_ENV,
    ) -> None:
        if not base_url:
            raise ValueError("base_url must be a non-empty URL")
        if not model:
            raise ValueError("model must be a non-empty name")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self.api_key_env = api_key_env

    def complete(self, prompt: str, context: StepContext) -> str:
        import requests  # deferred: only remote clients need it, and it is slow to import

        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": SYSTEM_PROMPT},
                {"role": "user", "content": prompt},
            ],
            "temperature": self.temperature,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            response = requests.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers=headers,
                timeout=self.timeout,
            )
            response.raise_for_status()
            body = response.json()
        except requests.RequestException as exc:
            raise BackendError(f"chat request failed: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise BackendError(f"chat response is not JSON: {exc}") from exc
        except ValueError as exc:  # requests raises ValueError on bad JSON too
            raise BackendError(f"chat response is not JSON: {exc}") from exc
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"chat response missing message content: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError("chat response content is not a string")
        return text


def exploration_script(
    seed: int, task_id: str, iteration: int, observation: Observation
) -> list[str]:
    """Build a short scripted routine for one episode.

    The routine is a pure function of (seed, task_id, iteration) and the
    initial observation: maybe visit a fixture, maybe open each openable,
    carry a random sample of portable items to one randomly chosen fixture,
    maybe toggle something, then declare done. Because the RNG stream is
    keyed on the iteration, later iterations explore differently instead of
    repeating the same failure.
    """
    rng = random.Random(fnv1a64(f"{seed}/{task_id}/{iteration}".encode()))
    views = observation.objects
    portables = sorted(label for label, v in views.items() if not v.landmark)
    fixtures = sorted(label for label, v in views.items() if v.landmark)
    openables = sorted(label for label, v in views.items() if v.openable)
    toggleables = sorted(label for label, v in views.items() if v.toggleable)

    script: list[str] = []
    if fixtures and rng.random() < 0.25:
        script.append(f"navigate({rng.choice(fixtures)})")
    for label in openables:
        if rng.random() < 0.5:
            script.append(f"open({label})")
    if portables and fixtures:
        target = rng.choice(fixtures)
        chosen = rng.sample(portables, rng.randint(1, len(portables)))
        for item in chosen:
            script.append(f"pickup({item})")
            if rng.random() < 0.9:
                script.append(f"drop({target})")
            else:
                script.append(f"drop({rng.choice(fixtures)})")
    if toggleables and rng.random() < 0.6:
        script.append(f"toggle({rng.choice(toggleables)})")
    script.append("done()")
    return [f"Action: {step}" for step in script]


class SeededExplorerBackend(PlannerBackend):
    """Replays a deterministic exploration script, then declares done."""

    name = "seeded-explorer"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._script: list[str] = []
        self._next = 0

    def begin_episode(
        self, task_id: str, iteration: int, goal_text: str, observation: Observation
    ) -> None:
        self._script = exploration_script(self.seed, task_id, iteration, observation)
        self._next = 0

    def complete(self, prompt: str, context: StepContext) -> str:
        if self._next < len(self._script):
            line = self._script[self._next]
            self._next += 1
            return line
        return "Action: done()"


class ReplayOracleBackend(PlannerBackend):
    """Replay a successful retrieved trajectory for the same goal, else explore.

    At each step, if the top retrieval hit is a finished (done) record whose
    goal text matches the current goal exactly, the backend emits that
    record's next not-yet-replayed action. A per-episode cursor tracks replay
    progress; once the stored trajectory is exhausted it emits done(). With
    no usable hit, it behaves exactly like SeededExplorerBackend.
    """

    name = "replay-oracle"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._explorer = SeededExplorerBackend(seed)
        self._replay_cursor = 0

    def begin_episode(
        self, task_id: str, iteration: int, goal_text: str, observation: Observation
    ) -> None:
        self._explorer.begin_episode(task_id, iteration, goal_text, observation)
        self._replay_cursor = 0

    def complete(self, prompt: str, context: StepContext) -> str:
        if context.hits:
            top = context.hits[0].record
            if top.done and top.goal_text == context.goal_text:
                if self._replay_cursor < len(top.history):
                    action_text = top.history[self._replay_cursor][0]
                    self._replay_cursor += 1
                    return f"Action: {action_text}"
                return "Action: done()"
        return self._explorer.complete(prompt, context)
