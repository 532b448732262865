"""Planner backends: the things that turn a prompt into an action line.

A backend sees the rendered prompt plus the PromptBundle it was rendered
from (the step's goal, scene and retrieval hits) and returns raw reply
text. ``begin_episode`` hands it the episode's first world snapshot. A run
can name three implementations:

- RemoteChatBackend talks to an OpenAI-style chat-completions endpoint.
- SeededExplorerBackend follows a short scripted exploration routine derived
  deterministically from (seed, task id, iteration), so different iterations
  try different things without any model in the loop.
- ReplayOracleBackend is a seeded explorer that replays first: it replays
  the best retrieved trajectory verbatim when it solved the same goal, and
  explores otherwise. It exists to exercise the progressive retrieval loop
  deterministically.

Transport or protocol problems raise BackendError; the episode runner treats
that as a failed episode, not a crashed run.
"""

from __future__ import annotations

import random
from typing import Iterable

from .embedding import fnv1a64, post_json
from .gridworld.world import World
from .prompting import PromptBundle

DEFAULT_CHAT_TIMEOUT = 30.0
CHAT_API_KEY_ENV = "PRAG_CHAT_API_KEY"

SYSTEM_PROMPT = (
    "You control a household robot on a small grid. Read the goal, the current"
    " observation, and any prior experiences, then choose the single best next"
    " action."
)


class BackendError(RuntimeError):
    """A backend could not produce reply text at all."""


class PlannerBackend:
    """Base backend. Subclasses must implement complete()."""

    def begin_episode(
        self, task_id: str, iteration: int, goal_text: str, world: World
    ) -> None:
        """Called once before each episode. Default: no state to reset."""

    def complete(self, prompt: str, bundle: PromptBundle) -> str:
        raise NotImplementedError


class RemoteChatBackend(PlannerBackend):
    """OpenAI-style chat-completions client.

    The API key is read from the environment (PRAG_CHAT_API_KEY by default)
    at request time; it is never taken as a constructor argument and never
    logged. Requests use temperature 0 so reruns are as stable as the remote
    model allows.
    """

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

    def complete(self, prompt: str, bundle: PromptBundle) -> str:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": SYSTEM_PROMPT},
                {"role": "user", "content": prompt},
            ],
            "temperature": self.temperature,
        }
        body = post_json(
            f"{self.base_url}/chat/completions", payload, timeout=self.timeout,
            api_key_env=self.api_key_env, error=BackendError, what="chat",
        )
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"chat response missing message content: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError("chat response content is not a string")
        return text


def exploration_script(
    seed: int, task_id: str, iteration: int, world: World
) -> list[str]:
    """Build a short scripted routine for one episode.

    The routine is a pure function of (seed, task_id, iteration) and the
    episode's first world snapshot: maybe visit a fixture, maybe open each
    openable, carry a random sample of portable items to one randomly chosen
    fixture, maybe toggle something, then declare done. Because the RNG stream is
    keyed on the iteration, later iterations explore differently instead of
    repeating the same failure.
    """
    rng = random.Random(fnv1a64(f"{seed}/{task_id}/{iteration}".encode()))
    objects = world.objects
    portables = sorted(label for label, obj in objects.items() if not obj.landmark)
    fixtures = sorted(label for label, obj in objects.items() if obj.landmark)
    openables = sorted(label for label, obj in objects.items() if obj.openable)
    toggleables = sorted(label for label, obj in objects.items() if obj.toggleable)

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


class ScriptedReplyBackend(PlannerBackend):
    """Answers with the lines of a script in order, then declares done.

    ``prag prompt`` re-runs a logged episode with one holding its replies.
    """

    def __init__(self, script: Iterable[str] = ()) -> None:
        self._replies = iter(script)

    def complete(self, prompt: str, bundle: PromptBundle) -> str:
        return next(self._replies, "Action: done()")


class SeededExplorerBackend(ScriptedReplyBackend):
    """Replies with a deterministic exploration script, then declares done."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed

    def begin_episode(
        self, task_id: str, iteration: int, goal_text: str, world: World
    ) -> None:
        self._replies = iter(exploration_script(self.seed, task_id, iteration, world))


class ReplayOracleBackend(SeededExplorerBackend):
    """A seeded explorer that first replays a solved retrieved trajectory.

    At each step, if the top retrieval hit is a finished (done) record whose
    goal text matches the current goal exactly, the backend emits that
    record's next not-yet-replayed action. A per-episode cursor tracks replay
    progress; once the stored trajectory is exhausted it emits done(). With
    no usable hit, it replies exactly as SeededExplorerBackend does.
    """

    _replay_cursor = 0

    def begin_episode(
        self, task_id: str, iteration: int, goal_text: str, world: World
    ) -> None:
        super().begin_episode(task_id, iteration, goal_text, world)
        self._replay_cursor = 0

    def complete(self, prompt: str, bundle: PromptBundle) -> str:
        if bundle.experiences:
            top = bundle.experiences[0].record
            if top.done and top.goal_text == bundle.goal:
                if self._replay_cursor < len(top.actions):
                    action_text = top.actions[self._replay_cursor]
                    self._replay_cursor += 1
                    return f"Action: {action_text}"
                return "Action: done()"
        return super().complete(prompt, bundle)
