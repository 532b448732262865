"""Episode simulator: reset/step lifecycle around a Task.

The simulator owns the done flag. An episode finishes when the goal predicate
first holds (success latches, it cannot un-happen) or when the step budget is
spent. Stepping a finished episode is a caller bug and raises.

``step`` applies one primitive and reports only ``done``; ``observe`` takes
the snapshot. A caller that executes several primitives per decision
observes once, after the last of them, instead of copying the world after
every primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tasks import Task
from .world import Observation


class SimulationError(RuntimeError):
    """Episode lifecycle misuse (step before reset, step after done)."""


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one episode: success flag, steps taken, shortest possible."""

    task_id: str
    success: bool
    steps_taken: int
    shortest_steps: int

    def __post_init__(self) -> None:
        if self.steps_taken < 0:
            raise ValueError(f"steps_taken must be >= 0, got {self.steps_taken}")
        if self.shortest_steps < 1:
            raise ValueError(f"shortest_steps must be >= 1, got {self.shortest_steps}")


class Simulator:
    """Deterministic episode runner for one task."""

    def __init__(self, task: Task, max_steps: int | None = None):
        self.task = task
        self.max_steps = task.max_steps if max_steps is None else max_steps
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        self._world = None
        self.step_count = 0
        self._succeeded = False
        self._done = False

    @property
    def world(self):
        """Live world state; mutate only through step()."""
        return self._world

    @property
    def succeeded(self) -> bool:
        return self._succeeded

    @property
    def done(self) -> bool:
        return self._done

    def reset(self) -> Observation:
        self._world = self.task.world.copy()
        self.step_count = 0
        self._succeeded = False
        self._done = False
        return self._world.observe(0)

    def observe(self) -> Observation:
        """Frozen snapshot of the live world at the current step count."""
        if self._world is None:
            raise SimulationError("observe() before reset()")
        return self._world.observe(self.step_count)

    def step(self, action: str) -> bool:
        """Apply one low-level action; return whether the episode is done."""
        if self._world is None:
            raise SimulationError("step() before reset()")
        if self._done:
            raise SimulationError("step() after the episode finished")
        self._world.apply_action(action)
        self.step_count += 1
        if not self._succeeded and self.task.predicate.holds(self._world):
            self._succeeded = True
        self._done = self._succeeded or self.step_count >= self.max_steps
        return self._done
