"""Instrumentation the benchmark installs around the program's public functions.

Two levels exist. ``StepClock`` is what an untraced repetition uses: it
reads the clock once per backend ``complete()`` call and once at the first
episode, nothing else. ``Tracer`` is the traced repetition: it wraps each
layer's function where its caller looks it up (``prag.agent.extract``, not
``prag.scene_graph.extract``; class attributes for methods), keeps spans in
memory, and restores every original afterwards. A symbol that no longer
exists is recorded as absent, and the metrics derived from it are left out
of the result rather than failing the run.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter_ns


class _Proxy:
    """Forwards every attribute to the wrapped object unless overridden."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TimedBackend(_Proxy):
    def __init__(self, inner, clock: "StepClock") -> None:
        super().__init__(inner)
        self._step_clock = clock

    def begin_episode(self, *args, **kwargs):
        self._step_clock.stamps.append(None)
        return self._inner.begin_episode(*args, **kwargs)

    def complete(self, prompt, context):
        self._step_clock.stamps.append(_clock())
        return self._inner.complete(prompt, context)


class SetupDone(Exception):
    """Raised at the first episode of a set-up-only repetition."""


class StepClock:
    """Timestamps of backend calls, with ``None`` marking episode starts.

    With ``setup_only`` set, the first episode raises ``SetupDone`` once its
    time is stamped, so a repetition measures set-up alone.
    """

    def __init__(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.stamps: list[int | None] = []
        self.first_episode_ns: int | None = None
        self.episodes = 0  # episodes that returned an outcome
        self.failures: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        driver = importlib.import_module("prag.driver")
        build_backend = driver.build_backend
        run_episode = driver.run_episode

        def timed_build_backend(config):
            return _TimedBackend(build_backend(config), self)

        def counted_run_episode(*args, **kwargs):
            if self.first_episode_ns is None:
                self.first_episode_ns = time.monotonic_ns()
                if self.setup_only:
                    raise SetupDone
            outcome = run_episode(*args, **kwargs)
            self.episodes += 1
            if outcome.failure is not None:
                self.failures[outcome.failure] += 1
            return outcome

        for name, value in (
            ("build_backend", timed_build_backend),
            ("run_episode", counted_run_episode),
        ):
            self._patches.append((driver, name, getattr(driver, name)))
            setattr(driver, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def step_gaps_ms(self) -> list[float]:
        """Time between consecutive backend calls of one episode."""
        gaps = []
        previous = None
        for stamp in self.stamps:
            if stamp is not None and previous is not None:
                gaps.append((stamp - previous) / 1e6)
            previous = stamp
        return gaps


# (module, owner attribute or None, function, span name). The owner is the
# place the caller looks the function up.
FUNCTION_TARGETS = (
    ("prag.driver", None, "run_episode", "agent.run_episode"),
    ("prag.driver", None, "load_tasks", "gridworld.tasks.load"),
    ("prag.driver", None, "_write_report", "driver.write_report"),
    ("prag.driver", "EpisodeLog", "__init__", "driver.episode_log"),
    ("prag.driver", "EpisodeLog", "__call__", "driver.episode_log"),
    ("prag.driver", "EpisodeLog", "close", "driver.episode_log"),
    ("prag.trajectory_db", "TrajectoryDB", "retrieve_top_k", "trajectory_db.retrieve_top_k"),
    ("prag.trajectory_db", "TrajectoryDB", "update_after_iteration", "trajectory_db.update_after_iteration"),
    ("prag.trajectory_db", "TrajectoryDB", "save", "trajectory_db.save"),
    ("prag.trajectory_db", "TrajectoryDB", "load", "trajectory_db.load"),
    ("prag.agent", None, "extract", "scene_graph.extract"),
    ("prag.agent", None, "render_text", "scene_graph.render_text"),
    ("prag.agent", None, "decompose", "agent.decompose"),
    ("prag.agent", None, "plan_step", "agent.plan_step"),
    ("prag.agent", None, "distance_field", "nav.distance_field"),
    ("prag.agent", None, "backtrack_path", "nav.backtrack_path"),
    ("prag.agent", None, "build_prompt", "prompting.build_prompt"),
    ("prag.agent", None, "parse_action", "prompting.parse_action"),
    ("prag.agent", None, "shortest_solution_steps", "gridworld.solver.shortest_solution_steps"),
    ("prag.gridworld.world", "World", "observe", "gridworld.world.observe"),
    ("prag.gridworld.world", "World", "navigable_grid", "gridworld.world.navigable_grid"),
    ("prag.gridworld.sim", "Simulator", "step", "gridworld.sim.step"),
)
# Counted, not timed: called ~10^6 times per run.
COUNT_TARGETS = (
    ("prag.gridworld.world", "World", "relation_query", "gridworld.world.relation_query"),
)
# Proxied through the factory the driver calls.
PROXY_TARGETS = (
    ("prag.driver", None, "build_backend", "backends.complete"),
    ("prag.driver", None, "build_encoder", "embedding.encode"),
)
ARTIFACT_SPANS = ("driver.episode_log", "driver.write_report", "trajectory_db.save")

# Sampled retrieval calls re-scored against the brute-force oracle.
RESCORE_FIRST = 8
RESCORE_EVERY = 64


class Tracer:
    """Spans in memory, per-layer counters, and the patches that feed them."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.episode = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.sums: dict[str, int] = defaultdict(int)
        self.encoded: set[int] = set()
        self.rescore: list[tuple] = []
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._db_vectors: dict[int, int] = {}
        self._retrievals = 0

    # -- span recording -------------------------------------------------
    def _enter(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _leave(self, name: str, index: int, parent: int, start: int) -> None:
        end = _clock()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.episode)

    def timed(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index, parent = tracer._enter()
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, index, parent, start)
            if after is not None:
                try:
                    after(result, *args, **kwargs)
                except (AttributeError, TypeError, KeyError, OSError):
                    # The layer's signature or result changed: drop its counters.
                    tracer.absent.add(f"{name}.counters")
            return result

        return wrapper

    # -- per-layer side counters ----------------------------------------
    def _after(self, name: str):
        sums = self.sums
        if name == "gridworld.tasks.load":
            def after(result, *args, **kwargs):
                sums["gridworld.tasks.load.files"] += len(result)
            return after
        if name == "scene_graph.extract":
            def after(result, observation, *args, **kwargs):
                sums["scene_graph.extract.objects"] += len(observation.objects)
            return after
        if name == "nav.distance_field":
            def after(result, navigable, *args, **kwargs):
                sums["nav.distance_field.cells"] += int(getattr(navigable, "size", 0))
            return after
        if name == "prompting.build_prompt":
            def after(result, *args, **kwargs):
                sums["prompting.build_prompt.bytes"] += len(result.encode("utf-8"))
            return after
        if name == "trajectory_db.save":
            def after(result, db, path, *args, **kwargs):
                sums["trajectory_db.save.bytes"] += os.path.getsize(path)
            return after
        if name == "trajectory_db.load":
            def after(db, cls, path, *args, **kwargs):
                sums["trajectory_db.load.bytes"] += os.path.getsize(path)
                self._count_vectors(db)
            return after
        if name == "trajectory_db.update_after_iteration":
            def after(result, db, *args, **kwargs):
                self._count_vectors(db)
            return after
        if name == "trajectory_db.retrieve_top_k":
            def after(result, db, query, k=None, *args, **kwargs):
                k = kwargs.get("k", k)
                calls = self._retrievals
                self._retrievals += 1
                sums["trajectory_db.retrieve_top_k.records_scanned"] += len(db)
                sums["trajectory_db.retrieve_top_k.vectors_scanned"] += self._db_vectors.get(id(db), 0)
                if calls < RESCORE_FIRST or calls % RESCORE_EVERY == 0:
                    self.rescore.append((query, k, db.records(), list(result)))
            return after
        return None

    def _count_vectors(self, db) -> None:
        try:
            self._db_vectors[id(db)] = sum(len(r.obs_embeddings) for r in db.records())
        except AttributeError:
            self.absent.add("trajectory_db.retrieve_top_k.vectors_scanned")

    # -- patching -------------------------------------------------------
    def _resolve(self, module_name: str, owner_name: str | None, attr: str):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None, None
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None:
            return None, None
        if owner_name is None:
            original = getattr(owner, attr, None)
        else:
            original = owner.__dict__.get(attr)
        return owner, original

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, owner_name, attr, name in FUNCTION_TARGETS:
            owner, original = self._resolve(module_name, owner_name, attr)
            if original is None:
                self.absent.add(name)
                continue
            after = self._after(name)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.timed(name, original.__func__, after))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(self.timed(name, original.__func__, after))
            elif name == "agent.run_episode":
                wrapped = self._episode_wrapper(self.timed(name, original))
            else:
                wrapped = self.timed(name, original, after)
            self._patch(owner, attr, original, wrapped)

        for module_name, owner_name, attr, name in COUNT_TARGETS:
            owner, original = self._resolve(module_name, owner_name, attr)
            if original is None:
                self.absent.add(name)
                continue
            self._patch(owner, attr, original, self._counter(name, original))

        for module_name, owner_name, attr, name in PROXY_TARGETS:
            owner, original = self._resolve(module_name, owner_name, attr)
            if original is None:
                self.absent.add(name)
                continue
            if name == "backends.complete":
                factory = self._backend_factory(original)
            else:
                factory = self._encoder_factory(original)
            self._patch(owner, attr, original, factory)

    def restore(self) -> list[str]:
        """Put every original back; return the attributes that did not take."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        broken = []
        for owner, attr, original in self._patches:
            current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patches.clear()
        return broken

    def _episode_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.episode += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _backend_factory(self, build_backend):
        tracer = self

        class TracedBackend(_Proxy):
            def __init__(self, inner) -> None:
                super().__init__(inner)
                self.complete = tracer.timed("backends.complete", inner.complete)

        def factory(config):
            return TracedBackend(build_backend(config))

        return factory

    def _encoder_factory(self, build_encoder):
        tracer = self

        def count(result, text):
            tracer.sums["embedding.encode.bytes_in"] += len(text.encode("utf-8"))
            tracer.encoded.add(hash(text))

        class TracedEncoder(_Proxy):
            def __init__(self, inner) -> None:
                super().__init__(inner)
                self.dimension = inner.dimension
                self.encode = tracer.timed("embedding.encode", inner.encode, count)

        def factory(config):
            return TracedEncoder(build_encoder(config))

        return factory

    # -- results --------------------------------------------------------
    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, and the p50 of inclusive times."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        stats: dict[str, dict] = {}
        durations: dict[str, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _ = span
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start - child_ns[index]) / 1e9
            durations[name].append(end - start)
        for name, values in durations.items():
            stats[name]["p50_ms"] = statistics.median(values) / 1e6
        return stats

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tepisode\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, episode = span
                    fh.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\t{episode}\n")

    def layer_metrics(self, artifacts_bytes: int) -> dict[str, float]:
        """The per-layer metrics of one traced run, without absent layers."""
        stats = self.layer_stats()
        metrics: dict[str, float] = {}

        def field(span: str, key: str) -> float | None:
            if span in self.absent:
                return None
            return stats.get(span, {}).get(key, 0)

        def put(name: str, value) -> None:
            if value is not None:
                metrics[name] = value

        for span, keys in LAYER_SPANS:
            for key in keys:
                put(f"{span}.{key}", field(span, key))
        for name in SUM_METRICS:
            span = name.rsplit(".", 1)[0]
            if not {span, f"{span}.counters", name} & self.absent:
                metrics[name] = self.sums.get(name, 0)
        for name in COUNT_METRICS:
            if name.rsplit(".", 1)[0] not in self.absent:
                metrics[name] = self.counts.get(name, 0)

        def ratio(name: str, numerator, denominator) -> None:
            if numerator is not None and denominator is not None:
                metrics[name] = numerator / denominator if denominator else 0.0

        plan_steps = field("agent.plan_step", "calls")
        ratio("scene_graph.extract.per_step", field("scene_graph.extract", "calls"), plan_steps)
        ratio("gridworld.world.observe.used_ratio", plan_steps, field("gridworld.world.observe", "calls"))
        encodes = field("embedding.encode", "calls")
        ratio("embedding.encode.distinct_ratio", len(self.encoded) if encodes is not None else None, encodes)

        artifact_spans = [s for s in ARTIFACT_SPANS if s not in self.absent]
        if artifact_spans:
            metrics["driver.artifacts.s"] = sum(stats.get(s, {}).get("s", 0.0) for s in artifact_spans)
            metrics["driver.artifacts.bytes"] = artifacts_bytes
        return metrics


# Span-derived per-layer metrics: (span name, fields). ``s`` is self time.
LAYER_SPANS = (
    ("trajectory_db.retrieve_top_k", ("calls", "s", "p50_ms")),
    ("trajectory_db.load", ("s",)),
    ("trajectory_db.update_after_iteration", ("calls", "s")),
    ("trajectory_db.save", ("calls", "s")),
    ("scene_graph.extract", ("calls", "s")),
    ("scene_graph.render_text", ("calls", "s")),
    ("gridworld.world.observe", ("calls", "s")),
    ("gridworld.world.navigable_grid", ("calls", "s")),
    ("gridworld.sim.step", ("calls", "s")),
    ("agent.run_episode", ("s",)),
    ("agent.plan_step", ("calls", "s")),
    ("agent.decompose", ("calls", "s")),
    ("nav.distance_field", ("calls", "s")),
    ("nav.backtrack_path", ("calls", "s")),
    ("embedding.encode", ("calls", "s")),
    ("prompting.build_prompt", ("calls", "s")),
    ("prompting.parse_action", ("calls", "s")),
    ("backends.complete", ("calls", "s")),
    ("gridworld.solver.shortest_solution_steps", ("calls", "s")),
    ("gridworld.tasks.load", ("s",)),
)
SUM_METRICS = (
    "trajectory_db.retrieve_top_k.records_scanned",
    "trajectory_db.retrieve_top_k.vectors_scanned",
    "trajectory_db.load.bytes",
    "trajectory_db.save.bytes",
    "scene_graph.extract.objects",
    "nav.distance_field.cells",
    "embedding.encode.bytes_in",
    "prompting.build_prompt.bytes",
    "gridworld.tasks.load.files",
)
COUNT_METRICS = ("gridworld.world.relation_query.calls",)
