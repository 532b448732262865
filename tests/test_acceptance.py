"""Acceptance gate: nine end-to-end criteria, one printed PASS/FAIL line each.

Every test announces its verdict on the real terminal (bypassing capture) so
a full run always shows nine explicit lines. Tolerances are pinned inside
each test; the expensive criteria also pin wall-clock budgets.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from collections import deque
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
import requests

from prag.agent import plan_step, run_episode
from prag.driver import (
    RunConfig,
    build_backend,
    build_encoder,
    load_tasks,
    run_iterations,
    run_pass,
)
from prag.embedding import HashingEncoder
from prag.gridworld.tasks import bundled_suite
from prag.gridworld.world import KINDS, World
from prag.metrics import spl, task_sr, total_sr
from prag.nav import NoPathError, backtrack_path, distance_field, path_to_actions
from prag.prompting import (
    HighLevelAction,
    PromptBundle,
    action_space_text,
)
from prag.scene_graph import RELATION_NAMES, SceneGraph, extract, parse_text, render_text
from prag.trajectory_db import (
    RetrievalQuery,
    TaskRecord,
    TrajectoryDB,
    score,
)

from tests.conftest import ScriptedBackend, border_walls, make_ball_task
from tests.test_metrics import result as make_result

SCORE_TOLERANCE = 1e-12
RUNTIME_BUDGET_SECONDS = 60.0


@pytest.fixture
def announce(capfd):
    """One visible PASS/FAIL line per criterion, outside pytest capture."""

    @contextmanager
    def criterion(number: int, title: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"FAIL criterion {number}: {title}", flush=True)
            raise
        else:
            with capfd.disabled():
                print(f"PASS criterion {number}: {title}", flush=True)

    return criterion


def reference_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Independent cosine: explicit loops over components, exact summation."""
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    norm_a = math.sqrt(math.fsum(float(x) * float(x) for x in a))
    norm_b = math.sqrt(math.fsum(float(y) * float(y) for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def reference_score(query: RetrievalQuery, record: TaskRecord) -> float:
    """Independent double loop: goal cosine plus best per-step cosine."""
    best = -math.inf
    for step_embedding in record.obs_embeddings:
        value = reference_cosine(query.obs_embedding, step_embedding)
        if value > best:
            best = value
    return reference_cosine(query.goal_embedding, record.goal_embedding) + best


def random_record(rng, np_rng, dimension, task_id, iteration=None):
    steps = rng.randint(1, 4)
    return TaskRecord(
        task_id=task_id,
        iteration=iteration if iteration is not None else rng.randint(1, 9),
        goal_text=f"goal for {task_id}",
        goal_embedding=np_rng.standard_normal(dimension),
        obs_embeddings=tuple(np_rng.standard_normal(dimension) for _ in range(steps)),
        history=tuple(("done()", "") for _ in range(steps)),
        done=rng.random() < 0.5,
    )


def test_criterion_1_retrieval_matches_brute_force(announce):
    with announce(1, "top-k retrieval matches brute-force scoring and tie-breaks"):
        rng = random.Random(101)
        np_rng = np.random.default_rng(101)
        dimension = 384
        for db_index in range(200):
            records = [
                random_record(rng, np_rng, dimension, f"task_{i:03d}")
                for i in range(rng.randint(1, 47))
            ]
            if rng.random() < 0.5:
                # Clone one record's embeddings under new ids and iterations
                # so exact score ties exercise the full tie-break key.
                base = rng.choice(records)
                for j, iteration in enumerate(rng.sample(range(1, 10), 3)):
                    records.append(
                        TaskRecord(
                            task_id=f"tie_{j}",
                            iteration=iteration,
                            goal_text=base.goal_text,
                            goal_embedding=base.goal_embedding,
                            obs_embeddings=base.obs_embeddings,
                            history=base.history,
                            done=base.done,
                        )
                    )
            db = TrajectoryDB(dimension=dimension)
            for iteration in sorted({r.iteration for r in records}):
                db.update_after_iteration(
                    [r for r in records if r.iteration == iteration]
                )

            query = RetrievalQuery(
                np_rng.standard_normal(dimension), np_rng.standard_normal(dimension)
            )
            k = rng.randint(1, 10)

            expected = sorted(
                ((reference_score(query, r), r) for r in records),
                key=lambda pair: (-pair[0], -pair[1].iteration, pair[1].task_id),
            )[:k]
            hits = db.retrieve_top_k(query, k)

            assert [h.record.task_id for h in hits] == [r.task_id for _, r in expected]
            for hit, (ref, _) in zip(hits, expected):
                assert abs(hit.score - ref) < SCORE_TOLERANCE


def test_criterion_2_score_matches_independent_oracle(announce):
    with announce(2, "retrieval score matches an independent double-loop oracle"):
        rng = random.Random(202)
        np_rng = np.random.default_rng(202)
        for pair_index in range(1000):
            dimension = rng.choice((8, 64, 384))
            record = random_record(rng, np_rng, dimension, f"pair_{pair_index}")
            query = RetrievalQuery(
                np_rng.standard_normal(dimension), np_rng.standard_normal(dimension)
            )
            assert abs(score(query, record) - reference_score(query, record)) < (
                SCORE_TOLERANCE
            )


def bfs_distances(navigable: np.ndarray, source) -> dict:
    height, width = navigable.shape
    distances = {source: 0}
    queue = deque([source])
    while queue:
        x, y = queue.popleft()
        for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nxt = (x + dx, y + dy)
            if (
                0 <= nxt[0] < width
                and 0 <= nxt[1] < height
                and navigable[nxt[1], nxt[0]]
                and nxt not in distances
            ):
                distances[nxt] = distances[(x, y)] + 1
                queue.append(nxt)
    return distances


def test_criterion_3_wavefront_paths_match_bfs_and_execute(announce):
    with announce(3, "wavefront paths match BFS lengths and execute to the sink"):
        rng = random.Random(303)
        start = time.monotonic()
        cells = [(x, y) for x in range(10) for y in range(10)]
        solvable_pairs = 0
        for grid_index in range(100):
            walls = set(rng.sample(cells, 20))
            free = [c for c in cells if c not in walls]
            navigable = np.ones((10, 10), dtype=bool)
            for x, y in walls:
                navigable[y, x] = False
            for _ in range(50):
                source = rng.choice(free)
                sink = rng.choice(free)
                reference = bfs_distances(navigable, source)
                field = distance_field(navigable, source)
                if sink not in reference:
                    with pytest.raises(NoPathError):
                        backtrack_path(field, sink)
                    continue
                solvable_pairs += 1
                path = backtrack_path(field, sink)
                assert len(path) - 1 == reference[sink]
                assert field.at(sink) == reference[sink]

                world = World(
                    10, 10, walls=frozenset(walls), agent_position=source, agent_heading="N"
                )
                actions = path_to_actions(path, "N")
                for action in actions:
                    world.apply_action(action)
                assert world.agent_position == sink
                assert sum(1 for a in actions if a == "forward") == reference[sink]
        elapsed = time.monotonic() - start
        assert solvable_pairs > 3000
        assert elapsed < RUNTIME_BUDGET_SECONDS


def test_criterion_4_metric_worked_examples_and_spl_bound(announce):
    with announce(4, "success-rate and path-weighted metrics reproduce worked examples"):
        # Worked example: one optimal success scores exactly 1.
        assert spl([make_result(success=True, steps=5, shortest=5)]) == 1.0
        # Worked example: (S=1, L=10, P=5) with (S=0, L=7, P=3) averages 0.25.
        assert (
            spl(
                [
                    make_result(task_id="a", success=True, steps=10, shortest=5),
                    make_result(task_id="b", success=False, steps=7, shortest=3),
                ]
            )
            == 0.25
        )
        # Worked example: failures only score 0.
        only_failures = [make_result(success=False, steps=9, shortest=2) for _ in range(5)]
        assert spl(only_failures) == 0.0
        # Worked example: 3 successes in 20 episodes is a 15% success rate.
        episodes = [
            make_result(task_id=f"t{i}", success=i < 3, steps=8, shortest=4)
            for i in range(20)
        ]
        assert total_sr(episodes) == 0.15
        # Worked example: 5 tasks x 4 episodes, one task always succeeding.
        grid = [
            make_result(task_id=f"t{t}", success=(t == 0), steps=6, shortest=6)
            for t in range(5)
            for _ in range(4)
        ]
        assert task_sr(grid) == 0.2
        assert total_sr(grid) == 0.2

        rng = random.Random(404)
        for _ in range(1000):
            results = [
                make_result(
                    task_id=f"t{rng.randint(0, 5)}",
                    success=rng.random() < 0.5,
                    steps=rng.randint(1, 60),
                    shortest=rng.randint(1, 60),
                )
                for _ in range(rng.randint(1, 30))
            ]
            assert spl(results) <= total_sr(results) + SCORE_TOLERANCE


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """Two full ITER=4 runs over the bundled suite with all network refused."""
    patcher = pytest.MonkeyPatch()

    def refuse(*args, **kwargs):
        raise AssertionError("network I/O attempted during an offline acceptance run")

    patcher.setattr(requests, "post", refuse)
    patcher.setattr(requests, "get", refuse)
    patcher.setattr(requests.sessions.Session, "request", refuse)
    try:
        def make_config(out_dir):
            return RunConfig(
                tasks="suite",
                iterations=4,
                seed=0,
                backend="replay-oracle",
                early_stop=False,
                out=str(out_dir),
            )

        out_a = tmp_path_factory.mktemp("acceptance_run_a")
        out_b = tmp_path_factory.mktemp("acceptance_run_b")
        start = time.monotonic()
        reports = run_iterations(make_config(out_a))
        elapsed = time.monotonic() - start
        rerun_reports = run_iterations(make_config(out_b))
        yield SimpleNamespace(
            reports=reports,
            rerun_reports=rerun_reports,
            out=out_a,
            out_b=out_b,
            elapsed=elapsed,
            config=make_config(out_a),
        )
    finally:
        patcher.undo()


def test_criterion_5_progressive_improvement(announce, suite_run):
    with announce(5, "progressive loop improves monotonically and retains successes"):
        reports = suite_run.reports
        assert [r.iteration for r in reports] == [1, 2, 3, 4]

        rates = [r.total_sr for r in reports]
        assert all(later >= earlier for earlier, later in zip(rates, rates[1:]))

        success_sets = [
            {task for task, done in r.done_vector.items() if done} for r in reports
        ]
        for earlier, later in zip(success_sets, success_sets[1:]):
            assert earlier <= later

        # At least one task flips from unsolved at iteration 1 to solved by 3.
        flipped = (success_sets[2] | success_sets[1]) - success_sets[0]
        assert flipped
        assert success_sets[0], "the explorer must solve something at iteration 1"

        # Deterministic given the seed: the rerun reproduces every report
        # and the persisted database byte for byte.
        assert [r.to_dict() for r in reports] == [
            r.to_dict() for r in suite_run.rerun_reports
        ]
        assert (suite_run.out / "db.jsonl").read_bytes() == (
            suite_run.out_b / "db.jsonl"
        ).read_bytes()

        assert suite_run.elapsed < RUNTIME_BUDGET_SECONDS


def test_criterion_6_iteration_one_offline_and_checkpoint_determinism(
    announce, suite_run, tmp_path
):
    with announce(6, "iteration one retrieves nothing and checkpoints replay identically"):
        reports = suite_run.reports
        assert reports[0].retrieval_calls == 0
        assert all(r.retrieval_calls > 0 for r in reports[1:])

        tasks = load_tasks("suite")
        for index in (1, 2, 3):
            db = TrajectoryDB.load(suite_run.out / f"db_iter_{index:02d}.jsonl")
            replayed = run_pass(
                tasks,
                db,
                build_backend(suite_run.config),
                build_encoder(suite_run.config),
                suite_run.config,
                optima=[r.shortest_steps for r in reports[0].results],
                iteration=index + 1,
            )
            assert replayed.to_dict() == reports[index].to_dict()
            saved = tmp_path / f"replayed_{index:02d}.jsonl"
            db.save(saved)
            assert saved.read_bytes() == (
                suite_run.out / f"db_iter_{index + 1:02d}.jsonl"
            ).read_bytes()


FUZZ_ACTIONS = (
    "forward",
    "turn_left",
    "turn_right",
    "pickup",
    "drop",
    "toggle",
    "open",
    "close",
)


def random_world(rng: random.Random) -> World:
    while True:
        width = rng.randint(5, 9)
        height = rng.randint(5, 9)
        walls = set(border_walls(width, height))
        interior = [
            (x, y)
            for x in range(1, width - 1)
            for y in range(1, height - 1)
        ]
        walls.update(c for c in interior if rng.random() < 0.12)
        floor = [c for c in interior if c not in walls]
        if len(floor) >= 6:
            break
    agent = rng.choice(floor)
    world = World(
        width,
        height,
        walls=frozenset(walls),
        agent_position=agent,
        agent_heading=rng.choice("NESW"),
    )
    kinds = sorted(KINDS)
    for index in range(rng.randint(3, 8)):
        kind = rng.choice(kinds)
        try:
            world.place_object(f"{kind}_{index}", kind, rng.choice(floor))
        except ValueError:
            continue  # placement constraint hit; the fuzz needs no retry
    return world


def check_invariants(world: World, labels: frozenset) -> None:
    assert frozenset(world.objects) == labels
    held = [label for label, obj in world.objects.items() if obj.position is None]
    if world.agent_inventory is None:
        assert held == []
    else:
        assert held == [world.agent_inventory]
    assert world.in_bounds(world.agent_position)
    assert world.agent_position not in world.walls
    portable_counts: dict = {}
    for obj in world.objects.values():
        if obj.position is None:
            continue
        assert world.in_bounds(obj.position)
        assert obj.position not in world.walls
        if not obj.landmark:
            portable_counts[obj.position] = portable_counts.get(obj.position, 0) + 1
    assert all(count <= 3 for count in portable_counts.values())


def test_criterion_7_simulator_invariants_under_fuzz(announce):
    with announce(7, "simulator invariants survive a 10,000-step action fuzz"):
        rng = random.Random(707)
        steps_done = 0
        while steps_done < 10_000:
            world = random_world(rng)
            labels = frozenset(world.objects)
            check_invariants(world, labels)
            for _ in range(200):
                world.apply_action(rng.choice(FUZZ_ACTIONS))
                check_invariants(world, labels)
                steps_done += 1
        assert steps_done >= 10_000


def test_criterion_8_retry_recovery_and_contained_failures(announce):
    with announce(8, "planner retries recover from bad replies and failures are contained"):
        # Two malformed replies then a valid one: exactly three backend calls.
        task = make_ball_task()
        observation = task.world.observe()
        backend = ScriptedBackend(
            ["no action at all", "Action: fly(ball_1)", "Action: pickup(ball_1)"]
        )
        bundle = PromptBundle(
            goal=task.goal,
            scene_text=render_text(extract(observation)),
            action_space_text=action_space_text(observation),
        )
        action, _ = plan_step(backend, bundle, observation, 0, max_retries=3)
        assert backend.calls == 3
        assert action == HighLevelAction("pickup", "ball_1")

        # Four malformed replies at max_retries=3: the episode records a
        # planner failure and the pass continues to the next task.
        failing = make_ball_task(task_id="failing_task")
        healthy = make_ball_task(task_id="healthy_task")
        backend = ScriptedBackend(
            ["bad"] * 4 + ["Action: pickup(ball_1)", "Action: drop(table_1)"]
        )
        db = TrajectoryDB(dimension=64)
        report = run_pass(
            [failing, healthy],
            db,
            backend,
            HashingEncoder(dimension=64),
            RunConfig(max_retries=3),
            optima=[6, 6],
            iteration=1,
        )
        assert backend.calls == 6
        assert report.failures == {"failing_task": "planner-failure"}
        assert report.done_vector == {"failing_task": False, "healthy_task": True}
        assert db.get("healthy_task") is not None
        assert db.get("failing_task") is None


LINE_FORMAT = re.compile(r"^[a-z][a-z0-9_]*/[a-z][a-z0-9_]*/[a-z_]+: True$")

LABEL_POOL = tuple(
    f"{word}_{i}"
    for word in ("ball", "mug", "table", "sink", "box", "key", "plant", "towel")
    for i in (1, 2)
)


def random_graph(rng: random.Random) -> SceneGraph:
    nodes = tuple(rng.sample(LABEL_POOL, rng.randint(2, 8)))
    relations = set()
    for _ in range(rng.randint(0, 12)):
        relations.add(
            (rng.choice(nodes), rng.choice(sorted(RELATION_NAMES)), rng.choice(nodes))
        )
    return SceneGraph(nodes=nodes, relations=tuple(sorted(relations)))


def test_criterion_9_scene_text_format_and_round_trip(announce):
    with announce(9, "scene-graph text is only true-relation lines and round-trips"):
        # Real observations from every bundled task render only "...: True" lines.
        for task in bundled_suite():
            text = render_text(extract(task.world.observe()))
            for line in filter(None, text.splitlines()):
                assert LINE_FORMAT.match(line), line

        rng = random.Random(909)
        for _ in range(500):
            graph = random_graph(rng)
            text = render_text(graph)
            for line in filter(None, text.splitlines()):
                assert LINE_FORMAT.match(line), line
            parsed = parse_text(text)
            assert set(parsed.relations) == set(graph.relations)
            endpoints = {
                label for s, _, o in graph.relations for label in (s, o)
            }
            assert set(parsed.nodes) == endpoints
