"""Layer sweeps: retrieval cost over store size, scene-graph cost over world size.

Run in a fresh interpreter by ``run.py`` during a traced run:

    python3 bench/sweeps.py SEED RESULT_JSON

Retrieval is timed per ``TrajectoryDB.retrieve_top_k`` query at 100, 1k and
10k records of 20 steps x 384 dims. Record vectors are views into one pool
of distinct random vectors, so the 10k store (200k step vectors) costs a few
MB instead of 600: the scan does the same arithmetic either way. Scene-graph
cost is ``extract`` plus ``render_text`` on one observation of a world with
6, 30 and 90 objects, called where the agent looks them up.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

DIMENSION = 384
STEPS = 20
POOL = 4096
STORE_SIZES = (100, 1000, 10000)
OBJECT_COUNTS = (6, 30, 90)

# Baseline figures measured with cProfile and ad-hoc timers when the
# benchmark was defined (ROADMAP "Open items").
ROADMAP_RETRIEVAL_MS = {1000: 80.0, 5000: 500.0}
ROADMAP_SCENE_MS = {6: 0.1, 30: 1.9, 90: 17.0}


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def retrieval_sweep(seed: int) -> dict[str, float]:
    from prag.trajectory_db import RetrievalQuery, TaskRecord, TrajectoryDB

    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((POOL, DIMENSION))
    history = [("navigate(table_1)", "mug_1/table_1/on_top_of: True")] * STEPS
    db = TrajectoryDB(dimension=DIMENSION)
    results = {}
    for iteration, size in enumerate(STORE_SIZES, start=1):
        batch = []
        for i in range(len(db), size):
            picks = rng.integers(0, POOL, STEPS + 1)
            batch.append(
                TaskRecord(
                    task_id=f"sweep_{i:05d}",
                    iteration=iteration,
                    goal_text="Put the mug on the table",
                    goal_embedding=pool[picks[0]],
                    obs_embeddings=[pool[j] for j in picks[1:]],
                    history=history,
                    done=False,
                )
            )
        db.update_after_iteration(batch)
        query = RetrievalQuery(rng.standard_normal(DIMENSION), rng.standard_normal(DIMENSION))
        repeats = max(3, min(20, 2000 // size))
        results[f"sweep.retrieve_top_k.n{size}_ms"] = _median_ms(
            lambda: db.retrieve_top_k(query, 3), repeats
        )
    return results


def _world(objects: int, seed: int):
    from prag.gridworld.world import KINDS, World

    rng = random.Random(seed)
    side = max(7, int((objects * 2) ** 0.5) + 3)
    walls = frozenset(
        (x, y) for x in range(side) for y in range(side) if x in (0, side - 1) or y in (0, side - 1)
    )
    world = World(side, side, walls=walls, agent_position=(1, 1))
    landmarks = sorted(k for k, v in KINDS.items() if v.landmark)
    portables = sorted(k for k, v in KINDS.items() if not v.landmark)
    free = [(x, y) for x in range(1, side - 1) for y in range(1, side - 1) if (x, y) != (1, 1)]
    rng.shuffle(free)
    n_landmarks = objects // 3
    for i in range(n_landmarks):
        world.place_object(f"{landmarks[i % len(landmarks)]}_{i}", landmarks[i % len(landmarks)], free[i])
    placed = 0
    while placed < objects - n_landmarks:
        kind = portables[placed % len(portables)]
        try:
            world.place_object(f"{kind}_{placed}", kind, rng.choice(free))
        except ValueError:
            continue
        placed += 1
    return world


def scene_sweep(seed: int) -> dict[str, float]:
    import prag.agent as agent

    extract = getattr(agent, "extract", None)
    render_text = getattr(agent, "render_text", None)
    if extract is None or render_text is None:
        return {}
    results = {}
    for objects in OBJECT_COUNTS:
        observation = _world(objects, seed).observe()
        repeats = max(5, 3000 // (objects * objects))
        results[f"sweep.scene_graph.o{objects}_ms"] = _median_ms(
            lambda: render_text(extract(observation)), repeats
        )
    return results


def roadmap_figure(metric: str) -> str:
    """The ROADMAP baseline beside which a sweep figure is printed."""
    kind, point = metric.split(".")[1], metric.split(".")[2]
    size = int(point[1:].split("_")[0])
    if kind == "retrieve_top_k":
        if size in ROADMAP_RETRIEVAL_MS:
            return f"{ROADMAP_RETRIEVAL_MS[size]:g} ms"
        per_record = ROADMAP_RETRIEVAL_MS[1000] / 1000
        return f"~{per_record * size:g} ms (80 ms at 1k, 500 ms at 5k, scaled)"
    return f"{ROADMAP_SCENE_MS[size]:g} ms"


def main() -> None:
    seed, path = int(sys.argv[1]), Path(sys.argv[2])
    results = {}
    results.update(retrieval_sweep(seed))
    results.update(scene_sweep(seed))
    path.write_text(json.dumps(results), encoding="utf-8")


if __name__ == "__main__":
    main()
