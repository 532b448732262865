"""Retrieval database tests: scoring oracle, top-k order, policy, persistence."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
import tempfile
import tracemalloc
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prag.embedding import HashingEncoder
from prag.prompting import _render_experience_body
from prag.trajectory_db import (
    DatabaseFormatError,
    RetrievalMemo,
    RetrievalQuery,
    TaskRecord,
    TrajectoryDB,
    _read_record,
    _UsedColumns,
    score,
)

from tests.conftest import MISTYPED_STORE_FIELDS, write_mistyped_store


def reference_cosine(a, b) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def reference_score(query: RetrievalQuery, record: TaskRecord) -> float:
    goal = reference_cosine(query.goal_embedding.tolist(), record.goal_embedding.tolist())
    best = max(
        reference_cosine(query.obs_embedding.tolist(), step.tolist())
        for step in record.obs_embeddings
    )
    return goal + best


def make_record(
    rng: random.Random,
    task_id: str,
    dimension: int = 8,
    iteration: int = 1,
    done: bool = False,
    steps: int | None = None,
) -> TaskRecord:
    steps = steps if steps is not None else rng.randint(1, 4)
    def vec():
        return np.array([rng.uniform(-1, 1) for _ in range(dimension)])
    return TaskRecord(
        task_id=task_id,
        iteration=iteration,
        goal_text=f"goal for {task_id}",
        goal_embedding=vec(),
        obs_embeddings=tuple(vec() for _ in range(steps)),
        history=tuple((f"pickup(x_{i})", f"x_{i}/y/next_to: True") for i in range(steps)),
        done=done,
    )


def make_query(rng: random.Random, dimension: int = 8) -> RetrievalQuery:
    vec = lambda: np.array([rng.uniform(-1, 1) for _ in range(dimension)])
    return RetrievalQuery(goal_embedding=vec(), obs_embedding=vec())


class TestScore:
    def test_matches_reference_on_random_pairs(self):
        rng = random.Random(7)
        for index in range(300):
            record = make_record(rng, f"task_{index}")
            query = make_query(rng)
            assert score(query, record) == pytest.approx(
                reference_score(query, record), abs=1e-12
            )

    def test_identical_embeddings_score_two(self):
        rng = random.Random(1)
        record = make_record(rng, "t", steps=3)
        query = RetrievalQuery(record.goal_embedding, record.obs_embeddings[1])
        assert score(query, record) == pytest.approx(2.0, abs=1e-12)

    def test_max_over_steps_not_sum(self):
        dim = 4
        goal = np.array([1.0, 0.0, 0.0, 0.0])
        record = TaskRecord(
            task_id="t",
            iteration=1,
            goal_text="g",
            goal_embedding=goal,
            obs_embeddings=(
                np.array([0.0, 1.0, 0.0, 0.0]),
                np.array([0.0, -1.0, 0.0, 0.0]),
            ),
            history=(("a()", "o"), ("b()", "o")),
            done=False,
        )
        query = RetrievalQuery(goal, np.array([0.0, 1.0, 0.0, 0.0]))
        # goal cosine 1.0, best step cosine 1.0 (not 1.0 + (-1.0)).
        assert score(query, record) == pytest.approx(2.0, abs=1e-12)


def brute_force(db, query, k):
    scored = [(score(query, r), r) for r in db.records()]
    scored.sort(key=lambda pair: (-pair[0], -pair[1].iteration, pair[1].task_id))
    return scored[:k]


def assert_reference_hits(db, query, k, hits):
    """The hits are ``brute_force``'s, each score with the ``repr`` of ``score``'s."""
    assert [(h.record.task_id, repr(h.score)) for h in hits] == [
        (r.task_id, repr(s)) for s, r in brute_force(db, query, k)
    ]


class TestRetrieveTopK:
    def test_matches_brute_force_order(self):
        rng = random.Random(11)
        for trial in range(30):
            db = TrajectoryDB(dimension=8)
            count = rng.randint(1, 12)
            batch = [make_record(rng, f"task_{i:02d}") for i in range(count)]
            db.update_after_iteration(batch)
            query = make_query(rng)
            k = rng.randint(1, count + 2)
            hits = db.retrieve_top_k(query, k)
            expected = brute_force(db, query, k)
            assert [h.record.task_id for h in hits] == [r.task_id for _, r in expected]
            for hit, (expected_score, _) in zip(hits, expected):
                assert hit.score == pytest.approx(expected_score, abs=1e-12)

    def test_k_larger_than_db_returns_all(self):
        rng = random.Random(3)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration([make_record(rng, f"t{i}") for i in range(3)])
        assert len(db.retrieve_top_k(make_query(rng), 10)) == 3

    def test_tie_breaks_higher_iteration_then_task_id(self):
        dim = 4
        goal = np.array([1.0, 0.0, 0.0, 0.0])
        obs = np.array([0.0, 1.0, 0.0, 0.0])

        def record(task_id, iteration):
            return TaskRecord(
                task_id=task_id,
                iteration=iteration,
                goal_text="g",
                goal_embedding=goal.copy(),
                obs_embeddings=(obs.copy(),),
                history=(("a()", "o"),),
                done=False,
            )

        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration([record("zeta", 1), record("alpha", 1)])
        db.update_after_iteration([record("mid", 2)])
        query = RetrievalQuery(goal, obs)
        hits = db.retrieve_top_k(query, 3)
        # All scores tie at 2.0: iteration 2 first, then lexicographic ids.
        assert [h.record.task_id for h in hits] == ["mid", "alpha", "zeta"]

    def test_invalid_k_raises(self):
        db = TrajectoryDB(dimension=8)
        with pytest.raises(ValueError):
            db.retrieve_top_k(make_query(random.Random(0)), 0)

    @pytest.mark.parametrize("k", [True, False, 2.5, "3", None, -1], ids=repr)
    def test_k_must_be_a_positive_integer(self, k):
        rng = random.Random(4)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration([make_record(rng, "t0"), make_record(rng, "t1")])
        for store in (db, TrajectoryDB(dimension=8)):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                store.retrieve_top_k(make_query(rng), k)

    @pytest.mark.parametrize("dimension", [True, False, 2.5, "3", 0, -4], ids=repr)
    def test_dimension_must_be_a_positive_integer(self, dimension):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            TrajectoryDB(dimension=dimension)

    def test_a_store_takes_an_integer_dimension_or_none(self):
        assert TrajectoryDB(dimension=3).dimension == 3
        assert TrajectoryDB().dimension is None


def random_record(gen: np.random.Generator, task_id: str, dimension: int, iteration: int = 1):
    steps = int(gen.integers(1, 5))
    return TaskRecord(
        task_id=task_id,
        iteration=iteration,
        goal_text=f"goal for {task_id}",
        goal_embedding=gen.uniform(-1, 1, dimension),
        obs_embeddings=tuple(gen.uniform(-1, 1, dimension) for _ in range(steps)),
        history=tuple(("done()", "") for _ in range(steps)),
        done=False,
    )


class TestMatrixScan:
    """retrieve_top_k scores all records at once; ``score`` is the reference."""

    @pytest.mark.parametrize("rows", [3, 5, 7, 13, 1001])
    def test_duplicates_score_bit_identically_at_any_row(self, rows):
        dim = 384
        gen = np.random.default_rng(rows)
        twin = random_record(gen, "twin", dim)
        # Task ids fix the rows: the copies land on the first row, the last
        # row and row 1 or 5, neither a multiple of 4.
        middle = 1 if rows < 7 else 5
        copies = {0: ("a_first", 1), middle: ("m_middle", 2), rows - 1: ("z_last", 1)}
        batches: dict[int, list[TaskRecord]] = {1: [], 2: []}
        for row in range(rows):
            if row in copies:
                task_id, iteration = copies[row]
                batches[iteration].append(
                    TaskRecord(
                        task_id=task_id,
                        iteration=iteration,
                        goal_text=twin.goal_text,
                        goal_embedding=twin.goal_embedding.copy(),
                        obs_embeddings=tuple(v.copy() for v in twin.obs_embeddings),
                        history=twin.history,
                        done=False,
                    )
                )
            else:
                batches[1].append(random_record(gen, f"filler_{row:04d}", dim))
        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration(batches[1])
        db.update_after_iteration(batches[2])
        assert [r.task_id for r in db.records()].index("z_last") == rows - 1
        query = RetrievalQuery(twin.goal_embedding * 0.5, twin.obs_embeddings[-1] * 3.0)
        hits = db.retrieve_top_k(query, 3)
        assert [h.record.task_id for h in hits] == ["m_middle", "a_first", "z_last"]
        assert hits[0].score == hits[1].score == hits[2].score
        assert hits[0].score == pytest.approx(score(query, twin), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_ties_between_distinct_vectors_keep_reference_order(self, seed):
        # Each step vector permutes one set of integer counts over the
        # coordinates where the query is constant, so every record ties
        # exactly; summing in another order can still move the last bit.
        dim = 384
        gen = np.random.default_rng(seed)
        support = gen.choice(dim, 60, replace=False)
        query_vec = np.zeros(dim)
        query_vec[support] = 1.0
        counts = gen.integers(-3, 4, size=60).astype(np.float64)
        records = []
        for i in range(40):
            step = np.zeros(dim)
            step[gen.permutation(support)] = counts
            records.append(
                TaskRecord(
                    task_id=f"t{i:03d}",
                    iteration=1,
                    goal_text="g",
                    goal_embedding=query_vec / math.sqrt(60),
                    obs_embeddings=(step / np.linalg.norm(step),),
                    history=(("done()", ""),),
                    done=False,
                )
            )
        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration(records)
        query = RetrievalQuery(query_vec, query_vec)
        assert_reference_hits(db, query, 3, db.retrieve_top_k(query, 3))

    def test_zero_vectors_score_zero(self):
        dim = 8
        zero = np.zeros(dim)
        unit = np.eye(dim)[0]

        def record(task_id, goal, steps):
            return TaskRecord(
                task_id=task_id,
                iteration=1,
                goal_text="g",
                goal_embedding=goal,
                obs_embeddings=steps,
                history=tuple(("done()", "") for _ in steps),
                done=False,
            )

        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration(
            [
                record("all_zero", zero, (zero,)),
                record("zero_goal", zero, (zero, unit)),
                record("zero_step", unit, (zero,)),
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            query = RetrievalQuery(unit, unit)
            hits = db.retrieve_top_k(query, 3)
            by_id = {h.record.task_id: h.score for h in hits}
            assert by_id == {"all_zero": 0.0, "zero_goal": 1.0, "zero_step": 1.0}
            assert_reference_hits(db, query, 3, hits)
            query = RetrievalQuery(zero, zero)
            hits = db.retrieve_top_k(query, 3)
            assert [h.score for h in hits] == [0.0, 0.0, 0.0]
            assert [h.record.task_id for h in hits] == ["all_zero", "zero_goal", "zero_step"]
            assert_reference_hits(db, query, 3, hits)

    def test_index_follows_updates(self):
        rng = random.Random(31)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration([make_record(rng, f"t{i}") for i in range(4)])
        query = make_query(rng)
        assert "new" not in [h.record.task_id for h in db.retrieve_top_k(query, 5)]
        exact = TaskRecord(
            task_id="new",
            iteration=2,
            goal_text="g",
            goal_embedding=query.goal_embedding,
            obs_embeddings=(query.obs_embedding,),
            history=(("done()", ""),),
            done=False,
        )
        replaced = make_record(rng, "t0", iteration=2)
        db.update_after_iteration([exact, replaced])
        hits = db.retrieve_top_k(query, 5)
        assert hits[0].record is exact
        assert next(h for h in hits if h.record.task_id == "t0").record is replaced
        assert [h.record.task_id for h in hits] == [
            r.task_id for _, r in brute_force(db, query, 5)
        ]

    def test_retrieval_after_reload_equals_live_store(self, tmp_path):
        rng = random.Random(32)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration([make_record(rng, f"t{i}") for i in range(6)])
        db.update_after_iteration([make_record(rng, f"t{i}", iteration=2) for i in range(3, 9)])
        queries = [make_query(rng) for _ in range(5)]
        live = [db.retrieve_top_k(q, 4) for q in queries]
        path = tmp_path / "db.jsonl"
        db.save(path)
        loaded = TrajectoryDB.load(path)
        for query, expected in zip(queries, live):
            hits = loaded.retrieve_top_k(query, 4)
            assert [(h.record.task_id, h.record.iteration, h.score) for h in hits] == [
                (h.record.task_id, h.record.iteration, h.score) for h in expected
            ]

    def test_empty_store_returns_nothing(self):
        query = make_query(random.Random(0))
        assert TrajectoryDB().retrieve_top_k(query, 3) == []
        assert TrajectoryDB(dimension=8).retrieve_top_k(query, 3) == []

    def test_query_dimension_must_match(self):
        rng = random.Random(33)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration([make_record(rng, "t0")])
        with pytest.raises(ValueError, match="dimension"):
            db.retrieve_top_k(make_query(rng, dimension=4), 1)


_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 1e-3),
)


@st.composite
def sparse_vector(draw, dimension: int, columns: list[int]) -> np.ndarray:
    """Values on a drawn subset of ``columns``; the subset may be empty."""
    vector = np.zeros(dimension)
    if columns:
        for column in draw(st.lists(st.sampled_from(columns), unique=True)):
            vector[column] = draw(_VALUES)
    return vector


@st.composite
def stores_and_queries(draw):
    """A store whose records use few columns, or every column, and a query
    free to put mass on any column."""
    dimension = draw(st.integers(1, 24))
    everything = list(range(dimension))
    dense = draw(st.booleans())
    store_columns = everything if dense else draw(
        st.lists(st.sampled_from(everything), unique=True, max_size=dimension // 2 + 1)
    )

    def stored_vector():
        if dense and draw(st.booleans()):
            return np.array(draw(st.lists(_VALUES, min_size=dimension, max_size=dimension)))
        return draw(sparse_vector(dimension, store_columns))

    batches: dict[int, list[TaskRecord]] = {1: [], 2: []}
    for i in range(draw(st.integers(1, 8))):
        steps = draw(st.integers(1, 3))
        iteration = draw(st.sampled_from((1, 2)))
        batches[iteration].append(
            TaskRecord(
                task_id=f"t{i}",
                iteration=iteration,
                goal_text="g",
                goal_embedding=stored_vector(),
                obs_embeddings=tuple(stored_vector() for _ in range(steps)),
                history=tuple(("done()", "") for _ in range(steps)),
                done=False,
            )
        )
    db = TrajectoryDB(dimension=dimension)
    db.update_after_iteration(batches[1])
    db.update_after_iteration(batches[2])
    query = RetrievalQuery(
        draw(sparse_vector(dimension, everything)), draw(sparse_vector(dimension, everything))
    )
    return db, query, draw(st.integers(1, len(db) + 1))


class TestUsedColumns:
    """The index keeps only the columns some stored vector uses."""

    @given(stores_and_queries())
    @settings(max_examples=200, deadline=None)
    def test_hits_equal_brute_force(self, case):
        db, query, k = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = db.retrieve_top_k(query, k)
        assert_reference_hits(db, query, k, hits)

    def test_query_mass_on_unused_columns_counts_in_its_norm(self):
        unit = np.eye(4)

        def record(task_id, goal, step):
            return TaskRecord(
                task_id=task_id,
                iteration=1,
                goal_text="g",
                goal_embedding=goal,
                obs_embeddings=(step,),
                history=(("done()", ""),),
                done=False,
            )

        db = TrajectoryDB(dimension=4)
        db.update_after_iteration(
            [
                record("matching_step", np.zeros(4), unit[1]),
                record("matching_goal", unit[0], unit[1] + unit[3]),
            ]
        )
        # No stored goal uses column 2. Counted in the query's norm, its mass
        # shrinks every goal term to 1/sqrt(101), so the exact step match wins.
        query = RetrievalQuery(unit[0] + 10.0 * unit[2], unit[1])
        hits = db.retrieve_top_k(query, 1)
        assert [(h.record.task_id, h.score) for h in hits] == [
            (r.task_id, s) for s, r in brute_force(db, query, 1)
        ]
        assert hits[0].record.task_id == "matching_step"

    def test_index_is_as_wide_as_the_used_columns(self):
        dim = 384
        gen = np.random.default_rng(41)
        goal_columns = gen.choice(dim, 12, replace=False)
        step_columns = gen.choice(dim, 20, replace=False)
        records = []
        for i in range(50):
            goal = np.zeros(dim)
            goal[gen.choice(goal_columns, 4, replace=False)] = 1.0
            steps = []
            for _ in range(3):
                step = np.zeros(dim)
                step[gen.choice(step_columns, 5, replace=False)] = gen.integers(1, 4, 5)
                steps.append(step)
            records.append(
                TaskRecord(
                    task_id=f"t{i:02d}",
                    iteration=1,
                    goal_text="g",
                    goal_embedding=goal,
                    obs_embeddings=tuple(steps),
                    history=tuple(("done()", "") for _ in steps),
                    done=False,
                )
            )
        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration(records)
        db.retrieve_top_k(RetrievalQuery(np.ones(dim), np.ones(dim)), 3)
        used_goal = np.flatnonzero(np.any([r.goal_embedding for r in records], axis=0))
        used_step = np.flatnonzero(
            np.any([v for r in records for v in r.obs_embeddings], axis=0)
        )
        assert db._index.goals.matrix.shape == (50, used_goal.size)
        assert db._index.observations.matrix.shape == (150, used_step.size)
        assert used_goal.size <= 12 and used_step.size <= 20

    def test_update_with_new_columns_widens_the_index(self):
        dim = 16
        unit = np.eye(dim)

        def record(task_id, iteration, vector):
            return TaskRecord(
                task_id=task_id,
                iteration=iteration,
                goal_text="g",
                goal_embedding=vector,
                obs_embeddings=(vector,),
                history=(("done()", ""),),
                done=False,
            )

        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration([record(f"old_{i}", 1, unit[i]) for i in range(3)])
        query = RetrievalQuery(unit[9], unit[9] + unit[0])
        assert [h.record.task_id for h in db.retrieve_top_k(query, 1)] == ["old_0"]
        # Column 9 was unused when the index was first built; the new record
        # wins only if the rebuilt index scores it.
        db.update_after_iteration([record("new", 2, unit[9])])
        hits = db.retrieve_top_k(query, 1)
        assert [h.record.task_id for h in hits] == ["new"]
        assert hits[0].score == score(query, db.get("new")) > 1.0


def count_vector(gen: np.random.Generator, dimension: int, columns: np.ndarray) -> np.ndarray:
    """Small integer counts on a few of ``columns``; one vector in six is zero."""
    vector = np.zeros(dimension)
    if gen.integers(6):
        picked = gen.choice(columns, int(gen.integers(1, min(4, columns.size) + 1)), replace=False)
        vector[picked] = gen.integers(-2, 3, picked.size)
    return vector


def count_store(seed: int) -> tuple[TrajectoryDB, list[RetrievalQuery]]:
    """Records of 1-12 integer-count steps over few columns, so exact ties
    abound, with zero goals and zero steps; queries also put mass on
    columns no stored vector uses."""
    dimension = 48
    gen = np.random.default_rng(seed)
    goal_columns = gen.choice(dimension, 6, replace=False)
    step_columns = gen.choice(dimension, 8, replace=False)
    batches: dict[int, list[TaskRecord]] = {1: [], 2: [], 3: []}
    for i in range(int(gen.integers(5, 30))):
        steps = 1 + i % 12
        iteration = int(gen.integers(1, 4))
        batches[iteration].append(
            TaskRecord(
                task_id=f"t{i:02d}",
                iteration=iteration,
                goal_text="g",
                goal_embedding=count_vector(gen, dimension, goal_columns),
                obs_embeddings=[count_vector(gen, dimension, step_columns) for _ in range(steps)],
                history=[("done()", "")] * steps,
                done=False,
            )
        )
    db = TrajectoryDB(dimension=dimension)
    for batch in batches.values():
        db.update_after_iteration(batch)
    everywhere = np.arange(dimension)
    queries = [
        RetrievalQuery(
            count_vector(gen, dimension, goal_columns if q % 2 else everywhere),
            count_vector(gen, dimension, step_columns if q % 3 else everywhere),
        )
        for q in range(12)
    ]
    return db, queries


class TestSeededRetrieval:
    """Hits equal ``brute_force``: ids, order and the ``repr`` of each score."""

    @pytest.mark.parametrize("seed", range(12))
    def test_integer_count_stores_for_every_k(self, seed):
        db, queries = count_store(seed)
        assert {len(r.obs_embeddings) for r in db.records()} <= set(range(1, 13))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for query in queries:
                for k in range(1, len(db) + 3):
                    assert_reference_hits(db, query, k, db.retrieve_top_k(query, k))

    def test_records_of_one_to_twelve_steps_find_their_best_step(self):
        # Each record's matching step sits last, at a different depth.
        dim = 16
        unit = np.eye(dim)
        records = [
            TaskRecord(
                task_id=f"steps_{n:02d}",
                iteration=1,
                goal_text="g",
                goal_embedding=unit[0],
                obs_embeddings=[unit[1]] * (n - 1) + [unit[1] + n * unit[2]],
                history=[("done()", "")] * n,
                done=False,
            )
            for n in range(1, 13)
        ]
        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration(records)
        query = RetrievalQuery(unit[0], unit[2])
        hits = db.retrieve_top_k(query, 12)
        assert [h.record.task_id for h in hits] == [f"steps_{n:02d}" for n in range(12, 0, -1)]
        assert_reference_hits(db, query, 12, hits)

    @pytest.mark.parametrize("seed", range(3))
    def test_steps_tied_up_to_rounding_keep_the_reference_best(self, seed):
        # Multiples of one vector have equal cosines in exact arithmetic, so
        # rounding alone picks the best step, and the scan's rounding can
        # pick another one than ``cosine``'s.
        dim = 24
        gen = np.random.default_rng(seed)
        records = []
        for i in range(20):
            step = gen.uniform(-1, 1, dim)
            records.append(
                TaskRecord(
                    task_id=f"t{i:02d}",
                    iteration=1,
                    goal_text="g",
                    goal_embedding=gen.uniform(-1, 1, dim),
                    obs_embeddings=[step * scale for scale in gen.uniform(0.1, 10.0, 12)],
                    history=[("done()", "")] * 12,
                    done=False,
                )
            )
        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration(records)
        for _ in range(3):
            query = RetrievalQuery(gen.uniform(-1, 1, dim), gen.uniform(-1, 1, dim))
            assert_reference_hits(db, query, len(db), db.retrieve_top_k(query, len(db)))

    def test_a_repeated_query_returns_equal_hits(self):
        db, queries = count_store(3)
        first = db.retrieve_top_k(queries[0], 4)
        first_hits = [(h.record, repr(h.score)) for h in first]
        first.clear()  # the caller's list is its own
        again = RetrievalQuery(queries[0].goal_embedding.copy(), queries[0].obs_embedding.copy())
        assert [(h.record, repr(h.score)) for h in db.retrieve_top_k(again, 4)] == first_hits
        assert len(db.retrieve_top_k(again, 1)) == 1
        assert_reference_hits(db, again, 4, db.retrieve_top_k(again, 4))

    def test_a_query_repeated_after_an_update_sees_the_new_store(self):
        db, queries = count_store(5)
        query = next(q for q in queries if q.goal_embedding.any() and q.obs_embedding.any())
        assert "exact" not in [h.record.task_id for h in db.retrieve_top_k(query, 3)]
        # A perfect match from a later iteration than any stored record.
        exact = TaskRecord(
            task_id="exact",
            iteration=4,
            goal_text="g",
            goal_embedding=query.goal_embedding,
            obs_embeddings=[query.obs_embedding],
            history=[("done()", "")],
            done=False,
        )
        db.update_after_iteration([exact])
        hits = db.retrieve_top_k(query, 3)
        assert hits[0].record is exact
        assert_reference_hits(db, query, 3, hits)


def episode_store(seed: int) -> tuple[TrajectoryDB, list[np.ndarray], list[np.ndarray]]:
    """A store whose goals repeat, as a suite's goal texts do, and signed
    hashed-style vectors, so cosines run negative; one step in eight and one
    scene in six is zero. Returns the store, goals to ask with (stored ones,
    a fresh one and zero) and scenes (stored steps among them)."""
    dimension = 64
    gen = np.random.default_rng(seed)
    columns = gen.choice(dimension, 12, replace=False)

    def signed(zero_odds: int) -> np.ndarray:
        vector = np.zeros(dimension)
        if gen.integers(zero_odds):
            picked = gen.choice(columns, int(gen.integers(1, 6)), replace=False)
            vector[picked] = gen.choice([-2.0, -1.0, 1.0, 2.0], picked.size)
        return vector

    goals = [signed(1000) for _ in range(4)]
    batches: dict[int, list[TaskRecord]] = {1: [], 2: []}
    for i in range(int(gen.integers(20, 60))):
        steps = int(gen.integers(1, 8))
        iteration = int(gen.integers(1, 3))
        batches[iteration].append(
            TaskRecord(
                task_id=f"t{i:02d}",
                iteration=iteration,
                goal_text="g",
                goal_embedding=goals[int(gen.integers(len(goals)))],
                obs_embeddings=[signed(8) for _ in range(steps)],
                history=[("done()", "")] * steps,
                done=False,
            )
        )
    db = TrajectoryDB(dimension=dimension)
    for batch in batches.values():
        db.update_after_iteration(batch)
    stored = [v for r in db.records() for v in r.obs_embeddings]
    scenes = [stored[int(gen.integers(len(stored)))] for _ in range(4)]
    scenes += [signed(6) for _ in range(4)] + [np.zeros(dimension)]
    return db, [*goals[:2], signed(1000), np.zeros(dimension)], scenes


class TestRetrievalMemo:
    """An episode's queries through one memo give ``brute_force``'s hits."""

    @pytest.mark.parametrize("seed", range(10))
    def test_an_episode_of_queries_matches_brute_force(self, seed):
        db, goals, scenes = episode_store(seed)
        gen = np.random.default_rng(100 + seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for goal in goals:
                memo = RetrievalMemo()
                # Scenes come back, each time with another k or the same one.
                for _ in range(3 * len(scenes)):
                    query = RetrievalQuery(goal, scenes[int(gen.integers(len(scenes)))])
                    k = int(gen.choice([1, 2, 3, len(db) - 1, len(db), len(db) + 2]))
                    assert_reference_hits(db, query, k, db.retrieve_top_k(query, k, memo=memo))

    def test_a_scene_asked_again_with_another_k_gets_its_own_hits(self):
        db, goals, scenes = episode_store(1)
        memo = RetrievalMemo()
        query = RetrievalQuery(goals[0], scenes[0])
        assert len(db.retrieve_top_k(query, 1, memo=memo)) == 1
        hits = db.retrieve_top_k(query, 3, memo=memo)
        assert_reference_hits(db, query, 3, hits)
        hits.clear()  # the caller's list is its own
        assert len(db.retrieve_top_k(query, 3, memo=memo)) == 3

    def test_a_larger_k_scans_past_the_records_an_earlier_query_needed(self):
        # The first query needs only the two records of the query's goal.
        # The second asks for three hits, and the third is far below both.
        dim = 8
        unit = np.eye(dim)

        def record(task_id, goal, step):
            return TaskRecord(
                task_id=task_id,
                iteration=1,
                goal_text="g",
                goal_embedding=goal,
                obs_embeddings=[step],
                history=[("done()", "")],
                done=False,
            )

        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration(
            [
                record("a", unit[0], unit[1]),
                record("b", unit[0], unit[1] + unit[2]),
                *(record(f"far{i}", -unit[0] + unit[3 + i], -unit[1]) for i in range(5)),
            ]
        )
        memo = RetrievalMemo()
        first = RetrievalQuery(unit[0], unit[1])
        assert_reference_hits(db, first, 1, db.retrieve_top_k(first, 1, memo=memo))
        second = RetrievalQuery(unit[0], unit[1] + unit[2])
        hits = db.retrieve_top_k(second, 3, memo=memo)
        assert len(hits) == 3
        assert_reference_hits(db, second, 3, hits)

    def test_the_memo_starts_over_when_the_store_changes(self):
        db, goals, scenes = episode_store(2)
        memo = RetrievalMemo()
        query = RetrievalQuery(goals[0], scenes[5])
        assert_reference_hits(db, query, 3, db.retrieve_top_k(query, 3, memo=memo))
        exact = TaskRecord(
            task_id="exact",
            iteration=3,
            goal_text="g",
            goal_embedding=query.goal_embedding,
            obs_embeddings=[query.obs_embedding],
            history=[("done()", "")],
            done=False,
        )
        db.update_after_iteration([exact])
        hits = db.retrieve_top_k(query, 3, memo=memo)
        assert hits[0].record is exact
        assert_reference_hits(db, query, 3, hits)

    def test_the_memo_starts_over_when_the_goal_changes(self):
        db, goals, scenes = episode_store(3)
        memo = RetrievalMemo()
        for goal in (goals[0], goals[1], goals[0]):
            query = RetrievalQuery(goal, scenes[0])
            assert_reference_hits(db, query, 3, db.retrieve_top_k(query, 3, memo=memo))

    @pytest.mark.parametrize("seed", range(8))
    def test_ties_that_straddle_the_bound_keep_the_reference_hits(self, seed):
        # The records with the query's goal score 1 + c over their step, and
        # the others c + 1 over their goal, where every c is one ratio of
        # permuted integer counts: tied in exact arithmetic, while rounding
        # sets each record's goal term plus 1 just above or just below the
        # k-th best that the first records give. The later records win ties.
        dim = 96
        gen = np.random.default_rng(seed)
        support = gen.choice(dim, 48, replace=False)
        flat = np.zeros(dim)
        flat[support] = 1.0
        counts = gen.integers(-3, 6, size=48).astype(np.float64)

        def permuted() -> np.ndarray:
            vector = np.zeros(dim)
            vector[gen.permutation(support)] = counts
            return vector

        records = [
            TaskRecord(
                task_id=f"a{i:02d}",
                iteration=1,
                goal_text="g",
                goal_embedding=flat,
                obs_embeddings=[permuted()],
                history=[("done()", "")],
                done=False,
            )
            for i in range(4)
        ]
        later = [
            TaskRecord(
                task_id=f"b{i:02d}",
                iteration=2,
                goal_text="g",
                goal_embedding=permuted(),
                obs_embeddings=[flat * 2.0],
                history=[("done()", "")],
                done=False,
            )
            for i in range(40)
        ]
        db = TrajectoryDB(dimension=dim)
        db.update_after_iteration(records)
        db.update_after_iteration(later)
        query = RetrievalQuery(flat * 3.0, flat)
        for k in (1, 2, 3, 4):
            assert_reference_hits(db, query, k, db.retrieve_top_k(query, k))


def near_tie_store(seed: int) -> tuple[TrajectoryDB, list[RetrievalQuery]]:
    """Dense 384-column records and queries, each one of three base vectors
    moved by about 1e-6, so their cosines differ by about as much as float32
    rounds a 384-term dot product."""
    dim = 384
    gen = np.random.default_rng(seed)
    bases = gen.uniform(-1, 1, (3, dim))

    def near(base: int) -> np.ndarray:
        return bases[base] + gen.uniform(-1e-6, 1e-6, dim)

    batches: dict[int, list[TaskRecord]] = {1: [], 2: []}
    for i in range(30):
        steps = int(gen.integers(1, 6))
        batches[1 + i % 2].append(
            TaskRecord(
                task_id=f"t{i:02d}",
                iteration=1 + i % 2,
                goal_text="g",
                goal_embedding=near(int(gen.integers(2))),
                obs_embeddings=[near(int(gen.integers(3))) for _ in range(steps)],
                history=[("done()", "")] * steps,
                done=False,
            )
        )
    db = TrajectoryDB(dimension=dim)
    for batch in batches.values():
        db.update_after_iteration(batch)
    goal = near(0)
    return db, [RetrievalQuery(goal, near(q % 3)) for q in range(10)]


class TestFloat32Scan:
    """The float32 scan selects candidates; ``score`` still decides every hit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_near_ties_match_brute_force(self, seed):
        db, queries = near_tie_store(seed)
        memo = RetrievalMemo()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for query in queries:
                for k in range(1, 8):
                    assert_reference_hits(db, query, k, db.retrieve_top_k(query, k, memo=memo))

    @pytest.mark.parametrize("scale", [1e-30, 1e30], ids=repr)
    def test_vectors_past_float32s_range_match_brute_force(self, scale):
        # Every other record is scaled so far that its squares leave
        # float32's range: rows are divided by their norms before they are
        # rounded to float32.
        db, queries = count_store(4)
        scaled = TrajectoryDB(dimension=db.dimension)
        for iteration in (1, 2, 3):
            scaled.update_after_iteration(
                [
                    TaskRecord(
                        task_id=r.task_id,
                        iteration=r.iteration,
                        goal_text=r.goal_text,
                        goal_embedding=r.goal_embedding * factor,
                        obs_embeddings=r.obs_embeddings * factor,
                        history=r.history,
                        done=r.done,
                    )
                    for factor, r in zip([scale, 1.0] * len(db), db.records())
                    if r.iteration == iteration
                ]
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for query in queries:
                for k in (1, 3, len(db)):
                    assert_reference_hits(scaled, query, k, scaled.retrieve_top_k(query, k))

    def test_a_dense_index_is_float32_with_its_derived_margin(self):
        db, queries = near_tie_store(0)
        db.retrieve_top_k(queries[0], 1)
        index = db._index
        assert index.observations.matrix.dtype == np.float32
        assert index.observations.columns.size == 384
        # (384 + 5) float32 roundings, twice: about 4.6e-5.
        assert 4.6e-5 < index.observations.margin < 4.7e-5
        assert index.margin == index.goals.margin + index.observations.margin


class TestUpdatePolicy:
    def test_latest_iteration_wins(self):
        rng = random.Random(9)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration([make_record(rng, "t", iteration=1, done=False)])
        db.update_after_iteration([make_record(rng, "t", iteration=2, done=False)])
        (stored,) = db.records()
        assert stored.iteration == 2

    def test_done_never_downgrades(self):
        rng = random.Random(10)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration([make_record(rng, "t", iteration=1, done=True)])
        db.update_after_iteration([make_record(rng, "t", iteration=2, done=False)])
        (stored,) = db.records()
        assert stored.done is True
        assert stored.iteration == 1

    def test_done_record_may_be_replaced_by_newer_done(self):
        rng = random.Random(12)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration([make_record(rng, "t", iteration=1, done=True)])
        db.update_after_iteration([make_record(rng, "t", iteration=2, done=True)])
        (stored,) = db.records()
        assert stored.iteration == 2

    def test_batch_must_share_iteration(self):
        rng = random.Random(13)
        db = TrajectoryDB(dimension=8)
        with pytest.raises(ValueError):
            db.update_after_iteration(
                [make_record(rng, "a", iteration=1), make_record(rng, "b", iteration=2)]
            )

    def test_batch_rejects_duplicate_task_ids(self):
        rng = random.Random(14)
        db = TrajectoryDB(dimension=8)
        with pytest.raises(ValueError):
            db.update_after_iteration([make_record(rng, "a"), make_record(rng, "a")])

    def test_rejected_dimension_leaves_the_store_unchanged(self):
        rng = random.Random(16)
        db = TrajectoryDB(dimension=4)
        db.update_after_iteration([make_record(rng, "kept", dimension=4)])
        kept = db.get("kept")
        with pytest.raises(ValueError, match="dimension 5"):
            db.update_after_iteration(
                [
                    make_record(rng, "a", dimension=4, iteration=2),
                    make_record(rng, "kept", dimension=4, iteration=2),
                    make_record(rng, "b", dimension=5, iteration=2),
                ]
            )
        assert [r.task_id for r in db.records()] == ["kept"]
        assert db.get("kept") is kept
        assert db.dimension == 4

    def test_rejected_batch_leaves_an_empty_store_without_a_dimension(self):
        rng = random.Random(17)
        db = TrajectoryDB()
        with pytest.raises(ValueError, match="dimension 5"):
            db.update_after_iteration(
                [make_record(rng, "a", dimension=4), make_record(rng, "b", dimension=5)]
            )
        assert len(db) == 0
        assert db.dimension is None
        db.update_after_iteration([make_record(rng, "c", dimension=5)])
        assert db.dimension == 5

    def test_one_record_per_task(self):
        rng = random.Random(15)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration([make_record(rng, "a"), make_record(rng, "b")])
        db.update_after_iteration([make_record(rng, "a", iteration=2)])
        assert len(db) == 2


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = random.Random(21)
        db = TrajectoryDB(dimension=8)
        db.update_after_iteration(
            [make_record(rng, f"task_{i}", done=i % 2 == 0) for i in range(5)]
        )
        path = tmp_path / "db.jsonl"
        db.save(path)
        loaded = TrajectoryDB.load(path)
        assert loaded.dimension == 8
        assert len(loaded) == 5
        for original, restored in zip(db.records(), loaded.records()):
            assert original.task_id == restored.task_id
            assert original.iteration == restored.iteration
            assert original.goal_text == restored.goal_text
            assert original.done == restored.done
            assert original.history == restored.history
            np.testing.assert_array_equal(original.goal_embedding, restored.goal_embedding)
            for a, b in zip(original.obs_embeddings, restored.obs_embeddings):
                np.testing.assert_array_equal(a, b)

    def test_header_line_format(self, tmp_path):
        db = TrajectoryDB(dimension=4)
        path = tmp_path / "db.jsonl"
        db.save(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": "prag-trajectory-db", "version": 1, "dimension": 4}

    def test_load_error_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "prag-trajectory-db", "version": 1, "dimension": 4}\n'
            "not json\n"
        )
        with pytest.raises(DatabaseFormatError, match="line 2"):
            TrajectoryDB.load(path)

    @pytest.mark.parametrize(
        "step, named",
        [([float("nan"), 0.0, 0.0, 0.0], "non-finite"), ([0.0, 0.0, 0.0], "shape")],
        ids=["non-finite", "wrong-length"],
    )
    def test_load_rejects_a_malformed_step_naming_its_line(self, tmp_path, step, named):
        rng = random.Random(26)
        db = TrajectoryDB(dimension=4)
        db.update_after_iteration([make_record(rng, f"t{i}", dimension=4) for i in range(2)])
        path = tmp_path / "db.jsonl"
        db.save(path)
        lines = path.read_text().splitlines()
        doctored = json.loads(lines[2])
        doctored["obs_embeddings"][-1] = step
        path.write_text("\n".join(lines[:2] + [json.dumps(doctored)]) + "\n")
        with pytest.raises(DatabaseFormatError) as caught:
            TrajectoryDB.load(path)
        assert caught.value.line_number == 3
        assert "line 3" in str(caught.value) and named in str(caught.value)

    @pytest.mark.parametrize("case", sorted(MISTYPED_STORE_FIELDS))
    def test_load_rejects_a_mistyped_field_naming_its_line(self, tmp_path, case):
        path = tmp_path / "db.jsonl"
        line = write_mistyped_store(path, case)
        with pytest.raises(DatabaseFormatError) as caught:
            TrajectoryDB.load(path)
        assert caught.value.line_number == line
        assert MISTYPED_STORE_FIELDS[case][0] in str(caught.value)

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "version": 1, "dimension": 4}\n')
        with pytest.raises(DatabaseFormatError, match="line 1"):
            TrajectoryDB.load(path)

    def test_load_rejects_duplicate_task_id(self, tmp_path):
        rng = random.Random(22)
        db = TrajectoryDB(dimension=4)
        record = make_record(rng, "dup", dimension=4)
        db.update_after_iteration([record])
        path = tmp_path / "db.jsonl"
        db.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n")
        with pytest.raises(DatabaseFormatError, match="line 3"):
            TrajectoryDB.load(path)

    def test_load_rejects_dimension_mismatch(self, tmp_path):
        rng = random.Random(23)
        db = TrajectoryDB(dimension=4)
        db.update_after_iteration([make_record(rng, "t", dimension=4)])
        path = tmp_path / "db.jsonl"
        db.save(path)
        lines = path.read_text().splitlines()
        doctored = json.loads(lines[0])
        doctored["dimension"] = 8
        path.write_text("\n".join([json.dumps(doctored)] + lines[1:]) + "\n")
        with pytest.raises(DatabaseFormatError):
            TrajectoryDB.load(path)

    def test_without_header_dimension_the_first_record_sets_it(self, tmp_path):
        rng = random.Random(25)
        path = tmp_path / "db.jsonl"
        path.write_text(
            "\n".join(
                [
                    '{"format": "prag-trajectory-db", "version": 1, "dimension": null}',
                    make_record(rng, "a", dimension=4).to_json_line(),
                    make_record(rng, "b", dimension=3).to_json_line(),
                ]
            )
            + "\n"
        )
        with pytest.raises(DatabaseFormatError) as caught:
            TrajectoryDB.load(path)
        message = str(caught.value)
        assert message.startswith("line 3: ")
        assert "first record dimension 4" in message
        assert "header" not in message

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        rng = random.Random(24)
        db = TrajectoryDB(dimension=4)
        db.update_after_iteration([make_record(rng, f"t{i}", dimension=4) for i in range(3)])
        path = tmp_path / "db.jsonl"
        db.save(path)
        before = path.read_bytes()
        db.update_after_iteration([make_record(rng, f"u{i}", dimension=4) for i in range(3)])

        original = TaskRecord.to_json_line
        written = []

        def fails_on_the_second_record(record):
            if len(written) == 1:
                raise OSError("disk full")
            written.append(record.task_id)
            return original(record)

        monkeypatch.setattr(TaskRecord, "to_json_line", fails_on_the_second_record)
        with pytest.raises(OSError, match="disk full"):
            db.save(path)
        assert written == ["t0"]  # the header and one record went out first
        assert path.read_bytes() == before
        assert [r.task_id for r in TrajectoryDB.load(path).records()] == ["t0", "t1", "t2"]
        assert [p.name for p in tmp_path.iterdir()] == ["db.jsonl"]

        monkeypatch.setattr(TaskRecord, "to_json_line", original)
        db.save(path)
        assert len(TrajectoryDB.load(path)) == 6
        assert [p.name for p in tmp_path.iterdir()] == ["db.jsonl"]


def reference_line(record: TaskRecord) -> str:
    """A record's checkpoint line as ``json.dumps`` of its field dict writes it."""
    return json.dumps(
        {
            "task_id": record.task_id,
            "iteration": record.iteration,
            "goal_text": record.goal_text,
            "done": record.done,
            "goal_embedding": record.goal_embedding.tolist(),
            "obs_embeddings": [v.tolist() for v in record.obs_embeddings],
            "history": [[a, o] for a, o in record.history],
        }
    )


# Entries where a float's JSON text is easy to get wrong: a signed zero, the
# smallest subnormal, and values whose repr switches to exponent form.
_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-07, 1e-05, 0.1, 1.0]


@st.composite
def vectors(draw, dimension: int) -> np.ndarray:
    """Sparse, dense or all-zero vectors of finite floats, edge values included."""
    fill = draw(st.sampled_from(["zero", "sparse", "dense"]))
    values = np.zeros(dimension)
    if fill == "zero":
        return values
    entry = st.one_of(
        st.sampled_from(_EDGE_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    if fill == "dense":
        return np.array(draw(st.lists(entry, min_size=dimension, max_size=dimension)))
    for index in draw(st.lists(st.integers(0, dimension - 1), max_size=4)):
        values[index] = draw(entry)
    return values


@st.composite
def record_fields(draw, goal_text=st.text(max_size=12), step_text=st.text(max_size=6)) -> dict:
    """A record's constructor keywords."""
    dimension = draw(st.integers(1, 12))
    steps = draw(st.integers(1, 3))
    return dict(
        task_id=draw(st.text(min_size=1, max_size=6)),
        iteration=draw(st.integers(1, 10**6)),
        goal_text=draw(goal_text),
        goal_embedding=draw(vectors(dimension)),
        obs_embeddings=tuple(draw(vectors(dimension)) for _ in range(steps)),
        history=tuple((draw(step_text), draw(step_text)) for _ in range(steps)),
        done=draw(st.booleans()),
    )


def records(goal_text=st.text(max_size=12), step_text=st.text(max_size=6)):
    return record_fields(goal_text, step_text).map(lambda fields: TaskRecord(**fields))


class TestCheckpointLine:
    @given(records())
    @settings(max_examples=300, deadline=None)
    def test_line_is_byte_identical_to_json_dumps(self, record):
        assert record.to_json_line() == reference_line(record)

    def test_edge_values_and_zero_runs(self):
        goal = np.zeros(12)
        goal[[0, 3, 4, 11]] = [-0.0, 5e-324, 1e16, 1e-07]
        record = TaskRecord(
            task_id="t",
            iteration=3,
            goal_text='say "hi" \u00e9',
            goal_embedding=goal,
            obs_embeddings=(np.zeros(12), -goal),
            history=(("a", "b"), ("c", "d")),
            done=True,
        )
        line = record.to_json_line()
        assert line == reference_line(record)
        assert line.startswith('{"task_id": "t", "iteration": 3, "goal_text": "say \\"hi\\" \\u00e9"')
        assert '"goal_embedding": [-0.0, 0.0, 0.0, 5e-324, 1e+16, ' in line
        assert '"obs_embeddings": [[0.0, 0.0, 0.0, 0.0, ' in line


class TestTaskRecordValidation:
    def test_requires_at_least_one_step(self):
        with pytest.raises(ValueError):
            TaskRecord(
                task_id="t",
                iteration=1,
                goal_text="g",
                goal_embedding=np.zeros(4),
                obs_embeddings=(),
                history=(),
                done=False,
            )

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            TaskRecord(
                task_id="t",
                iteration=1,
                goal_text="g",
                goal_embedding=np.zeros(4),
                obs_embeddings=(np.zeros(4), np.zeros(4)),
                history=(("a()", "o"),),
                done=False,
            )

    def test_requires_positive_iteration(self):
        with pytest.raises(ValueError):
            TaskRecord(
                task_id="t",
                iteration=0,
                goal_text="g",
                goal_embedding=np.zeros(4),
                obs_embeddings=(np.zeros(4),),
                history=(("a()", "o"),),
                done=False,
            )

    @pytest.mark.parametrize(
        "steps, named",
        [
            ((np.zeros(4), np.zeros(3)), "shape"),
            ((np.zeros(3), np.zeros(3)), "shape"),
            ((np.zeros(4), np.array([0.0, np.nan, 0.0, 0.0])), "non-finite"),
            ((np.array([np.inf, 0.0, 0.0, 0.0]), np.zeros(4)), "non-finite"),
            ([[0.0] * 4, [0.0, -np.inf, 0.0, 0.0]], "non-finite"),
        ],
        ids=["ragged", "wrong-length", "nan", "inf", "inf-in-lists"],
    )
    def test_rejects_malformed_steps(self, steps, named):
        with pytest.raises(ValueError, match=named):
            TaskRecord(
                task_id="t",
                iteration=1,
                goal_text="g",
                goal_embedding=np.zeros(4),
                obs_embeddings=steps,
                history=(("a()", "o"), ("b()", "p")),
                done=False,
            )


class TestRecordArrays:
    """A record owns one read-only copy of its vectors, read back as dense arrays."""

    @staticmethod
    def record(goal, steps):
        return TaskRecord(
            task_id="t",
            iteration=1,
            goal_text="g",
            goal_embedding=goal,
            obs_embeddings=steps,
            history=[("a()", "o")] * len(steps),
            done=False,
        )

    def test_steps_become_one_float64_matrix(self):
        record = self.record([1, 0, 2], [[0, 1, 0], (3, 0, 0)])
        assert record.obs_embeddings.dtype == np.float64
        assert record.obs_embeddings.shape == (2, 3)
        assert record.goal_embedding.tolist() == [1.0, 0.0, 2.0]
        assert [len(v) for v in record.obs_embeddings] == [3, 3]

    def test_caller_writes_reach_neither_the_record_nor_retrieval(self):
        goal, step = np.ones(4), np.ones(4)
        record = self.record(goal, [step])
        db = TrajectoryDB(dimension=4)
        db.update_after_iteration([record])
        query = RetrievalQuery(np.ones(4), np.ones(4))
        assert [h.score for h in db.retrieve_top_k(query, 1)] == [2.0]
        step *= 2
        goal[0] = -1.0
        assert record.obs_embeddings.tolist() == [[1.0] * 4]
        assert record.goal_embedding.tolist() == [1.0] * 4
        assert [h.score for h in db.retrieve_top_k(query, 1)] == [score(query, record)] == [2.0]

    @pytest.mark.parametrize(
        "write",
        [
            lambda r: r.goal_embedding.__setitem__(0, 5.0),
            lambda r: r.obs_embeddings.__setitem__((0, 0), 5.0),
            lambda r: r.obs_embeddings[0].__setitem__(0, 5.0),
        ],
        ids=["goal", "step-matrix", "step-row"],
    )
    def test_stored_arrays_are_read_only(self, write):
        record = self.record(np.ones(4), [np.ones(4)])
        with pytest.raises(ValueError):
            write(record)
        assert record.goal_embedding.tolist() == record.obs_embeddings[0].tolist() == [1.0] * 4


def written_columns(goal, steps) -> list[int]:
    """The columns where an input entry is written as other than ``0.0``."""
    matrix = np.vstack([goal, *steps])
    return np.flatnonzero(((matrix != 0.0) | np.signbit(matrix)).any(axis=0)).tolist()


class TestCompactRecord:
    """A record keeps only the columns its vectors use, and reads back its inputs."""

    @given(record_fields())
    @settings(max_examples=300, deadline=None)
    def test_views_are_the_inputs_byte_for_byte(self, fields):
        goal, steps = fields["goal_embedding"], fields["obs_embeddings"]
        goal_bytes, step_bytes = goal.tobytes(), np.array(steps).tobytes()
        line = reference_line(types.SimpleNamespace(**fields))
        columns = written_columns(goal, steps)
        record = TaskRecord(**fields)
        goal[:] = 7.0
        for step in steps:
            step[:] = 7.0
        assert record.goal_embedding.tobytes() == goal_bytes
        assert record.obs_embeddings.tobytes() == step_bytes
        assert record.to_json_line() == line
        assert record.columns.tolist() == columns
        assert record.values.shape == (1 + len(steps), len(columns))
        for array in (record.goal_embedding, record.obs_embeddings, record.obs_embeddings[0]):
            assert not array.flags.writeable
        assert not record.columns.flags.writeable and not record.values.flags.writeable
        assert set(vars(record)) == {f.name for f in dataclasses.fields(TaskRecord)}
        # A saved line reads back into the same columns and values.
        read = _read_record(line + "\n")
        assert read.columns.tolist() == columns
        assert read.values.tobytes() == record.values.tobytes()

    def test_an_all_zero_record_keeps_no_column(self):
        record = TaskRecord(
            task_id="t",
            iteration=1,
            goal_text="g",
            goal_embedding=np.zeros(5),
            obs_embeddings=(np.zeros(5), np.zeros(5)),
            history=(("a()", "o"), ("b()", "p")),
            done=False,
        )
        assert record.columns.shape == (0,) and record.values.shape == (3, 0)
        assert record.goal_embedding.tobytes() == np.zeros(5).tobytes()
        assert record.obs_embeddings.tobytes() == np.zeros((2, 5)).tobytes()
        line = record.to_json_line()
        assert line == reference_line(record)
        assert '"goal_embedding": [0.0, 0.0, 0.0, 0.0, 0.0]' in line
        assert _read_record(line + "\n").values.shape == (3, 0)
        db = TrajectoryDB(dimension=5)
        db.update_after_iteration([record])
        query = RetrievalQuery(np.ones(5), np.ones(5))
        assert [h.score for h in db.retrieve_top_k(query, 1)] == [score(query, record)] == [0.0]

    def test_a_saved_line_keeps_no_column_of_zeros_written_otherwise(self):
        # ``save`` writes a zero as ``0.0``; another text of +0.0 is read as a
        # zero too, so columns 4 and 5 are not kept, while -0.0 keeps column 2.
        goal = np.array([0.5, 0.0, 0.0, -1.5, 0.0, 0.0])
        steps = (np.eye(6)[1] * 0.25, np.eye(6)[0])
        record = TaskRecord("t", 1, "g", goal, steps, [("a()", "o"), ("b()", "p")], False)
        line = record.to_json_line()
        edited = (
            line.replace("[0.5, 0.0, 0.0, -1.5, 0.0, 0.0]", "[0.5, 0.0, 0.0, -1.5, 0, 0.0]")
            .replace("[0.0, 0.25, 0.0, 0.0, 0.0, 0.0]", "[0.0, 0.25, 0.0, 0.0, -0, 0.0]")
            .replace("[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]", "[1.0, 0.0, -0.0, 0.0, 0.0, 0e0]")
        )
        assert edited.count(" 0,") + edited.count("-0,") + edited.count("0e0") == 3
        read = _read_record(edited + "\n")
        assert record.columns.tolist() == [0, 1, 3]
        assert read.columns.tolist() == [0, 1, 2, 3]
        assert read.to_json_line() == read_whole_line(edited).to_json_line()
        assert read.obs_embeddings.tobytes() == read_whole_line(edited).obs_embeddings.tobytes()

    def test_a_dense_record_holds_its_dense_bytes_and_no_more(self):
        gen = np.random.default_rng(12)
        goal, steps = gen.standard_normal(384), gen.standard_normal((8, 384))
        dense = goal.nbytes + steps.nbytes
        history = [("a()", "o")] * 8
        tracemalloc.start()
        try:
            record = TaskRecord("t", 1, "g", goal, steps, history, False)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.columns.size == 384
        assert record.obs_embeddings.tobytes() == steps.tobytes()
        # The values and one column list, not a second copy of the vectors.
        assert dense <= retained < dense + record.columns.nbytes + 4096


def sparse_store(path, records: int = 300, rows: int = 6, dimension: int = 384) -> None:
    """Save a store of hashed-text-like vectors: 12 of 64 columns per vector."""
    gen = np.random.default_rng(300)
    pool = gen.choice(dimension, 64, replace=False)

    def vector() -> np.ndarray:
        values = np.zeros(dimension)
        values[gen.choice(pool, 12, replace=False)] = gen.integers(1, 4, 12)
        return values

    db = TrajectoryDB(dimension=dimension)
    db.update_after_iteration(
        [
            TaskRecord(
                task_id=f"t{i:03d}",
                iteration=1,
                goal_text="put the mug on the table",
                goal_embedding=vector(),
                obs_embeddings=[vector() for _ in range(rows - 1)],
                history=[("navigate(table_1)", "mug_1/table_1/on_top_of: True")] * (rows - 1),
                done=i % 2 == 0,
            )
            for i in range(records)
        ]
    )
    db.save(path)


class TestStoreMemory:
    """A loaded store holds its vectors compactly (tracemalloc sees numpy's buffers)."""

    def test_a_sparse_store_loads_and_retrieves_in_under_its_dense_bytes(self, tmp_path):
        path = tmp_path / "db.jsonl"
        sparse_store(path)
        dense = 300 * 6 * 384 * 8
        query = RetrievalQuery(np.ones(384), np.ones(384))
        tracemalloc.start()
        try:
            db = TrajectoryDB.load(path)
            retained, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            hits = db.retrieve_top_k(query, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(db) == 300 and len(hits) == 3
        assert retained < dense / 2
        assert peak < dense

    def test_scenes_that_share_lines_load_in_under_their_texts_bytes(self, tmp_path):
        # 1,000 distinct scenes of 20 lines each, drawn from 60 relation lines.
        rng = random.Random(3)
        kinds = ("mug", "plant", "sink", "table", "cabinet")
        labels = [f"{kind}_{i}" for kind in kinds for i in (1, 2)]
        pool = [f"{a}/{b}/next_to: True" for a in labels for b in labels if a != b][:60]
        encoder = HashingEncoder(dimension=16)
        records = []
        for i in range(100):
            history = [
                (f"navigate({rng.choice(labels)})", "\n".join(sorted(rng.sample(pool, 20))))
                for _ in range(10)
            ]
            records.append(
                TaskRecord(
                    task_id=f"t{i:03d}",
                    iteration=1,
                    goal_text="put the mug in the sink",
                    goal_embedding=encoder.encode("put the mug in the sink"),
                    obs_embeddings=[encoder.encode(scene) for _, scene in history],
                    history=history,
                    done=i % 2 == 0,
                )
            )
        scenes = {scene for record in records for _, scene in record.history}
        db = TrajectoryDB()
        db.update_after_iteration(records)
        db.save(tmp_path / "db.jsonl")
        tracemalloc.start()
        try:
            loaded = TrajectoryDB.load(tmp_path / "db.jsonl")
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scenes) == 1000 and len(loaded) == 100
        # Holding each distinct scene text once would take this much alone.
        assert retained < sum(map(sys.getsizeof, scenes))


class TestSharedTexts:
    """A load holds each distinct goal text, action and scene line once."""

    def test_a_load_holds_one_object_per_distinct_text(self, tmp_path):
        encoder = HashingEncoder(dimension=64)
        goals = ["put the mug in the sink", "put the ball on the table"]
        actions = ["navigate(table_1)", "pickup(mug_1)", "drop(sink_1)", "done()"]
        scenes = [
            "mug_1/table_1/on_top_of: True",
            "mug_1/hand/held_by: True\nsink_1/table_1/next_to: True",
            "mug_1/sink_1/inside: True",
            "",
        ]
        records = []
        for i in range(24):
            history = [(actions[(i + t) % 4], scenes[(i * t + t) % 4]) for t in range(1 + i % 5)]
            records.append(
                TaskRecord(
                    task_id=f"t{i:02d}",
                    iteration=1,
                    goal_text=goals[i % 2],
                    goal_embedding=encoder.encode(goals[i % 2]),
                    obs_embeddings=[encoder.encode(scene) for _, scene in history],
                    history=history,
                    done=i % 3 == 0,
                )
            )
        live = TrajectoryDB(dimension=64)
        live.update_after_iteration(records)
        live.save(tmp_path / "db.jsonl")
        loaded = TrajectoryDB.load(tmp_path / "db.jsonl")

        texts = [r.goal_text for r in loaded.records()]
        texts += [text for r in loaded.records() for text in (*r.actions, *r.lines)]
        # Five lines: the second scene has two, and the empty scene is one.
        assert len({id(text) for text in texts}) == len(set(texts)) == 2 + 4 + 5
        assert [r.to_json_line() for r in loaded.records()] == [
            r.to_json_line() for r in live.records()
        ]
        for goal in goals:
            for scene in scenes:
                query = RetrievalQuery(encoder.encode(goal), encoder.encode(scene))
                hits = loaded.retrieve_top_k(query, 5)
                assert_reference_hits(loaded, query, 5, hits)
                assert [(h.record.task_id, repr(h.score)) for h in hits] == [
                    (h.record.task_id, repr(h.score)) for h in live.retrieve_top_k(query, 5)
                ]


# Scene lines that split every way: empty, carriage returns, non-ASCII, and
# any text, newlines in it.
_LINES = st.sampled_from(["", "\r", " ", "mug_1/table_1/on_top_of: True", "ΟΔΟΣ/ünï: True"])
_SCENES = st.lists(_LINES | st.text(max_size=10), min_size=1, max_size=6).map("\n".join)
# Steps draw their scenes from a few per history, so lines and scenes repeat.
_HISTORIES = st.lists(_SCENES, min_size=1, max_size=4).flatmap(
    lambda scenes: st.lists(
        st.tuples(st.text(max_size=8), st.sampled_from(scenes)), min_size=1, max_size=8
    )
)


def reference_render(goal_text: str, history: list, history_limit: int) -> str:
    """An experience's body from whole scene texts, each flattened by ``replace``."""
    lines = [f"goal: {goal_text}"]
    total = len(history)
    shown = history[-history_limit:]
    lines.append(f"steps (last {len(shown)} of {total}):" if len(shown) < total else "steps:")
    for i, (action_text, obs_text) in enumerate(shown, start=total - len(shown) + 1):
        flat_obs = obs_text.replace("\n", "; ") if obs_text else "(nothing visible)"
        lines.append(f"{i}. {action_text} => {flat_obs}")
    return "\n".join(lines)


def record_of(history: list, dimension: int = 4) -> TaskRecord:
    return TaskRecord(
        task_id="t",
        iteration=1,
        goal_text="g",
        goal_embedding=np.ones(dimension),
        obs_embeddings=np.ones((len(history), dimension)),
        history=history,
        done=True,
    )


class TestSceneLines:
    """A record keeps its scenes as lines and gives back the texts it was given."""

    def round_trip(self, history: list) -> TaskRecord:
        pairs = [tuple(step) for step in history]
        record = record_of(history)
        assert record.history == pairs
        assert record.actions == tuple(a for a, _ in pairs)
        line = record.to_json_line()
        assert line == reference_line(record)
        assert json.loads(line)["history"] == [list(step) for step in pairs]
        with tempfile.TemporaryDirectory() as tmp:
            db = TrajectoryDB()
            db.update_after_iteration([record])
            db.save(Path(tmp) / "db.jsonl")
            loaded = TrajectoryDB.load(Path(tmp) / "db.jsonl").get("t")
        assert loaded.history == pairs
        assert loaded.to_json_line() == line
        for limit in (1, 3, 20):
            assert _render_experience_body(loaded, limit) == reference_render("g", pairs, limit)
        return record

    @given(_HISTORIES)
    @settings(max_examples=300)
    @example([("a", ""), ("b", "\n"), ("c", "x\n"), ("d", "\n\nx\n\n"), ("e", "x\n")])
    def test_histories_come_back_equal(self, history):
        self.round_trip(history)

    def test_a_record_of_more_than_256_lines_keeps_wider_indexes(self):
        history = [(f"a{i}", f"line {i}\nshared\nline {i + 1}") for i in range(300)]
        record = self.round_trip(history)
        assert len(record.lines) == 302
        assert {len(scene) for scene in record.scenes} == {3 * 2}

    def test_a_scene_of_more_than_65536_lines_keeps_wider_indexes(self):
        scene = "\n".join(map(str, range(70_000)))
        record = self.round_trip([("a", scene), ("b", "0\n69999")])
        assert len(record.lines) == 70_000
        assert len(record.scenes[1]) >= 2 * 4  # two indexes of at least 4 bytes

    def test_equal_scenes_of_a_record_share_their_indexes(self):
        record = record_of([("a", "x\ny"), ("b", "y"), ("c", "x\ny")])
        assert record.lines == ("x", "y")
        assert record.scenes == (b"\x00\x01", b"\x01", b"\x00\x01")
        assert record.scenes[0] is record.scenes[2]


class TestIndexBuildMemory:
    """The step index finds its columns before it allocates its matrix."""

    def test_the_step_index_peaks_below_one_and_a_half_matrices(self):
        # As in a hashed store: goals use columns no step uses, and steps
        # columns no goal uses, so each record keeps more than either needs.
        dim = 384
        gen = np.random.default_rng(29)
        pool = gen.choice(dim, 40, replace=False)
        goal_pool, step_pool = pool[:26], pool[12:]

        def vector(columns, count):
            values = np.zeros(dim)
            values[gen.choice(columns, count, replace=False)] = gen.integers(1, 4, count)
            return values

        records = []
        for i in range(1000):
            steps = int(gen.integers(1, 9))
            records.append(
                TaskRecord(
                    task_id=f"t{i:04d}",
                    iteration=1,
                    goal_text="g",
                    goal_embedding=vector(goal_pool, 6),
                    obs_embeddings=[vector(step_pool, 14) for _ in range(steps)],
                    history=[("done()", "")] * steps,
                    done=False,
                )
            )
        blocks = [(r.columns, r.values[1:]) for r in records]
        tracemalloc.start()
        try:
            index = _UsedColumns(blocks, dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.columns.tolist() == sorted(step_pool.tolist())
        assert index.matrix.shape == (sum(len(r.history) for r in records), 28)
        assert peak < 1.5 * index.matrix.nbytes


# Texts that look like the parts of a saved line, so a reader that splits a
# line at its key texts would go wrong if it found them inside a string.
_LINE_LIKE_TEXT = st.lists(
    st.sampled_from(
        [
            ', "goal_embedding": [',
            '], "obs_embeddings": [[',
            ']], "history": ',
            "], [",
            "0.0, ",
            '"',
            "\\",
            "é",
            "\U0001f600",
        ]
    )
    | st.text(max_size=3),
    max_size=5,
).map("".join)


def read_whole_line(line: str) -> TaskRecord:
    """The record as ``json.loads`` of the whole line gives it."""
    return TaskRecord.from_json_dict(json.loads(line))


def saved_line(task_id: str = "t") -> str:
    """One saved record line whose texts hold no ", " or ": " outside its layout."""
    return TaskRecord(
        task_id=task_id,
        iteration=2,
        goal_text="put the ball away",
        goal_embedding=np.array([0.5, 0.0, 0.0, -1.5]),
        obs_embeddings=(np.array([0.0, 0.25, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])),
        history=(("pickup(ball_1)", "ball_1/hand/held_by"), ("done()", "")),
        done=True,
    ).to_json_line()


def compact(line: str) -> str:
    return line.replace(", ", ",").replace(": ", ":")


class TestRecordLineReader:
    """``load`` reads a saved line in parts; ``json.loads`` of it is the reference."""

    @given(records(goal_text=_LINE_LIKE_TEXT, step_text=_LINE_LIKE_TEXT))
    @settings(max_examples=300, deadline=None)
    def test_saved_lines_read_as_json_loads_reads_them(self, record):
        line = record.to_json_line()
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            read = _read_record(line + "\n")
        assert line + "\n" not in [call.args[0] for call in loads.call_args_list]
        assert read.to_json_line() == read_whole_line(line).to_json_line() == line

    @given(records(goal_text=_LINE_LIKE_TEXT, step_text=_LINE_LIKE_TEXT), st.data())
    @settings(max_examples=200, deadline=None)
    def test_other_layouts_and_key_orders_read_the_same(self, record, data):
        line = record.to_json_line()
        fields = json.loads(line)
        order = data.draw(st.permutations(list(fields)))
        separators = data.draw(st.sampled_from([None, (",", ":")]))
        other = json.dumps({key: fields[key] for key in order}, separators=separators)
        assert _read_record(other).to_json_line() == line

    @staticmethod
    def load_with_line_three(tmp_path, line: str) -> DatabaseFormatError:
        path = tmp_path / "db.jsonl"
        good = saved_line("s")
        header = '{"format": "prag-trajectory-db", "version": 1, "dimension": 4}'
        path.write_text("\n".join([header, good, line]) + "\n")
        with pytest.raises(DatabaseFormatError) as caught:
            TrajectoryDB.load(path)
        assert caught.value.line_number == 3
        return caught.value

    def test_the_test_line_loads_in_both_layouts(self, tmp_path):
        line = saved_line()
        path = tmp_path / "db.jsonl"
        header = '{"format": "prag-trajectory-db", "version": 1, "dimension": 4}'
        for text in (line, compact(line)):
            path.write_text(header + "\n" + text + "\n")
            (loaded,) = TrajectoryDB.load(path).records()
            assert loaded.to_json_line() == line

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("[0.5, 0.0, 0.0, -1.5]", "[0.5,0.0,0.0,-1.5]", "separated by ', '"),
            ("[1.0, 0.0, 0.0, 0.0]", "[1.0, 0.0, 0.0]", "shape"),
            ("[0.0, 0.25, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]", "[0.0, 0.25, 0.0], [1.0, 0.0, 0.0]", "shape"),
            ("[1.0, 0.0, 0.0, 0.0]", "[1.0, NaN, 0.0, 0.0]", "non-finite"),
            ("[0.5, 0.0, 0.0, -1.5]", "[0.5, 0.0, Infinity, -1.5]", "non-finite"),
            ("[0.5, 0.0, 0.0, -1.5]", "[0.5, 0.0, [0.0], -1.5]", "lists of numbers"),
            ("[0.5, 0.0, 0.0, -1.5]", "[0.5, 0.0, 0.0, -1.5], [0.0, 0.0, 0.0, 0.0]", "lists of numbers"),
            ('"history": ', '"goal_embedding": [0.0, 0.0, 0.0, 0.0], "history": ', "given twice"),
            ('{"task_id"', '{"obs_embeddings": [[0.0, 0.0, 0.0, 0.0]], "task_id"', "given twice"),
            ('"done": true', '"done": true, "done": false', "given twice"),
        ],
        ids=[
            "comma-only",
            "ragged",
            "wrong-length-rows",
            "nan",
            "infinity",
            "nested-entry",
            "two-goal-rows",
            "goal-key-twice",
            "steps-key-twice",
            "done-key-twice",
        ],
    )
    def test_malformed_saved_lines_are_rejected_at_their_line(self, tmp_path, old, new, named):
        line = saved_line()
        assert old in line
        error = self.load_with_line_three(tmp_path, line.replace(old, new, 1))
        assert named in str(error)

    def test_a_vector_key_given_twice_after_the_history_is_rejected(self, tmp_path):
        line = saved_line()
        doctored = line[:-1] + ', "goal_embedding": [0.0, 0.0, 0.0, 0.0]}'
        assert "'goal_embedding' is given twice" in str(self.load_with_line_three(tmp_path, doctored))

    @pytest.mark.parametrize("cut", [0.3, 0.6, 0.95])
    def test_a_truncated_line_is_rejected_at_its_line(self, tmp_path, cut):
        line = saved_line()
        self.load_with_line_three(tmp_path, line[: int(len(line) * cut)])

    @pytest.mark.parametrize(
        "line, named",
        [
            ("[1, 2]", "got list"),
            ("7", "got int"),
            (f"[{saved_line()}]", "got list"),
        ],
        ids=["array", "number", "array-around-a-saved-line"],
    )
    def test_a_line_that_is_no_object_is_rejected_at_its_line(self, tmp_path, line, named):
        assert named in str(self.load_with_line_three(tmp_path, line))

    @pytest.mark.parametrize(
        "vector, named",
        [
            ("goal_embedding", "goal_embedding has an entry too large for a float"),
            ("obs_embeddings", "obs_embeddings has an entry too large for a float"),
        ],
    )
    @pytest.mark.parametrize("layout", [str, compact], ids=["saved-layout", "compact"])
    def test_an_integer_entry_too_large_for_a_float_is_rejected(
        self, tmp_path, vector, named, layout
    ):
        huge = "1" + "0" * 400
        line = saved_line()
        old = "-1.5]" if vector == "goal_embedding" else "0.25"
        doctored = line.replace(old, old.replace("1.5", huge).replace("0.25", huge), 1)
        assert named in str(self.load_with_line_three(tmp_path, layout(doctored)))

    @pytest.mark.parametrize("layout", [str, compact], ids=["saved-layout", "compact"])
    def test_an_integer_past_the_digit_limit_is_rejected(self, tmp_path, layout):
        line = saved_line().replace('"iteration": 2', '"iteration": 2' + "0" * 4300)
        assert "4300" in str(self.load_with_line_three(tmp_path, layout(line)))

    def test_a_header_integer_past_the_digit_limit_is_rejected(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text(
            '{"format": "prag-trajectory-db", "version": 1, "dimension": 4' + "0" * 4300 + "}\n"
        )
        with pytest.raises(DatabaseFormatError, match="line 1"):
            TrajectoryDB.load(path)

    @pytest.mark.parametrize("case", sorted(MISTYPED_STORE_FIELDS))
    def test_a_mistyped_field_in_a_compact_line_is_rejected_naming_its_line(self, tmp_path, case):
        path = tmp_path / "db.jsonl"
        line = write_mistyped_store(path, case, separators=(",", ":"))
        with pytest.raises(DatabaseFormatError) as caught:
            TrajectoryDB.load(path)
        assert caught.value.line_number == line
        assert MISTYPED_STORE_FIELDS[case][0] in str(caught.value)

    def test_no_saved_line_is_parsed_whole(self, tmp_path, monkeypatch):
        rng = random.Random(27)
        db = TrajectoryDB(dimension=6)
        db.update_after_iteration([make_record(rng, f"t{i}", dimension=6) for i in range(4)])
        sparse = np.zeros(6)
        sparse[[1, 4]] = [-0.0, 5e-324]
        db.update_after_iteration(
            [
                TaskRecord(
                    task_id="edge",
                    iteration=2,
                    goal_text='a "quoted" ], [ goal é',
                    goal_embedding=sparse,
                    obs_embeddings=(np.zeros(6), sparse * 1e16),
                    history=(("a", ', "goal_embedding": ['), ("b", "]], \\")),
                    done=False,
                )
            ]
        )
        path = tmp_path / "db.jsonl"
        db.save(path)
        saved = set(path.read_text().splitlines()[1:])
        given = []
        original = json.loads

        def recording_loads(text, *args, **kwargs):
            given.append(text.strip() if isinstance(text, str) else text)
            return original(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", recording_loads)
        loaded = TrajectoryDB.load(path)
        assert given  # the reader's parts went through json.loads
        assert saved.isdisjoint(given)
        assert {r.to_json_line() for r in loaded.records()} == saved
