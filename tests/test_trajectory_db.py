"""Retrieval database tests: scoring oracle, top-k order, policy, persistence."""

from __future__ import annotations

import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prag.trajectory_db import (
    DatabaseFormatError,
    RetrievalQuery,
    TaskRecord,
    TrajectoryDB,
    score,
)


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
        hits = db.retrieve_top_k(query, 3)
        expected = brute_force(db, query, 3)
        assert [(h.record.task_id, h.score) for h in hits] == [
            (r.task_id, s) for s, r in expected
        ]

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
            hits = db.retrieve_top_k(RetrievalQuery(unit, unit), 3)
            by_id = {h.record.task_id: h.score for h in hits}
            assert by_id == {"all_zero": 0.0, "zero_goal": 1.0, "zero_step": 1.0}
            hits = db.retrieve_top_k(RetrievalQuery(zero, zero), 3)
            assert [h.score for h in hits] == [0.0, 0.0, 0.0]
            assert [h.record.task_id for h in hits] == ["all_zero", "zero_goal", "zero_step"]

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
        assert [(h.record.task_id, h.score) for h in hits] == [
            (r.task_id, s) for s, r in brute_force(db, query, k)
        ]

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
def records(draw) -> TaskRecord:
    dimension = draw(st.integers(1, 12))
    steps = draw(st.integers(1, 3))
    return TaskRecord(
        task_id=draw(st.text(min_size=1, max_size=6)),
        iteration=draw(st.integers(1, 10**6)),
        goal_text=draw(st.text(max_size=12)),
        goal_embedding=draw(vectors(dimension)),
        obs_embeddings=tuple(draw(vectors(dimension)) for _ in range(steps)),
        history=tuple(
            (draw(st.text(max_size=6)), draw(st.text(max_size=6))) for _ in range(steps)
        ),
        done=draw(st.booleans()),
    )


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
