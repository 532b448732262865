"""Retrieval database of per-task trajectory records.

One record per task id. A record stores the goal embedding, one scene-graph
embedding per step, the (action, observation) history, and whether the task
was completed. Retrieval is exact and scores every record as

    score = cosine(query_goal, record_goal)
          + max over steps t of cosine(query_obs, record_obs[t])

with ties broken toward the more recent iteration, then lexicographic task
id. ``score`` computes this for one record and is the reference.
``retrieve_top_k`` scans all records at once, in the style of an exact
inner-product index: a goal matrix with one row per record (in task id
order), an observation matrix stacking every step vector, and the offsets
where each record's steps begin. Each matrix keeps only the columns that
some stored vector uses: hashed scene texts fill a few dozen of 384, so a
query reads a small fraction of the store, while a dense store keeps every
column and scans them all. A query takes one matrix-vector product per
matrix over the used entries of the query, divides by the stored vectors'
norms times the whole query's norm (a zero vector scores 0) and keeps each
record's best step with ``np.maximum.reduceat``. The records within
rounding distance of the k-th best, usually just k, are then scored by
``score`` and sorted, so hits carry the reference's exact values and tie
order. The matrices are built on the first retrieval after the store
changes.

The store is a single line-delimited JSON file with a header line, so a
checkpoint can be inspected with standard shell tools.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic_io import open_atomic
from .embedding import cosine

FORMAT_NAME = "prag-trajectory-db"
FORMAT_VERSION = 1


class DatabaseFormatError(Exception):
    """Raised when a database file cannot be parsed or fails validation.

    ``line_number`` is 1-based and refers to the offending line of the file,
    or None when the problem is not tied to a single line.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def _as_vector(values, name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} contains non-finite values")
    return vec


def _vector_json(vec: np.ndarray) -> str:
    """``json.dumps(vec.tolist())`` for a non-empty vector, without a list."""
    parts = []
    end = 0
    nonzero = np.flatnonzero((vec != 0.0) | np.signbit(vec))
    for index, value in zip(nonzero.tolist(), vec[nonzero].tolist()):
        parts.append("0.0, " * (index - end))
        parts.append(repr(value))
        parts.append(", ")
        end = index + 1
    parts.append("0.0, " * (vec.size - end))
    return "[" + "".join(parts)[:-2] + "]"


@dataclass
class TaskRecord:
    """One task's latest trajectory, as stored in the database."""

    task_id: str
    iteration: int
    goal_text: str
    goal_embedding: np.ndarray
    obs_embeddings: list[np.ndarray]
    history: list[tuple[str, str]]
    done: bool

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.iteration < 1:
            raise ValueError(f"iteration must be >= 1, got {self.iteration}")
        self.goal_embedding = _as_vector(self.goal_embedding, "goal_embedding")
        self.obs_embeddings = [
            _as_vector(v, f"obs_embeddings[{i}]")
            for i, v in enumerate(self.obs_embeddings)
        ]
        self.history = [(str(a), str(o)) for a, o in self.history]
        if len(self.history) < 1:
            raise ValueError("history must contain at least one step")
        if len(self.obs_embeddings) != len(self.history):
            raise ValueError(
                f"obs_embeddings ({len(self.obs_embeddings)}) and history "
                f"({len(self.history)}) must have equal length"
            )
        dim = self.goal_embedding.size
        for i, vec in enumerate(self.obs_embeddings):
            if vec.size != dim:
                raise ValueError(
                    f"obs_embeddings[{i}] has dimension {vec.size}, expected {dim}"
                )

    @property
    def dimension(self) -> int:
        return int(self.goal_embedding.size)

    def to_json_line(self) -> str:
        """The record as one JSON object, without the newline.

        The bytes are those of ``json.dumps`` of the record's fields in
        order. Most stored entries are zero, so each vector is written as
        runs of ``0.0`` around the ``repr`` of its other entries; ``-0.0``
        counts as non-zero, since JSON writes it with its sign.
        """
        head = json.dumps(
            {
                "task_id": self.task_id,
                "iteration": self.iteration,
                "goal_text": self.goal_text,
                "done": self.done,
            }
        )
        steps = ", ".join(_vector_json(v) for v in self.obs_embeddings)
        history = json.dumps([[a, o] for a, o in self.history])
        return (
            f'{head[:-1]}, "goal_embedding": {_vector_json(self.goal_embedding)},'
            f' "obs_embeddings": [{steps}], "history": {history}}}'
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "TaskRecord":
        return cls(
            task_id=data["task_id"],
            iteration=data["iteration"],
            goal_text=data["goal_text"],
            goal_embedding=data["goal_embedding"],
            obs_embeddings=data["obs_embeddings"],
            history=[(a, o) for a, o in data["history"]],
            done=data["done"],
        )


@dataclass(frozen=True)
class RetrievalQuery:
    """Current goal and current scene-graph embedding."""

    goal_embedding: np.ndarray
    obs_embedding: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "goal_embedding", _as_vector(self.goal_embedding, "goal_embedding")
        )
        object.__setattr__(
            self, "obs_embedding", _as_vector(self.obs_embedding, "obs_embedding")
        )


@dataclass(frozen=True)
class RetrievalHit:
    score: float
    record: TaskRecord


def score(query: RetrievalQuery, record: TaskRecord) -> float:
    """Goal similarity plus best per-step observation similarity."""
    goal_term = cosine(query.goal_embedding, record.goal_embedding)
    obs_term = max(cosine(query.obs_embedding, v) for v in record.obs_embeddings)
    return goal_term + obs_term


# Sums of the same terms in another order can differ in the last bit, and
# distinct stored vectors often tie exactly (hashed embeddings are integer
# counts, so their cosines are equal ratios). The matrix scores therefore
# only select candidates: every record within this margin of the k-th best
# is scored again by ``score``, whose values and tie order are the
# reference. Rounding moves a score by about 1e-13 at most.
_CANDIDATE_MARGIN = 1e-9


class _UsedColumns:
    """Stored vectors cut to the columns any of them uses, for cosines.

    Dropped columns are zero in every stored vector, so they add nothing to
    a dot product. Rows are filled one by one, so a dense store (every
    column used) is never held twice at full width.
    """

    def __init__(self, vectors: list[np.ndarray]):
        used = np.zeros(vectors[0].size, dtype=bool)
        for v in vectors:
            used |= v != 0.0
        self.columns = np.flatnonzero(used)
        self.matrix = np.empty((len(vectors), self.columns.size))
        for row, v in enumerate(vectors):
            self.matrix[row] = v[self.columns]
        # The dropped entries are zero, so these are the full vectors' norms.
        self.norms = np.sqrt(np.einsum("ij,ij->i", self.matrix, self.matrix))

    def cosines(self, vector: np.ndarray) -> np.ndarray:
        """Cosine of each row with ``vector``; zero vectors give 0."""
        # The query's norm is over all its entries: its mass on dropped
        # columns adds nothing to the dots but still scales every cosine.
        denominators = self.norms * math.sqrt(float(np.dot(vector, vector)))
        dots = self.matrix @ vector[self.columns]
        return np.divide(
            dots, denominators, out=np.zeros_like(dots), where=denominators != 0.0
        )


class _MatrixIndex:
    """Every record's vectors in two column-trimmed matrices, in task id order."""

    def __init__(self, records: list[TaskRecord]):
        self.records = records
        self.goals = _UsedColumns([r.goal_embedding for r in records])
        self.observations = _UsedColumns([v for r in records for v in r.obs_embeddings])
        # Every record has at least one step, so no segment is empty.
        lengths = [len(r.obs_embeddings) for r in records]
        self.starts = np.cumsum([0] + lengths[:-1])

    def top_k(self, query: RetrievalQuery, k: int) -> list[RetrievalHit]:
        goal_terms = self.goals.cosines(query.goal_embedding)
        step_terms = self.observations.cosines(query.obs_embedding)
        scores = goal_terms + np.maximum.reduceat(step_terms, self.starts)
        cut = max(scores.size - k, 0)
        kth_best = np.partition(scores, cut)[cut]
        hits = [
            RetrievalHit(score=score(query, self.records[i]), record=self.records[i])
            for i in np.flatnonzero(scores >= kth_best - _CANDIDATE_MARGIN)
        ]
        hits.sort(key=lambda h: (-h.score, -h.record.iteration, h.record.task_id))
        return hits[:k]


class TrajectoryDB:
    """In-memory record store with exact top-k retrieval and JSONL persistence."""

    def __init__(self, dimension: int | None = None):
        if dimension is not None and dimension < 1:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self._dimension = dimension
        self._records: dict[str, TaskRecord] = {}
        self._index: _MatrixIndex | None = None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def dimension(self) -> int | None:
        return self._dimension

    def get(self, task_id: str) -> TaskRecord | None:
        return self._records.get(task_id)

    def records(self) -> list[TaskRecord]:
        """All records, ordered by task id."""
        return [self._records[k] for k in sorted(self._records)]

    def update_after_iteration(self, batch: list[TaskRecord]) -> None:
        """Merge one iteration's records, one per task, newest-wins.

        The whole batch must carry the same iteration index and the store's
        dimension; an empty store takes the batch's dimension once every
        record has passed, so a rejected batch changes nothing. A stored
        completed record is never replaced by a failed one, so the done flag
        of a task is monotone non-decreasing across iterations.
        """
        if not batch:
            return
        iterations = {r.iteration for r in batch}
        if len(iterations) != 1:
            raise ValueError(f"batch mixes iteration indices: {sorted(iterations)}")
        task_ids = [r.task_id for r in batch]
        if len(set(task_ids)) != len(task_ids):
            raise ValueError("batch contains more than one record for a task")
        dimension = self._dimension or batch[0].dimension
        for record in batch:
            if record.dimension != dimension:
                raise ValueError(
                    f"record {record.task_id!r} has dimension {record.dimension}, "
                    f"database uses {dimension}"
                )
        self._dimension = dimension
        self._index = None
        for record in batch:
            stored = self._records.get(record.task_id)
            if stored is not None and stored.done and not record.done:
                continue
            self._records[record.task_id] = record

    def retrieve_top_k(self, query: RetrievalQuery, k: int) -> list[RetrievalHit]:
        """Exact scan over every record returning the k best.

        Ordering: score descending, then iteration descending, then task id
        ascending. Returns fewer than k hits when the database is smaller.
        Hit scores are the values ``score`` returns.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if not self._records:
            return []
        for name in ("goal_embedding", "obs_embedding"):
            size = getattr(query, name).size
            if size != self._dimension:
                raise ValueError(
                    f"query {name} has dimension {size}, database uses {self._dimension}"
                )
        if self._index is None:
            self._index = _MatrixIndex(self.records())
        return self._index.top_k(query, k)

    def save(self, path: str | Path) -> None:
        """Write the database as line-delimited JSON with a header line.

        The file is replaced atomically: a failed write leaves the previous
        checkpoint in place.
        """
        path = Path(path)
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "dimension": self._dimension,
        }
        with open_atomic(path) as fh:
            fh.write(json.dumps(header) + "\n")
            for record in self.records():
                fh.write(record.to_json_line() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "TrajectoryDB":
        path = Path(path)
        # Read line by line: the whole text at once would add its size (and a
        # list of its lines) to the peak memory of every load.
        with path.open("r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                raise DatabaseFormatError("empty file, missing header line", line_number=1)

            try:
                header = json.loads(first)
            except json.JSONDecodeError as exc:
                raise DatabaseFormatError(f"invalid header JSON: {exc}", line_number=1)
            if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
                raise DatabaseFormatError(
                    f"not a {FORMAT_NAME} file (format={header.get('format')!r})"
                    if isinstance(header, dict)
                    else "header is not a JSON object",
                    line_number=1,
                )
            if header.get("version") != FORMAT_VERSION:
                raise DatabaseFormatError(
                    f"unsupported version {header.get('version')!r}", line_number=1
                )
            dimension = header.get("dimension")
            if dimension is not None and (not isinstance(dimension, int) or dimension < 1):
                raise DatabaseFormatError(
                    f"invalid dimension {dimension!r}", line_number=1
                )

            db = cls(dimension=dimension)
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatabaseFormatError(f"invalid JSON: {exc}", line_number=lineno)
                try:
                    record = TaskRecord.from_json_dict(data)
                except (KeyError, TypeError, ValueError) as exc:
                    raise DatabaseFormatError(f"invalid record: {exc}", line_number=lineno)
                if db._dimension is None:
                    db._dimension = record.dimension
                elif record.dimension != db._dimension:
                    source = "header" if dimension is not None else "first record"
                    raise DatabaseFormatError(
                        f"record dimension {record.dimension} does not match "
                        f"{source} dimension {db._dimension}",
                        line_number=lineno,
                    )
                if record.task_id in db._records:
                    raise DatabaseFormatError(
                        f"duplicate task_id {record.task_id!r}", line_number=lineno
                    )
                db._records[record.task_id] = record
            return db
