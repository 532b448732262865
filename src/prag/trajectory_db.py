"""Retrieval database of per-task trajectory records.

One record per task id. A record stores the goal embedding and one
scene-graph embedding per step, the (action, observation) history and its
done flag. The vectors are kept once, cut to the columns they use: a
sorted column list and a read-only matrix of their values, the goal's row
first. Hashed texts fill about 20 of 384 columns, so the 1,000-record
benchmark store holds 1.05 MB of columns and values where dense rows would
take 17.3 MB. Dense vectors are laid out only when read. Retrieval is exact
and scores every record as

    score = cosine(query_goal, record_goal)
          + max over steps t of cosine(query_obs, record_obs[t])

with ties broken toward the more recent iteration, then lexicographic task
id. ``score`` computes this for one record and is the reference.
``retrieve_top_k`` scans the records at once, in the style of an exact
inner-product index: a goal matrix with one row per record (in task id
order), an observation matrix stacking the records' step rows, and the
offsets where each record's steps begin. Both are filled from the records'
kept columns, and each keeps only the columns that some stored vector uses:
hashed scene texts fill a few dozen of 384, so a query reads a small
fraction of the store, while a dense store keeps every column and scans
them all. Each row is stored scaled by the inverse of its
norm, computed in bulk over the cut rows (a vector of norm 0 becomes a zero
row), so one matrix-vector product with the query divided by its norm gives
the cosines, and ``np.maximum.reduceat`` keeps each record's best step.

Within an episode the store is frozen and the goal fixed, so an episode's
``RetrievalMemo`` scores the goal against every record once. A record can
score at most its goal term plus 1, the largest step cosine, so a query
scans the step rows only of the records whose goal term can still reach
the k-th best of those scanned: a prefix of the records in goal order,
gathered into one matrix and grown when a query's bound demands (a prefix
of over half the step rows is scanned in place instead). A scene asked
again in the episode gets its hits without a scan.

The records within rounding distance of the k-th best, usually just k, are
then re-scored exactly: one full-width dot for the goal and for each step
within rounding distance of the record's best (each such row is laid out
at full width for its dot and not kept), divided by norms computed
as ``cosine`` computes them, once per re-scored row and index, through
``cosine_from_parts``, which is ``cosine``'s own arithmetic. So hits carry
``score``'s values bit for bit and sort in its tie order, and a pruned
record could never have been a candidate. The matrices are built on the
first retrieval after the store changes.

The store is a single line-delimited JSON file with a header line, so a
checkpoint can be inspected with standard shell tools. ``load`` reads each
record line as ``json.loads`` would, but not by it when ``save`` wrote the
line: most vector entries are the text ``0.0``, and turning millions of
them into Python floats was most of a load. Such a line is cut at its three
fixed key texts. The members before the goal and those from ``history`` on
are parsed as JSON; the goal and step vectors are read as one byte buffer,
where numpy finds every entry that is not exactly ``0.0`` and only those
are parsed, by one ``json.loads``, into a zeroed matrix. A line laid out
any other way is parsed whole. Either way the record is built by the
constructor, which keeps the used columns, so only the line being read is
ever held at full width. A record line must be an object that gives no key
twice and whose vector entries are numbers.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .atomic_io import open_atomic
from .embedding import cosine, cosine_from_parts, vector_norm

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


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool`` (JSON's true and false are ints in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_vector(values, name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} contains non-finite values")
    return vec


def _numbers(values: list, name: str) -> np.ndarray:
    """Parsed JSON vector entries as float64, refusing any that is no number.

    ``np.array`` would read ``true`` as 1.0 and ``"1.5"`` as 1.5.
    """
    if not set(map(type, values)) <= {float, int}:  # a bool's type is not int
        odd = next(v for v in values if type(v) is not float and type(v) is not int)
        raise ValueError(f"{name} entries must be numbers, got {odd!r}")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} has an entry too large for a float") from None


def _rows_json(columns: list[int], dimension: int, rows: list[list[float]]) -> list[str]:
    """Each row at full width, as ``json.dumps(row.tolist())`` writes it.

    ``rows`` hold the values of ``columns``; every other entry is ``0.0``.
    The zero runs lie at the same places in every row, so one template
    serves them all, and each value is its ``repr``, as ``json`` writes
    floats.
    """
    if not columns:
        return ["[" + ", ".join(["0.0"] * dimension) + "]"] * len(rows)
    template = (
        "["
        + ", ".join("0.0, " * (c - p - 1) + "{}" for p, c in zip([-1, *columns], columns))
        + ", 0.0" * (dimension - 1 - columns[-1])
        + "]"
    )
    return [template.format(*map(repr, row)) for row in rows]


@dataclass(eq=False)
class TaskRecord:
    """One task's latest trajectory, as stored in the database.

    A record keeps its goal and step vectors once, cut to the columns they
    use. ``columns`` lists, in order, every column where the goal or a step
    holds an entry other than ``0.0`` (``-0.0`` counts: JSON writes its
    sign), and ``values`` is a ``(1 + len(history), len(columns))`` matrix:
    row 0 is the goal, row t + 1 is step t. Both are read-only copies, so a
    caller's later writes reach no stored record. Hashed scene texts fill
    about 20 of 384 columns, so a record holds about a twentieth of its
    dense bytes.

    ``goal_embedding`` and ``obs_embeddings`` are what the constructor
    takes, the steps as any sequence of step vectors. Read back, they are
    read-only dense arrays built on each read: the goal vector and one
    ``(len(history), dimension)`` step matrix. ``row`` builds one row.
    Records compare by identity: their fields hold arrays, whose ``==`` has
    no single truth value. Content equality is ``to_json_line()`` equality.
    Every field is type-checked, since ``load`` builds records from a file:
    a JSON ``true`` is no iteration, and ``"no"`` is no done flag.
    """

    task_id: str
    iteration: int
    goal_text: str
    goal_embedding: InitVar[np.ndarray]
    obs_embeddings: InitVar[np.ndarray]
    history: list[tuple[str, str]]
    done: bool
    dimension: int = field(init=False)
    columns: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, goal_embedding, obs_embeddings) -> None:
        if not isinstance(self.task_id, str) or not self.task_id:
            raise ValueError(f"task_id must be a non-empty string, got {self.task_id!r}")
        if not isinstance(self.goal_text, str):
            raise ValueError(f"goal_text must be a string, got {self.goal_text!r}")
        if not _is_int(self.iteration) or self.iteration < 1:
            raise ValueError(f"iteration must be an integer >= 1, got {self.iteration!r}")
        if not isinstance(self.done, bool):
            raise ValueError(f"done must be true or false, got {self.done!r}")
        if not all(
            isinstance(step, (tuple, list)) and len(step) == 2
            and isinstance(step[0], str) and isinstance(step[1], str)
            for step in self.history
        ):
            raise ValueError("history must hold (action, scene) pairs of strings")
        self.history = [(a, o) for a, o in self.history]
        if len(self.history) < 1:
            raise ValueError("history must contain at least one step")
        goal = _as_vector(goal_embedding, "goal_embedding")
        steps = np.asarray(obs_embeddings, dtype=np.float64)  # ragged input fails here
        shape = (len(self.history), goal.size)
        if steps.shape != shape:
            raise ValueError(f"obs_embeddings has shape {steps.shape}, expected {shape}")
        if not np.isfinite(steps).all():
            raise ValueError("obs_embeddings contains non-finite values")
        # A column is kept where some entry's bits are not all zero: 0.0 is
        # the one float64 whose bits are, and JSON writes -0.0 with its sign.
        used = (goal.view(np.uint64) != 0) | steps.view(np.uint64).any(axis=0)
        columns = used.nonzero()[0].copy()  # a view would keep ``used`` alive
        values = np.empty((1 + len(steps), columns.size))
        goal.take(columns, out=values[0])
        steps.take(columns, axis=1, out=values[1:])
        columns.setflags(write=False)
        values.setflags(write=False)
        self.dimension, self.columns, self.values = goal.size, columns, values

    def row(self, index: int) -> np.ndarray:
        """Row ``index`` of ``values`` at full width: 0 is the goal, t + 1 step t."""
        vector = np.zeros(self.dimension)
        vector[self.columns] = self.values[index]
        return vector

    def _goal_embedding(self) -> np.ndarray:
        goal = self.row(0)
        goal.setflags(write=False)
        return goal

    def _obs_embeddings(self) -> np.ndarray:
        steps = np.zeros((len(self.values) - 1, self.dimension))
        steps[:, self.columns] = self.values[1:]
        steps.setflags(write=False)
        return steps

    def to_json_line(self) -> str:
        """The record as one JSON object, without the newline.

        The bytes are those of ``json.dumps`` of the record's fields in
        order, written from the kept columns: the columns a record does not
        keep are runs of ``0.0``, and a kept entry is its ``repr``.
        """
        head = json.dumps(
            {
                "task_id": self.task_id,
                "iteration": self.iteration,
                "goal_text": self.goal_text,
                "done": self.done,
            }
        )
        goal, *steps = _rows_json(self.columns.tolist(), self.dimension, self.values.tolist())
        history = json.dumps([[a, o] for a, o in self.history])
        return (
            f'{head[:-1]}, "goal_embedding": {goal},'
            f' "obs_embeddings": [{", ".join(steps)}], "history": {history}}}'
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "TaskRecord":
        return cls(
            task_id=data["task_id"],
            iteration=data["iteration"],
            goal_text=data["goal_text"],
            goal_embedding=data["goal_embedding"],
            obs_embeddings=data["obs_embeddings"],
            history=data["history"],
            done=data["done"],
        )


# The constructor's vector keywords read back as dense arrays. Set once the
# dataclass is built: in the class body a property would be the InitVar's
# default value.
TaskRecord.goal_embedding = property(TaskRecord._goal_embedding)
TaskRecord.obs_embeddings = property(TaskRecord._obs_embeddings)


# ``to_json_line`` writes the vectors between these texts. Each holds a
# quote with no backslash before it, so none can occur inside a JSON string.
_GOAL_KEY = ', "goal_embedding": ['
_STEPS_KEY = '], "obs_embeddings": [['
_HISTORY_KEY = ']], "history": '
_COMMA, _SPACE = map(ord, ", ")
# A separator, a zero entry and the comma after it, as the low six bytes of a
# little-endian 8-byte integer.
_ZERO_ENTRY = int.from_bytes(b", 0.0,", "little")
_SIX_BYTES = (1 << 48) - 1


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key given twice is an error."""
    data = dict(pairs)
    if len(data) != len(pairs):
        keys = [key for key, _ in pairs]
        twice = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"key {twice!r} is given twice")
    return data


def _json_object(text: str) -> dict:
    data = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise ValueError(f"a record must be a JSON object, got {type(data).__name__}")
    return data


def _saved_vectors(goal: str, steps: str) -> np.ndarray:
    """The goal row and step rows, laid out as ``to_json_line`` writes them.

    ``goal`` is the text inside the goal's brackets, ``steps`` the text
    inside the step list's brackets less the first row's ``[`` and the
    last row's ``]``. Entries must be separated by ``", "`` and rows by
    ``"], ["``. Every entry that is exactly ``0.0`` is a zero; only the
    others, a few percent of a hashed store, are joined and parsed by one
    ``json.loads``.
    """
    rows = [goal, *steps.split("], [")]
    text = ", ".join(rows)
    if "[" in text or "]" in text or not text.isascii():
        raise ValueError("goal_embedding and obs_embeddings must be lists of numbers")
    # Every entry lies between two ", "; spare bytes keep every 8-byte
    # window below inside the buffer.
    buffer = f", {text}, \0\0\0\0\0\0".encode()
    data = np.frombuffer(buffer, dtype=np.uint8)
    commas = (data == _COMMA).nonzero()[0]
    windows = np.ndarray((len(buffer) - 7,), dtype="<u8", buffer=buffer, strides=(1,))
    others = (windows[commas[:-1]] & _SIX_BYTES != _ZERO_ENTRY).nonzero()[0]
    # A zero's window checked its separator; the others' are checked here.
    starts = commas[others] + 2
    if (data[starts - 1] != _SPACE).any():
        raise ValueError("vector entries must be separated by ', '")
    # A row ends at the comma joined or appended after it, and that comma's
    # index in ``commas`` counts the entries up to there.
    counts = commas.searchsorted(list(accumulate(len(row) + 2 for row in rows))).tolist()
    width = counts[0]
    if counts != list(range(width, width * len(rows) + 1, width)):
        lengths = [end - start for start, end in zip([0, *counts], counts)]
        raise ValueError(
            f"obs_embeddings has a row of {next(n for n in lengths if n != width)}"
            f" entries, expected shape {(len(rows) - 1, width)}"
        )
    entries = b", ".join(
        [buffer[s:e] for s, e in zip(starts.tolist(), commas[others + 1].tolist())]
    )
    try:
        values = json.loads(b"[" + entries + b"]")
    except ValueError:  # malformed, or an integer past Python's digit limit
        values = None
    if not isinstance(values, list) or len(values) != others.size:
        raise ValueError("vector entries must be JSON numbers")
    in_goal = int(others.searchsorted(width))
    matrix = np.zeros((len(rows), width))
    matrix.reshape(-1)[others[:in_goal]] = _numbers(values[:in_goal], "goal_embedding")
    matrix.reshape(-1)[others[in_goal:]] = _numbers(values[in_goal:], "obs_embeddings")
    return matrix


def _read_record(line: str) -> TaskRecord:
    """The record on one line, as ``json.loads(line)`` would give it.

    A line laid out as ``to_json_line`` writes it is read in three parts:
    the members before the goal, as one JSON object; the vectors, by
    ``_saved_vectors``; and the members from ``history`` on, as another.
    The goal key must open a member of the line's own object, and that
    object must give no key twice. Any other line, or one whose parts are
    no JSON, is read whole by ``json.loads``, which names its first error.
    Both ways refuse a vector entry that is not a number.
    """
    goal_at = line.find(_GOAL_KEY)
    steps_at = line.find(_STEPS_KEY, goal_at)
    history_at = line.find(_HISTORY_KEY, steps_at)
    if min(goal_at, steps_at, history_at) >= 0:
        try:
            head = _json_object(line[:goal_at] + "}")
            tail = _json_object('{"history": ' + line[history_at + len(_HISTORY_KEY) :])
        except json.JSONDecodeError:
            head = None
        if head:  # an empty head would have been "{, ...", no JSON
            rows = _saved_vectors(
                line[goal_at + len(_GOAL_KEY) : steps_at],
                line[steps_at + len(_STEPS_KEY) : history_at],
            )
            return TaskRecord.from_json_dict(
                _unique_keys(
                    [
                        *head.items(),
                        ("goal_embedding", rows[0]),
                        ("obs_embeddings", rows[1:]),
                        *tail.items(),
                    ]
                )
            )
    data = _json_object(line)
    goal, steps = data.get("goal_embedding"), data.get("obs_embeddings")
    if isinstance(goal, list):
        data["goal_embedding"] = _numbers(goal, "goal_embedding")
    if isinstance(steps, list):
        data["obs_embeddings"] = [
            _numbers(row, "obs_embeddings") if isinstance(row, list) else row for row in steps
        ]
    return TaskRecord.from_json_dict(data)


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
# only select candidates: every record within this margin of the k-th best,
# and within it every step within this margin of the record's best, is
# scored again with ``score``'s arithmetic, whose values and tie order are
# the reference. Rounding moves a score by about 1e-13 at most.
_CANDIDATE_MARGIN = 1e-9


def _goal_floor(kth_best: float) -> float:
    """The least goal term with which a record can be a candidate.

    A record scores at most its goal term plus 1, the largest step cosine,
    up to rounding; it is a candidate only if that comes within the margin
    of a k-th best that is at least ``kth_best``. Twice the margin covers
    the rounding of both scores.
    """
    return kth_best - 1.0 - 2 * _CANDIDATE_MARGIN


class _UsedColumns:
    """Stored vectors as unit rows, cut to the columns any of them uses.

    The vectors come as blocks of at least one row: a record's ``columns``
    with rows of its ``values``, its goal or its steps. ``starts`` holds the row
    where each block begins. The blocks are scattered into rows as wide as
    the columns the records keep, so no record is laid out at full width,
    and the columns no row uses are then dropped: they are zero in every
    stored vector and add nothing to a dot product. A dense store (every
    column used) is never held twice. Each row is then scaled by the
    inverse of its norm, computed in bulk over the cut row, and a vector of
    norm 0 becomes a zero row, so a row's dot with a unit query is its
    cosine up to rounding. The exact norms the re-score divides by are
    ``cosine``'s, computed by ``cosine`` the first time a row is re-scored
    and kept for the index's life.
    """

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]], dimension: int):
        keeps = np.zeros(dimension, dtype=bool)
        keeps[np.concatenate([columns for columns, _ in blocks])] = True
        place = np.cumsum(keeps) - 1  # a kept column's place in the rows
        kept = np.flatnonzero(keeps)
        self.starts = np.cumsum([0] + [len(values) for _, values in blocks[:-1]])
        matrix = np.zeros((self.starts[-1] + len(blocks[-1][1]), kept.size))
        for start, (columns, values) in zip(self.starts.tolist(), blocks):
            matrix[start : start + len(values), place[columns]] = values
        # A record keeps the columns of its goal and of its steps, and those
        # that hold only -0.0; the index drops those none of its rows uses.
        used = matrix.any(axis=0)
        self.columns = kept[used]
        self.matrix = matrix if used.all() else matrix.compress(used, axis=1)  # C order
        # Each row's dot with itself, as a stack of (1, C) @ (C, 1) products.
        rows = self.matrix[:, np.newaxis]
        norms = np.sqrt(np.matmul(rows, rows.transpose(0, 2, 1)).ravel())
        inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms != 0.0)
        self.matrix *= inverse[:, np.newaxis]
        self._norms: dict[int, float] = {}

    def cosine(self, query: np.ndarray, query_norm: float, row: int, vector: np.ndarray) -> float:
        """``cosine(query, vector)`` for ``vector``, the stored vector at ``row``.

        ``query_norm`` is the query's ``vector_norm``; the vector's is
        computed once per row.
        """
        norm = self._norms.get(row)
        if norm is None:
            norm = self._norms[row] = vector_norm(vector)
        return cosine_from_parts(float(np.dot(query, vector)), query_norm, norm)

    def unit(self, vector: np.ndarray, norm: float) -> np.ndarray:
        """``vector`` cut to the used columns and divided by its ``norm``.

        A row's dot with it is the row's cosine with ``vector``; a zero
        vector gives zeros.
        """
        if norm == 0.0:
            return np.zeros(self.columns.size)
        # The query's norm is over all its entries: its mass on dropped
        # columns adds nothing to the dots but still scales every cosine.
        return vector[self.columns] / norm


class _MatrixIndex:
    """Every record's vectors in two column-trimmed matrices, in task id order."""

    def __init__(self, records: list[TaskRecord]):
        self.records = records
        dimension = records[0].dimension
        self.goals = _UsedColumns([(r.columns, r.values[:1]) for r in records], dimension)
        self.observations = _UsedColumns([(r.columns, r.values[1:]) for r in records], dimension)
        self.lengths = np.array([len(r.history) for r in records])


class _GoalScan:
    """One goal's terms over one index, and the step rows its queries scan.

    A query scans only the records whose goal term reaches a threshold:
    a prefix of the records ordered by goal term, best first. The first
    threshold comes from the records of the k best goal terms, and a query
    lowers it when its own k-th best demands. Its step rows are gathered
    into one matrix as the prefix grows; when the prefix would hold more
    than half the index's step rows, the index's own matrix is scanned in
    place instead.
    """

    def __init__(self, index: _MatrixIndex, goal: bytes):
        self.index, self.key = index, goal
        self.goal = np.frombuffer(goal)  # the goal the scan is keyed by, read-only
        self.goal_norm = vector_norm(self.goal)
        self.all_terms = index.goals.matrix @ index.goals.unit(self.goal, self.goal_norm)
        self.exact_terms: dict[int, float] = {}  # ``score``'s goal term, by record
        self.threshold = np.inf
        self.records = self.terms = self.rows = self.starts = None

    def _reach(self, threshold: float) -> None:
        """Scan every record whose goal term is at least ``threshold`` from now on."""
        steps = self.index.observations
        records = np.flatnonzero(self.all_terms >= threshold)
        lengths = self.index.lengths[records]
        ends = np.cumsum(lengths)
        if 2 * ends[-1] > len(steps.matrix):
            self.threshold = -np.inf
            self.records = np.arange(self.all_terms.size)
            self.terms, self.rows, self.starts = self.all_terms, steps.matrix, steps.starts
        else:
            starts = ends - lengths
            rows = np.repeat(steps.starts[records] - starts, lengths) + np.arange(ends[-1])
            self.threshold = threshold
            self.records, self.terms = records, self.all_terms[records]
            self.rows, self.starts = steps.matrix[rows], starts

    def top_k(self, obs: np.ndarray, k: int) -> tuple[RetrievalHit, ...]:
        index = self.index
        steps = index.observations
        obs_norm = vector_norm(obs)
        unit = steps.unit(obs, obs_norm)
        count = self.all_terms.size
        if self.records is None or self.records.size < min(k, count):
            # Any k records bound the k-th best from below. Those of the k
            # best goal terms, each scanned in place, give the first bound.
            kth_best = -np.inf
            if k < count:
                kth_goal = np.partition(self.all_terms, count - k)[count - k]
                picked = np.flatnonzero(self.all_terms >= kth_goal)[:k]
                kth_best = min(
                    self.all_terms[i] + (steps.matrix[start : start + length] @ unit).max()
                    for i, start, length in zip(
                        picked.tolist(),
                        steps.starts[picked].tolist(),
                        index.lengths[picked].tolist(),
                    )
                )
            self._reach(_goal_floor(kth_best))
        while True:
            step_terms = self.rows @ unit
            best_steps = np.maximum.reduceat(step_terms, self.starts)
            scores = self.terms + best_steps
            cut = max(scores.size - k, 0)
            kth_best = np.partition(scores, cut)[cut]
            # Scanning more records could only raise this k-th best.
            threshold = _goal_floor(kth_best)
            if threshold >= self.threshold:
                break
            self._reach(threshold)
        goal, goals = self.goal, index.goals
        candidates = np.flatnonzero(scores >= kth_best - _CANDIDATE_MARGIN)
        hits = []
        for i, start, best in zip(
            self.records[candidates].tolist(),
            self.starts[candidates].tolist(),
            (best_steps[candidates] - _CANDIDATE_MARGIN).tolist(),
        ):
            # ``score(query, record)``, from the cached norms. The best step
            # by ``cosine`` is among those near the best scan cosine. Only
            # the rows dotted here are laid out at full width, and not kept.
            record = index.records[i]
            goal_term = self.exact_terms.get(i)
            if goal_term is None:
                goal_term = self.exact_terms[i] = goals.cosine(
                    goal, self.goal_norm, i, record.row(0)
                )
            first = int(steps.starts[i])
            obs_term = max(
                steps.cosine(obs, obs_norm, first + t, record.row(t + 1))
                for t, term in enumerate(step_terms[start : start + len(record.history)].tolist())
                if term >= best
            )
            hits.append(RetrievalHit(score=goal_term + obs_term, record=record))
        hits.sort(key=lambda h: (-h.score, -h.record.iteration, h.record.task_id))
        return tuple(hits[:k])


class RetrievalMemo:
    """One episode's retrievals: the goal's terms once, and hits by scene.

    ``run_episode`` owns one and hands it to every ``retrieve_top_k`` of the
    episode. Within an episode the store is frozen and the goal fixed, so
    every record's goal term is computed once, and a query scans only the
    records whose goal term plus the largest step cosine can still reach
    the k-th best (see ``_GoalScan``). A scene asked again gets its hits
    without a scan. Everything is keyed by the index, the goal's bytes, the
    scene's bytes and k; a new index or goal starts the memo over. It dies
    with its episode: nothing is kept on the store or in the module.
    """

    def __init__(self) -> None:
        self._scan: _GoalScan | None = None
        self._hits: dict[tuple[bytes, int], tuple[RetrievalHit, ...]] = {}

    def top_k(self, index: _MatrixIndex, query: RetrievalQuery, k: int) -> list[RetrievalHit]:
        goal = query.goal_embedding.tobytes()
        scan = self._scan
        if scan is None or scan.index is not index or scan.key != goal:
            scan = self._scan = _GoalScan(index, goal)
            self._hits = {}
        key = (query.obs_embedding.tobytes(), k)
        hits = self._hits.get(key)
        if hits is None:
            hits = self._hits[key] = scan.top_k(query.obs_embedding, k)
        return list(hits)


class TrajectoryDB:
    """In-memory record store with exact top-k retrieval and JSONL persistence."""

    def __init__(self, dimension: int | None = None):
        if dimension is not None and (not _is_int(dimension) or dimension < 1):
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
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

    def retrieve_top_k(
        self, query: RetrievalQuery, k: int, memo: RetrievalMemo | None = None
    ) -> list[RetrievalHit]:
        """The k best records by ``score``, as an exact scan would find them.

        Ordering: score descending, then iteration descending, then task id
        ascending. Returns fewer than k hits when the database is smaller.
        Hit scores are the values ``score`` returns. ``memo`` is the
        episode's ``RetrievalMemo``; a call without one starts an empty one.
        """
        if not _is_int(k) or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
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
        if memo is None:
            memo = RetrievalMemo()
        return memo.top_k(self._index, query, k)

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
        """Read a file ``save`` wrote, or any JSON-lines file of the same content.

        Each record line goes through ``_read_record``: a line in ``save``'s
        layout has its vectors read from bytes, with only their non-zero
        entries parsed as JSON, and any other line is parsed whole, with
        identical records either way. A malformed header or record line
        raises ``DatabaseFormatError`` naming its line number; a file that is
        not UTF-8 text raises it without one.
        """
        path = Path(path)
        # Read line by line: the whole text at once would add its size (and a
        # list of its lines) to the peak memory of every load.
        try:
            with path.open("r", encoding="utf-8") as fh:
                first = fh.readline()
                if not first:
                    raise DatabaseFormatError("empty file, missing header line", line_number=1)

                try:
                    header = json.loads(first)
                except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
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
                if dimension is not None and (not _is_int(dimension) or dimension < 1):
                    raise DatabaseFormatError(
                        f"invalid dimension {dimension!r}", line_number=1
                    )

                db = cls(dimension=dimension)
                for lineno, line in enumerate(fh, start=2):
                    if line.isspace():
                        continue
                    try:
                        record = _read_record(line)
                    except json.JSONDecodeError as exc:
                        raise DatabaseFormatError(f"invalid JSON: {exc}", line_number=lineno)
                    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
        except UnicodeDecodeError as exc:
            # Decoded in chunks, ahead of the lines read: the byte's line is unknown.
            byte = exc.object[exc.start]
            raise DatabaseFormatError(f"not UTF-8 text: byte {byte:#04x}, {exc.reason}") from exc
