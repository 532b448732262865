"""Retrieval database of per-task trajectory records.

One record per task id. A record stores the goal embedding and one
scene-graph embedding per step, the (action, observation) history and its
done flag. The vectors are kept once, cut to the columns they use: a
sorted column list and a read-only matrix of their values, the goal's row
first. Hashed texts fill about 20 of 384 columns, so the 1,000-record
benchmark store holds 1.05 MB of columns and values where dense rows would
take 17.3 MB. Dense vectors are laid out only when read. The history's
scenes are kept the same way, as relation lines: a record holds its
distinct scene lines once and each step's scene as the indexes of its
lines, and decodes a step's lines only when they are read.
Retrieval is exact and scores every record as

    score = cosine(query_goal, record_goal)
          + max over steps t of cosine(query_obs, record_obs[t])

with ties broken toward the more recent iteration, then lexicographic task
id. ``score`` computes this for one record and is the reference.
``retrieve_top_k`` scans the records at once, in the style of an exact
inner-product index: a goal matrix with one row per record (in task id
order), an observation matrix stacking the records' step rows, and the
offsets where each record's steps begin. Each keeps only the columns that
some stored vector uses, found in bulk from the records' kept columns before
the matrix is allocated, and is then filled from them: hashed scene texts
fill a few dozen of 384, so a query reads a small fraction of the store,
while a dense store keeps every column and scans them all. Each row is
divided by its norm in float64, computed in bulk over the cut rows (a
vector of norm 0 becomes a zero row), and then rounded once to float32,
which halves the index: the 1,000-record benchmark store's two matrices
take 0.62 MB instead of 1.24 MB. One float32 matrix-vector product with the
query, divided by its norm and rounded the same way, gives the cosines to
within a bound derived below, and ``np.maximum.reduceat`` keeps each
record's best step.

Within an episode the store is frozen and the goal fixed, so one object,
the episode's ``RetrievalMemo``, holds every record's goal term, computed
once, the step rows its queries scan and the hits of each scene. A record
can score at most its goal term plus 1, the largest step cosine, so a
query scans the step rows only of the records whose goal term can still
reach the k-th best of those scanned: a prefix of the records in goal
order, gathered into one matrix and grown when a query's bound demands (a
prefix of over half the step rows is scanned in place instead). A scene
asked again in the episode gets its hits without a scan.

The records within the scan's margin of the k-th best, usually just k, are
then re-scored exactly: one full-width dot for the goal and for each step
within the margin of the record's best (each such row is laid out at full
width for its dot and not kept), divided by norms computed as ``cosine``
computes them, once per re-scored row and index, through
``cosine_from_parts``, which is ``cosine``'s own arithmetic. So hits carry
``score``'s values bit for bit and sort in its tie order, and a pruned
record could never have been a candidate. The matrices are built on the
first retrieval after the store changes.

The margin is a worst-case bound that each index works out from its column
count n. Let u = 2**-24, float32's unit roundoff, and gamma(m) = m u / (1 -
m u). A stored row and the unit query are each rounded once from float64,
so each entry is off by at most u of its size, which moves their dot by at
most (2u + u**2) times the sum of |r_j q_j|, and that sum is at most 1 for
two unit vectors (Cauchy-Schwarz). Summing the n products in float32 adds
at most gamma(n) times the same sum (Higham, "Accuracy and Stability of
Numerical Algorithms", section 3.1), and adding a goal term to a step term
at most u of each term's size. The float64 norms and divisions, and
``score``'s own arithmetic, move a cosine by under (3d + 8) 2**-53 for a
dimension d, less than u / 2 for any d below 2**26, and float32 underflow
by at most 2n 2**-149. So a scanned cosine lies within gamma(n + 5) of
``cosine``'s value, and a scanned score within e, the goal index's bound
plus the step index's, of ``score``'s. A record whose score reaches the
k-th best score scans at most e below it, and the k-th best scan is at
most e above it, so the cut keeps every record within 2e of the k-th best
scan: each index's ``margin`` is 2 gamma(n + 5), and a score's is the sum
of the goal index's and the step index's. Steps within a record are cut by
the step index's margin the same way, and since a record scans at most its
goal term plus 1 plus e, the goal-term threshold sits twice a score's
margin below the k-th best scan minus 1. Hashed stores use a few dozen
columns, where a score's margin is under 1e-5; a dense 384-column store's
is about 1e-4.

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
constructor, which keeps the used columns and the scene lines, so only the
line being read is ever held at full width. Records repeat goal texts,
actions and scene lines (the 1,000-record benchmark store's 3,387 distinct
scene texts, 1.9 MB as Python strings, hold 802 distinct lines, 63 KB), so
a load keeps one object per distinct goal text, action and line. A load of
that store retains 2.0 MB (tracemalloc), 3.7 MB when records kept whole
scene texts. A record line must be an object that gives no key twice and
whose vector entries are numbers.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .atomic_io import open_atomic
from .embedding import check_dimension, cosine, cosine_from_parts, is_int, json_numbers
from .embedding import vector_norm

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
    return vec


def _check_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains non-finite values")


def _index_code(count: int) -> str:
    """The ``array`` type code of an index into ``count`` lines: 1 byte up to 256."""
    return "B" if count <= 1 << 8 else "H" if count <= 1 << 16 else "L"


def _pack_scenes(scenes: list[str]) -> tuple[tuple[str, ...], tuple[bytes, ...]]:
    """The distinct lines of ``scenes`` in first-seen order, and each scene as their indexes.

    A scene is its ``split("\\n")``, which ``"\\n".join`` inverts for any
    string. Each distinct scene is converted once, and equal scenes share
    one ``bytes`` of indexes.
    """
    places: dict[str, int] = {}
    indexes: dict[str, list[int]] = {}
    for scene in scenes:
        if scene not in indexes:
            indexes[scene] = [places.setdefault(line, len(places)) for line in scene.split("\n")]
    code = _index_code(len(places))
    packed = {scene: array(code, found).tobytes() for scene, found in indexes.items()}
    return tuple(places), tuple([packed[scene] for scene in scenes])


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


class TaskRecord:
    """One task's latest trajectory, as stored in the database.

    A record keeps its goal and step vectors once, cut to the columns they
    use. ``columns`` lists, in order, every column where the goal or a step
    holds an entry other than ``0.0`` (``-0.0`` counts: JSON writes its
    sign), and ``values`` is a ``(1 + len(actions), len(columns))`` matrix:
    row 0 is the goal, row t + 1 is step t. Both are read-only copies, so a
    caller's later writes reach no stored record. Hashed scene texts fill
    about 20 of 384 columns, so a record holds about a twentieth of its
    dense bytes.

    Its scenes are kept as relation lines, as its vectors are kept as
    columns: ``actions`` holds each step's action text, ``lines`` the
    record's distinct scene lines (split on ``"\\n"``) in first-seen order,
    and ``scenes`` each step's scene as the indexes of its lines, a
    ``bytes`` of 1-byte indexes up to 256 lines and wider past that.
    ``scene_lines`` decodes one step's indexes; it is the one reader of
    ``scenes``. Scene texts repeat a few hundred relation lines, so the
    lines are a small part of the texts they make up.

    The constructor takes the goal vector, the steps as any sequence of
    step vectors and the history as (action, scene) pairs. The properties
    of those names build them on each read: the goal vector and one
    ``(len(actions), dimension)`` step matrix, read-only and dense, and a
    fresh list of (action, scene) pairs. ``row`` builds one vector row.
    Records compare by identity: they hold arrays, whose ``==`` has no
    single truth value. Content equality is ``to_json_line()`` equality.
    Every argument is type-checked, since ``load`` builds records from a
    file: a JSON ``true`` is no iteration, and ``"no"`` is no done flag.
    """

    __slots__ = (
        "task_id", "iteration", "goal_text", "done",
        "actions", "lines", "scenes", "dimension", "columns", "values",
    )

    def __init__(
        self, task_id, iteration, goal_text, goal_embedding, obs_embeddings, history, done
    ) -> None:
        if not isinstance(task_id, str) or not task_id:
            raise ValueError(f"task_id must be a non-empty string, got {task_id!r}")
        if not isinstance(goal_text, str):
            raise ValueError(f"goal_text must be a string, got {goal_text!r}")
        if not is_int(iteration) or iteration < 1:
            raise ValueError(f"iteration must be an integer >= 1, got {iteration!r}")
        if not isinstance(done, bool):
            raise ValueError(f"done must be true or false, got {done!r}")
        if not all(
            isinstance(step, (tuple, list)) and len(step) == 2
            and isinstance(step[0], str) and isinstance(step[1], str)
            for step in history
        ):
            raise ValueError("history must hold (action, scene) pairs of strings")
        if len(history) < 1:
            raise ValueError("history must contain at least one step")
        goal = _as_vector(goal_embedding, "goal_embedding")
        steps = np.asarray(obs_embeddings, dtype=np.float64)  # ragged input fails here
        shape = (len(history), goal.size)
        if steps.shape != shape:
            raise ValueError(f"obs_embeddings has shape {steps.shape}, expected {shape}")
        # A column is kept where some entry's bits are not all zero: 0.0 is
        # the one float64 whose bits are, and JSON writes -0.0 with its sign.
        # A non-finite entry's bits are never all zero, so it is kept and
        # checked among the kept values.
        used = (goal.view(np.uint64) != 0) | steps.view(np.uint64).any(axis=0)
        columns = used.nonzero()[0].copy()  # a view would keep ``used`` alive
        values = np.empty((1 + len(steps), columns.size))
        goal.take(columns, out=values[0])
        steps.take(columns, axis=1, out=values[1:])
        _check_finite(values[0], "goal_embedding")
        _check_finite(values[1:], "obs_embeddings")
        columns.setflags(write=False)
        values.setflags(write=False)
        self.task_id, self.iteration, self.goal_text = task_id, iteration, goal_text
        self.done = done
        self.dimension, self.columns, self.values = goal.size, columns, values
        self.actions = tuple([action for action, _ in history])
        self.lines, self.scenes = _pack_scenes([scene for _, scene in history])

    def __repr__(self) -> str:
        return f"TaskRecord({self.task_id!r}, iteration={self.iteration}, done={self.done})"

    def row(self, index: int) -> np.ndarray:
        """Row ``index`` of ``values`` at full width: 0 is the goal, t + 1 step t."""
        vector = np.zeros(self.dimension)
        vector[self.columns] = self.values[index]
        return vector

    def scene_lines(self, t: int) -> list[str]:
        """Step ``t``'s scene as its lines; ``"\\n".join`` gives the scene text."""
        lines = self.lines
        return [lines[i] for i in memoryview(self.scenes[t]).cast(_index_code(len(lines)))]

    @property
    def goal_embedding(self) -> np.ndarray:
        goal = self.row(0)
        goal.setflags(write=False)
        return goal

    @property
    def obs_embeddings(self) -> np.ndarray:
        steps = np.zeros((len(self.values) - 1, self.dimension))
        steps[:, self.columns] = self.values[1:]
        steps.setflags(write=False)
        return steps

    @property
    def history(self) -> list[tuple[str, str]]:
        return [
            (action, "\n".join(self.scene_lines(t))) for t, action in enumerate(self.actions)
        ]

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
    matrix.reshape(-1)[others[:in_goal]] = json_numbers(values[:in_goal], "goal_embedding")
    matrix.reshape(-1)[others[in_goal:]] = json_numbers(values[in_goal:], "obs_embeddings")
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
        data["goal_embedding"] = json_numbers(goal, "goal_embedding")
    if isinstance(steps, list):
        data["obs_embeddings"] = [
            json_numbers(row, "obs_embeddings") if isinstance(row, list) else row for row in steps
        ]
    return TaskRecord.from_json_dict(data)


@dataclass(frozen=True)
class RetrievalQuery:
    """Current goal and current scene-graph embedding."""

    goal_embedding: np.ndarray
    obs_embedding: np.ndarray

    def __post_init__(self) -> None:
        for name in ("goal_embedding", "obs_embedding"):
            vector = _as_vector(getattr(self, name), name)
            _check_finite(vector, name)
            object.__setattr__(self, name, vector)


@dataclass(frozen=True)
class RetrievalHit:
    score: float
    record: TaskRecord


def score(query: RetrievalQuery, record: TaskRecord) -> float:
    """Goal similarity plus best per-step observation similarity."""
    goal_term = cosine(query.goal_embedding, record.goal_embedding)
    obs_term = max(cosine(query.obs_embedding, v) for v in record.obs_embeddings)
    return goal_term + obs_term


def _scan_margin(columns: int) -> float:
    """Twice the most a scan cosine over ``columns`` columns can be off.

    ``gamma(columns + 5)`` bounds one scan cosine's distance from
    ``cosine``'s value, and a cut compares two scanned values, each off by
    up to that much. The module docstring derives the bound.
    """
    rounding = (columns + 5) * 2.0**-24  # float32's unit roundoff
    return 2 * rounding / (1 - rounding)


def _goal_floor(kth_best: float, margin: float) -> float:
    """The least goal term with which a record can be a candidate.

    A record scans at most its goal term plus 1, the largest step cosine,
    plus half the score ``margin`` for rounding; it is a candidate only if
    that comes within ``margin`` of a k-th best that is at least
    ``kth_best``. Twice the margin covers both.
    """
    return float(kth_best) - 1.0 - 2 * margin


# Blocks of one height are laid out side by side, at most this many rows of
# them at once: a few dozen numpy calls per index, and a transient a small
# part of the matrix.
_ROWS_AT_ONCE = 128


def _side_by_side(blocks: list[tuple[np.ndarray, np.ndarray]], piece: np.ndarray):
    """The columns and the values of the blocks at ``piece``, all of one height.

    The values come as one matrix of that height, the blocks side by side.
    """
    part = [blocks[i] for i in piece.tolist()]
    return (
        np.concatenate([columns for columns, _ in part]),
        np.concatenate([values for _, values in part], axis=1),
    )


class _UsedColumns:
    """Stored vectors as float32 unit rows, cut to the columns any of them uses.

    The vectors come as blocks of at least one row: a record's ``columns``
    with rows of its ``values``, its goal or its steps. ``starts`` holds the
    row where each block begins. A record keeps the columns of its goal and
    of its steps, and those that hold only -0.0, so the columns some row
    uses are found first, in bulk over blocks of one height laid side by
    side, and only then is the matrix allocated at that width and filled the
    same way. The columns no row uses are zero in every stored vector and
    add nothing to a dot product. No record is laid out at full width, and
    nothing is held at the records' kept width. Each row is divided by its
    norm in float64, computed over the cut row, and then rounded once to
    float32; a vector of norm 0 becomes a zero row. So a row's dot with a
    ``unit`` query is its cosine to within ``margin``'s half, and ``margin``
    is what a cut between two such values allows. The exact norms the
    re-score divides by are ``cosine``'s, computed by ``cosine`` the first
    time a row is re-scored and kept for the index's life.
    """

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]], dimension: int):
        heights = np.array([len(values) for _, values in blocks])
        widths = np.array([len(columns) for columns, _ in blocks])
        self.starts = np.cumsum(heights) - heights
        order = np.argsort(heights, kind="stable")
        pieces = []  # block indices, each piece of one height
        for run in np.split(order, np.flatnonzero(np.diff(heights[order])) + 1):
            size = max(1, _ROWS_AT_ONCE // int(heights[run[0]]))
            pieces += [run[i : i + size] for i in range(0, len(run), size)]
        used = np.zeros(dimension, dtype=bool)
        for piece in pieces:
            columns, values = _side_by_side(blocks, piece)
            used[columns[values.any(axis=0)]] = True
        self.columns = np.flatnonzero(used)
        self.margin = _scan_margin(self.columns.size)
        place = np.cumsum(used) - 1  # a used column's place in the rows
        self.matrix = np.zeros((int(heights.sum()), self.columns.size), dtype=np.float32)
        for piece in pieces:
            columns, values = _side_by_side(blocks, piece)
            # A block's entries are a run of the piece's columns (a block
            # that keeps no column has none), so a row's norm sums one run.
            width = widths[piece]
            runs = (np.cumsum(width) - width)[width > 0]
            norms = np.sqrt(np.add.reduceat(np.square(values), runs, axis=1))
            inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms != 0.0)
            values *= np.repeat(inverse, width[width > 0], axis=1)
            keep = used[columns]  # a column no row uses holds only zeros
            firsts = np.repeat(self.starts[piece], width)[keep]
            rows = firsts + np.arange(len(values))[:, np.newaxis]
            self.matrix[rows, place[columns[keep]]] = values[:, keep]
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
        """``vector`` cut to the used columns, divided by its ``norm``, in float32.

        A row's dot with it is the row's cosine with ``vector`` to within
        half of ``margin``; a zero vector gives zeros.
        """
        if norm == 0.0:
            return np.zeros(self.columns.size, dtype=np.float32)
        # The query's norm is over all its entries: its mass on dropped
        # columns adds nothing to the dots but still scales every cosine.
        return (vector[self.columns] / norm).astype(np.float32)


class _MatrixIndex:
    """Every record's vectors in two column-trimmed matrices, in task id order."""

    def __init__(self, records: list[TaskRecord]):
        self.records = records
        dimension = records[0].dimension
        self.goals = _UsedColumns([(r.columns, r.values[:1]) for r in records], dimension)
        self.observations = _UsedColumns([(r.columns, r.values[1:]) for r in records], dimension)
        self.lengths = np.array([len(r.actions) for r in records])
        # A score adds a goal cosine to a step cosine, and a cut compares two.
        self.margin = self.goals.margin + self.observations.margin


class RetrievalMemo:
    """One episode's retrievals: the goal's terms once, and hits by scene.

    ``run_episode`` owns one and hands it to every ``retrieve_top_k`` of the
    episode, whose store is frozen and goal fixed. For one index and goal it
    holds every record's float32 goal term, the exact ones re-scored so far,
    the step rows its queries scan and the hits of each scene and k; a new
    index or goal resets them together. Bounds, gathers and scans run in
    float32, and every cut allows the index's ``margin``, so the exact
    re-score sees every record and step that can be a hit. A query scans
    the records whose goal term reaches a threshold, a prefix in goal-term
    order: first the k-th best goal term, so that k records are in reach,
    then lowered until no record out of reach could join the query's k
    best. The prefix's step rows are gathered into one matrix as it grows;
    once it would hold over half the index's step rows, the index's own
    matrix is scanned in place instead. It dies with its episode: nothing
    is kept on the store or in the module.
    """

    def __init__(self) -> None:
        self._index = self._key = None

    def top_k(self, index: _MatrixIndex, query: RetrievalQuery, k: int) -> list[RetrievalHit]:
        goal = query.goal_embedding.tobytes()
        if index is not self._index or goal != self._key:
            self._index, self._key = index, goal
            self._goal = np.frombuffer(goal)  # the goal the memo is keyed by, read-only
            self._goal_norm = vector_norm(self._goal)
            self._all_terms = index.goals.matrix @ index.goals.unit(self._goal, self._goal_norm)
            self._exact_terms: dict[int, float] = {}  # ``score``'s goal term, by record
            self._hits: dict[tuple[bytes, int], tuple[RetrievalHit, ...]] = {}
            self._threshold = np.inf
            self._records = self._terms = self._rows = self._starts = None
        key = (query.obs_embedding.tobytes(), k)
        hits = self._hits.get(key)
        if hits is None:
            hits = self._hits[key] = self._scan(query.obs_embedding, k)
        return list(hits)

    def _reach(self, threshold: float) -> None:
        """Scan every record whose goal term is at least ``threshold`` from now on."""
        steps = self._index.observations
        records = np.flatnonzero(self._all_terms >= threshold)
        lengths = self._index.lengths[records]
        ends = np.cumsum(lengths)
        if 2 * ends[-1] > len(steps.matrix):
            self._threshold = -np.inf
            self._records = np.arange(self._all_terms.size)
            self._terms, self._rows, self._starts = self._all_terms, steps.matrix, steps.starts
        else:
            starts = ends - lengths
            rows = np.repeat(steps.starts[records] - starts, lengths) + np.arange(ends[-1])
            self._threshold = threshold
            self._records, self._terms = records, self._all_terms[records]
            self._rows, self._starts = steps.matrix[rows], starts

    def _scan(self, obs: np.ndarray, k: int) -> tuple[RetrievalHit, ...]:
        index = self._index
        steps = index.observations
        all_terms = self._all_terms
        obs_norm = vector_norm(obs)
        unit = steps.unit(obs, obs_norm)
        count = all_terms.size
        if self._records is None or self._records.size < min(k, count):
            # At least k records, those of the k best goal terms: the loop
            # below lowers the threshold until no other record can compete.
            cut = max(count - k, 0)
            self._reach(np.partition(all_terms, cut)[cut])
        while True:
            step_terms = self._rows @ unit
            best_steps = np.maximum.reduceat(step_terms, self._starts)
            scores = self._terms + best_steps
            cut = max(scores.size - k, 0)
            kth_best = np.partition(scores, cut)[cut]
            # Scanning more records could only raise this k-th best.
            threshold = _goal_floor(kth_best, index.margin)
            if threshold >= self._threshold:
                break
            self._reach(threshold)
        goal, goals = self._goal, index.goals
        candidates = np.flatnonzero(scores >= float(kth_best) - index.margin)
        hits = []
        for i, start, best in zip(
            self._records[candidates].tolist(),
            self._starts[candidates].tolist(),
            best_steps[candidates].tolist(),
        ):
            # ``score(query, record)``, from the cached norms. The best step
            # by ``cosine`` is among those near the best scan cosine. Only
            # the rows dotted here are laid out at full width, and not kept.
            record = index.records[i]
            goal_term = self._exact_terms.get(i)
            if goal_term is None:
                goal_term = self._exact_terms[i] = goals.cosine(
                    goal, self._goal_norm, i, record.row(0)
                )
            first = int(steps.starts[i])
            obs_term = max(
                steps.cosine(obs, obs_norm, first + t, record.row(t + 1))
                for t, term in enumerate(step_terms[start : start + len(record.actions)].tolist())
                if term >= best - steps.margin
            )
            hits.append(RetrievalHit(score=goal_term + obs_term, record=record))
        hits.sort(key=lambda h: (-h.score, -h.record.iteration, h.record.task_id))
        return tuple(hits[:k])


class TrajectoryDB:
    """In-memory record store with exact top-k retrieval and JSONL persistence."""

    def __init__(self, dimension: int | None = None):
        if dimension is not None:
            check_dimension(dimension)
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
        if not is_int(k) or k < 1:
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
        identical records either way. Equal goal texts, actions and scene
        lines of the loaded records are one object. A malformed header or
        record line raises ``DatabaseFormatError`` naming its line number; a
        file that is not UTF-8 text raises it without one.
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
                # JSONDecodeError, an integer past the digit limit, or deep nesting
                except (ValueError, RecursionError) as exc:
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
                if dimension is not None and (not is_int(dimension) or dimension < 1):
                    raise DatabaseFormatError(
                        f"invalid dimension {dimension!r}", line_number=1
                    )

                db = cls(dimension=dimension)
                # Records repeat goal texts, actions and scene lines; each is held once.
                texts: dict[str, str] = {}
                for lineno, line in enumerate(fh, start=2):
                    if line.isspace():
                        continue
                    try:
                        record = _read_record(line)
                    except (json.JSONDecodeError, RecursionError) as exc:
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
                    record.goal_text = texts.setdefault(record.goal_text, record.goal_text)
                    record.actions = tuple([texts.setdefault(a, a) for a in record.actions])
                    record.lines = tuple([texts.setdefault(line, line) for line in record.lines])
                    db._records[record.task_id] = record
                return db
        except UnicodeDecodeError as exc:
            # Decoded in chunks, ahead of the lines read: the byte's line is unknown.
            byte = exc.object[exc.start]
            raise DatabaseFormatError(f"not UTF-8 text: byte {byte:#04x}, {exc.reason}") from exc
