"""Text encoders and vector similarity.

The default encoder is a deterministic feature-hashing embedder: it needs no
network, no model weights, and produces bitwise-identical vectors for equal
input on every platform. It is not semantically meaningful, but it is exact,
which is what the retrieval math and the test suite need. Each encoder
instance memoizes the hashed bucket and sign of every token it has seen
(scene texts reuse a small vocabulary) and sums the signs with one
``np.bincount``; sums of +-1.0 are exact in any order, so the vectors equal
the per-token accumulation bit for bit. It also remembers the buckets and
signs of each distinct line (split on ``"\\n"``) it has encoded, up to
``_LINE_MEMO_LIMIT`` lines: a scene text is relation lines, and scene texts
combine a few lines anew (the 1,000-record benchmark store's 3,387 distinct
scene texts hold 802 distinct lines). A text's vector is the ``bincount`` of
its lines' tokens. No token spans a ``"\\n"``, so those are the whole text's
tokens, and the vector keeps its bits. Every vector it returns is read-only.
A remote HTTP encoder with the same interface can be swapped in for real
runs; it remembers nothing, and it refuses any reply that is not an object
holding a list of ``dimension`` finite JSON numbers. It and the chat backend
make their HTTP calls through ``post_json``, the one place that sends a
request and reads its reply.

``cosine`` is the one similarity formula. Retrieval re-scores with
``cosine_from_parts`` and norms from ``vector_norm``, the same expressions,
so its scores equal ``cosine``'s bit for bit.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

DEFAULT_DIMENSION = 384

# FNV-1a, 64 bit. Published constants; chosen over hash() because the result
# must not vary across processes or platforms.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Alphanumeric runs of the lowercased text. Underscores split, so labels like
# "plant_1" contribute the tokens "plant" and "1".
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Lines one HashingEncoder remembers; past this, the oldest is forgotten. A
# relation line of about 8 tokens takes about 160 bytes as ``_TOKEN_PAIR``s,
# so the cap holds under 1 MB.
_LINE_MEMO_LIMIT = 4096
# A token's bucket and its sign, the weight ``np.bincount`` adds there.
_TOKEN_PAIR = np.dtype([("bucket", np.int64), ("sign", np.float64)])


class EncoderError(Exception):
    """Raised when an encoder cannot produce a vector."""


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it on non-alphanumeric boundaries."""
    return _TOKEN_RE.findall(text.lower())


def is_int(value) -> bool:
    """An ``int`` that is not a ``bool`` (JSON's true and false are ints in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_dimension(dimension) -> None:
    """Refuse a dimension that is no ``int`` of at least 1 (a ``bool`` is none)."""
    if not is_int(dimension) or dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")


def json_numbers(values: list, name: str) -> np.ndarray:
    """Parsed JSON vector entries as float64, refusing any that is no number.

    ``np.array`` would read ``true`` as 1.0, ``"1.5"`` as 1.5 and ``[1.0]``
    as a row.
    """
    if not set(map(type, values)) <= {float, int}:  # a bool's type is not int
        odd = next(v for v in values if type(v) is not float and type(v) is not int)
        raise ValueError(f"{name} entries must be numbers, got {odd!r}")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} has an entry too large for a float") from None


class Encoder(Protocol):
    """Anything that turns text into a fixed-dimension float vector."""

    dimension: int

    def encode(self, text: str) -> np.ndarray: ...


@dataclass(frozen=True)
class HashingEncoder:
    """Deterministic feature-hashing text encoder.

    Each token is hashed with FNV-1a 64. Bit 0 of the hash selects the sign
    and the remaining bits select the bucket, so the sign bit is disjoint
    from the index computation. Token contributions accumulate and the result
    is L2-normalized; text with no tokens stays the all-zero vector. A line
    encoded before is not tokenized again: its tokens' buckets and signs
    are remembered. Every returned vector is a fresh, read-only array.
    """

    dimension: int = DEFAULT_DIMENSION
    # token -> its bucket and sign, one ``_TOKEN_PAIR``; depends only on the
    # token and dimension.
    _codes: dict[str, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # line -> its tokens' ``_TOKEN_PAIR``s, oldest first; depends only on the
    # line and dimension.
    _lines: dict[str, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_dimension(self.dimension)

    def _code(self, token: str) -> bytes:
        h = fnv1a64(token.encode("utf-8"))
        pair = np.array(((h >> 1) % self.dimension, 1.0 if h & 1 else -1.0), dtype=_TOKEN_PAIR)
        code = self._codes[token] = pair.tobytes()
        return code

    def _remember(self, line: str) -> bytes:
        codes = self._codes
        pairs = b"".join([codes[t] if t in codes else self._code(t) for t in tokenize(line)])
        if len(self._lines) >= _LINE_MEMO_LIMIT:
            del self._lines[next(iter(self._lines))]
        self._lines[line] = pairs
        return pairs

    def encode(self, text: str) -> np.ndarray:
        remembered = self._lines
        parts = []
        for line in text.split("\n"):
            pairs = remembered.get(line)
            parts.append(self._remember(line) if pairs is None else pairs)
        pairs = np.frombuffer(b"".join(parts), dtype=_TOKEN_PAIR)
        vec = np.bincount(pairs["bucket"], weights=pairs["sign"], minlength=self.dimension)
        vec = vec.astype(np.float64, copy=False)  # bincount of no tokens is int64
        norm = vector_norm(vec)
        if norm > 0.0:
            vec /= norm
        vec.setflags(write=False)
        return vec


def post_json(
    url: str, payload: dict, *, timeout: float, api_key_env: str, error: type, what: str
):
    """POST ``payload`` as JSON to ``url`` and return the reply's decoded body.

    The bearer key, if any, is read from the variable ``api_key_env`` at call
    time. A failed request or an error status raises ``error`` ("``what``
    request failed"), and so does a body that is no JSON ("``what`` response
    is not JSON").
    """
    import requests  # deferred: only remote clients need it, and it is slow to import

    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        response = requests.post(url, json=payload, headers=headers, timeout=timeout)
        response.raise_for_status()
    except requests.RequestException as exc:
        raise error(f"{what} request failed: {exc}") from exc
    # Decoded apart: requests' JSONDecodeError is also a RequestException.
    # A body nested past Python's recursion limit raises RecursionError.
    try:
        return response.json()
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} response is not JSON: {exc}") from exc


@dataclass(frozen=True)
class RemoteEncoder:
    """HTTP embedding endpoint client.

    POSTs ``{"text": ...}`` and expects ``{"embedding": [...]}`` back: an
    object whose ``embedding`` is a list of ``dimension`` finite JSON numbers
    (``true`` is none). Any other reply raises ``EncoderError``, which ends
    one episode, not the run. The returned vector is read-only. It posts
    through ``post_json``, which reads the credential from the environment
    at call time; it is never accepted as a constructor argument so it
    cannot end up in config files or logs.
    """

    url: str
    dimension: int = DEFAULT_DIMENSION
    timeout: float = 30.0
    api_key_env: str = "PRAG_ENCODER_API_KEY"

    def __post_init__(self) -> None:
        check_dimension(self.dimension)

    def encode(self, text: str) -> np.ndarray:
        payload = post_json(
            self.url, {"text": text}, timeout=self.timeout, api_key_env=self.api_key_env,
            error=EncoderError, what="remote encoder",
        )
        if not isinstance(payload, dict):
            raise EncoderError(
                f"remote encoder response is not a JSON object, got {type(payload).__name__}"
            )
        values = payload.get("embedding")
        if not isinstance(values, list):
            raise EncoderError("remote encoder response has no 'embedding' list")
        if len(values) != self.dimension:
            raise EncoderError(
                f"remote encoder returned dimension {len(values)}, expected {self.dimension}"
            )
        try:
            vec = json_numbers(values, "remote encoder embedding")
        except ValueError as exc:
            raise EncoderError(str(exc)) from None
        if not np.all(np.isfinite(vec)):
            raise EncoderError("remote encoder returned non-finite values")
        vec.setflags(write=False)
        return vec


def vector_norm(vec: np.ndarray) -> float:
    """Euclidean norm of a float64 vector, as ``cosine`` computes it."""
    return math.sqrt(float(np.dot(vec, vec)))


def cosine_from_parts(dot: float, norm_a: float, norm_b: float) -> float:
    """Cosine from ``a . b`` and both norms; a zero vector scores 0.0."""
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, with the convention that zero vectors score 0.0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return cosine_from_parts(float(np.dot(a, b)), vector_norm(a), vector_norm(b))
