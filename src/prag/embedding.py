"""Text encoders and vector similarity.

The default encoder is a deterministic feature-hashing embedder: it needs no
network, no model weights, and produces bitwise-identical vectors for equal
input on every platform. It is not semantically meaningful, but it is exact,
which is what the retrieval math and the test suite need. Each encoder
instance memoizes the hashed bucket and sign of every token it has seen
(scene texts reuse a small vocabulary) and sums the signs with one
``np.bincount``; sums of +-1.0 are exact in any order, so the vectors equal
the per-token accumulation bit for bit. A remote HTTP encoder with the same
interface can be swapped in for real runs.
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
    is L2-normalized; text with no tokens stays the all-zero vector.
    """

    dimension: int = DEFAULT_DIMENSION
    # token -> bucket * 2 + sign bit; depends only on the token and dimension.
    _codes: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")

    def _code(self, token: str) -> int:
        h = fnv1a64(token.encode("utf-8"))
        code = ((h >> 1) % self.dimension) * 2 + (h & 1)
        self._codes[token] = code
        return code

    def encode(self, text: str) -> np.ndarray:
        codes = self._codes
        packed = np.array(
            [codes[t] if t in codes else self._code(t) for t in tokenize(text)],
            dtype=np.int64,
        )
        weights = (packed & 1) * 2.0 - 1.0
        vec = np.bincount(packed >> 1, weights=weights, minlength=self.dimension)
        vec = vec.astype(np.float64, copy=False)  # bincount of no tokens is int64
        norm = math.sqrt(float(np.dot(vec, vec)))
        if norm > 0.0:
            vec /= norm
        return vec


@dataclass(frozen=True)
class RemoteEncoder:
    """HTTP embedding endpoint client.

    POSTs ``{"text": ...}`` and expects ``{"embedding": [...]}`` back. The
    credential, if any, is read from the environment at call time and sent as
    a bearer token; it is never accepted as a constructor argument so it
    cannot end up in config files or logs.
    """

    url: str
    dimension: int = DEFAULT_DIMENSION
    timeout: float = 30.0
    api_key_env: str = "PRAG_ENCODER_API_KEY"

    def encode(self, text: str) -> np.ndarray:
        import requests  # deferred: only remote clients need it, and it is slow to import

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            response = requests.post(
                self.url, json={"text": text}, headers=headers, timeout=self.timeout
            )
            response.raise_for_status()
            payload = response.json()
        except requests.RequestException as exc:
            raise EncoderError(f"remote encoder request failed: {exc}") from exc
        except ValueError as exc:
            raise EncoderError(f"remote encoder returned invalid JSON: {exc}") from exc

        values = payload.get("embedding")
        if not isinstance(values, list):
            raise EncoderError("remote encoder response has no 'embedding' list")
        if len(values) != self.dimension:
            raise EncoderError(
                f"remote encoder returned dimension {len(values)}, expected {self.dimension}"
            )
        vec = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            raise EncoderError("remote encoder returned non-finite values")
        return vec


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, with the convention that zero vectors score 0.0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = math.sqrt(float(np.dot(a, a)))
    norm_b = math.sqrt(float(np.dot(b, b)))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (norm_a * norm_b)
