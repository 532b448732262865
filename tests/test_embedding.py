"""Encoder and cosine tests against independent reference implementations."""

from __future__ import annotations

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prag import embedding
from prag.embedding import (
    DEFAULT_DIMENSION,
    EncoderError,
    HashingEncoder,
    RemoteEncoder,
    cosine,
    fnv1a64,
    tokenize,
)


def reference_fnv1a64(data: bytes) -> int:
    # Spelled out from the published constants, independent of the library code.
    value = 14695981039346656037
    for byte in data:
        value = value ^ byte
        value = (value * 1099511628211) % (1 << 64)
    return value


def reference_encode(text: str, dimension: int) -> np.ndarray:
    vector = [0.0] * dimension
    for token in re.findall(r"[^\W_]+", text.lower(), re.UNICODE):
        h = reference_fnv1a64(token.encode("utf-8"))
        sign = 1.0 if h & 1 else -1.0
        vector[(h >> 1) % dimension] += sign
    norm = math.sqrt(sum(v * v for v in vector))
    if norm > 0.0:
        vector = [v / norm for v in vector]
    return np.asarray(vector, dtype=np.float64)


def loop_encode(text: str, dimension: int) -> np.ndarray:
    """The per-token accumulation, step for step, for bitwise comparison."""
    vec = np.zeros(dimension, dtype=np.float64)
    for token in re.findall(r"[^\W_]+", text.lower(), re.UNICODE):
        h = reference_fnv1a64(token.encode("utf-8"))
        vec[(h >> 1) % dimension] += 1.0 if h & 1 else -1.0
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm > 0.0:
        vec /= norm
    return vec


def cancelling_pair(dimension: int) -> tuple[str, str]:
    """Two tokens that hash to one bucket with opposite signs."""
    seen: dict[int, tuple[str, int]] = {}
    for i in range(10_000):
        token = f"w{i}"
        h = reference_fnv1a64(token.encode("utf-8"))
        bucket, sign = (h >> 1) % dimension, h & 1
        if bucket in seen and seen[bucket][1] != sign:
            return seen[bucket][0], token
        seen.setdefault(bucket, (token, sign))
    raise AssertionError("no cancelling pair found")


class TestFnv1a64:
    def test_known_vectors(self):
        # Standard FNV-1a test vectors.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @given(st.binary(max_size=64))
    def test_matches_reference(self, data):
        assert fnv1a64(data) == reference_fnv1a64(data)

    @given(st.binary(max_size=64))
    def test_stays_64_bit(self, data):
        assert 0 <= fnv1a64(data) < 1 << 64


class TestTokenize:
    def test_lowercases_and_splits_alphanumeric_runs(self):
        assert tokenize("Put the MUG-3 on table_1!") == ["put", "the", "mug", "3", "on", "table", "1"]

    def test_underscore_is_a_separator(self):
        assert tokenize("coffee_maker") == ["coffee", "maker"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("!!! ---") == []


class TestHashingEncoder:
    def test_dimension_default(self):
        assert HashingEncoder().dimension == DEFAULT_DIMENSION == 384

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_matches_reference_implementation(self, text):
        encoder = HashingEncoder(dimension=64)
        np.testing.assert_allclose(encoder.encode(text), reference_encode(text, 64), atol=1e-15)

    @given(st.text(min_size=1, max_size=80))
    def test_unit_norm_or_zero(self, text):
        vector = encoder_vector = HashingEncoder(dimension=32).encode(text)
        norm = float(np.linalg.norm(encoder_vector))
        assert norm == pytest.approx(1.0, abs=1e-12) or norm == 0.0
        assert vector.dtype == np.float64

    def test_empty_text_is_zero_vector(self):
        vector = HashingEncoder(dimension=16).encode("")
        assert not vector.any()

    def test_deterministic_and_case_insensitive(self):
        encoder = HashingEncoder()
        a = encoder.encode("Wash the Mugs")
        b = encoder.encode("wash the mugs")
        np.testing.assert_array_equal(a, b)

    def test_bit_identical_to_per_token_loop(self):
        rng = random.Random(7)
        a, b = cancelling_pair(16)
        words = ["plant_1", "sink_1", "next_to", "True", "Mug", "ünï", "42", a, b]
        texts = ["", "!!! --- /:", "\n\n", f"{a} {b}", f"{a}/{b}/{a}: True", f"{a} {b} {a}"]
        for _ in range(300):
            texts.append(
                rng.choice([" ", "/", ": ", "\n", "_", ""]).join(
                    rng.choice(words) for _ in range(rng.randint(0, 30))
                )
            )
        for dimension in (1, 16, 384):
            encoder = HashingEncoder(dimension=dimension)
            # Twice over, so the second pass reads every line from the memo.
            for text in texts + texts:
                vector = encoder.encode(text)
                assert vector.dtype == np.float64 and vector.shape == (dimension,)
                assert vector.tobytes() == loop_encode(text, dimension).tobytes(), text

    # A final sigma lowercases by its neighbours, and a text's tokens are
    # found line by line.
    @given(st.lists(st.sampled_from(["ΟΔΟΣ", "Σ", "ΑΣ\u0301"]) | st.text(max_size=8)))
    def test_a_text_of_lines_has_the_bits_of_the_whole_text(self, lines):
        encoder = HashingEncoder(dimension=16)
        text = "\n".join(lines)
        for _ in range(2):  # tokenized, then read from the line memo
            assert encoder.encode(text).tobytes() == loop_encode(text, 16).tobytes()

    def test_cancelling_tokens_give_the_zero_vector(self):
        a, b = cancelling_pair(16)
        vector = HashingEncoder(dimension=16).encode(f"{a} {b}")
        assert vector.tobytes() == np.zeros(16).tobytes()  # +0.0, not -0.0

    def test_line_memo_is_not_part_of_identity(self):
        used = HashingEncoder(dimension=16)
        used.encode("plant sink mug")
        assert used._lines
        assert used == HashingEncoder(dimension=16)
        assert hash(used) == hash(HashingEncoder(dimension=16))
        assert repr(used) == "HashingEncoder(dimension=16)"

    @pytest.mark.parametrize("dimension", [0, -1, True, 2.5, "8", None])
    def test_rejects_bad_dimension(self, dimension):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            HashingEncoder(dimension=dimension)

    def test_remembered_lines_give_a_fresh_encoding(self, monkeypatch):
        encoder = HashingEncoder()
        text = "mug_1 on table_1: True\nagent at (2, 3)"
        first = encoder.encode(text)

        def tokenize_again(self, line):
            raise AssertionError(f"{line!r} was tokenized twice")

        with monkeypatch.context() as patch:
            patch.setattr(HashingEncoder, "_remember", tokenize_again)
            again = encoder.encode(text)
            # The same lines in another text are not tokenized again either.
            swapped = encoder.encode("agent at (2, 3)\nmug_1 on table_1: True")
        assert again.tobytes() == first.tobytes() == swapped.tobytes()
        assert first.tobytes() == HashingEncoder().encode(text).tobytes()

    def test_remembered_lines_take_a_fraction_of_their_texts_dense_bytes(self):
        rng = random.Random(11)
        labels = [f"{kind}_{i}" for kind in ("mug", "plant", "sink") for i in range(1, 3)]
        relations = ["on_top_of", "next_to", "inside", "held_by"]
        texts = set()
        while len(texts) < 1000:
            lines = {
                f"{rng.choice(labels)}/{rng.choice(labels)}/{rng.choice(relations)}: True"
                for _ in range(rng.randint(2, 6))
            }
            texts.add("\n".join(sorted(lines)))
        texts = sorted(texts)
        encoder = HashingEncoder()
        tracemalloc.start()
        try:
            for text in texts:
                encoder.encode(text)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        distinct = dict.fromkeys(line for text in texts for line in text.split("\n"))
        assert list(encoder._lines) == list(distinct)
        assert retained < len(texts) * encoder.dimension * 8 / 40
        for text in texts[:50]:  # laid out again, with the bytes of a fresh encoding
            assert encoder.encode(text).tobytes() == loop_encode(text, encoder.dimension).tobytes()

    @pytest.mark.parametrize("text", ["plant sink mug", ""])
    def test_returned_vectors_are_read_only(self, text):
        encoder = HashingEncoder(dimension=16)
        for vector in (encoder.encode(text), encoder.encode(text)):  # miss, then hit
            with pytest.raises(ValueError):
                vector[0] = 1.0
            with pytest.raises(ValueError):
                vector *= 2.0

    def test_line_memo_keeps_at_most_its_cap(self, monkeypatch):
        monkeypatch.setattr(embedding, "_LINE_MEMO_LIMIT", 3)
        encoder = HashingEncoder(dimension=16)
        texts = [f"mug_{i} sink_{i % 3}" for i in range(10)]
        for text in texts + texts[::-1]:
            vector = encoder.encode(text)
            assert len(encoder._lines) <= 3
            assert vector.tobytes() == loop_encode(text, 16).tobytes()
        assert list(encoder._lines) == texts[2::-1]  # the three newest


class TestCosine:
    def test_orthogonal_parallel_opposite(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 2.0])
        assert cosine(a, b) == pytest.approx(0.0)
        assert cosine(a, a * 3.0) == pytest.approx(1.0)
        assert cosine(a, -a) == pytest.approx(-1.0)

    def test_zero_vector_scores_zero(self):
        zero = np.zeros(4)
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert cosine(zero, a) == 0.0
        assert cosine(a, zero) == 0.0
        assert cosine(zero, zero) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.zeros(4))

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4),
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4),
    )
    def test_bounded_and_symmetric(self, xs, ys):
        a, b = np.array(xs), np.array(ys)
        value = cosine(a, b)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(cosine(b, a), abs=1e-12)


class FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            import requests

            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class TestRemoteEncoder:
    def patch_post(self, monkeypatch, handler):
        import requests

        monkeypatch.setattr(requests, "post", handler)

    def test_posts_text_and_returns_vector(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, json=json, headers=headers, timeout=timeout)
            return FakeResponse({"embedding": [3.0, 4.0, 0.0]})

        self.patch_post(monkeypatch, fake_post)
        encoder = RemoteEncoder("http://enc.test/embed", dimension=3)
        vector = encoder.encode("hello")
        assert seen["json"] == {"text": "hello"}
        assert seen["timeout"] == 30.0
        np.testing.assert_array_equal(vector, [3.0, 4.0, 0.0])
        assert vector.dtype == np.float64
        with pytest.raises(ValueError):
            vector[0] = 1.0

    def test_api_key_from_environment_only(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(headers=headers)
            return FakeResponse({"embedding": [1.0, 0.0]})

        self.patch_post(monkeypatch, fake_post)
        encoder = RemoteEncoder("http://enc.test/embed", dimension=2)
        monkeypatch.delenv("PRAG_ENCODER_API_KEY", raising=False)
        encoder.encode("x")
        assert "Authorization" not in seen["headers"]
        monkeypatch.setenv("PRAG_ENCODER_API_KEY", "sekret")
        encoder.encode("x")
        assert seen["headers"]["Authorization"] == "Bearer sekret"

    def test_dimension_mismatch_raises(self, monkeypatch):
        self.patch_post(monkeypatch, lambda *a, **k: FakeResponse({"embedding": [1.0, 2.0]}))
        encoder = RemoteEncoder("http://enc.test/embed", dimension=3)
        with pytest.raises(EncoderError):
            encoder.encode("x")

    def test_transport_error_raises_encoder_error(self, monkeypatch):
        import requests

        def fake_post(*args, **kwargs):
            raise requests.ConnectionError("no route")

        self.patch_post(monkeypatch, fake_post)
        with pytest.raises(EncoderError):
            RemoteEncoder("http://enc.test/embed", dimension=2).encode("x")

    def test_missing_embedding_key_raises(self, monkeypatch):
        self.patch_post(monkeypatch, lambda *a, **k: FakeResponse({"vectors": []}))
        with pytest.raises(EncoderError):
            RemoteEncoder("http://enc.test/embed", dimension=2).encode("x")

    def test_non_finite_values_raise(self, monkeypatch):
        self.patch_post(
            monkeypatch, lambda *a, **k: FakeResponse({"embedding": [float("nan"), 0.0]})
        )
        with pytest.raises(EncoderError):
            RemoteEncoder("http://enc.test/embed", dimension=2).encode("x")

    @pytest.mark.parametrize(
        "payload",
        [
            [1.0, 2.0],
            "1.0, 2.0",
            None,
            {"embedding": ["1.0", 2.0]},
            {"embedding": [True, False]},
            {"embedding": [1.0, None]},
            {"embedding": [[1.0], [2.0]]},
            {"embedding": [{"value": 1.0}, 2.0]},
            {"embedding": [10**400, 0.0]},
            {"embedding": {"0": 1.0, "1": 2.0}},
        ],
        ids=[
            "array-body", "string-body", "null-body", "string-entry", "bool-entries",
            "null-entry", "nested-rows", "object-entry", "huge-integer", "object-embedding",
        ],
    )
    def test_a_malformed_reply_raises_encoder_error(self, monkeypatch, payload):
        self.patch_post(monkeypatch, lambda *a, **k: FakeResponse(payload))
        with pytest.raises(EncoderError):
            RemoteEncoder("http://enc.test/embed", dimension=2).encode("x")

    def test_integer_entries_are_numbers(self, monkeypatch):
        self.patch_post(monkeypatch, lambda *a, **k: FakeResponse({"embedding": [3, -4]}))
        vector = RemoteEncoder("http://enc.test/embed", dimension=2).encode("x")
        assert vector.dtype == np.float64 and vector.tolist() == [3.0, -4.0]

    @pytest.mark.parametrize("dimension", [0, -1, True, 2.5, "8", None])
    def test_rejects_bad_dimension(self, dimension):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            RemoteEncoder("http://enc.test/embed", dimension=dimension)
