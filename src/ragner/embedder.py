"""Contextualized word-level and sentence-level embeddings.

Word vectors are built by averaging the provider's subword-token vectors
whose character offsets overlap the word, then L2-normalizing, so cosine
similarity downstream is a plain dot product. Providers are pluggable:
a remote HTTP service for production and a precomputed JSON-lines file for
deterministic offline runs.
"""

from __future__ import annotations

import hashlib
import json
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Protocol

import numpy as np

from .config import _PROVIDERS
from .corpus import LabeledSentence
from .errors import (
    AlignmentGap,
    DimensionMismatch,
    EmbedderError,
    EmptyInput,
    FormatError,
    MissingEntry,
    ProviderUnavailable,
)
from .remote import post_json
from .stopwords import DEFAULT_STOPWORDS
from .vector_index import open_array, open_json, save_array, save_json


@dataclass(frozen=True)
class WordEmbedding:
    """Unit-norm contextual embedding of one word of one sentence."""

    sentence_id: int
    word_index: int
    word: str
    vector: np.ndarray


@dataclass(frozen=True)
class SentenceEmbedding:
    """Unit-norm pooled embedding of a whole sentence."""

    sentence_id: int
    vector: np.ndarray


@dataclass(frozen=True)
class EmbedderSpec:
    """Which provider to use and what its outputs must look like."""

    provider: str  # "remote-service" | "precomputed-file"
    model_name: str = "bge-base-en"
    dimension: int = 768
    stopwords: frozenset[str] = DEFAULT_STOPWORDS

    def __post_init__(self):
        if self.provider not in _PROVIDERS:
            raise ValueError(f"unknown provider {self.provider!r}")
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")


class Encoding(NamedTuple):
    """Raw provider output for one sentence text: token vectors (n_tokens, d),
    their [start, end) character spans (n_tokens, 2) and the pooled vector."""

    token_vectors: np.ndarray
    token_spans: np.ndarray
    sentence_vector: np.ndarray


class EmbeddingProvider(Protocol):
    def encode(self, text: str) -> Encoding: ...


def l2_normalize(vector: np.ndarray) -> np.ndarray:
    v = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise EmbedderError("cannot normalize a zero vector")
    return v / norm


# The embedding cache `index` writes into the store directory: one .npy
# file per array (opened memory-mapped) plus the texts in row order.
CACHE_ARRAYS = {
    "token_vectors": "embeddings.token_vectors.npy",
    "token_spans": "embeddings.token_spans.npy",
    "token_offsets": "embeddings.token_offsets.npy",
    "sentence_vectors": "embeddings.sentence_vectors.npy",
}
CACHE_TEXTS = "embeddings.texts.json"


class PrecomputedEmbeddingProvider:
    """Serves embeddings keyed by exact sentence text, from arrays.

    Sentence row i owns token rows token_offsets[i]:token_offsets[i + 1]
    of token_vectors (float64, n_tokens x d) and token_spans (int64 start
    and end chars); its pooled vector is sentence_vectors[i]. Vectors may
    be stored non-normalized; normalization happens at the embedding-op
    boundary. Built by `load_precomputed` (parses the JSON-lines file) or
    `open_precomputed_cache` (memory-maps what `save_cache` wrote).
    """

    def __init__(
        self,
        texts: list[str],
        token_vectors: np.ndarray,
        token_spans: np.ndarray,
        token_offsets: np.ndarray,
        sentence_vectors: np.ndarray,
        path: str | None = None,
        sha256: str | None = None,
    ):
        self._rows = {text: i for i, text in enumerate(texts)}
        if len(self._rows) != len(texts):
            raise FormatError("embeddings: duplicate texts")
        self.texts = texts
        self.token_vectors = token_vectors
        self.token_spans = token_spans
        self.token_offsets = token_offsets
        self.sentence_vectors = sentence_vectors
        self.path = path
        self.sha256 = sha256  # of the parsed file; None when opened from a cache

    def __len__(self) -> int:
        return len(self.texts)

    def encode(self, text: str) -> Encoding:
        row = self._rows.get(text)
        if row is None:
            raise MissingEntry(f"no precomputed embedding for {text!r}")
        lo, hi = self.token_offsets[row], self.token_offsets[row + 1]
        return Encoding(self.token_vectors[lo:hi], self.token_spans[lo:hi], self.sentence_vectors[row])

    def save_cache(self, directory: str | Path) -> None:
        """Write the arrays and texts into `directory`."""
        directory = Path(directory)
        for attr, name in CACHE_ARRAYS.items():
            save_array(directory / name, getattr(self, attr))
        save_json(directory / CACHE_TEXTS, self.texts)


def open_precomputed_cache(directory: str | Path) -> PrecomputedEmbeddingProvider:
    """Memory-map the embedding cache `save_cache` wrote into `directory`.

    Raises MissingArtifact when a cache file is absent and FormatError when
    one cannot be read or the arrays disagree.
    """
    directory = Path(directory)
    what = "embedding cache"
    texts = open_json(directory / CACHE_TEXTS, what)
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise FormatError(f"{directory / CACHE_TEXTS}: expected a JSON list of texts")
    path = {attr: directory / name for attr, name in CACHE_ARRAYS.items()}
    token_vectors = open_array(path["token_vectors"], np.float64, (None, None), what)
    n_tokens, dim = token_vectors.shape
    token_offsets = open_array(path["token_offsets"], np.int64, (len(texts) + 1,), what)
    if token_offsets[0] != 0 or token_offsets[-1] != n_tokens or np.any(np.diff(token_offsets) < 0):
        raise FormatError("embeddings: token_offsets do not partition the token rows")
    return PrecomputedEmbeddingProvider(
        texts, token_vectors, open_array(path["token_spans"], np.int64, (n_tokens, 2), what),
        token_offsets, open_array(path["sentence_vectors"], np.float64, (len(texts), dim), what),
    )


def _record_arrays(doc: dict, source: str) -> Encoding:
    """The arrays of one record in the file schema, which the remote service
    answers in."""
    vectors, spans, sentence_vector = array("d"), array("q"), array("d")
    n_tokens = _append_record(doc, source, vectors, spans, sentence_vector)
    return Encoding(
        np.frombuffer(vectors, dtype=np.float64).reshape(n_tokens, len(sentence_vector)),
        np.frombuffer(spans, dtype=np.int64).reshape(n_tokens, 2),
        np.frombuffer(sentence_vector, dtype=np.float64),
    )


def _flat_vector(values, dim: int | None) -> np.ndarray:
    vector = np.asarray(values, dtype=np.float64)
    if vector.ndim != 1 or (dim is not None and len(vector) != dim):
        raise ValueError(f"vector of shape {vector.shape}, expected ({dim},)")
    return vector


def _append_record(
    doc: dict, source: str, vectors: array, spans: array, sentence_vectors: array,
    dim: int | None = None,
) -> int:
    """Append one record's vectors and spans to growing buffers; returns its
    token count. The sentence vector must have `dim` entries when `dim` is
    given, and every token vector as many as the sentence vector."""
    try:
        tokens = doc["tokens"]
        sentence_vector = _flat_vector(doc["sentence_vector"], dim)
        for t in tokens:
            if "text" not in t:
                raise KeyError("text")
            vectors.frombytes(_flat_vector(t["vector"], len(sentence_vector)).tobytes())
            spans.extend((int(t["start_char"]), int(t["end_char"])))
        sentence_vectors.frombytes(sentence_vector.tobytes())
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{source}: bad embedding record: {exc}") from exc
    return len(tokens)


def load_precomputed(path: str | Path) -> PrecomputedEmbeddingProvider:
    """Parse a precomputed embedding file; raises FormatError on bad records.

    One record per line: {"text", "tokens": [{"text", "start_char",
    "end_char", "vector"}, ...], "sentence_vector"}. When a text appears on
    several lines, the last one wins. The provider's sha256 is the digest of
    the bytes parsed, so the file is read once.
    """
    digest = hashlib.sha256()
    texts: list[str] = []
    offsets = [0]
    # growing C buffers: their reallocation does not hold two full copies
    vectors, spans, sentence_vectors = array("d"), array("q"), array("d")
    dim = None
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            digest.update(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}:{line_no}: not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                doc = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise FormatError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            if not isinstance(doc, dict) or not isinstance(doc.get("text"), str):
                raise FormatError(f"{path}:{line_no}: record missing 'text'")
            n_tokens = _append_record(
                doc, f"{path}:{line_no}", vectors, spans, sentence_vectors, dim
            )
            if dim is None:  # the first record fixes it for the file
                dim = len(sentence_vectors)
            texts.append(doc["text"])
            offsets.append(offsets[-1] + n_tokens)

    dim = dim or 0
    token_vectors = np.frombuffer(vectors, dtype=np.float64).reshape(offsets[-1], dim)
    token_spans = np.frombuffer(spans, dtype=np.int64).reshape(offsets[-1], 2)
    token_offsets = np.array(offsets, dtype=np.int64)
    sentence_matrix = np.frombuffer(sentence_vectors, dtype=np.float64).reshape(len(texts), dim)
    last = {text: i for i, text in enumerate(texts)}
    if len(last) < len(texts):
        keep = np.zeros(len(texts), dtype=bool)
        keep[list(last.values())] = True
        counts = np.diff(token_offsets)
        token_vectors = token_vectors[np.repeat(keep, counts)]
        token_spans = token_spans[np.repeat(keep, counts)]
        token_offsets = np.concatenate(([0], np.cumsum(counts[keep]))).astype(np.int64)
        sentence_matrix = sentence_matrix[keep]
        texts = [text for text, kept in zip(texts, keep) if kept]
    return PrecomputedEmbeddingProvider(
        texts, token_vectors, token_spans, token_offsets, sentence_matrix,
        path=str(path), sha256=digest.hexdigest(),
    )


class RemoteEmbeddingProvider:
    """HTTP embedding service client.

    Wire contract: POST {model, text} as JSON; the response carries the
    same record shape as the precomputed file. At most `max_in_flight`
    posts are open at once; transient failures are retried (see
    `remote.post_json`). Every failure is a ProviderUnavailable, except a
    reply that is not an embedding record, which is a FormatError.
    """

    def __init__(
        self,
        endpoint: str,
        model_name: str,
        timeout: float = 30.0,
        max_retries: int = 2,
        max_in_flight: int = 8,
    ):
        self.endpoint = endpoint
        self.model_name = model_name
        self.timeout = timeout
        self.max_retries = max_retries
        self._semaphore = threading.BoundedSemaphore(max_in_flight)

    def encode(self, text: str) -> Encoding:
        with self._semaphore:
            doc, _ = post_json(
                self.endpoint, {"model": self.model_name, "text": text},
                self.timeout, self.max_retries,
                error=ProviderUnavailable, format_error=FormatError,
            )
        return _record_arrays(doc, self.endpoint)


def token_char_ranges(tokens: list[str]) -> list[tuple[int, int]]:
    """Character offsets of each token within `" ".join(tokens)`."""
    ranges = []
    pos = 0
    for tok in tokens:
        ranges.append((pos, pos + len(tok)))
        pos += len(tok) + 1
    return ranges


class Embedder:
    """Binds a provider to an EmbedderSpec and exposes the embedding ops."""

    def __init__(self, provider: EmbeddingProvider, spec: EmbedderSpec):
        self.provider = provider
        self.spec = spec
        self._cache: dict[str, Encoding] = {}

    def _encode(self, text: str) -> Encoding:
        enc = self._cache.get(text)
        if enc is None:
            # the provider gives every token vector its sentence vector's width
            enc = self.provider.encode(text)
            shape = enc.sentence_vector.shape
            if shape != (self.spec.dimension,):
                raise DimensionMismatch(
                    f"provider sentence vector has shape {shape}, expected ({self.spec.dimension},)"
                )
            self._cache[text] = enc
        return enc

    def embed_words(self, sentence: LabeledSentence) -> list[WordEmbedding]:
        """One unit-norm WordEmbedding per non-stop-word token.

        Each word vector is the mean of the provider subword vectors whose
        character offsets overlap the word, L2-normalized. Raises
        AlignmentGap when a kept word is covered by zero subword tokens.
        """
        if not sentence.tokens:
            raise EmptyInput(f"sentence {sentence.id} has no tokens")
        enc = self._encode(sentence.text)
        starts, ends = enc.token_spans.T
        out: list[WordEmbedding] = []
        for idx, (word, (ws, we)) in enumerate(zip(sentence.tokens, token_char_ranges(sentence.tokens))):
            if word.lower() in self.spec.stopwords:
                continue
            covering = (starts < we) & (ends > ws)
            if not covering.any():
                raise AlignmentGap(
                    f"sentence {sentence.id}: word {word!r} at chars [{ws},{we}) "
                    "covered by no subword token"
                )
            mean = enc.token_vectors[covering].mean(axis=0)
            out.append(WordEmbedding(sentence.id, idx, word, l2_normalize(mean)))
        return out

    def embed_sentence(self, sentence: LabeledSentence) -> SentenceEmbedding:
        """The provider's pooled sentence vector, L2-normalized."""
        if not sentence.tokens:
            raise EmptyInput(f"sentence {sentence.id} has no tokens")
        enc = self._encode(sentence.text)
        return SentenceEmbedding(sentence.id, l2_normalize(enc.sentence_vector))
