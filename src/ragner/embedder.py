"""Contextualized word-level and sentence-level embeddings.

Word vectors are built by averaging the provider's subword-token vectors
whose character offsets overlap the word, then L2-normalizing, so cosine
similarity downstream is a plain dot product. Providers are pluggable:
a remote HTTP service for production and a precomputed JSON-lines file for
deterministic offline runs.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import struct
from array import array
from pathlib import Path
from typing import BinaryIO, NamedTuple, Protocol

import numpy as np

from . import files
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
from .vector_index import open_array, save_array


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
CACHE_FILES = (*CACHE_ARRAYS.values(), CACHE_TEXTS)
_NOT_FINITE = "vector entries must be finite numbers"


class PrecomputedEmbeddingProvider:
    """Serves embeddings keyed by exact sentence text, from arrays.

    Sentence row i owns token rows token_offsets[i]:token_offsets[i + 1]
    of token_vectors (float64, n_tokens x d) and token_spans (int64 start
    and end chars); its pooled vector is sentence_vectors[i]. Vectors may
    be stored non-normalized; normalization happens at the embedding-op
    boundary. The arrays are the memory-mapped embedding cache, which
    `load_precomputed` writes as it parses the JSON-lines file and
    `open_precomputed_cache` opens again.
    """

    def __init__(
        self,
        texts: list[str],
        token_vectors: np.ndarray,
        token_spans: np.ndarray,
        token_offsets: np.ndarray,
        sentence_vectors: np.ndarray,
    ):
        self._rows = {text: i for i, text in enumerate(texts)}
        if len(self._rows) != len(texts):
            raise FormatError("embeddings: duplicate texts")
        self.texts = texts
        self.token_vectors = token_vectors
        self.token_spans = token_spans
        self.token_offsets = token_offsets
        self.sentence_vectors = sentence_vectors

    def __len__(self) -> int:
        return len(self.texts)

    def encode(self, text: str) -> Encoding:
        row = self._rows.get(text)
        if row is None:
            raise MissingEntry(f"no precomputed embedding for {text!r}")
        lo, hi = self.token_offsets[row], self.token_offsets[row + 1]
        return Encoding(self.token_vectors[lo:hi], self.token_spans[lo:hi], self.sentence_vectors[row])


def open_precomputed_cache(directory: str | Path) -> PrecomputedEmbeddingProvider:
    """Memory-map the embedding cache `load_precomputed` wrote into `directory`.

    Raises MissingArtifact when a cache file is absent and FormatError when
    one cannot be read or the arrays disagree.
    """
    directory = Path(directory)
    role = files.store_role(directory / CACHE_TEXTS, "embedding cache")
    texts = files.read_json(directory / CACHE_TEXTS, role)
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise role.malformed(directory / CACHE_TEXTS, "expected a JSON list of texts")
    return _open_arrays(directory, texts)


def _open_arrays(directory: Path, texts: list[str]) -> PrecomputedEmbeddingProvider:
    """The provider of `texts` over the cache arrays in `directory`, memory-mapped."""
    what = "embedding cache"
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


def _record_arrays(doc: dict, text: str, source: str) -> Encoding:
    """The arrays of one record in the file schema, which the remote service
    answers in, for `text`."""
    block, spans, sentence_vector = _record(doc, text, source)
    return Encoding(
        np.frombuffer(block, dtype=np.float64).reshape(len(spans) // 2, len(sentence_vector)),
        np.frombuffer(spans, dtype=np.int64).reshape(-1, 2),
        sentence_vector,
    )


def _flat_vector(values, dim: int | None) -> np.ndarray:
    vector = np.asarray(values, dtype=np.float64)
    if vector.ndim != 1 or (dim is not None and len(vector) != dim):
        raise ValueError(f"vector of shape {vector.shape}, expected ({dim},)")
    if not np.isfinite(vector).all():  # null becomes NaN in the cast above
        raise ValueError(_NOT_FINITE)
    return vector


def _record(doc: dict, text: str, source: str,
            dim: int | None = None) -> tuple[bytes, array, np.ndarray]:
    """One record's token vectors (packed float64 rows), token spans (start
    and end chars in turn) and sentence vector. The sentence vector must
    have `dim` entries when `dim` is given, and every token vector as many
    as the sentence vector. A token's span must be two JSON integers with
    0 <= start_char <= end_char <= len(text); (0, 0), which tokenizers give
    special tokens, covers no word. Token vectors are packed by struct and
    checked finite once per record, with the messages, and the first fault,
    of `_flat_vector` per vector."""
    packed: list[bytes] = []
    spans = array("q")
    try:
        tokens = doc["tokens"]
        sentence_vector = _flat_vector(doc["sentence_vector"], dim)
        # struct packs any empty iterable as zero floats: a width-0 record takes the cast
        pack = struct.Struct(f"{len(sentence_vector)}d").pack if len(sentence_vector) else None
        for t in tokens:
            if "text" not in t:
                raise KeyError("text")
            try:
                packed.append(pack(*t["vector"]))
            except (struct.error, TypeError, OverflowError):  # the cast says why, or reads it
                packed.append(_flat_vector(t["vector"], len(sentence_vector)).tobytes())
            start, end = t["start_char"], t["end_char"]
            if type(start) is not int or type(end) is not int:
                raise ValueError(f"start_char and end_char must be integers: {start!r}, {end!r}")
            if not 0 <= start <= end <= len(text):
                raise ValueError(f"token span [{start}, {end}) outside [0, {len(text)}]")
            spans.extend((start, end))
        block = b"".join(packed)
        _flat_vector(np.frombuffer(block), None)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a non-finite entry of an earlier token is the first fault
        fault = exc if np.isfinite(np.frombuffer(b"".join(packed))).all() else _NOT_FINITE
        raise FormatError(f"{source}: bad embedding record: {fault}") from exc
    return block, spans, sentence_vector


def _npy_header(dtype, shape: tuple[int, ...]) -> bytes:
    """The .npy header `np.save` writes for a C-ordered array of `shape`."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
        "fortran_order": False, "shape": shape})
    return header.getvalue()


# the cache files written record by record, with their dtypes
_STREAMED = {"token_vectors": np.float64, "token_spans": np.int64,
             "sentence_vectors": np.float64}
_COPY_CHUNK = 1 << 20


def _keep_rows(fh: BinaryIO, start: int, row_bytes: int, runs: list[tuple[int, int]]) -> None:
    """Move the row ranges `runs`, [lo, hi) in ascending order, of the rows
    that begin at byte `start` of `fh` to the front of those rows, and cut
    the file after them. A range moves towards the start of the file, so a
    chunk is read before any write can reach it."""
    end = start
    for lo, hi in runs:
        source, size = start + lo * row_bytes, (hi - lo) * row_bytes
        for done in range(0, size, _COPY_CHUNK):
            fh.seek(source + done)
            chunk = fh.read(min(_COPY_CHUNK, size - done))
            fh.seek(end)
            end += fh.write(chunk)
    fh.truncate(end)


# orjson recurses on the C stack with no depth limit and overflows it on a
# line nested about 100,000 levels deep; a line with more JSON openers than
# this goes to `json`, which raises RecursionError instead. A record is 4
# levels deep and has about two openers per token.
_MAX_OPENERS = 4096


def load_precomputed(path: str | Path, directory: str | Path,
                     digests: dict) -> PrecomputedEmbeddingProvider:
    """Parse a precomputed embedding file into an embedding cache in
    `directory` and memory-map it; raises FormatError on bad records.

    One record per line: {"text", "tokens": [{"text", "start_char",
    "end_char", "vector"}, ...], "sentence_vector"}. Each record's rows are
    written to the cache files once it passes its checks, so one record is
    held at a time. When a text appears on several lines, the last one wins:
    the rows of the earlier lines are cut from the files at the end.
    `digests` gets the sha256 of the bytes parsed under `str(Path(path))`,
    so the file is read once; when it holds one already, the parse hashes
    nothing.
    """
    import orjson  # here, so that commands which open the cache never load it

    def loads(line: str):  # orjson's error subclasses json.JSONDecodeError
        # '[' (0x5B) and '{' (0x7B) are the two bytes that OR 0x20 maps to 0x7B
        codes = np.frombuffer(line.encode(), dtype=np.uint8)
        deep = np.count_nonzero((codes | 0x20) == 0x7B) > _MAX_OPENERS
        return json.loads(line) if deep else orjson.loads(line)

    directory, key = Path(directory), str(Path(path))
    digest = None if key in digests else hashlib.sha256()
    texts: list[str] = []
    offsets = [0]
    dim = None
    with files.created([directory / CACHE_ARRAYS[attr] for attr in _STREAMED]) as streams:
        vectors, spans, sentence_vectors = streams
        # each header is rewritten in place once the shape is known: np.save pads the
        # header of every 2-D shape to the same length
        for fh, dtype in zip(streams, _STREAMED.values()):
            start = fh.write(_npy_header(dtype, (0, 0)))
        for where, doc in files.read_jsonl(path, loads, digest):
            if not isinstance(doc, dict) or not isinstance(doc.get("text"), str):
                raise FormatError(f"{where}: record missing 'text'")
            text = doc["text"]
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:  # a lone surrogate escape, which json lets through
                raise FormatError(f"{where}: text is not valid Unicode: {exc}") from exc
            block, token_spans, sentence_vector = _record(doc, text, where, dim)
            vectors.write(block)
            spans.write(token_spans.tobytes())
            sentence_vectors.write(sentence_vector.tobytes())
            if dim is None:  # the first record fixes it for the file
                dim = len(sentence_vector)
            texts.append(text)
            offsets.append(offsets[-1] + len(token_spans) // 2)

        dim = dim or 0
        last = {text: i for i, text in enumerate(texts)}
        if len(last) < len(texts):
            keep = sorted(last.values())
            token_runs = [(offsets[i], offsets[i + 1]) for i in keep]
            _keep_rows(vectors, start, dim * 8, token_runs)
            _keep_rows(spans, start, 16, token_runs)
            _keep_rows(sentence_vectors, start, dim * 8, [(i, i + 1) for i in keep])
            texts = [texts[i] for i in keep]
            offsets = [0, *itertools.accumulate(hi - lo for lo, hi in token_runs)]
        shapes = {"token_vectors": (offsets[-1], dim), "token_spans": (offsets[-1], 2),
                  "sentence_vectors": (len(texts), dim)}
        for (attr, dtype), fh in zip(_STREAMED.items(), streams):
            header = _npy_header(dtype, shapes[attr])
            if len(header) != start:
                raise FormatError(f"{path}: the .npy header of shape {shapes[attr]} is longer "
                                  "than the one written first")
            fh.seek(0)
            fh.write(header)
    save_array(directory / CACHE_ARRAYS["token_offsets"], np.array(offsets, dtype=np.int64))
    files.write_json(directory / CACHE_TEXTS, texts, ensure_ascii=False)
    if digest is not None:
        digests[key] = digest.hexdigest()
    return _open_arrays(directory, texts)


class RemoteEmbeddingProvider:
    """HTTP embedding service client.

    Wire contract: POST {model, text} as JSON; the response carries the
    same record shape as the precomputed file. Transient failures are
    retried (see `remote.post_json`). Every failure is a
    ProviderUnavailable, except a reply that is not an embedding record,
    which is a FormatError.
    """

    def __init__(
        self,
        endpoint: str,
        model_name: str,
        timeout: float = 30.0,
        max_retries: int = 2,
    ):
        self.endpoint = endpoint
        self.model_name = model_name
        self.timeout = timeout
        self.max_retries = max_retries

    def encode(self, text: str) -> Encoding:
        doc = post_json(
            self.endpoint, {"model": self.model_name, "text": text},
            self.timeout, self.max_retries,
            error=ProviderUnavailable, format_error=FormatError,
        )
        return _record_arrays(doc, text, self.endpoint)


def token_char_ranges(tokens: list[str]) -> list[tuple[int, int]]:
    """Character offsets of each token within `" ".join(tokens)`."""
    ranges = []
    pos = 0
    for tok in tokens:
        ranges.append((pos, pos + len(tok)))
        pos += len(tok) + 1
    return ranges


class Embedder:
    """Binds a provider to the vector width and stop words the embedding
    ops check and skip."""

    def __init__(self, provider: EmbeddingProvider, dimension: int,
                 stopwords: frozenset[str] = DEFAULT_STOPWORDS):
        self.provider = provider
        self.dimension = dimension
        self.stopwords = stopwords
        self._cache: dict[str, Encoding] = {}

    def _encode(self, text: str) -> Encoding:
        enc = self._cache.get(text)
        if enc is None:
            # the provider gives every token vector its sentence vector's width
            enc = self.provider.encode(text)
            shape = enc.sentence_vector.shape
            if shape != (self.dimension,):
                raise DimensionMismatch(
                    f"provider sentence vector has shape {shape}, expected ({self.dimension},)"
                )
            self._cache[text] = enc
        return enc

    def word_indexes(self, sentence: LabeledSentence) -> list[int]:
        """The token indexes of the sentence's non-stop words, ascending."""
        return [i for i, word in enumerate(sentence.tokens) if word.lower() not in self.stopwords]

    def embed_words(self, sentence: LabeledSentence) -> tuple[np.ndarray, np.ndarray]:
        """The non-stop words of `sentence`: their token indexes (int64,
        ascending) and unit-norm vectors (float64, one row per word).

        Each word vector is the mean of the provider subword vectors whose
        character offsets overlap the word, L2-normalized; the overlaps are one
        (words x tokens) mask per sentence. Raises AlignmentGap when a kept
        word is covered by zero subword tokens.
        """
        if not sentence.tokens:
            raise EmptyInput(f"sentence {sentence.id} has no tokens")
        enc = self._encode(sentence.text)
        word_indexes = np.array(self.word_indexes(sentence), dtype=np.int64)
        ranges = np.array(token_char_ranges(sentence.tokens), dtype=np.int64)[word_indexes]
        starts, ends = enc.token_spans.T
        covering = (starts < ranges[:, 1:]) & (ends > ranges[:, :1])  # (words, tokens)
        counts = np.count_nonzero(covering, axis=1)
        n = len(counts) if counts.all() else int(np.argmin(counts))  # words before the first gap
        # one covering token: its row plus 0.0, as its mean is (-0.0 becomes 0.0)
        first = covering[:n].argmax(axis=1) if n else np.zeros(0, dtype=np.int64)
        vectors = enc.token_vectors[first] + 0.0
        for row in np.flatnonzero(counts[:n] > 1).tolist():
            vectors[row] = enc.token_vectors[covering[row]].mean(axis=0)
        norms = np.sqrt([row.dot(row) for row in vectors])  # np.linalg.norm's dot, per row
        if not norms.all():
            raise EmbedderError("cannot normalize a zero vector")
        if n < len(counts):
            ws, we = ranges[n].tolist()
            raise AlignmentGap(f"sentence {sentence.id}: word {sentence.tokens[word_indexes[n]]!r} "
                               f"at chars [{ws},{we}) covered by no subword token")
        vectors /= norms[:, None]
        return word_indexes, vectors

    def embed_sentence(self, sentence: LabeledSentence) -> np.ndarray:
        """The provider's pooled sentence vector, L2-normalized."""
        if not sentence.tokens:
            raise EmptyInput(f"sentence {sentence.id} has no tokens")
        return l2_normalize(self._encode(sentence.text).sentence_vector)
