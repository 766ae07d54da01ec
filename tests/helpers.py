"""Shared fixture machinery for the test suite.

Embeddings in tests come from precomputed-file providers built here:
either hash-derived pseudo-random unit vectors (deterministic for any
text, no model needed) or hand-assigned vectors for engineered scenarios.
Each corpus word maps to exactly one subword token covering its full
character range unless a test constructs a finer split by hand.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from ragner.corpus import EntitySchema, EntitySpan, EntityType, LabeledSentence
from ragner.embedder import (
    Embedder,
    Encoding,
    PrecomputedEmbeddingProvider,
    load_precomputed,
    token_char_ranges,
)


def hash_unit_vector(key: str, dim: int) -> list[float]:
    """Deterministic pseudo-random unit vector derived from a string key."""
    values: list[float] = []
    counter = 0
    while len(values) < dim:
        digest = hashlib.sha256(f"{key}#{counter}".encode()).digest()
        for i in range(0, len(digest) - 3, 4):
            values.append(int.from_bytes(digest[i: i + 4], "big") / 2**31 - 1.0)
        counter += 1
    v = np.asarray(values[:dim], dtype=np.float64)
    return list(v / np.linalg.norm(v))


def encoding_record(
    tokens: list[str],
    dim: int,
    word_vectors: dict[str, list[float]] | None = None,
    sentence_vector: list[float] | None = None,
) -> dict:
    """One precomputed-file record; each word is a single subword token."""
    text = " ".join(tokens)
    ranges = token_char_ranges(tokens)
    token_records = []
    for word, (start, end) in zip(tokens, ranges):
        vector = (word_vectors or {}).get(word) or hash_unit_vector(f"word::{word}", dim)
        token_records.append(
            {"text": word, "start_char": start, "end_char": end, "vector": list(vector)}
        )
    if sentence_vector is None:
        sentence_vector = hash_unit_vector(f"sent::{text}", dim)
    return {"text": text, "tokens": token_records, "sentence_vector": list(sentence_vector)}


def encoding(spans: list[tuple[int, int]], vectors: list[list[float]],
             sentence_vector: list[float]) -> Encoding:
    """A hand-made provider answer: one token per (start, end) span."""
    return Encoding(
        np.array(vectors, dtype=np.float64).reshape(len(spans), len(sentence_vector)),
        np.array(spans, dtype=np.int64).reshape(len(spans), 2),
        np.array(sentence_vector, dtype=np.float64),
    )


def precomputed_provider(encodings: dict[str, Encoding]) -> PrecomputedEmbeddingProvider:
    """An array-backed provider serving hand-made encodings."""
    encs = list(encodings.values())
    dim = len(encs[0].sentence_vector) if encs else 0
    counts = [len(e.token_spans) for e in encs]
    return PrecomputedEmbeddingProvider(
        list(encodings),
        np.concatenate([e.token_vectors for e in encs] or [np.zeros((0, dim))]),
        np.concatenate([e.token_spans for e in encs] or [np.zeros((0, 2), dtype=np.int64)]),
        np.cumsum([0] + counts, dtype=np.int64),
        np.array([e.sentence_vector for e in encs], dtype=np.float64).reshape(len(encs), dim),
    )


def set_at(doc, path: tuple, value):
    """`doc` with `value` put at the key path `path`, in place; `value`
    itself when the path is empty."""
    if not path:
        return value
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    return doc


def json_with_literal(doc, path: tuple, literal: str) -> str:
    """`doc` as JSON text with the raw text `literal` at `path`, for values
    json.dumps does not write, such as `1e400` or a lone surrogate escape."""
    return json.dumps(set_at(doc, path, "@@")).replace('"@@"', literal)


def write_precomputed(records: list[dict], path: Path) -> None:
    """Write precomputed embedding records (dicts in the file schema)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def write_embedding_file(
    sentences: list[LabeledSentence],
    path: Path,
    dim: int,
    word_vectors: dict[str, list[float]] | None = None,
    sentence_vectors: dict[str, list[float]] | None = None,
) -> Path:
    seen: set[str] = set()
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in sentences:
            text = sentence.text
            if text in seen:
                continue
            seen.add(text)
            record = encoding_record(
                sentence.tokens,
                dim,
                word_vectors=word_vectors,
                sentence_vector=(sentence_vectors or {}).get(text),
            )
            fh.write(json.dumps(record) + "\n")
    return path


def make_embedder(
    sentences: list[LabeledSentence],
    tmp_path: Path,
    dim: int = 16,
    word_vectors: dict[str, list[float]] | None = None,
    sentence_vectors: dict[str, list[float]] | None = None,
    name: str = "embeddings.jsonl",
) -> Embedder:
    path = write_embedding_file(
        sentences, tmp_path / name, dim,
        word_vectors=word_vectors, sentence_vectors=sentence_vectors,
    )
    return Embedder(load_precomputed(path, tempfile.mkdtemp(dir=tmp_path), {}), dim)


# --- the engineered retrieval-contrast fixture ------------------------------
#
# Query:   "I want to buy a 13-inch macbook from store"
# Store 0: "I want to buy a table from store"      (entity: table)
# Store 1: "Show me a 15-inch macbook"             (entity: 15-inch macbook)
#
# Word vectors make macbook<->macbook similarity 1.0 (word-level must rank
# store 1 first); sentence vectors make store 0 the closer sentence
# (cos 0.95 vs 0.5), so sentence-level must rank store 0 first.

FIXTURE_DIM = 4

_E0 = [1.0, 0.0, 0.0, 0.0]
_E1 = [0.0, 1.0, 0.0, 0.0]
_E2 = [0.0, 0.0, 1.0, 0.0]
_E3 = [0.0, 0.0, 0.0, 1.0]

FIXTURE_WORD_VECTORS = {
    "macbook": _E0,
    "13-inch": _E1,
    "15-inch": _E1,
    "table": _E2,
    "store": [0.0, 0.0, 0.436, float(np.sqrt(1 - 0.436**2))],  # cos(store, table) = 0.436
    "want": _E3,
    "buy": _E3,
    "Show": _E3,
}

FIXTURE_SENTENCE_VECTORS = {
    "I want to buy a 13-inch macbook from store": _E0,
    "I want to buy a table from store": [0.95, float(np.sqrt(1 - 0.95**2)), 0.0, 0.0],
    "Show me a 15-inch macbook": [0.5, 0.0, float(np.sqrt(0.75)), 0.0],
}


def product_schema() -> EntitySchema:
    return EntitySchema(
        (
            EntityType("product", "a physical object offered for sale"),
            EntityType("time", "a day, date or time expression"),
        )
    )


def fixture_store_sentences() -> list[LabeledSentence]:
    s0 = LabeledSentence(
        0,
        ["I", "want", "to", "buy", "a", "table", "from", "store"],
        [EntitySpan("product", 5, 6, "table")],
    )
    s1 = LabeledSentence(
        1,
        ["Show", "me", "a", "15-inch", "macbook"],
        [EntitySpan("product", 3, 5, "15-inch macbook")],
    )
    return [s0, s1]


def fixture_query() -> LabeledSentence:
    return LabeledSentence(
        100,
        ["I", "want", "to", "buy", "a", "13-inch", "macbook", "from", "store"],
        [EntitySpan("product", 5, 7, "13-inch macbook")],
    )


def fixture_embedder(tmp_path: Path) -> Embedder:
    sentences = fixture_store_sentences() + [fixture_query()]
    return make_embedder(
        sentences,
        tmp_path,
        dim=FIXTURE_DIM,
        word_vectors=FIXTURE_WORD_VECTORS,
        sentence_vectors=FIXTURE_SENTENCE_VECTORS,
        name="fixture_embeddings.jsonl",
    )


# --- synthesized domain corpora ---------------------------------------------
#
# (train, dev, test) sentence counts per domain; the store for a target
# domain is train + dev.

DOMAIN_SIZES = {
    "politics": (200, 541, 651),
    "science": (200, 450, 543),
    "music": (100, 380, 456),
    "literature": (100, 400, 416),
    "ai": (100, 350, 431),
}

POLITICS_TYPE_NAMES = (
    "politician",
    "person",
    "organization",
    "political party",
    "election",
    "event",
    "country",
    "location",
    "miscellaneous",
)


def domain_schema(name: str, n_types: int = 4) -> EntitySchema:
    if name == "politics":
        return EntitySchema(
            tuple(EntityType(t, f"{t} entities in political text") for t in POLITICS_TYPE_NAMES)
        )
    return EntitySchema(
        tuple(
            EntityType(f"{name}-type-{i}", f"category {i} of the {name} domain")
            for i in range(n_types)
        )
    )


def synth_sentences(
    name: str, count: int, schema: EntitySchema, rng: random.Random, id_base: int = 0
) -> list[LabeledSentence]:
    vocab = [f"{name}w{i}" for i in range(240)]
    sentences = []
    for i in range(count):
        n = rng.randint(5, 10)
        tokens = [rng.choice(vocab) for _ in range(n)]
        spans = []
        if rng.random() < 0.8:
            entity_type = rng.choice(schema.names)
            start = rng.randrange(n)
            width = min(rng.randint(1, 2), n - start)
            for j in range(start, start + width):
                tokens[j] = f"{name}e{rng.randint(0, 60)}"
            spans.append(
                EntitySpan(entity_type, start, start + width, " ".join(tokens[start: start + width]))
            )
        sentences.append(LabeledSentence(id_base + i, tokens, spans))
    return sentences


def synth_domain(
    name: str, seed: int = 11
) -> tuple[dict[str, list[LabeledSentence]], EntitySchema]:
    """Deterministic labeled corpus with the domain's split sizes."""
    n_train, n_dev, n_test = DOMAIN_SIZES[name]
    schema = domain_schema(name)
    rng = random.Random(f"{name}:{seed}")
    splits = {
        "train": synth_sentences(name, n_train, schema, rng, id_base=0),
        "dev": synth_sentences(name, n_dev, schema, rng, id_base=n_train),
        "test": synth_sentences(name, n_test, schema, rng, id_base=n_train + n_dev),
    }
    return splits, schema


def all_domain_sentences(splits: dict[str, list[LabeledSentence]]) -> list[LabeledSentence]:
    return [s for split in splits.values() for s in split]


def bio_tags(sentence: LabeledSentence) -> list[str]:
    """Per-token BIO tags reconstructed from the sentence's spans."""
    tags = ["O"] * len(sentence.tokens)
    for span in sentence.spans:
        tags[span.start] = "B-" + span.entity_type
        for i in range(span.start + 1, span.end):
            tags[i] = "I-" + span.entity_type
    return tags


def render_bio(sentences: Iterable[LabeledSentence]) -> str:
    """Render sentences back to BIO text (inverse of parse_bio)."""
    blocks = []
    for s in sentences:
        lines = [f"{tok}\t{tag}" for tok, tag in zip(s.tokens, bio_tags(s))]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
