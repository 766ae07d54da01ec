"""Select the k in-prompt examples for a query sentence.

Two modes:

- word-level: embed every non-stop-word query word, fetch the top
  `per_word_k` store words for each, pool the candidate pairs, collapse to
  unique store sentences keeping each sentence's best similarity, and
  return the k highest-scoring sentences.
- sentence-level: plain top-k by sentence-embedding cosine (baseline).

Both modes exclude the query's own sentence id from the results so that
evaluating over the store itself cannot leak gold labels: the records of
that sentence are masked out of the search itself. All ties break by
ascending record or sentence id, which makes retrieval fully
deterministic. Consecutive query sentences are searched in blocks, with
one batched call over all the words of a block; a large flat search
selects in float32 and rescores its hits in float64 (`_float32_copy`
holds the rule), with the same results. `retrieve` searches
(`_retrieve_blocks`), then selects (`select`), so that one search can serve
every depth up to its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import files
from .config import RetrieverConfig
from .corpus import (EntitySchema, LabeledSentence, load_schema, read_sentences_jsonl,
                     save_schema, write_sentences_jsonl)
from .embedder import Embedder
from .errors import ConfigError, EmptyQueryAfterStopwords, EmptyStore, FormatError, RagnerError
from .vector_index import (
    Float32Copy,
    Index,
    default_nlist,
    flat_from_matrix,
    ivf_from_matrix,
    load_index,
    save_index,
    take_rows,
)

# float64 scores per search block, about 4 MB (twice as many float32 ones): blocks
# of consecutive queries share one matrix product, which streams the index matrix once
_BLOCK_SCORES = 1 << 19
# a flat index of this many records or more is searched by float32 selection
# (`_float32_copy` gives the cost model)
_FLOAT32_FROM = 2048


@dataclass(frozen=True)
class MatchedPair:
    query_word: str
    store_word: str
    similarity: float


@dataclass(frozen=True)
class RetrievedExample:
    """One selected store sentence plus the word matches justifying it."""

    sentence_id: int
    score: float
    matched_pairs: tuple[MatchedPair, ...] = field(default_factory=tuple)


def _entity_word_indexes(sentence: LabeledSentence) -> set[int]:
    covered: set[int] = set()
    for span in sentence.spans:
        covered.update(range(span.start, span.end))
    return covered


def _word_rows(
    sentences: list[LabeledSentence], embedder: Embedder, store_words: str
) -> tuple[np.ndarray, list[int], list[str]]:
    """The kept store words as index rows: their vectors, sentence ids and
    words. entity-only keeps the (non-stop) words inside gold entity spans;
    all keeps every non-stop word. The rows are counted first, and each
    sentence's vectors are written into the one matrix the index keeps: no
    list of per-sentence matrices is held beside it and concatenated."""
    def kept(sentence: LabeledSentence) -> int:
        if store_words != "entity-only":
            return len(embedder.word_indexes(sentence))
        spans = _entity_word_indexes(sentence)
        return sum(i in spans for i in embedder.word_indexes(sentence))

    embedder.embed_words(sentences[0])  # checks the vector width before a matrix takes it
    matrix = np.empty((sum(map(kept, sentences)), embedder.dimension))
    sentence_ids, words = [], []
    for sentence in sentences:
        word_indexes, vectors = embedder.embed_words(sentence)
        if store_words == "entity-only":
            keep = _entity_word_indexes(sentence)
            mask = np.array([i in keep for i in word_indexes.tolist()], dtype=bool)
            word_indexes, vectors = word_indexes[mask], vectors[mask]
        matrix[len(words): len(words) + len(vectors)] = vectors
        sentence_ids.extend([sentence.id] * len(word_indexes))
        words.extend(sentence.tokens[i] for i in word_indexes.tolist())
    if not words:
        raise EmptyStore(f"store_words={store_words!r} kept zero word records")
    return matrix, sentence_ids, words


def _build_index(matrix: np.ndarray, sentence_ids: list[int], words: list[str] | None,
                 cfg: RetrieverConfig) -> Index:
    """Record i of the index is row i of matrix, from sentence sentence_ids[i].
    The index takes the matrix: an IVF one regroups its rows in place."""
    if cfg.index_kind == "flat":
        return flat_from_matrix(matrix, sentence_ids, words)
    nlist = cfg.nlist if cfg.nlist is not None else default_nlist(len(matrix))
    return ivf_from_matrix(matrix, sentence_ids, words, nlist, cfg.kmeans_iters, cfg.seed,
                           copy=False)


class ExampleStore:
    """Labeled sentences plus the indexes retrieval searches, keyed by the
    retriever mode that searches each, word-level first. `modes` names the
    modes the store was built with; `indexes` holds those a command keeps.

    The embedder is attached (not serialized) so the retrieve ops can
    embed incoming queries with the same model that built the store.
    """

    def __init__(
        self,
        sentences: list[LabeledSentence],
        schema: EntitySchema,
        indexes: dict[str, Index],
        store_words: str = "entity-only",
        model_name: str | None = None,
        embedder: Embedder | None = None,
        build_key: str | None = None,
        modes: tuple[str, ...] | None = None,
    ):
        self.sentences = list(sentences)
        self.by_id = {s.id: s for s in sentences}
        self.schema = schema
        self.indexes = indexes
        self.store_words = store_words
        self.model_name = model_name
        self.embedder = embedder
        self.build_key = build_key
        self.modes = tuple(indexes) if modes is None else modes
        self.prompt_examples: dict = {}  # sentence id -> its promptkit.query_rows example

    def __len__(self) -> int:
        return len(self.sentences)

    @classmethod
    def build(
        cls,
        sentences: list[LabeledSentence],
        schema: EntitySchema,
        embedder: Embedder,
        cfg: RetrieverConfig,
        modes: tuple[str, ...],
    ) -> "ExampleStore":
        """Embed the sentences and build the index for each requested mode."""
        if not sentences:
            raise EmptyStore("cannot build a store from zero sentences")
        indexes = {}
        if "word-level" in modes:
            indexes["word-level"] = _build_index(
                *_word_rows(sentences, embedder, cfg.store_words), cfg)
        if "sentence-level" in modes:
            embedder.embed_sentence(sentences[0])  # checks the vector width, as above
            matrix = np.empty((len(sentences), embedder.dimension))
            for row, sentence in enumerate(sentences):
                matrix[row] = embedder.embed_sentence(sentence)
            indexes["sentence-level"] = _build_index(matrix, [s.id for s in sentences], None, cfg)
        return cls(sentences, schema, indexes, cfg.store_words, embedder=embedder)

    def reindex(self, cfg: RetrieverConfig) -> "ExampleStore":
        """The same records under cfg's index settings, embedded no second
        time. It spends this store: each index's matrix is taken
        (`take_rows`, in record order) and rebuilt in place, so no copy of
        it is made, and this store keeps no index, even when a rebuild
        fails. The files of a loaded index are never written."""
        held, self.indexes = self.indexes, {}
        indexes = {mode: _build_index(take_rows(index), index.sentence_ids, index.words, cfg)
                   for mode, index in held.items()}
        store = ExampleStore(self.sentences, self.schema, indexes, self.store_words,
                             self.model_name, self.embedder, modes=self.modes)
        store.prompt_examples = self.prompt_examples  # the same sentences and schema
        return store

    def require_index(self, cfg: RetrieverConfig) -> None:
        """Refuse a mode whose index this store lacks, or an nprobe above the
        nlist of the mode's IVF index."""
        if cfg.mode not in self.indexes:
            raise ConfigError(f"retriever.mode={cfg.mode} needs the {cfg.mode} index, but the "
                              f"store was built with store.modes={list(self.modes)}; add it and "
                              "re-run `ragner index`")
        nlist = getattr(self.indexes[cfg.mode], "nlist", None)
        if cfg.nprobe is not None and nlist is not None and cfg.nprobe > nlist:
            raise ConfigError(f"retriever.nprobe={cfg.nprobe} must be in [1, {nlist}], the nlist "
                              "of the store's IVF index")

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        write_sentences_jsonl(self.sentences, directory / "sentences.jsonl")
        save_schema(self.schema, directory / "schema.json")
        meta = {
            "store_words": self.store_words,
            "model_name": self.model_name,
            "build_key": self.build_key,
            "indexes": {},
        }
        for mode, index in self.indexes.items():
            name = mode.removesuffix("-level")  # "word" or "sentence", in meta.json and file names
            save_index(index, directory / f"{name}_index.bin")
            meta["indexes"][name] = f"{name}_index.bin"
        for stale in directory.glob("*_index.*"):  # an earlier build's, of a mode not built now
            if stale.name.partition("_index.")[0] not in meta["indexes"]:
                stale.unlink()
        files.write_json(directory / "meta.json", meta, indent=2)

    @classmethod
    def load(cls, directory: str | Path, embedder: Embedder,
             modes=("word-level", "sentence-level")) -> "ExampleStore":
        """The store `save` wrote. Every index meta.json names is opened and
        checked; only those of `modes` are kept, so the others' files are
        unmapped again."""
        directory = Path(directory)
        meta_path = directory / "meta.json"
        role = files.store_role(meta_path, "store")._replace(
            error=FormatError, not_found=f"{directory}: not a store directory (missing meta.json)")
        meta = files.read_json(meta_path, role)
        indexes = meta.get("indexes") if isinstance(meta, dict) else None
        if not isinstance(indexes, dict) or not all(
                isinstance(name, str) and isinstance(file, str) for name, file in indexes.items()):
            raise role.malformed(meta_path, "expected an object whose indexes map names to files")
        sentences = read_sentences_jsonl(directory / "sentences.jsonl")
        schema = load_schema(directory / "schema.json")
        indexes = {f"{name}-level": load_index(directory / file) for name, file in indexes.items()}
        return cls(sentences, schema, {mode: indexes[mode] for mode in indexes if mode in modes},
                   meta.get("store_words", "entity-only"), meta.get("model_name"), embedder,
                   meta.get("build_key"), tuple(indexes))


def _pool_words(
    index: Index, query: LabeledSentence, word_indexes: np.ndarray, results,
    cfg: RetrieverConfig, pairs: bool,
) -> list[RetrievedExample]:
    """The word-level pooling of one query's per-word hits, one per entry of
    `word_indexes` (the query's token indexes).

    Pools up to per_word_k hits per query word, collapses to unique store
    sentences keeping each one's maximum similarity, and returns the top
    k. With `pairs`, matched_pairs holds every contributing (query word,
    store word) hit for the sentence, best first.
    """
    per_word_best: dict[int, dict[int, float]] = {}
    for word_index, (record_ids, hit_scores) in zip(word_indexes.tolist(), results):
        for sid, score in zip(index.sentence_ids[record_ids].tolist(), hit_scores.tolist()):
            # a word's hits come best first, so its first hit in a sentence is its best there
            per_word_best.setdefault(sid, {}).setdefault(word_index, score)

    combine = sum if cfg.aggregator == "sum" else max
    scores = {sid: combine(best.values()) for sid, best in per_word_best.items()}
    ranked = sorted(scores, key=lambda sid: (-scores[sid], sid))[: cfg.k]
    matched: dict[int, list[MatchedPair]] = {sid: [] for sid in ranked}
    if pairs:  # a second pass, over the hits of the ranked sentences alone
        for word_index, (record_ids, hit_scores) in zip(word_indexes.tolist(), results):
            sids = index.sentence_ids[record_ids].tolist()
            for record_id, sid, score in zip(record_ids.tolist(), sids, hit_scores.tolist()):
                if sid in matched:
                    store_word = index.words[record_id] if index.words else ""
                    matched[sid].append(MatchedPair(query.tokens[word_index], store_word, score))
    return [RetrievedExample(sid, float(scores[sid]), tuple(
        sorted(matched[sid], key=lambda p: (-p.similarity, p.query_word, p.store_word))))
        for sid in ranked]


def _search_block(block, search, index: Index, cfg: RetrieverConfig, depth: int, entries: list,
                  scores: np.ndarray) -> None:
    """Search the rows of a block of (entry position, query, word indexes,
    row matrix) with one `search` (the index's search_batch) and fill each
    query's entry; the scores go into the leading rows of `scores` when the
    block fits there."""
    row_query_ids = np.repeat([q.id for _, q, _, _ in block], [len(rows) for *_, rows in block])
    exclude = index.sentence_ids[None, :] == row_query_ids[:, None] if cfg.exclude_self else None
    queries = np.concatenate([rows for *_, rows in block])
    out = scores[:len(queries)] if len(queries) <= len(scores) else None
    results = iter(search(queries, depth, nprobe=cfg.nprobe, exclude=exclude, out=out))
    for position, _, word_indexes, rows in block:
        entries[position] = word_indexes, [next(results) for _ in range(len(rows))]


def _float32_copy(index: Index) -> Float32Copy | None:
    """The float32 copy of a flat index that a search selects with, or
    None where the float32 selection does not pay: by `_FLOAT32_FROM`, an
    index of fewer than 2,048 records, or an IVF index.

    The cost model, measured on one core (AVX-512, OpenBLAS) against the
    3,594 x 768 word matrix of the benchmark's large-store workload:
    - casting the matrix, once per search: 2.3 ms, about 0.85 ns a value
    - the product of its 1,196 query rows: 55 ms in float32 against 108 ms
      in float64 as one call; 67 against 127 ms in blocks of 290 and 145
      rows. A query row saves about 18 ps per record and dimension.
    - rescoring: about 1.1 us a hit into the reused gather buffers (about
      1.8 us into fresh ones); a row keeps about k + 1 hits.
    A row saves n * d * 18 ps and pays (k + 1) * 1.1 us, so the selection
    pays from about 500 records at k = 5, and from 2,048 records up to
    k = 20. Below that, the copy, the gathers and the first float32
    product of a process (4.4 MB more resident memory for a 290 x 3,594
    block, 0.2 MB of it OpenBLAS kernel text) cost more than they save: on
    a 67-record index, as in a CrossNER-sized domain, a block of 60 rows
    takes 0.17 ms in float64. The cast pays back after 0.85 ns / 18 ps,
    about 50 query rows. The rule does not count rows: every search of a
    large store that the benchmark makes (`predict`, `augment`, an
    `ablate` cell, a `retrieve` of its 24 queries) has over a hundred, and a
    search of few rows loses about the cast. A `retrieve` of one query
    (5 rows) took 5.6-8.8 ms against 3.3-5.1 ms in float64, one of 8
    queries (56 rows) 10.0-10.1 against 9.4 ms.
    """
    if index.kind == "flat" and len(index) >= _FLOAT32_FROM:
        return Float32Copy(index.matrix)
    return None


def _retrieve_blocks(queries: Sequence[LabeledSentence], store: ExampleStore,
                     cfg: RetrieverConfig, depth: int) -> list:
    """One entry per query: its word indexes (None in sentence-level mode)
    and its rows' top `depth` (record ids, scores), or its embedding error.

    Consecutive queries are embedded and searched one block at a time. A
    block takes queries while its m rows (one per query word, or one per
    query in sentence-level mode) keep m * len(index) <= _BLOCK_SCORES, or
    twice that when the search selects in float32, and m <= len(index); it
    always holds at least one query. Blocks, and so scores, do not depend
    on the depth. The float32 copy lives as long as this search.
    """
    word_level = cfg.mode == "word-level"
    index = store.indexes[cfg.mode]
    copy32 = _float32_copy(index)
    search = index.search_batch if copy32 is None else partial(index.search_batch, copy32=copy32)
    per_block = _BLOCK_SCORES if copy32 is None else 2 * _BLOCK_SCORES  # the same 4 MB
    max_rows = min(len(index), per_block // len(index))
    # every block's; a page is mapped when first used
    scores = np.empty((max_rows, len(index)), np.float64 if copy32 is None else np.float32)
    entries: list = [None] * len(queries)
    block: list = []
    block_rows = 0
    for position, query in enumerate(queries):
        try:
            if word_level:
                word_indexes, rows = store.embedder.embed_words(query)
                if not len(word_indexes):
                    raise EmptyQueryAfterStopwords(
                        f"query {query.id} has no non-stop-word tokens: {query.text!r}")
            else:
                word_indexes, rows = None, store.embedder.embed_sentence(query)[None, :]
        except RagnerError as exc:
            entries[position] = exc
            continue
        if block and block_rows + len(rows) > max_rows:
            _search_block(block, search, index, cfg, depth, entries, scores)
            block, block_rows = [], 0
        block.append((position, query, word_indexes, rows))
        block_rows += len(rows)
    if block:
        _search_block(block, search, index, cfg, depth, entries, scores)
    return entries


def select(queries: Sequence[LabeledSentence], searched: list, store: ExampleStore,
           cfg: RetrieverConfig, pairs: bool = True) -> list[list[RetrievedExample] | RagnerError]:
    """`retrieve`'s entries from a search at cfg.search_depth or deeper: a
    top-d list is a prefix of every deeper one under the tie rule, so each
    row's hits are cut to d, then pooled (never the pooled sentences: one
    query word's hits can all come from one sentence). Without `pairs`,
    the examples hold no matched_pairs."""
    index = store.indexes[cfg.mode]
    depth, entries = cfg.search_depth, []
    for query, entry in zip(queries, searched):
        if not isinstance(entry, RagnerError):
            word_indexes, hits = entry
            hits = [(record_ids[:depth], scores[:depth]) for record_ids, scores in hits]
            entry = (_pool_words(index, query, word_indexes, hits, cfg, pairs)
                     if cfg.mode == "word-level"
                     else [RetrievedExample(int(index.sentence_ids[r]), s)
                           for r, s in zip(hits[0][0].tolist(), hits[0][1].tolist())])
        entries.append(entry)
    return entries


def retrieve(queries: Sequence[LabeledSentence], store: ExampleStore,
             cfg: RetrieverConfig, pairs: bool = True) -> list:
    """One entry per query: its examples or the `RagnerError` that failed it.
    The store holds cfg.mode's index (`require_index` refused it otherwise).
    Callers that never read matched_pairs pass pairs=False (see `select`)."""
    searched = _retrieve_blocks(queries, store, cfg, cfg.search_depth)
    return select(queries, searched, store, cfg, pairs)


def retrieval_payload(query_text: str, examples: list[RetrievedExample]) -> dict:
    """JSON-friendly record for the retrieve subcommand's output lines."""
    return {
        "query_text": query_text,
        "examples": [
            {
                "sentence_id": ex.sentence_id,
                "score": ex.score,
                "matched_pairs": [
                    {
                        "query_word": p.query_word,
                        "store_word": p.store_word,
                        "similarity": p.similarity,
                    }
                    for p in ex.matched_pairs
                ],
            }
            for ex in examples
        ],
    }
