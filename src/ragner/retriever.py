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
one batched call over all the words of a block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import _MODES, RetrieverConfig
from .corpus import EntitySchema, LabeledSentence, load_schema, read_sentences_jsonl, write_sentences_jsonl
from .embedder import Embedder, WordEmbedding
from .errors import ConfigError, EmptyQueryAfterStopwords, EmptyStore, FormatError, RagnerError
from .vector_index import (
    Index,
    default_nlist,
    flat_from_matrix,
    ivf_from_matrix,
    load_index,
    open_json,
    save_index,
)

# scores per search block, about 4 MB of float64: blocks of consecutive
# queries share one matrix product, which streams the index matrix once
_BLOCK_SCORES = 1 << 19


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
    """The kept store words as index rows: their stacked vectors, sentence ids
    and words. entity-only keeps the (non-stop) words inside gold entity
    spans; all keeps every non-stop word. The per-word vectors are freed on
    return, before an index build makes its own temporaries."""
    vectors, sentence_ids, words = [], [], []
    for sentence in sentences:
        keep = _entity_word_indexes(sentence) if store_words == "entity-only" else None
        for w in embedder.embed_words(sentence):
            if keep is None or w.word_index in keep:
                vectors.append(w.vector)
                sentence_ids.append(sentence.id)
                words.append(w.word)
    if not vectors:
        raise EmptyStore(f"store_words={store_words!r} kept zero word records")
    return np.stack(vectors), sentence_ids, words


def _build_index(matrix: np.ndarray, sentence_ids: list[int], words: list[str] | None,
                 cfg: RetrieverConfig) -> Index:
    """Record i of the index is row i of matrix, from sentence sentence_ids[i]."""
    if cfg.index_kind == "flat":
        return flat_from_matrix(matrix, sentence_ids, words)
    nlist = cfg.nlist if cfg.nlist is not None else default_nlist(len(matrix))
    return ivf_from_matrix(matrix, sentence_ids, words, nlist, cfg.kmeans_iters, cfg.seed)


class ExampleStore:
    """Labeled sentences plus the indexes retrieval searches.

    The embedder is attached (not serialized) so the retrieve ops can
    embed incoming queries with the same model that built the store.
    """

    def __init__(
        self,
        sentences: list[LabeledSentence],
        schema: EntitySchema,
        word_index: Index | None = None,
        sentence_index: Index | None = None,
        store_words: str = "entity-only",
        model_name: str | None = None,
        embedder: Embedder | None = None,
        build_key: str | None = None,
    ):
        ids = [s.id for s in sentences]
        if len(set(ids)) != len(ids):
            raise ValueError("store sentences must have unique ids")
        self.sentences = list(sentences)
        self.by_id = {s.id: s for s in sentences}
        self.schema = schema
        self.word_index = word_index
        self.sentence_index = sentence_index
        self.store_words = store_words
        self.model_name = model_name
        self.embedder = embedder
        self.build_key = build_key

    def __len__(self) -> int:
        return len(self.sentences)

    @classmethod
    def build(
        cls,
        sentences: list[LabeledSentence],
        schema: EntitySchema,
        embedder: Embedder,
        cfg: RetrieverConfig,
        modes: tuple[str, ...] | None = None,
    ) -> "ExampleStore":
        """Embed the sentences and build the index for each requested mode."""
        if not sentences:
            raise EmptyStore("cannot build a store from zero sentences")
        for s in sentences:
            s.validate(schema)
        modes = modes if modes is not None else (cfg.mode,)
        word_index = None
        sentence_index = None
        if "word-level" in modes:
            word_index = _build_index(*_word_rows(sentences, embedder, cfg.store_words), cfg)
        if "sentence-level" in modes:
            matrix = np.stack([embedder.embed_sentence(s).vector for s in sentences])
            sentence_index = _build_index(matrix, [s.id for s in sentences], None, cfg)
        return cls(
            sentences,
            schema,
            word_index=word_index,
            sentence_index=sentence_index,
            store_words=cfg.store_words,
            model_name=embedder.spec.model_name,
            embedder=embedder,
        )

    def require_index(self, cfg: RetrieverConfig) -> None:
        """Refuse a mode whose index this store lacks, or an nprobe above the
        nlist of the mode's IVF index."""
        indexes = dict(zip(_MODES, (self.word_index, self.sentence_index)))
        built = [m for m, i in indexes.items() if i is not None]
        if cfg.mode not in built:
            raise ConfigError(f"retriever.mode={cfg.mode} needs the {cfg.mode} index, but the store "
                              f"was built with store.modes={built}; add it and re-run `ragner index`")
        nlist = getattr(indexes[cfg.mode], "nlist", None)
        if cfg.nprobe is not None and nlist is not None and cfg.nprobe > nlist:
            raise ConfigError(f"retriever.nprobe={cfg.nprobe} must be in [1, {nlist}], the nlist "
                              "of the store's IVF index")

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_sentences_jsonl(self.sentences, directory / "sentences.jsonl")
        (directory / "schema.json").write_text(
            json.dumps(self.schema.to_json(), indent=2) + "\n", encoding="utf-8"
        )
        meta = {
            "store_words": self.store_words,
            "model_name": self.model_name,
            "build_key": self.build_key,
            "indexes": {},
        }
        for name, index in (("word", self.word_index), ("sentence", self.sentence_index)):
            if index is not None:
                save_index(index, directory / f"{name}_index.bin")
                meta["indexes"][name] = f"{name}_index.bin"
        (directory / "meta.json").write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, directory: str | Path, embedder: Embedder | None = None) -> "ExampleStore":
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise FormatError(f"{directory}: not a store directory (missing meta.json)")
        meta = open_json(meta_path, "store")
        sentences = read_sentences_jsonl(directory / "sentences.jsonl")
        schema = load_schema(directory / "schema.json")
        indexes = {name: load_index(directory / file)
                   for name, file in meta.get("indexes", {}).items()}
        return cls(
            sentences,
            schema,
            word_index=indexes.get("word"),
            sentence_index=indexes.get("sentence"),
            store_words=meta.get("store_words", "entity-only"),
            model_name=meta.get("model_name"),
            embedder=embedder,
            build_key=meta.get("build_key"),
        )


def _pool_words(
    index: Index, query_words: list[WordEmbedding], results, cfg: RetrieverConfig
) -> list[RetrievedExample]:
    """The word-level pooling of one query's per-word hits.

    Pools up to per_word_k hits per query word, collapses to unique store
    sentences keeping each one's maximum similarity, and returns the top
    k. matched_pairs holds every contributing (query word, store word)
    hit for the sentence, best first.
    """
    best: dict[int, float] = {}
    pairs: dict[int, list[MatchedPair]] = {}
    per_word_best: dict[int, dict[int, float]] = {}
    for w, (record_ids, hit_scores) in zip(query_words, results):
        sids = index.sentence_ids[record_ids].tolist()
        for record_id, sid, score in zip(record_ids.tolist(), sids, hit_scores.tolist()):
            store_word = index.words[record_id] if index.words else ""
            if sid not in best or score > best[sid]:
                best[sid] = score
            pairs.setdefault(sid, []).append(MatchedPair(w.word, store_word, score))
            word_best = per_word_best.setdefault(sid, {})
            prev = word_best.get(w.word_index)
            if prev is None or score > prev:
                word_best[w.word_index] = score

    if cfg.aggregator == "sum":
        scores = {sid: sum(per_word_best[sid].values()) for sid in best}
    else:
        scores = best
    ranked = sorted(scores, key=lambda sid: (-scores[sid], sid))[: cfg.k]
    out = []
    for sid in ranked:
        matched = tuple(
            sorted(pairs[sid], key=lambda p: (-p.similarity, p.query_word, p.store_word))
        )
        out.append(RetrievedExample(sid, float(scores[sid]), matched))
    return out


def _search_block(block, index: Index, cfg: RetrieverConfig, entries: list) -> None:
    """Search the rows of a block of (entry position, query, row embeddings)
    with one search_batch call and fill each query's entry."""
    word_level = cfg.mode == "word-level"
    row_query_ids = np.repeat([q.id for _, q, _ in block], [len(rows) for _, _, rows in block])
    exclude = index.sentence_ids[None, :] == row_query_ids[:, None] if cfg.exclude_self else None
    results = iter(index.search_batch([r.vector for _, _, rows in block for r in rows],
                                      cfg.effective_per_word_k if word_level else cfg.k,
                                      nprobe=cfg.nprobe, exclude=exclude))
    for position, _, rows in block:
        hits = [next(results) for _ in rows]
        if word_level:
            entries[position] = _pool_words(index, rows, hits, cfg)
        else:
            [(record_ids, scores)] = hits
            entries[position] = [RetrievedExample(int(index.sentence_ids[r]), s)
                                 for r, s in zip(record_ids.tolist(), scores.tolist())]


def _retrieve_blocks(
    queries: Sequence[LabeledSentence], store: ExampleStore, cfg: RetrieverConfig
) -> list[list[RetrievedExample] | RagnerError]:
    """One entry per query: its examples, or the error its embedding raised.

    Consecutive queries are embedded and searched one block at a time. A
    block takes queries while its m rows (one per query word, or one per
    query in sentence-level mode) keep m * len(index) <= _BLOCK_SCORES and
    m <= len(index); it always holds at least one query.
    """
    word_level = cfg.mode == "word-level"
    index = store.word_index if word_level else store.sentence_index
    if index is None or len(index) == 0:
        raise EmptyStore(f"store has no {'word' if word_level else 'sentence'} index")
    if store.embedder is None:
        raise EmptyStore("store has no embedder attached; pass one to ExampleStore.load")
    max_rows = min(len(index), _BLOCK_SCORES // len(index))
    entries: list = [None] * len(queries)
    block: list = []
    block_rows = 0
    for position, query in enumerate(queries):
        try:
            if not word_level:
                rows = [store.embedder.embed_sentence(query)]
            elif not (rows := store.embedder.embed_words(query)):
                raise EmptyQueryAfterStopwords(
                    f"query {query.id} has no non-stop-word tokens: {query.text!r}")
        except RagnerError as exc:
            entries[position] = exc
            continue
        if block and block_rows + len(rows) > max_rows:
            _search_block(block, index, cfg, entries)
            block, block_rows = [], 0
        block.append((position, query, rows))
        block_rows += len(rows)
    if block:
        _search_block(block, index, cfg, entries)
    return entries


def retrieve(queries: LabeledSentence | Sequence[LabeledSentence], store: ExampleStore,
             cfg: RetrieverConfig) -> list:
    """Examples for one `LabeledSentence`, raising its error; for a sequence,
    one entry per query: its examples or the `RagnerError` that failed it.
    Store problems (no index for the mode, no embedder) raise for the call."""
    if isinstance(queries, LabeledSentence):
        [entry] = _retrieve_blocks([queries], store, cfg)
        if isinstance(entry, RagnerError):
            raise entry
        return entry
    return _retrieve_blocks(queries, store, cfg)


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
