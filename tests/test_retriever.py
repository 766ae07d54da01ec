"""Word-level and sentence-level example retrieval over the store."""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ragner import retriever
from ragner.config import RetrieverConfig, load_config
from ragner.corpus import EntitySpan, LabeledSentence
from ragner.errors import (
    ConfigError,
    EmptyInput,
    EmptyQueryAfterStopwords,
    EmptyStore,
    FormatError,
    MissingEntry,
    NlistTooLarge,
)
from ragner.retriever import (
    ExampleStore,
    MatchedPair,
    RetrievedExample,
    retrieval_payload,
    retrieve,
)

from helpers import (
    fixture_embedder,
    fixture_query,
    fixture_store_sentences,
    make_embedder,
    product_schema,
)


def build_fixture_store(tmp_path, **cfg_kwargs) -> ExampleStore:
    cfg = RetrieverConfig(**cfg_kwargs)
    return ExampleStore.build(
        fixture_store_sentences(),
        product_schema(),
        fixture_embedder(tmp_path),
        cfg,
        modes=("word-level", "sentence-level"),
    )


# --- config ---------------------------------------------------------------------


def test_config_defaults():
    cfg = RetrieverConfig()
    assert cfg.k == 5
    assert cfg.mode == "word-level"
    assert cfg.effective_per_word_k == 5
    assert cfg.exclude_self is True


def test_per_word_k_defaults_to_k():
    assert RetrieverConfig(k=7).effective_per_word_k == 7
    assert RetrieverConfig(k=7, per_word_k=2).effective_per_word_k == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 0},
        {"per_word_k": 0},
        {"mode": "paragraph-level"},
        {"store_words": "some"},
        {"index_kind": "hnsw"},
        {"aggregator": "median"},
        {"nprobe": 0},
    ],
)
def test_config_validation(kwargs):
    # ranges are checked by __post_init__, allowed values by the loader
    [(key, value)] = kwargs.items()
    with pytest.raises(ConfigError, match=f"bad \\[retriever\\] config: {key} must be"):
        load_config(None, [f"retriever.{key}={value}"])


def test_word_level_ranks_entity_match_first(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    [results] = retrieve([fixture_query()], store, RetrieverConfig(k=2))
    assert [r.sentence_id for r in results] == [1, 0]
    assert results[0].score == pytest.approx(1.0)
    assert results[1].score == pytest.approx(0.436, abs=1e-9)


def test_sentence_level_ranks_surface_match_first(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    cfg = RetrieverConfig(k=2, mode="sentence-level")
    [results] = retrieve([fixture_query()], store, cfg)
    assert [r.sentence_id for r in results] == [0, 1]
    assert results[0].score == pytest.approx(0.95, abs=1e-9)
    assert results[1].score == pytest.approx(0.5, abs=1e-9)


def test_retrieve_dispatches_on_mode(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    [word] = retrieve([fixture_query()], store, RetrieverConfig(k=2))
    [sent] = retrieve([fixture_query()], store, RetrieverConfig(k=2, mode="sentence-level"))
    assert [r.sentence_id for r in word] == [1, 0]
    assert [r.sentence_id for r in sent] == [0, 1]


def test_matched_pairs_justify_the_ranking(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    [results] = retrieve([fixture_query()], store, RetrieverConfig(k=2))
    top = results[0]
    assert MatchedPair("macbook", "macbook", 1.0) in top.matched_pairs
    # best pair first, and every pair names a word the store sentence contains
    sims = [p.similarity for p in top.matched_pairs]
    assert sims == sorted(sims, reverse=True)
    for r in results:
        tokens = set(store.by_id[r.sentence_id].tokens)
        for p in r.matched_pairs:
            assert p.store_word in tokens


def test_entity_only_store_keeps_span_words(tmp_path):
    store = build_fixture_store(tmp_path)
    assert sorted(store.indexes["word-level"].words) == ["15-inch", "macbook", "table"]


def test_store_words_all_keeps_every_content_word(tmp_path):
    store = build_fixture_store(tmp_path, store_words="all")
    # records run in sentence order, then word order
    index = store.indexes["word-level"]
    assert index.words == ["want", "buy", "table", "store", "Show", "15-inch", "macbook"]
    assert index.sentence_ids.tolist() == [0, 0, 0, 0, 1, 1, 1]


# --- self-exclusion -----------------------------------------------------------------


def test_self_match_is_excluded(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    query = store.sentences[1]  # "Show me a 15-inch macbook", id 1
    [results] = retrieve([query], store, RetrieverConfig(k=2))
    assert [r.sentence_id for r in results] == [0]


def test_self_match_kept_when_disabled(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    query = store.sentences[1]
    cfg = RetrieverConfig(k=2, exclude_self=False)
    [results] = retrieve([query], store, cfg)
    assert results[0].sentence_id == 1
    assert results[0].score == pytest.approx(1.0)


def test_sentence_level_self_exclusion(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    query = store.sentences[0]
    cfg = RetrieverConfig(k=1, mode="sentence-level")
    [results] = retrieve([query], store, cfg)
    assert [r.sentence_id for r in results] == [1]


# --- ties and aggregation -----------------------------------------------------------


def test_exact_ties_rank_by_ascending_sentence_id(tmp_path):
    # both store sentences contain the same word; tie resolves to lower id
    shared = {"alpha": [1.0, 0.0, 0.0, 0.0]}
    sents = [
        LabeledSentence(11, ["alpha", "omega"], [EntitySpan("product", 0, 1, "alpha")]),
        LabeledSentence(3, ["alpha", "sigma"], [EntitySpan("product", 0, 1, "alpha")]),
    ]
    query = LabeledSentence(50, ["alpha"], [])
    embedder = make_embedder(sents + [query], tmp_path, dim=4, word_vectors=shared)
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig(k=2),
                               modes=("word-level",))
    [results] = retrieve([query], store, RetrieverConfig(k=2))
    assert [r.sentence_id for r in results] == [3, 11]
    assert results[0].score == results[1].score == pytest.approx(1.0)


def test_sum_aggregator_rewards_multiple_matches(tmp_path):
    # s1 has one strong match (0.9); s2 has two medium ones (0.6 + 0.6)
    vectors = {
        "qa": [1.0, 0.0, 0.0, 0.0],
        "qb": [0.0, 1.0, 0.0, 0.0],
        "w1": [0.9, 0.0, float(np.sqrt(1 - 0.81)), 0.0],
        "w2": [0.6, 0.0, 0.8, 0.0],
        "w3": [0.0, 0.6, 0.8, 0.0],
    }
    sents = [
        LabeledSentence(1, ["w1"], [EntitySpan("product", 0, 1, "w1")]),
        LabeledSentence(2, ["w2", "w3"], [EntitySpan("product", 0, 2, "w2 w3")]),
    ]
    query = LabeledSentence(9, ["qa", "qb"], [])
    embedder = make_embedder(sents + [query], tmp_path, dim=4, word_vectors=vectors)
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig(),
                               modes=("word-level",))

    [by_max] = retrieve([query], store, RetrieverConfig(k=2))
    assert [r.sentence_id for r in by_max] == [1, 2]
    assert by_max[0].score == pytest.approx(0.9)

    [by_sum] = retrieve([query], store, RetrieverConfig(k=2, aggregator="sum"))
    assert [r.sentence_id for r in by_sum] == [2, 1]
    assert by_sum[0].score == pytest.approx(1.2)


# --- pooling equivalence against an exhaustive oracle --------------------------------


def oracle_word_level(store_sents, query, embedder, per_word_k, k):
    """Reference pooling: exhaustive cosine per query word, then collapse."""
    store_words = []
    for s in store_sents:
        store_words.extend((s.id, vector) for vector in embedder.embed_words(s)[1])
    best: dict[int, float] = {}
    for query_vector in embedder.embed_words(query)[1]:
        sims = [
            (float(np.dot(query_vector, vector)), idx, sid)
            for idx, (sid, vector) in enumerate(store_words)
        ]
        sims.sort(key=lambda t: (-t[0], t[1]))
        for score, _, sid in sims[:per_word_k]:
            if sid not in best or score > best[sid]:
                best[sid] = score
    ranked = sorted(best, key=lambda sid: (-best[sid], sid))[:k]
    return [(sid, best[sid]) for sid in ranked]


def random_store(rng: random.Random, n_sentences: int) -> list[LabeledSentence]:
    # each token occurs in at most one sentence, so no two store vectors
    # are exact duplicates and rankings have no knife-edge ties
    vocab = [f"tok{i}" for i in range(300)]
    rng.shuffle(vocab)
    out = []
    pos = 0
    for i in range(n_sentences):
        n_tokens = rng.randint(3, 8)
        out.append(LabeledSentence(i, vocab[pos: pos + n_tokens], []))
        pos += n_tokens
    return out


def query_over(rng: random.Random, n: int = 4) -> LabeledSentence:
    # tokens outside the store vocabulary: every similarity is a generic
    # cosine, so no two sentences tie at exactly 1.0
    return LabeledSentence(500, rng.sample([f"tok{i}" for i in range(300, 400)], n), [])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_pooling_matches_exhaustive_oracle(tmp_path, seed):
    rng = random.Random(seed)
    sents = random_store(rng, rng.randint(5, 30))
    query = query_over(rng)
    embedder = make_embedder(sents + [query], tmp_path, dim=16, name=f"emb{seed}.jsonl")
    cfg = RetrieverConfig(store_words="all")
    store = ExampleStore.build(sents, product_schema(), embedder, cfg, modes=("word-level",))

    for k in (1, 3, 5):
        run_cfg = RetrieverConfig(k=k, store_words="all")
        [got] = retrieve([query], store, run_cfg)
        expected = oracle_word_level(sents, query, embedder, per_word_k=k, k=k)
        assert [(r.sentence_id) for r in got] == [sid for sid, _ in expected]
        for r, (_, score) in zip(got, expected):
            assert r.score == pytest.approx(score, abs=1e-9)


def test_result_invariants_hold(tmp_path):
    rng = random.Random(99)
    sents = random_store(rng, 25)
    query = query_over(rng, n=5)
    embedder = make_embedder(sents + [query], tmp_path, dim=16)
    store = ExampleStore.build(
        sents, product_schema(), embedder, RetrieverConfig(store_words="all"), modes=("word-level",)
    )
    [results] = retrieve([query], store, RetrieverConfig(k=10, store_words="all"))
    ids = [r.sentence_id for r in results]
    assert len(ids) == len(set(ids)) == 10
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)
    assert all(r.sentence_id in store.by_id for r in results)


# --- the batched search against the per-word overfetch it replaced -------------------

# 16-d unit vectors with entries of +-1/4: every cosine is a multiple of
# 1/16, exact in any summation order, so a batched search and per-word
# searches see the same bits and repeated words tie exactly
_EXACT_WORDS = {
    f"w{i}": np.where(np.random.default_rng([79, i]).random(16) < 0.5, -0.25, 0.25).tolist()
    for i in range(10)
}


def overfetch_reference(query, store, cfg):
    """Word-level retrieval as it was before batching: one index.search per
    query word, overfetched by the records the query's own sentence owns,
    then filtered."""
    index = store.indexes["word-level"]
    per_word_k = cfg.effective_per_word_k
    owned = int(np.sum(index.sentence_ids == query.id)) if cfg.exclude_self else 0
    best, pairs, per_word_best = {}, {}, {}
    for word_index, vector in zip(*store.embedder.embed_words(query)):
        hits = index.search(vector, per_word_k + owned, nprobe=cfg.nprobe)
        if cfg.exclude_self:
            hits = [h for h in hits if int(index.sentence_ids[h.record_id]) != query.id]
        for hit in hits[:per_word_k]:
            sid = int(index.sentence_ids[hit.record_id])
            best[sid] = max(best.get(sid, hit.score), hit.score)
            pairs.setdefault(sid, []).append(
                MatchedPair(query.tokens[word_index], index.words[hit.record_id], hit.score))
            word_best = per_word_best.setdefault(sid, {})
            word_best[word_index] = max(word_best.get(word_index, hit.score), hit.score)
    if cfg.aggregator == "sum":
        scores = {sid: sum(per_word_best[sid].values()) for sid in best}
    else:
        scores = best
    ranked = sorted(scores, key=lambda sid: (-scores[sid], sid))[: cfg.k]
    return [
        RetrievedExample(sid, float(scores[sid]), tuple(sorted(
            pairs[sid], key=lambda p: (-p.similarity, p.query_word, p.store_word))))
        for sid in ranked
    ]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batched_word_level_equals_the_overfetch_reference(tmp_path, seed):
    rng = random.Random(seed)
    vocab = sorted(_EXACT_WORDS)
    sents = [LabeledSentence(i, [rng.choice(vocab) for _ in range(rng.randint(2, 7))], [])
             for i in range(rng.randint(6, 20))]
    # a store sentence owning more records than any per_word_k below
    sents.append(LabeledSentence(len(sents), [rng.choice(vocab) for _ in range(8)], []))
    outside = LabeledSentence(500, rng.sample(vocab, 4), [])
    embedder = make_embedder(sents + [outside], tmp_path, dim=16, word_vectors=_EXACT_WORDS,
                             name=f"exact{seed}.jsonl")
    build = [RetrieverConfig(store_words="all"),
             RetrieverConfig(store_words="all", index_kind="ivf", nlist=3, seed=seed)]
    for build_cfg in build:
        store = ExampleStore.build(sents, product_schema(), embedder, build_cfg,
                                   modes=("word-level",))
        nprobe = 3 if build_cfg.index_kind == "ivf" else None
        for query in (sents[-1], sents[0], outside):
            for k, per_word_k, aggregator, exclude_self in (
                (1, 1, "max", True), (3, 2, "max", True), (5, None, "sum", True),
                (4, 3, "sum", False), (30, 2, "max", True),
            ):
                cfg = RetrieverConfig(k=k, per_word_k=per_word_k, aggregator=aggregator,
                                      exclude_self=exclude_self, store_words="all",
                                      index_kind=build_cfg.index_kind, nprobe=nprobe)
                expected = overfetch_reference(query, store, cfg)
                assert retrieve([query], store, cfg) == [expected]
                if exclude_self:
                    assert query.id not in [r.sentence_id for r in expected]


@pytest.mark.parametrize("index_kind", ["flat", "ivf"])
def test_word_level_searches_once_per_query_sentence(tmp_path, monkeypatch, index_kind):
    rng = random.Random(5)
    sents = random_store(rng, 12)
    query = query_over(rng, n=5)
    embedder = make_embedder(sents + [query], tmp_path, dim=16)
    build_cfg = RetrieverConfig(store_words="all", index_kind=index_kind, nlist=3)
    store = ExampleStore.build(sents, product_schema(), embedder, build_cfg, modes=("word-level",))
    cls = type(store.indexes["word-level"])
    calls = []
    original = cls.search_batch

    def spy(self, queries, *args, **kwargs):
        calls.append(np.asarray(queries).shape)
        return original(self, queries, *args, **kwargs)

    monkeypatch.setattr(cls, "search_batch", spy)
    monkeypatch.setattr(cls, "search", lambda *a, **kw: pytest.fail("per-word search"))
    for target in (query, sents[0]):
        retrieve([target], store, build_cfg)
    assert calls == [(5, 16), (len(sents[0].tokens), 16)]


# --- query blocks: many query sentences, one search call per block ------------------


def exact_vector(*key) -> list[float]:
    return np.where(np.random.default_rng(key).random(16) < 0.5, -0.25, 0.25).tolist()


def exact_store(tmp_path, seed: int, name: str, extra: tuple[LabeledSentence, ...] = ()):
    """Random store and outside queries over _EXACT_WORDS, with exact
    sentence vectors too, so every score is the same in any block shape.
    `extra` sentences are embedded as well."""
    rng = random.Random(seed)
    vocab = sorted(_EXACT_WORDS)
    sents = [LabeledSentence(i, [rng.choice(vocab) for _ in range(rng.randint(2, 7))], [])
             for i in range(rng.randint(8, 16))]
    outside = [LabeledSentence(500 + j, rng.sample(vocab, rng.randint(1, 5)), [])
               for j in range(4)]
    embedded = sents + outside + list(extra)
    sentence_vectors = {s.text: exact_vector(83, seed, i) for i, s in enumerate(embedded)}
    embedder = make_embedder(embedded, tmp_path, dim=16, word_vectors=_EXACT_WORDS,
                             sentence_vectors=sentence_vectors, name=name)
    return sents, outside, embedder


def search_batch_rows(monkeypatch, store) -> list[int]:
    """Spy on both indexes' search_batch: the row count of each call."""
    rows = []
    for cls in {type(index) for index in store.indexes.values()}:
        original = cls.search_batch

        def spy(self, queries, *args, _original=original, **kwargs):
            rows.append(len(queries))
            return _original(self, queries, *args, **kwargs)

        monkeypatch.setattr(cls, "search_batch", spy)
    return rows


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_blocks_equal_one_query_at_a_time(tmp_path, monkeypatch, seed):
    sents, outside, embedder = exact_store(tmp_path, seed, f"blocks{seed}.jsonl")
    # store sentences (each row excludes its own) interleaved with outside ones
    queries = [q for pair in zip(sents[::2], outside) for q in pair] + sents[1::2]
    # a few rows per block, so blocks split in the middle of the list
    monkeypatch.setattr(retriever, "_BLOCK_SCORES", 200)
    builds = [(RetrieverConfig(store_words="all"), None),
              (RetrieverConfig(store_words="all", index_kind="ivf", nlist=3, seed=seed), 3),
              (RetrieverConfig(store_words="all", index_kind="ivf", nlist=3, seed=seed), 1)]
    for build_cfg, nprobe in builds:
        store = ExampleStore.build(sents, product_schema(), embedder, build_cfg,
                                   modes=("word-level", "sentence-level"))
        for mode, aggregator, per_word_k, exclude_self in (
            ("word-level", "max", 2, True), ("word-level", "sum", None, True),
            ("word-level", "max", 3, False), ("sentence-level", "max", None, True),
            ("sentence-level", "max", None, False),
        ):
            cfg = replace(build_cfg, k=4, mode=mode, aggregator=aggregator,
                          per_word_k=per_word_k, exclude_self=exclude_self, nprobe=nprobe)
            rows = search_batch_rows(monkeypatch, store)
            got = retrieve(queries, store, cfg)
            assert len(rows) > 1
            assert got == [retrieve([q], store, cfg)[0] for q in queries]
            if exclude_self:
                for q, examples in zip(queries, got):
                    assert q.id not in [ex.sentence_id for ex in examples]


@pytest.mark.parametrize("mode", ["word-level", "sentence-level"])
def test_a_failed_query_fails_only_its_own_entry(tmp_path, mode):
    stopwords_only = LabeledSentence(600, ["the", "of", "and"], [])
    not_embedded = LabeledSentence(601, ["w1", "w2"], [])  # its text is not in the file
    no_tokens = LabeledSentence(602, [], [])
    sents, outside, embedder = exact_store(tmp_path, 4, "isolation.jsonl", (stopwords_only,))
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig(store_words="all"),
                               modes=("word-level", "sentence-level"))
    cfg = RetrieverConfig(k=3, mode=mode, store_words="all")
    good = [sents[0], outside[0], sents[3], outside[1]]
    queries = [good[0], stopwords_only, good[1], not_embedded, good[2], no_tokens, good[3]]
    entries = retrieve(queries, store, cfg)

    expected_errors = {
        "word-level": (EmptyQueryAfterStopwords, MissingEntry, EmptyInput),
        "sentence-level": (None, MissingEntry, EmptyInput),
    }[mode]
    assert [entries[i] for i in (0, 2, 4, 6)] == [retrieve([q], store, cfg)[0] for q in good]
    for entry, query, error in zip(entries[1::2], queries[1::2], expected_errors):
        if error is None:  # stop words still have a sentence vector
            assert [entry] == retrieve([query], store, cfg)
            continue
        assert type(entry) is error
        [alone] = retrieve([query], store, cfg)
        assert type(alone) is error
    assert retrieve([], store, cfg) == []


def test_block_rule_splits_by_score_budget_and_row_cap(tmp_path, monkeypatch):
    vocab = sorted(_EXACT_WORDS)
    sents = [LabeledSentence(i, vocab[i: i + 4], []) for i in range(5)]  # 20 word records

    def query(qid, n_words):
        return LabeledSentence(qid, [vocab[(qid + j) % 10] for j in range(n_words)], [])

    queries = [query(100 + i, n) for i, n in enumerate((3, 2, 1, 4, 7, 1))]
    embedder = make_embedder(sents + queries, tmp_path, dim=16, word_vectors=_EXACT_WORDS)
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig(store_words="all"),
                               modes=("word-level", "sentence-level"))
    assert len(store.indexes["word-level"]) == 20 and len(store.indexes["sentence-level"]) == 5
    rows = search_batch_rows(monkeypatch, store)

    # the score budget: 6 rows of 20 scores; a 7-word query still gets a block
    monkeypatch.setattr(retriever, "_BLOCK_SCORES", 6 * 20 + 19)
    retrieve(queries, store, RetrieverConfig(store_words="all"))
    assert rows == [6, 4, 7, 1]

    # the row cap on a small store: never more rows than records
    monkeypatch.setattr(retriever, "_BLOCK_SCORES", 1 << 19)
    rows.clear()
    retrieve(queries * 2, store, RetrieverConfig(store_words="all"))
    assert rows == [18, 18]
    rows.clear()
    retrieve(queries * 2, store, RetrieverConfig(mode="sentence-level"))
    assert rows == [5, 5, 2]


# --- the float32 selection of a flat search ------------------------------------------


def float32_copies(monkeypatch) -> list:
    """Weak references to each Float32Copy the retriever makes from now on."""
    made = []

    class Recorded(retriever.Float32Copy):
        def __init__(self, matrix):
            super().__init__(matrix)
            made.append(weakref.ref(self))

    monkeypatch.setattr(retriever, "Float32Copy", Recorded)
    return made


def test_the_float32_rule_reads_the_records_of_a_flat_index(tmp_path, monkeypatch):
    vocab = sorted(_EXACT_WORDS)
    sents = [LabeledSentence(i, vocab[i: i + 4], []) for i in range(5)]  # 20 word records
    queries = [LabeledSentence(100 + i, [vocab[(i + j) % 10] for j in range(n)], [])
               for i, n in enumerate((3, 2, 1, 4, 7, 1))]  # 18 word rows
    embedder = make_embedder(sents + queries, tmp_path, dim=16, word_vectors=_EXACT_WORDS)
    stores = {kind: ExampleStore.build(sents, product_schema(), embedder,
                                       RetrieverConfig(store_words="all", index_kind=kind, nlist=2),
                                       modes=("word-level", "sentence-level"))
              for kind in ("flat", "ivf")}
    made = float32_copies(monkeypatch)

    def copies(records, mode="word-level", kind="flat") -> int:
        monkeypatch.setattr(retriever, "_FLOAT32_FROM", records)
        made.clear()
        retrieve(queries, stores[kind], RetrieverConfig(store_words="all", mode=mode, nlist=2,
                                                        index_kind=kind))
        gc.collect()
        assert all(ref() is None for ref in made)  # no copy outlives its search
        return len(made)

    assert copies(20) == 1
    assert copies(21) == 0  # one record short
    assert copies(5, "sentence-level") == 1  # 5 sentence records
    assert copies(6, "sentence-level") == 0
    assert copies(1, kind="ivf") == 0

    # a float32 block holds twice the rows in the same bytes, under the same row cap
    rows = search_batch_rows(monkeypatch, stores["flat"])
    monkeypatch.setattr(retriever, "_BLOCK_SCORES", 6 * 20 + 19)
    copies(1)
    assert rows == [10, 8]
    rows.clear()
    copies(21)
    assert rows == [6, 4, 7, 1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_float32_search_scores_each_hit_alike_in_any_block(tmp_path, monkeypatch, seed):
    """Selected in float32, a hit's score is the fixed-order dot of its two
    rows: the same bits whatever block the query is searched in, the same
    ids as the float64 search and its scores within 1e-12."""
    rng = random.Random(seed)
    sents = random_store(rng, 40)
    outside = [LabeledSentence(500 + j, rng.sample([f"tok{i}" for i in range(300, 400)], 4), [])
               for j in range(5)]
    queries = sents[::4] + outside
    embedder = make_embedder(sents + outside, tmp_path, dim=16, name=f"f32_{seed}.jsonl")
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig(store_words="all"),
                               modes=("word-level", "sentence-level"))
    rows = search_batch_rows(monkeypatch, store)
    made = float32_copies(monkeypatch)
    for cfg, block_scores in ((RetrieverConfig(k=4, store_words="all"), 2000),
                              (RetrieverConfig(k=3, per_word_k=6, aggregator="sum",
                                               store_words="all"), 2000),
                              (RetrieverConfig(k=5, mode="sentence-level", store_words="all"), 60)):
        monkeypatch.setattr(retriever, "_BLOCK_SCORES", block_scores)  # blocks of a few queries
        monkeypatch.setattr(retriever, "_FLOAT32_FROM", 1)
        rows.clear()
        got = retrieve(queries, store, cfg)
        assert len(rows) > 1 and len(made) > 0
        assert got == [retrieve([q], store, cfg)[0] for q in queries]
        monkeypatch.setattr(retriever, "_FLOAT32_FROM", 10 ** 9)
        made.clear()
        for examples, want in zip(got, retrieve(queries, store, cfg)):
            assert [(ex.sentence_id, [(p.query_word, p.store_word) for p in ex.matched_pairs])
                    for ex in examples] == \
                [(ex.sentence_id, [(p.query_word, p.store_word) for p in ex.matched_pairs])
                 for ex in want]
            np.testing.assert_allclose([ex.score for ex in examples], [ex.score for ex in want],
                                       rtol=0, atol=1e-12)
        assert made == []
    monkeypatch.setattr(retriever, "_FLOAT32_FROM", 1)
    got = retrieve(outside, store, RetrieverConfig(k=4, store_words="all"))
    for query, examples in zip(outside, got):
        want = oracle_word_level(sents, query, embedder, per_word_k=4, k=4)
        assert [ex.sentence_id for ex in examples] == [sid for sid, _ in want]
        np.testing.assert_allclose([ex.score for ex in examples], [score for _, score in want],
                                   rtol=0, atol=1e-12)


WORD_MATRIX_BYTES = 400 * 10 * 256 * 8  # the word matrix of `big_store_inputs`


def big_store_inputs(tmp_path):
    """400 sentences of 10 distinct words each at 256 dimensions: 4,000 word rows."""
    sentences = [LabeledSentence(i, [f"s{i}w{j}" for j in range(10)], []) for i in range(400)]
    return sentences, make_embedder(sentences, tmp_path, dim=256)


def traced_peak(call):
    """call()'s result and its traced peak, in word matrices of `big_store_inputs`."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / WORD_MATRIX_BYTES


def store_build_peak(tmp_path, index_kind: str) -> float:
    """The traced peak of a 4,000-word store build, in word matrices."""
    sentences, embedder = big_store_inputs(tmp_path)
    cfg = RetrieverConfig(store_words="all", index_kind=index_kind)
    store, peak = traced_peak(lambda: ExampleStore.build(sentences, product_schema(), embedder,
                                                         cfg, modes=("word-level",)))
    assert len(store.indexes["word-level"]) == 4000
    return peak


def test_flat_store_build_traces_at_most_one_and_a_quarter_word_matrices(tmp_path):
    # each sentence's rows are written into the one matrix the index keeps
    assert store_build_peak(tmp_path, "flat") <= 1.25


@pytest.mark.parametrize("index_kind", ["ivf"])
def test_store_build_traces_at_most_one_and_a_half_word_matrices(tmp_path, index_kind):
    # IVF regroups the built rows in place; above one matrix is k-means' assignment block
    assert store_build_peak(tmp_path, index_kind) <= 1.5


@pytest.mark.parametrize("first, then", [("flat", "ivf"), ("ivf", "flat")])
def test_a_reindex_of_a_loaded_store_traces_at_most_half_a_word_matrix(tmp_path, first, then):
    # the loaded matrix is regrouped in place, not gathered into a copy
    sentences, embedder = big_store_inputs(tmp_path)
    cfg = RetrieverConfig(store_words="all", index_kind=then)
    ExampleStore.build(sentences, product_schema(), embedder, replace(cfg, index_kind=first),
                       modes=("word-level",)).save(tmp_path / "store")
    loaded = ExampleStore.load(tmp_path / "store", embedder, modes=("word-level",))
    reindexed, peak = traced_peak(lambda: loaded.reindex(cfg))
    assert peak <= 0.5, peak
    built = ExampleStore.build(sentences, product_schema(), embedder, cfg, modes=("word-level",))
    got, want = reindexed.indexes["word-level"], built.indexes["word-level"]
    assert index_arrays(got).keys() == index_arrays(want).keys()
    for name, array in index_arrays(want).items():
        assert index_arrays(got)[name].tobytes() == array.tobytes(), name


# --- degenerate inputs ----------------------------------------------------------------


def test_all_stopword_query_raises(tmp_path):
    sents = fixture_store_sentences()
    query = LabeledSentence(7, ["the", "of", "and"], [])
    embedder = make_embedder(sents + [query], tmp_path, dim=8)
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig(),
                               modes=("word-level",))
    [entry] = retrieve([query], store, RetrieverConfig())
    assert isinstance(entry, EmptyQueryAfterStopwords)


def test_word_retrieval_without_word_index_raises(tmp_path):
    cfg = RetrieverConfig(mode="sentence-level")
    store = ExampleStore.build(
        fixture_store_sentences(),
        product_schema(),
        fixture_embedder(tmp_path),
        cfg,
        modes=("sentence-level",),
    )
    with pytest.raises(ConfigError, match="needs the word-level index"):
        store.require_index(RetrieverConfig())


def test_sentence_retrieval_without_sentence_index_raises(tmp_path):
    store = ExampleStore.build(
        fixture_store_sentences(),
        product_schema(),
        fixture_embedder(tmp_path),
        RetrieverConfig(),
        modes=("word-level",),
    )
    with pytest.raises(ConfigError, match="needs the sentence-level index"):
        store.require_index(RetrieverConfig(mode="sentence-level"))


def test_empty_store_rejected(tmp_path):
    with pytest.raises(EmptyStore):
        ExampleStore.build(
            [], product_schema(), fixture_embedder(tmp_path), RetrieverConfig(),
            modes=("word-level",),
        )


def test_entity_only_store_with_no_spans_raises(tmp_path):
    sents = [LabeledSentence(0, ["alpha", "beta"], [])]
    embedder = make_embedder(sents, tmp_path, dim=4)
    with pytest.raises(EmptyStore, match="entity-only"):
        ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig(),
                           modes=("word-level",))


# --- IVF-backed stores ------------------------------------------------------------------


def test_ivf_store_full_probe_matches_flat(tmp_path):
    rng = random.Random(77)
    sents = random_store(rng, 30)
    query = LabeledSentence(500, rng.sample([f"tok{i}" for i in range(40)], 4), [])
    embedder = make_embedder(sents + [query], tmp_path, dim=16)

    flat_store = ExampleStore.build(
        sents, product_schema(), embedder, RetrieverConfig(store_words="all"), modes=("word-level",)
    )
    ivf_cfg = RetrieverConfig(store_words="all", index_kind="ivf", nlist=4, seed=7)
    ivf_store = ExampleStore.build(sents, product_schema(), embedder, ivf_cfg,
                                   modes=("word-level",))

    [flat_results] = retrieve([query], flat_store, RetrieverConfig(k=5, store_words="all"))
    [ivf_results] = retrieve(
        [query], ivf_store, RetrieverConfig(k=5, store_words="all", index_kind="ivf", nprobe=4)
    )
    assert [(r.sentence_id, pytest.approx(r.score)) for r in flat_results] == [
        (r.sentence_id, r.score) for r in ivf_results
    ]


def index_arrays(index) -> dict:
    names = ("matrix", "grouped", "row_record_ids", "offsets", "centroids", "sentence_ids")
    return {name: getattr(index, name) for name in names if hasattr(index, name)}


@pytest.mark.parametrize("first, then", [("flat", "ivf"), ("ivf", "flat"), ("ivf", "ivf")])
def test_reindex_builds_the_indexes_a_build_under_its_config_does(tmp_path, first, then):
    rng = random.Random(79)
    sents = random_store(rng, 30)
    embedder = make_embedder(sents, tmp_path, dim=16)
    modes = ("word-level", "sentence-level")
    held = ExampleStore.build(sents, product_schema(), embedder,
                              RetrieverConfig(store_words="all", index_kind=first, nlist=4, seed=3),
                              modes=modes)
    cfg = RetrieverConfig(store_words="all", index_kind=then, nlist=5, seed=11)
    reindexed = held.reindex(cfg)
    built = ExampleStore.build(sents, product_schema(), embedder, cfg, modes=modes)
    assert reindexed.sentences == built.sentences and reindexed.embedder is embedder
    assert reindexed.indexes.keys() == built.indexes.keys()
    for got, want in zip(reindexed.indexes.values(), built.indexes.values()):
        assert got.kind == then and got.words == want.words
        arrays = index_arrays(want)
        assert index_arrays(got).keys() == arrays.keys()
        for name, array in index_arrays(got).items():
            assert array.dtype == arrays[name].dtype
            assert array.tobytes() == arrays[name].tobytes(), name


def test_a_reindexed_store_keeps_no_index(tmp_path):
    held = build_fixture_store(tmp_path)
    held.reindex(RetrieverConfig(index_kind="ivf", nlist=2))
    assert held.indexes == {}
    with pytest.raises(KeyError):
        retrieve([fixture_query()], held, RetrieverConfig())
    with pytest.raises(ConfigError, match="needs the word-level index"):
        held.require_index(RetrieverConfig())


def test_a_failed_reindex_still_spends_its_store(tmp_path):
    held = build_fixture_store(tmp_path)  # 2 sentences, more words
    with pytest.raises(NlistTooLarge):
        held.reindex(RetrieverConfig(index_kind="ivf", nlist=3))
    assert held.indexes == {}


# --- persistence ---------------------------------------------------------------------


def test_store_save_load_round_trip(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    store.save(tmp_path / "store")
    loaded = ExampleStore.load(tmp_path / "store", embedder=store.embedder)
    assert len(loaded) == 2
    assert loaded.schema.names == store.schema.names
    assert loaded.model_name == store.model_name
    assert loaded.store_words == "entity-only"

    [before] = retrieve([fixture_query()], store, RetrieverConfig(k=2))
    [after] = retrieve([fixture_query()], loaded, RetrieverConfig(k=2))
    assert before == after
    assert retrieve(
        [fixture_query()], loaded, RetrieverConfig(k=2, mode="sentence-level")
    ) == retrieve([fixture_query()], store, RetrieverConfig(k=2, mode="sentence-level"))


def test_load_rejects_non_store_directory(tmp_path):
    with pytest.raises(FormatError):
        ExampleStore.load(tmp_path, fixture_embedder(tmp_path))


@pytest.mark.parametrize("meta", [[], {"indexes": ["word_index.bin"]}, {"indexes": {"word": 3}},
                                  {"model_name": "m"}])
def test_load_rejects_meta_of_the_wrong_shape(tmp_path, meta):
    store = build_fixture_store(tmp_path)
    store.save(tmp_path / "store")
    (tmp_path / "store" / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(FormatError, match=r"meta\.json: unreadable store: .*re-run `ragner index`"):
        ExampleStore.load(tmp_path / "store", store.embedder)


# --- payload shape ------------------------------------------------------------------


def test_retrieval_payload_shape(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    [results] = retrieve([fixture_query()], store, RetrieverConfig(k=2))
    payload = retrieval_payload(fixture_query().text, results)
    assert payload["query_text"] == "I want to buy a 13-inch macbook from store"
    assert [e["sentence_id"] for e in payload["examples"]] == [1, 0]
    first = payload["examples"][0]["matched_pairs"][0]
    assert set(first) == {"query_word", "store_word", "similarity"}
