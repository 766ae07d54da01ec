"""Word-level and sentence-level example retrieval over the store."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from ragner import retriever
from ragner.config import RetrieverConfig
from ragner.corpus import EntitySpan, LabeledSentence
from ragner.errors import (
    EmptyInput,
    EmptyQueryAfterStopwords,
    EmptyStore,
    FormatError,
    MissingEntry,
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
    with pytest.raises(ValueError):
        RetrieverConfig(**kwargs)


def test_word_level_ranks_entity_match_first(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    results = retrieve(fixture_query(), store, RetrieverConfig(k=2))
    assert [r.sentence_id for r in results] == [1, 0]
    assert results[0].score == pytest.approx(1.0)
    assert results[1].score == pytest.approx(0.436, abs=1e-9)


def test_sentence_level_ranks_surface_match_first(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    cfg = RetrieverConfig(k=2, mode="sentence-level")
    results = retrieve(fixture_query(), store, cfg)
    assert [r.sentence_id for r in results] == [0, 1]
    assert results[0].score == pytest.approx(0.95, abs=1e-9)
    assert results[1].score == pytest.approx(0.5, abs=1e-9)


def test_retrieve_dispatches_on_mode(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    word = retrieve(fixture_query(), store, RetrieverConfig(k=2))
    sent = retrieve(fixture_query(), store, RetrieverConfig(k=2, mode="sentence-level"))
    assert [r.sentence_id for r in word] == [1, 0]
    assert [r.sentence_id for r in sent] == [0, 1]


def test_matched_pairs_justify_the_ranking(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    results = retrieve(fixture_query(), store, RetrieverConfig(k=2))
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
    assert sorted(store.word_index.words) == ["15-inch", "macbook", "table"]


def test_store_words_all_keeps_every_content_word(tmp_path):
    store = build_fixture_store(tmp_path, store_words="all")
    # records run in sentence order, then word order
    assert store.word_index.words == ["want", "buy", "table", "store", "Show", "15-inch", "macbook"]
    assert store.word_index.sentence_ids.tolist() == [0, 0, 0, 0, 1, 1, 1]


# --- self-exclusion -----------------------------------------------------------------


def test_self_match_is_excluded(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    query = store.sentences[1]  # "Show me a 15-inch macbook", id 1
    results = retrieve(query, store, RetrieverConfig(k=2))
    assert [r.sentence_id for r in results] == [0]


def test_self_match_kept_when_disabled(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    query = store.sentences[1]
    cfg = RetrieverConfig(k=2, exclude_self=False)
    results = retrieve(query, store, cfg)
    assert results[0].sentence_id == 1
    assert results[0].score == pytest.approx(1.0)


def test_sentence_level_self_exclusion(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    query = store.sentences[0]
    cfg = RetrieverConfig(k=1, mode="sentence-level")
    results = retrieve(query, store, cfg)
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
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig(k=2))
    results = retrieve(query, store, RetrieverConfig(k=2))
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
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig())

    by_max = retrieve(query, store, RetrieverConfig(k=2))
    assert [r.sentence_id for r in by_max] == [1, 2]
    assert by_max[0].score == pytest.approx(0.9)

    by_sum = retrieve(query, store, RetrieverConfig(k=2, aggregator="sum"))
    assert [r.sentence_id for r in by_sum] == [2, 1]
    assert by_sum[0].score == pytest.approx(1.2)


# --- pooling equivalence against an exhaustive oracle --------------------------------


def oracle_word_level(store_sents, query, embedder, per_word_k, k):
    """Reference pooling: exhaustive cosine per query word, then collapse."""
    store_words = []
    for s in store_sents:
        store_words.extend(embedder.embed_words(s))
    best: dict[int, float] = {}
    for qw in embedder.embed_words(query):
        sims = [
            (float(np.dot(qw.vector, sw.vector)), idx, sw.sentence_id)
            for idx, sw in enumerate(store_words)
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
    store = ExampleStore.build(sents, product_schema(), embedder, cfg)

    for k in (1, 3, 5):
        run_cfg = RetrieverConfig(k=k, store_words="all")
        got = retrieve(query, store, run_cfg)
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
        sents, product_schema(), embedder, RetrieverConfig(store_words="all")
    )
    results = retrieve(query, store, RetrieverConfig(k=10, store_words="all"))
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
    index = store.word_index
    per_word_k = cfg.effective_per_word_k
    owned = int(np.sum(index.sentence_ids == query.id)) if cfg.exclude_self else 0
    best, pairs, per_word_best = {}, {}, {}
    for w in store.embedder.embed_words(query):
        hits = index.search(w.vector, per_word_k + owned, nprobe=cfg.nprobe)
        if cfg.exclude_self:
            hits = [h for h in hits if int(index.sentence_ids[h.record_id]) != query.id]
        for hit in hits[:per_word_k]:
            sid = int(index.sentence_ids[hit.record_id])
            best[sid] = max(best.get(sid, hit.score), hit.score)
            pairs.setdefault(sid, []).append(
                MatchedPair(w.word, index.words[hit.record_id], hit.score))
            word_best = per_word_best.setdefault(sid, {})
            word_best[w.word_index] = max(word_best.get(w.word_index, hit.score), hit.score)
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
        store = ExampleStore.build(sents, product_schema(), embedder, build_cfg)
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
                assert retrieve(query, store, cfg) == expected
                if exclude_self:
                    assert query.id not in [r.sentence_id for r in expected]


@pytest.mark.parametrize("index_kind", ["flat", "ivf"])
def test_word_level_searches_once_per_query_sentence(tmp_path, monkeypatch, index_kind):
    rng = random.Random(5)
    sents = random_store(rng, 12)
    query = query_over(rng, n=5)
    embedder = make_embedder(sents + [query], tmp_path, dim=16)
    build_cfg = RetrieverConfig(store_words="all", index_kind=index_kind, nlist=3)
    store = ExampleStore.build(sents, product_schema(), embedder, build_cfg)
    cls = type(store.word_index)
    calls = []
    original = cls.search_batch

    def spy(self, queries, *args, **kwargs):
        calls.append(np.asarray(queries).shape)
        return original(self, queries, *args, **kwargs)

    monkeypatch.setattr(cls, "search_batch", spy)
    monkeypatch.setattr(cls, "search", lambda *a, **kw: pytest.fail("per-word search"))
    for target in (query, sents[0]):
        retrieve(target, store, build_cfg)
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
    for cls in {type(store.word_index), type(store.sentence_index)} - {type(None)}:
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
            assert got == [retrieve(q, store, cfg) for q in queries]
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
    assert [entries[i] for i in (0, 2, 4, 6)] == [retrieve(q, store, cfg) for q in good]
    for entry, query, error in zip(entries[1::2], queries[1::2], expected_errors):
        if error is None:  # stop words still have a sentence vector
            assert entry == retrieve(query, store, cfg)
            continue
        assert type(entry) is error
        with pytest.raises(error):
            retrieve(query, store, cfg)


def test_store_problems_raise_for_the_whole_call(tmp_path):
    store = build_fixture_store(tmp_path)
    store.save(tmp_path / "store")
    loaded = ExampleStore.load(tmp_path / "store")
    with pytest.raises(EmptyStore, match="embedder"):
        retrieve([fixture_query(), fixture_query()], loaded, RetrieverConfig())
    only_words = ExampleStore.build(fixture_store_sentences(), product_schema(),
                                    fixture_embedder(tmp_path), RetrieverConfig())
    with pytest.raises(EmptyStore, match="sentence index"):
        retrieve([fixture_query()], only_words, RetrieverConfig(mode="sentence-level"))
    assert retrieve([], only_words, RetrieverConfig()) == []


def test_block_rule_splits_by_score_budget_and_row_cap(tmp_path, monkeypatch):
    vocab = sorted(_EXACT_WORDS)
    sents = [LabeledSentence(i, vocab[i: i + 4], []) for i in range(5)]  # 20 word records

    def query(qid, n_words):
        return LabeledSentence(qid, [vocab[(qid + j) % 10] for j in range(n_words)], [])

    queries = [query(100 + i, n) for i, n in enumerate((3, 2, 1, 4, 7, 1))]
    embedder = make_embedder(sents + queries, tmp_path, dim=16, word_vectors=_EXACT_WORDS)
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig(store_words="all"),
                               modes=("word-level", "sentence-level"))
    assert len(store.word_index) == 20 and len(store.sentence_index) == 5
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


# --- degenerate inputs ----------------------------------------------------------------


def test_all_stopword_query_raises(tmp_path):
    sents = fixture_store_sentences()
    query = LabeledSentence(7, ["the", "of", "and"], [])
    embedder = make_embedder(sents + [query], tmp_path, dim=8)
    store = ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig())
    with pytest.raises(EmptyQueryAfterStopwords):
        retrieve(query, store, RetrieverConfig())


def test_word_retrieval_without_word_index_raises(tmp_path):
    cfg = RetrieverConfig(mode="sentence-level")
    store = ExampleStore.build(
        fixture_store_sentences(),
        product_schema(),
        fixture_embedder(tmp_path),
        cfg,
        modes=("sentence-level",),
    )
    with pytest.raises(EmptyStore):
        retrieve(fixture_query(), store, RetrieverConfig())


def test_sentence_retrieval_without_sentence_index_raises(tmp_path):
    store = ExampleStore.build(
        fixture_store_sentences(),
        product_schema(),
        fixture_embedder(tmp_path),
        RetrieverConfig(),
        modes=("word-level",),
    )
    with pytest.raises(EmptyStore):
        retrieve(fixture_query(), store, RetrieverConfig(mode="sentence-level"))


def test_empty_store_rejected(tmp_path):
    with pytest.raises(EmptyStore):
        ExampleStore.build(
            [], product_schema(), fixture_embedder(tmp_path), RetrieverConfig()
        )


def test_duplicate_sentence_ids_rejected():
    s = LabeledSentence(1, ["a"], [])
    with pytest.raises(ValueError, match="unique"):
        ExampleStore([s, s], product_schema())


def test_entity_only_store_with_no_spans_raises(tmp_path):
    sents = [LabeledSentence(0, ["alpha", "beta"], [])]
    embedder = make_embedder(sents, tmp_path, dim=4)
    with pytest.raises(EmptyStore, match="entity-only"):
        ExampleStore.build(sents, product_schema(), embedder, RetrieverConfig())


# --- IVF-backed stores ------------------------------------------------------------------


def test_ivf_store_full_probe_matches_flat(tmp_path):
    rng = random.Random(77)
    sents = random_store(rng, 30)
    query = LabeledSentence(500, rng.sample([f"tok{i}" for i in range(40)], 4), [])
    embedder = make_embedder(sents + [query], tmp_path, dim=16)

    flat_store = ExampleStore.build(
        sents, product_schema(), embedder, RetrieverConfig(store_words="all")
    )
    ivf_cfg = RetrieverConfig(store_words="all", index_kind="ivf", nlist=4, seed=7)
    ivf_store = ExampleStore.build(sents, product_schema(), embedder, ivf_cfg)

    flat_results = retrieve(query, flat_store, RetrieverConfig(k=5, store_words="all"))
    ivf_results = retrieve(
        query, ivf_store, RetrieverConfig(k=5, store_words="all", index_kind="ivf", nprobe=4)
    )
    assert [(r.sentence_id, pytest.approx(r.score)) for r in flat_results] == [
        (r.sentence_id, r.score) for r in ivf_results
    ]


# --- persistence ---------------------------------------------------------------------


def test_store_save_load_round_trip(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    store.save(tmp_path / "store")
    loaded = ExampleStore.load(tmp_path / "store", embedder=store.embedder)
    assert len(loaded) == 2
    assert loaded.schema.names == store.schema.names
    assert loaded.model_name == store.model_name
    assert loaded.store_words == "entity-only"

    before = retrieve(fixture_query(), store, RetrieverConfig(k=2))
    after = retrieve(fixture_query(), loaded, RetrieverConfig(k=2))
    assert before == after
    assert retrieve(
        fixture_query(), loaded, RetrieverConfig(k=2, mode="sentence-level")
    ) == retrieve(fixture_query(), store, RetrieverConfig(k=2, mode="sentence-level"))


def test_loaded_store_without_embedder_cannot_embed_queries(tmp_path):
    store = build_fixture_store(tmp_path)
    store.save(tmp_path / "store")
    loaded = ExampleStore.load(tmp_path / "store")
    with pytest.raises(EmptyStore, match="embedder"):
        retrieve(fixture_query(), loaded, RetrieverConfig())


def test_load_rejects_non_store_directory(tmp_path):
    with pytest.raises(FormatError):
        ExampleStore.load(tmp_path)


# --- payload shape ------------------------------------------------------------------


def test_retrieval_payload_shape(tmp_path):
    store = build_fixture_store(tmp_path, k=2)
    results = retrieve(fixture_query(), store, RetrieverConfig(k=2))
    payload = retrieval_payload(fixture_query().text, results)
    assert payload["query_text"] == "I want to buy a 13-inch macbook from store"
    assert [e["sentence_id"] for e in payload["examples"]] == [1, 0]
    first = payload["examples"][0]["matched_pairs"][0]
    assert set(first) == {"query_word", "store_word", "similarity"}
