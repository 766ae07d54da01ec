"""A search made deeper than a retrieval needs, its hits cut back to the
retrieval's own depth, retrieves exactly what `retrieve` does: what lets
the cells of an ablation sweep share one search."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ragner import retriever
from ragner.config import RetrieverConfig
from ragner.corpus import EntitySpan, LabeledSentence
from ragner.embedder import Embedder, token_char_ranges
from ragner.errors import RagnerError
from ragner.retriever import ExampleStore, retrieve, select

from helpers import encoding, precomputed_provider, product_schema

DIM = 4
VOCAB = [f"w{i}" for i in range(8)]


def _sentence(sid: int, tokens: list[str]) -> LabeledSentence:
    return LabeledSentence(sid, tokens, [EntitySpan("product", 0, len(tokens), " ".join(tokens))])


def _fixture(seed: int, n_sentences: int, n_vectors: int):
    """Store sentences over a small vocabulary whose word and sentence vectors
    come from a pool of n_vectors unit vectors, so that many scores tie; and
    queries: store sentences (their own records excluded), new sentences
    and one of stop words only."""
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(n_vectors, DIM))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    word_vectors = {word: pool[rng.integers(n_vectors)] for word in VOCAB + ["the", "of"]}

    def tokens() -> list[str]:
        return [VOCAB[i] for i in rng.integers(len(VOCAB), size=rng.integers(1, 5))]

    store = [_sentence(sid, tokens()) for sid in range(n_sentences)]
    queries = store[:3] + [_sentence(100 + i, tokens()) for i in range(3)]
    queries.append(_sentence(200, ["the", "of"]))
    encodings = {
        s.text: encoding(token_char_ranges(s.tokens), [word_vectors[w] for w in s.tokens],
                         pool[rng.integers(n_vectors)])
        for s in store + queries
    }
    return store, queries, Embedder(precomputed_provider(encodings), DIM)


def _comparable(entries: list) -> list:
    """Entries with each error as its type and message, which compare by value."""
    return [(type(e).__name__, str(e)) if isinstance(e, RagnerError) else e for e in entries]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sentences=st.integers(2, 8),
    n_vectors=st.integers(1, 4),
    index_kind=st.sampled_from(["flat", "ivf"]),
    mode=st.sampled_from(["word-level", "sentence-level"]),
    k=st.integers(1, 6),
    per_word_k=st.none() | st.integers(1, 6),
    aggregator=st.sampled_from(["max", "sum"]),
    extra=st.integers(0, 8),
    data=st.data(),
)
def test_hits_searched_deeper_and_cut_retrieve_what_retrieve_does(
        seed, n_sentences, n_vectors, index_kind, mode, k, per_word_k, aggregator, extra, data):
    store_sentences, queries, embedder = _fixture(seed, n_sentences, n_vectors)
    nlist = data.draw(st.integers(1, n_sentences), label="nlist")
    built = RetrieverConfig(store_words="all", index_kind=index_kind, nlist=nlist, seed=seed)
    store = ExampleStore.build(store_sentences, product_schema(), embedder, built,
                               modes=("word-level", "sentence-level"))
    nprobe = data.draw(st.none() | st.integers(1, nlist), label="nprobe")
    cfg = replace(built, mode=mode, k=k, per_word_k=per_word_k, aggregator=aggregator,
                  nprobe=nprobe)
    depth = cfg.search_depth

    deep = retriever._retrieve_blocks(queries, store, cfg, depth + extra)
    own = retriever._retrieve_blocks(queries, store, cfg, depth)
    assert _comparable(select(queries, deep, store, cfg)) == \
        _comparable(retrieve(queries, store, cfg))
    # each row's top-depth hits are a prefix of its deeper ones
    for deep_entry, own_entry in zip(deep, own):
        if isinstance(own_entry, RagnerError):
            assert _comparable([deep_entry]) == _comparable([own_entry])
            continue
        (deep_words, deep_hits), (own_words, own_hits) = deep_entry, own_entry
        assert np.array_equal(deep_words, own_words) if own_words is not None \
            else deep_words is None
        for (deep_ids, deep_scores), (own_ids, own_scores) in zip(deep_hits, own_hits):
            assert len(own_ids) <= depth
            assert deep_ids[:depth].tolist() == own_ids.tolist()
            assert deep_scores[:depth].tolist() == own_scores.tolist()
    # the query drawn from the store never retrieves itself
    for query, examples in zip(queries[:3], retrieve(queries[:3], store, cfg)):
        assert query.id not in [ex.sentence_id for ex in examples]
