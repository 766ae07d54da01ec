"""Embedding providers, word/sentence embedding, and alignment."""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragner.corpus import LabeledSentence
from ragner.embedder import (
    Embedder,
    EmbedderSpec,
    RemoteEmbeddingProvider,
    l2_normalize,
    load_precomputed,
    open_precomputed_cache,
    token_char_ranges,
)
from ragner.errors import (
    AlignmentGap,
    DimensionMismatch,
    EmbedderError,
    EmptyInput,
    FormatError,
    MissingArtifact,
    MissingEntry,
    ProviderUnavailable,
)
from ragner.stopwords import load_stopwords

from helpers import encoding, encoding_record, make_embedder, precomputed_provider, write_precomputed


def sent(text: str, sid: int = 0) -> LabeledSentence:
    return LabeledSentence(sid, tuple(text.split()), ())


def token_texts(text: str, enc) -> list[str]:
    return [text[start:end] for start, end in enc.token_spans.tolist()]


# --- small pure helpers --------------------------------------------------------


def test_token_char_ranges():
    assert token_char_ranges(["I", "want", "tea"]) == [(0, 1), (2, 6), (7, 10)]


def test_l2_normalize_unit_norm():
    v = l2_normalize(np.array([3.0, 4.0]))
    assert np.allclose(v, [0.6, 0.8])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(EmbedderError):
        l2_normalize(np.zeros(4))


def test_spec_rejects_unknown_provider():
    with pytest.raises(ValueError):
        EmbedderSpec(provider="local-gpu")


def test_spec_rejects_bad_dimension():
    with pytest.raises(ValueError):
        EmbedderSpec(provider="precomputed-file", dimension=0)


def test_load_stopwords_override(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The\nof # function word\n\n# comment only\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "of"})


# --- precomputed provider -------------------------------------------------------


def test_precomputed_round_trip(tmp_path):
    rec = encoding_record(["hello", "world"], dim=4)
    path = tmp_path / "emb.jsonl"
    write_precomputed([rec], path)
    provider = load_precomputed(path)
    assert len(provider) == 1
    enc = provider.encode("hello world")
    assert token_texts("hello world", enc) == ["hello", "world"]
    assert enc.token_vectors.shape == (2, 4)
    assert enc.sentence_vector.shape == (4,)


def test_precomputed_is_keyed_by_exact_text(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["hello", "world"], dim=4)], path)
    provider = load_precomputed(path)
    with pytest.raises(MissingEntry):
        provider.encode("Hello world")


def test_precomputed_rejects_invalid_json(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"text": "ok", "tokens": [], "sentence_vector": [1]}\nnot json\n')
    with pytest.raises(FormatError):
        load_precomputed(path)


def test_precomputed_rejects_record_without_text(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"tokens": [], "sentence_vector": [1]}\n')
    with pytest.raises(FormatError):
        load_precomputed(path)


# --- Embedder.embed_words / embed_sentence ---------------------------------------


def test_embed_words_skips_stop_words(tmp_path):
    s = sent("I want to buy a table from store")
    embedder = make_embedder([s], tmp_path, dim=8)
    words = [w.word for w in embedder.embed_words(s)]
    assert words == ["want", "buy", "table", "store"]


def test_embed_words_records_word_indices(tmp_path):
    s = sent("I want to buy a table from store")
    embedder = make_embedder([s], tmp_path, dim=8)
    indices = {w.word: w.word_index for w in embedder.embed_words(s)}
    assert indices == {"want": 1, "buy": 3, "table": 5, "store": 7}


def test_embed_words_vectors_are_unit_norm(tmp_path):
    s = sent("quantum computing accelerates discovery")
    embedder = make_embedder([s], tmp_path, dim=8)
    for w in embedder.embed_words(s):
        assert abs(np.linalg.norm(w.vector) - 1.0) < 1e-9


def test_word_vector_is_normalized_mean_of_subwords():
    # "snowboarding" split into three subword pieces with distinct vectors
    v1, v2, v3 = [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]
    enc = encoding([(0, 4), (4, 9), (9, 12)], [v1, v2, v3], [1.0, 0.0, 0.0])
    provider = precomputed_provider({"snowboarding": enc})
    spec = EmbedderSpec(provider="precomputed-file", dimension=3)
    [word] = Embedder(provider, spec).embed_words(sent("snowboarding"))
    expected = np.array([1.0, 2.0, 3.0]) / 3.0
    assert np.allclose(word.vector, expected / np.linalg.norm(expected))


def test_subword_sharing_across_word_boundary():
    # a subword token straddling two words ("b c") contributes to both means
    enc = encoding([(0, 1), (1, 4)], [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    provider = precomputed_provider({"ab cd": enc})
    spec = EmbedderSpec(provider="precomputed-file", dimension=2, stopwords=frozenset())
    words = Embedder(provider, spec).embed_words(sent("ab cd"))
    assert np.allclose(words[0].vector, l2_normalize(np.array([1.0, 1.0])))
    assert np.allclose(words[1].vector, [0.0, 1.0])


def loop_word_vectors(tokens, spans, vectors, stopwords) -> list[np.ndarray]:
    """Reference: the per-token scan, mean of every token overlapping the word."""
    out = []
    for word, (ws, we) in zip(tokens, token_char_ranges(tokens)):
        if word.lower() not in stopwords:
            covering = [v for (start, end), v in zip(spans, vectors) if start < we and end > ws]
            out.append(l2_normalize(np.mean(np.stack(covering), axis=0)))
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_word_vectors_match_the_token_loop(data):
    # unsorted, overlapping and straddling tokens; the last covers the text
    tokens = data.draw(st.lists(st.sampled_from(["ab", "c", "defg", "the", "Xy"]), min_size=1, max_size=6))
    text = " ".join(tokens)
    bounds = st.tuples(st.integers(0, len(text)), st.integers(0, len(text)))
    spans = [(a, b) for a, b in data.draw(st.lists(bounds, max_size=8)) if a < b] + [(0, len(text))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(len(spans), 5))
    provider = precomputed_provider({text: encoding(spans, vectors, rng.normal(size=5))})
    spec = EmbedderSpec(provider="precomputed-file", dimension=5)
    words = Embedder(provider, spec).embed_words(sent(text))
    expected = loop_word_vectors(tokens, spans, vectors, spec.stopwords)
    assert [w.vector.tobytes() for w in words] == [v.tobytes() for v in expected]


def test_embed_words_alignment_gap():
    enc = encoding([(0, 5)], [[1.0, 0.0]], [1.0, 0.0])
    provider = precomputed_provider({"hello world": enc})
    spec = EmbedderSpec(provider="precomputed-file", dimension=2)
    with pytest.raises(AlignmentGap, match="world"):
        Embedder(provider, spec).embed_words(sent("hello world"))


def test_embed_empty_sentence_raises():
    provider = precomputed_provider({})
    spec = EmbedderSpec(provider="precomputed-file", dimension=2)
    empty = LabeledSentence(0, (), ())
    with pytest.raises(EmptyInput):
        Embedder(provider, spec).embed_words(empty)
    with pytest.raises(EmptyInput):
        Embedder(provider, spec).embed_sentence(empty)


def test_dimension_mismatch_detected(tmp_path):
    s = sent("quantum computing")
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(s.tokens, dim=8)], path)
    spec = EmbedderSpec(provider="precomputed-file", dimension=16)
    embedder = Embedder(load_precomputed(path), spec)
    with pytest.raises(DimensionMismatch):
        embedder.embed_words(s)


def test_embed_sentence_normalizes(tmp_path):
    s = sent("quantum computing")
    embedder = make_embedder([s], tmp_path, dim=8, sentence_vectors={s.text: [3.0] * 8})
    vec = embedder.embed_sentence(s).vector
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    assert np.allclose(vec, np.full(8, 1.0 / np.sqrt(8)))


def test_provider_called_once_per_text():
    calls = []

    class CountingProvider:
        def encode(self, text):
            calls.append(text)
            return encoding([(0, 2)], [[1.0, 0.0]], [0.0, 1.0])

    spec = EmbedderSpec(provider="precomputed-file", dimension=2, stopwords=frozenset())
    embedder = Embedder(CountingProvider(), spec)
    s = sent("hi")
    embedder.embed_words(s)
    embedder.embed_sentence(s)
    embedder.embed_words(s)
    assert calls == ["hi"]


# --- remote provider --------------------------------------------------------------


class _EmbeddingHandler(BaseHTTPRequestHandler):
    fail_first = 0
    fail_status = 503
    sleep = 0.0
    mode = "ok"
    garbage = b"<html>oops</html>"
    requests_seen: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(body)
        if type(self).sleep:
            time.sleep(type(self).sleep)
            return  # the client has given up by now: no reply to write
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(type(self).fail_status)
            self.end_headers()
            return
        if type(self).mode == "reject":
            self.send_response(422)
            self.end_headers()
            self.wfile.write(b"bad request")
            return
        if type(self).mode == "garbage":
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(type(self).garbage)
            return
        record = encoding_record(body["text"].split(), dim=4)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps(record).encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def embedding_server():
    _EmbeddingHandler.fail_first = 0
    _EmbeddingHandler.fail_status = 503
    _EmbeddingHandler.sleep = 0.0
    _EmbeddingHandler.mode = "ok"
    _EmbeddingHandler.garbage = b"<html>oops</html>"
    _EmbeddingHandler.requests_seen = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbeddingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    thread.join()


def test_remote_provider_round_trip(embedding_server):
    provider = RemoteEmbeddingProvider(embedding_server, "test-model", timeout=5.0)
    enc = provider.encode("hello world")
    assert token_texts("hello world", enc) == ["hello", "world"]
    assert _EmbeddingHandler.requests_seen[0] == {"model": "test-model", "text": "hello world"}


def test_remote_provider_retries_transient_errors(embedding_server):
    _EmbeddingHandler.fail_first = 2
    provider = RemoteEmbeddingProvider(embedding_server, "m", timeout=5.0, max_retries=2)
    enc = provider.encode("hello")
    assert enc.sentence_vector.shape == (4,)
    assert len(_EmbeddingHandler.requests_seen) == 3


def test_remote_provider_gives_up_after_retries(embedding_server):
    _EmbeddingHandler.fail_first = 10
    provider = RemoteEmbeddingProvider(embedding_server, "m", timeout=5.0, max_retries=1)
    with pytest.raises(ProviderUnavailable):
        provider.encode("hello")
    assert len(_EmbeddingHandler.requests_seen) == 2


def test_remote_provider_client_error_fails_fast(embedding_server):
    _EmbeddingHandler.mode = "reject"
    provider = RemoteEmbeddingProvider(embedding_server, "m", timeout=5.0, max_retries=3)
    with pytest.raises(ProviderUnavailable):
        provider.encode("hello")
    assert len(_EmbeddingHandler.requests_seen) == 1


def test_remote_provider_non_json_response(embedding_server):
    _EmbeddingHandler.mode = "garbage"
    provider = RemoteEmbeddingProvider(embedding_server, "m", timeout=5.0)
    for garbage in (b"<html>oops</html>", b"[" * 100_000 + b"]" * 100_000):
        _EmbeddingHandler.garbage = garbage
        with pytest.raises(FormatError, match="non-JSON response"):
            provider.encode("hello")


def test_remote_provider_retries_429(embedding_server):
    _EmbeddingHandler.fail_first = 1
    _EmbeddingHandler.fail_status = 429
    provider = RemoteEmbeddingProvider(embedding_server, "m", timeout=5.0, max_retries=1)
    assert token_texts("hello world", provider.encode("hello world")) == ["hello", "world"]
    assert len(_EmbeddingHandler.requests_seen) == 2


def test_remote_provider_slow_reply_times_out(embedding_server):
    _EmbeddingHandler.sleep = 1.0
    provider = RemoteEmbeddingProvider(embedding_server, "m", timeout=0.2, max_retries=1)
    with pytest.raises(ProviderUnavailable, match="no answer within 0.2s"):
        provider.encode("hello")
    assert len(_EmbeddingHandler.requests_seen) == 2


def test_remote_sentence_vector_of_wrong_width_is_not_cached(embedding_server):
    # the server answers 4-d vectors; a rejected encoding is asked for again
    provider = RemoteEmbeddingProvider(embedding_server, "m", timeout=5.0)
    embedder = Embedder(provider, EmbedderSpec(provider="remote-service", dimension=8))
    for _ in range(2):
        with pytest.raises(DimensionMismatch):
            embedder.embed_words(sent("hello world"))
    assert len(_EmbeddingHandler.requests_seen) == 2


def test_remote_provider_unreachable():
    provider = RemoteEmbeddingProvider(
        "http://127.0.0.1:1/embed", "m", timeout=0.2, max_retries=0
    )
    with pytest.raises(ProviderUnavailable):
        provider.encode("hello")


# --- the array representation and its cache ----------------------------------------


def test_precomputed_last_duplicate_line_wins(tmp_path):
    first = encoding_record(["hello", "world"], dim=4)
    last = encoding_record(["hello", "world"], dim=4, sentence_vector=[0.0, 0.0, 0.0, 1.0])
    path = tmp_path / "emb.jsonl"
    write_precomputed([first, encoding_record(["bye"], dim=4), last], path)
    provider = load_precomputed(path)
    assert len(provider) == 2
    assert list(provider.encode("hello world").sentence_vector) == [0.0, 0.0, 0.0, 1.0]


def test_precomputed_records_digest_of_parsed_bytes(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["hello"], dim=4)], path)
    assert load_precomputed(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_precomputed_rejects_vectors_of_different_lengths(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["a"], dim=4), encoding_record(["b"], dim=3)], path)
    with pytest.raises(FormatError):
        load_precomputed(path)
    rec = encoding_record(["a", "b"], dim=4)
    rec["tokens"][1]["vector"] = [1.0, 0.0]
    write_precomputed([rec], path)
    with pytest.raises(FormatError):
        load_precomputed(path)


def test_cache_round_trip_is_bit_exact(tmp_path):
    sentences = [sent("quantum computing accelerates discovery"), sent("hello world", 1)]
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(list(s.tokens), dim=8) for s in sentences], path)
    parsed = load_precomputed(path)
    parsed.save_cache(tmp_path)
    cached = open_precomputed_cache(tmp_path)
    assert cached.texts == parsed.texts
    for attr in ("token_vectors", "token_spans", "token_offsets", "sentence_vectors"):
        assert getattr(cached, attr).tobytes() == getattr(parsed, attr).tobytes()
    spec = EmbedderSpec(provider="precomputed-file", dimension=8)
    for s in sentences:
        a, b = Embedder(parsed, spec).embed_words(s), Embedder(cached, spec).embed_words(s)
        assert [w.vector.tobytes() for w in a] == [w.vector.tobytes() for w in b]
    with pytest.raises(DimensionMismatch):
        Embedder(cached, EmbedderSpec(provider="precomputed-file", dimension=16)).embed_words(
            sentences[0]
        )


def test_cache_open_rejects_missing_and_malformed_files(tmp_path):
    with pytest.raises(MissingArtifact):
        open_precomputed_cache(tmp_path)
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["hello", "world"], dim=4)], path)
    load_precomputed(path).save_cache(tmp_path)
    victim = tmp_path / "embeddings.token_vectors.npy"
    data = victim.read_bytes()
    victim.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        open_precomputed_cache(tmp_path)
    victim.write_bytes(b"not an npy file")
    with pytest.raises(FormatError):
        open_precomputed_cache(tmp_path)
    np.save(victim, np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(FormatError):
        open_precomputed_cache(tmp_path)
