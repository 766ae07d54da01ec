"""Embedding providers, word/sentence embedding, and alignment."""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import threading
import time
import tracemalloc
from decimal import Decimal, localcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ragner.embedder
from ragner.corpus import LabeledSentence
from ragner.embedder import (
    CACHE_ARRAYS,
    CACHE_TEXTS,
    Embedder,
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

from helpers import (
    encoding,
    encoding_record,
    json_with_literal,
    make_embedder,
    precomputed_provider,
    set_at,
    write_precomputed,
)


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


def test_load_stopwords_override(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The\nof # function word\n\n# comment only\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "of"})


def test_load_stopwords_of_an_unreadable_file(tmp_path):
    with pytest.raises(MissingArtifact, match="cannot read .*missing.txt: No such file"):
        load_stopwords(tmp_path / "missing.txt")
    (tmp_path / "latin1.txt").write_bytes(b"caf\xe9\n")
    with pytest.raises(FormatError, match="latin1.txt: not UTF-8"):
        load_stopwords(tmp_path / "latin1.txt")


# --- precomputed provider -------------------------------------------------------


def test_precomputed_round_trip(tmp_path):
    rec = encoding_record(["hello", "world"], dim=4)
    path = tmp_path / "emb.jsonl"
    write_precomputed([rec], path)
    provider = load_precomputed(path, tmp_path / "cache", {})
    assert len(provider) == 1
    enc = provider.encode("hello world")
    assert token_texts("hello world", enc) == ["hello", "world"]
    assert enc.token_vectors.shape == (2, 4)
    assert enc.sentence_vector.shape == (4,)


def test_precomputed_is_keyed_by_exact_text(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["hello", "world"], dim=4)], path)
    provider = load_precomputed(path, tmp_path / "cache", {})
    with pytest.raises(MissingEntry):
        provider.encode("Hello world")


def test_precomputed_rejects_invalid_json(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"text": "ok", "tokens": [], "sentence_vector": [1]}\nnot json\n')
    with pytest.raises(FormatError):
        load_precomputed(path, tmp_path / "cache", {})


def test_precomputed_rejects_record_without_text(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"tokens": [], "sentence_vector": [1]}\n')
    with pytest.raises(FormatError):
        load_precomputed(path, tmp_path / "cache", {})


def json_number_texts(x: float | int) -> list[str]:
    """Ways to write `x` as a JSON number: an int as digits; a float as its
    repr, with 17, 20 and 26 significant digits, and as the exact decimal
    midpoint between it and the next double up, which rounds to even."""
    if isinstance(x, int):
        return [str(x)]
    texts = [repr(x), "%.17g" % x, "%.20g" % x, "%.25e" % x]
    up = math.nextafter(x, math.inf)
    if math.isfinite(up):
        with localcontext() as ctx:
            ctx.prec = 1200  # a double's exact decimal has at most 767 digits
            texts.append(str((Decimal(x) + Decimal(up)) / 2))
    return texts


JSON_NUMBERS = (st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                   2.225073858507201e-308, 1.7976931348623157e308,
                                   -1.7976931348623155e308])
                | st.integers(-2**70, 2**70))


@settings(max_examples=200, deadline=None)
@given(numbers=st.lists(JSON_NUMBERS, min_size=1, max_size=8))
def test_precomputed_parse_is_bit_identical_to_the_stdlib(tmp_path_factory, numbers):
    texts = [t for x in numbers for t in json_number_texts(x)]
    vector, reverse = "[" + ",".join(texts) + "]", "[" + ",".join(reversed(texts)) + "]"
    line = ('{"text": "a b", "tokens": ['
            '{"text": "a", "start_char": 0, "end_char": 1, "vector": %s}, '
            '{"text": "b", "start_char": 2, "end_char": 3, "vector": %s}], '
            '"sentence_vector": %s}' % (vector, reverse, vector))
    path = tmp_path_factory.mktemp("parity") / "emb.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    provider = load_precomputed(path, path.parent / "cache", {})
    oracle = json.loads(line)
    token_vectors = np.asarray([t["vector"] for t in oracle["tokens"]], dtype=np.float64)
    sentence_vector = np.asarray(oracle["sentence_vector"], dtype=np.float64)
    assert provider.token_vectors.tobytes() == token_vectors.tobytes()
    assert provider.sentence_vectors.tobytes() == sentence_vector.tobytes()


def deep_record(tokens: int = ragner.embedder._MAX_OPENERS // 2) -> dict:
    """A valid record with more JSON openers than the loader hands orjson."""
    return encoding_record([f"w{i}" for i in range(tokens)], dim=4)


def test_a_line_with_more_openers_than_the_limit_parses_as_through_orjson(tmp_path, monkeypatch):
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["hello"], dim=4), deep_record()], path)
    stdlib_parses = []
    stdlib_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s: stdlib_parses.append(s) or stdlib_loads(s))
    via_json = load_precomputed(path, tmp_path / "json", {})
    assert [stdlib_loads(s)["text"] for s in stdlib_parses] == [deep_record()["text"]]
    monkeypatch.setattr(ragner.embedder, "_MAX_OPENERS", math.inf)
    via_orjson = load_precomputed(path, tmp_path / "orjson", {})
    assert len(stdlib_parses) == 1
    assert via_json.texts == via_orjson.texts
    for attr in ("token_vectors", "token_spans", "token_offsets", "sentence_vectors"):
        assert getattr(via_json, attr).tobytes() == getattr(via_orjson, attr).tobytes()


NOT_FINITE = "bad embedding record: vector entries must be finite numbers"


# orjson refuses what is not strict JSON; json takes it, and the record
# checks refuse it
@pytest.mark.parametrize("deep", [False, True], ids=["orjson", "json"])
@pytest.mark.parametrize("where, literal, on_orjson, on_json", [
    pytest.param(("tokens", 0, "vector", 0), "NaN", "invalid JSON", NOT_FINITE, id="NaN"),
    pytest.param(("tokens", 0, "vector", 0), "-Infinity", "invalid JSON", NOT_FINITE,
                 id="-Infinity"),
    pytest.param(("tokens", 0, "vector", 0), "1e400", "invalid JSON", NOT_FINITE, id="1e400"),
    pytest.param(("tokens", 0, "vector", 0), "null", NOT_FINITE, NOT_FINITE, id="null"),
    pytest.param(("sentence_vector", 0), "null", NOT_FINITE, NOT_FINITE,
                 id="null sentence entry"),
    pytest.param(("text",), '"caf\\ud800"', "invalid JSON", "text is not valid Unicode",
                 id="lone surrogate"),
])
def test_precomputed_rejects_non_finite_values_and_lone_surrogates(tmp_path, deep, where, literal,
                                                                   on_orjson, on_json):
    record = deep_record() if deep else encoding_record(["hello", "world"], dim=4)
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["ok"], dim=4)], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json_with_literal(record, where, literal) + "\n")
    with pytest.raises(FormatError, match=f"emb.jsonl:2: .*{on_json if deep else on_orjson}"):
        load_precomputed(path, tmp_path / "cache", {})


@pytest.mark.parametrize("line", [
    pytest.param("[" * 1_000_000 + "]" * 1_000_000, id="a million arrays"),
    pytest.param('{"a":' * 50_000 + "[" * 50_000 + "]" * 50_000 + "}" * 50_000,
                 id="objects around arrays"),
])
def test_precomputed_rejects_a_deeply_nested_line(tmp_path, line):
    # orjson would overflow the C stack on these lines and kill the process
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["ok"], dim=4)], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(FormatError, match="emb.jsonl:2: invalid JSON"):
        load_precomputed(path, tmp_path / "cache", {})


def with_span(record: dict, token: int, start: str, end: str) -> str:
    """`record` as JSON text with the raw texts `start` and `end` as the
    span of token `token`; "past" stands for one past the record's text."""
    past = str(len(record["text"]) + 1)
    set_at(record, ("tokens", token, "start_char"), "@@start")
    set_at(record, ("tokens", token, "end_char"), "@@end")
    return (json.dumps(record).replace('"@@start"', past if start == "past" else start)
            .replace('"@@end"', past if end == "past" else end))


NOT_INTEGERS = r"start_char and end_char must be integers"


# orjson reads an integer outside the int64 range as a float, json as an int
@pytest.mark.parametrize("deep", [False, True], ids=["orjson", "json"])
@pytest.mark.parametrize("start, end, message", [
    pytest.param("7", "-3", r"token span \[7, -3\) outside \[0, ", id="reversed and negative"),
    pytest.param("-9223372036854775809", "11",
                 rf"({NOT_INTEGERS}|token span \[-9223372036854775809, 11\) outside)",
                 id="start below -2**63"),
    pytest.param("-1", "5", r"token span \[-1, 5\) outside", id="negative start"),
    pytest.param("3", "2", r"token span \[3, 2\) outside", id="start after end"),
    pytest.param("0", "past", r"token span \[0, \d+\) outside \[0, ", id="end past the text"),
    pytest.param("0", "18446744073709551616",
                 rf"({NOT_INTEGERS}|token span \[0, 18446744073709551616\) outside)",
                 id="end beyond 64 bits"),
    pytest.param("true", "5", NOT_INTEGERS, id="bool start"),
    pytest.param("0", "5.0", NOT_INTEGERS, id="float end"),
    pytest.param("null", "5", NOT_INTEGERS, id="null start"),
])
def test_precomputed_rejects_a_token_span_outside_its_text(tmp_path, deep, start, end, message):
    record = deep_record() if deep else encoding_record(["hello", "world"], dim=4)
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["ok"], dim=4)], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(with_span(record, 1, start, end) + "\n")
    with pytest.raises(FormatError, match=rf"emb\.jsonl:2: bad embedding record: {message}"):
        load_precomputed(path, tmp_path / "cache", {})


def test_precomputed_takes_zero_width_spans_and_spans_at_the_text_ends(tmp_path):
    record = encoding_record(["hello", "world"], dim=4)
    special = {"text": "[CLS]", "start_char": 0, "end_char": 0, "vector": [1.0, 0.0, 0.0, 0.0]}
    end = {**special, "text": "[SEP]", "start_char": 11, "end_char": 11}
    whole = {**special, "text": "hello world", "end_char": 11}
    record["tokens"] = [special, *record["tokens"], end, whole]
    path = tmp_path / "emb.jsonl"
    write_precomputed([record], path)
    provider = load_precomputed(path, tmp_path / "cache", {})
    assert provider.token_spans.tolist() == [[0, 0], [0, 5], [6, 11], [11, 11], [0, 11]]


def test_remote_provider_checks_spans_against_the_text_sent(embedding_server):
    _EmbeddingHandler.mode = "garbage"
    # a well-formed record, but for another text than the one sent
    _EmbeddingHandler.garbage = json.dumps(encoding_record(["hello", "world"], dim=4)).encode()
    provider = RemoteEmbeddingProvider(embedding_server, "m", timeout=5.0)
    assert provider.encode("hello world").token_spans.tolist() == [[0, 5], [6, 11]]
    with pytest.raises(FormatError, match=re.escape(
            f"{embedding_server}: bad embedding record: token span [6, 11) outside [0, 5]")):
        provider.encode("hello")


# --- Embedder.embed_words / embed_sentence ---------------------------------------


def test_embed_words_skips_stop_words(tmp_path):
    s = sent("I want to buy a table from store")
    embedder = make_embedder([s], tmp_path, dim=8)
    word_indexes, _ = embedder.embed_words(s)
    assert [s.tokens[i] for i in word_indexes] == ["want", "buy", "table", "store"]


def test_embed_words_records_word_indices(tmp_path):
    s = sent("I want to buy a table from store")
    embedder = make_embedder([s], tmp_path, dim=8)
    word_indexes, vectors = embedder.embed_words(s)
    assert word_indexes.dtype == np.int64 and word_indexes.tolist() == [1, 3, 5, 7]
    assert vectors.dtype == np.float64 and vectors.shape == (4, 8)
    sentence_vector = embedder.embed_sentence(s)
    assert sentence_vector.dtype == np.float64 and sentence_vector.shape == (8,)


def test_embed_words_of_only_stop_words_is_empty(tmp_path):
    s = sent("the of a")
    embedder = make_embedder([s], tmp_path, dim=8)
    word_indexes, vectors = embedder.embed_words(s)
    assert word_indexes.dtype == np.int64 and word_indexes.shape == (0,)
    assert vectors.dtype == np.float64 and vectors.shape == (0, 8)


def test_embed_words_vectors_are_unit_norm(tmp_path):
    s = sent("quantum computing accelerates discovery")
    embedder = make_embedder([s], tmp_path, dim=8)
    _, vectors = embedder.embed_words(s)
    for vector in vectors:
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-9


def test_word_vector_is_normalized_mean_of_subwords():
    # "snowboarding" split into three subword pieces with distinct vectors
    v1, v2, v3 = [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]
    enc = encoding([(0, 4), (4, 9), (9, 12)], [v1, v2, v3], [1.0, 0.0, 0.0])
    provider = precomputed_provider({"snowboarding": enc})
    _, [vector] = Embedder(provider, 3).embed_words(sent("snowboarding"))
    expected = np.array([1.0, 2.0, 3.0]) / 3.0
    assert np.allclose(vector, expected / np.linalg.norm(expected))


def test_subword_sharing_across_word_boundary():
    # a subword token straddling two words ("b c") contributes to both means
    enc = encoding([(0, 1), (1, 4)], [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    provider = precomputed_provider({"ab cd": enc})
    _, vectors = Embedder(provider, 2, stopwords=frozenset()).embed_words(sent("ab cd"))
    assert np.allclose(vectors[0], l2_normalize(np.array([1.0, 1.0])))
    assert np.allclose(vectors[1], [0.0, 1.0])


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
    embedder = Embedder(provider, 5)
    _, words = embedder.embed_words(sent(text))
    expected = loop_word_vectors(tokens, spans, vectors, embedder.stopwords)
    assert [w.tobytes() for w in words] == [v.tobytes() for v in expected]


def test_embed_words_alignment_gap():
    enc = encoding([(0, 5)], [[1.0, 0.0]], [1.0, 0.0])
    provider = precomputed_provider({"hello world": enc})
    with pytest.raises(AlignmentGap, match="world"):
        Embedder(provider, 2).embed_words(sent("hello world"))


def test_embed_empty_sentence_raises():
    provider = precomputed_provider({})
    empty = LabeledSentence(0, (), ())
    with pytest.raises(EmptyInput):
        Embedder(provider, 2).embed_words(empty)
    with pytest.raises(EmptyInput):
        Embedder(provider, 2).embed_sentence(empty)


def test_dimension_mismatch_detected(tmp_path):
    s = sent("quantum computing")
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(s.tokens, dim=8)], path)
    embedder = Embedder(load_precomputed(path, tmp_path / "cache", {}), 16)
    with pytest.raises(DimensionMismatch):
        embedder.embed_words(s)


def test_embed_sentence_normalizes(tmp_path):
    s = sent("quantum computing")
    embedder = make_embedder([s], tmp_path, dim=8, sentence_vectors={s.text: [3.0] * 8})
    vec = embedder.embed_sentence(s)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    assert np.allclose(vec, np.full(8, 1.0 / np.sqrt(8)))


def test_provider_called_once_per_text():
    calls = []

    class CountingProvider:
        def encode(self, text):
            calls.append(text)
            return encoding([(0, 2)], [[1.0, 0.0]], [0.0, 1.0])

    embedder = Embedder(CountingProvider(), 2, stopwords=frozenset())
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


def test_remote_provider_non_finite_reply(embedding_server):
    _EmbeddingHandler.mode = "garbage"
    record = encoding_record(["hello"], dim=4)
    record["sentence_vector"][0] = math.nan
    _EmbeddingHandler.garbage = json.dumps(record).encode()  # the stdlib writes NaN
    provider = RemoteEmbeddingProvider(embedding_server, "m", timeout=5.0)
    with pytest.raises(FormatError, match="vector entries must be finite numbers"):
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
    embedder = Embedder(provider, 8)
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
    provider = load_precomputed(path, tmp_path / "cache", {})
    assert len(provider) == 2
    assert list(provider.encode("hello world").sentence_vector) == [0.0, 0.0, 0.0, 1.0]


def test_precomputed_records_digest_of_parsed_bytes(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["hello"], dim=4)], path)
    digests = {}
    load_precomputed(path, tmp_path / "cache", digests)
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_a_parse_hashes_nothing_when_the_digest_is_known(tmp_path, monkeypatch):
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["hello"], dim=4)], path)
    digests = {str(path): "taken before the parse"}
    monkeypatch.setattr(ragner.embedder.hashlib, "sha256", None)  # any hashing would fail
    assert len(load_precomputed(path, tmp_path / "cache", digests)) == 1
    assert digests == {str(path): "taken before the parse"}


def test_precomputed_rejects_vectors_of_different_lengths(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["a"], dim=4), encoding_record(["b"], dim=3)], path)
    with pytest.raises(FormatError):
        load_precomputed(path, tmp_path / "cache", {})
    rec = encoding_record(["a", "b"], dim=4)
    rec["tokens"][1]["vector"] = [1.0, 0.0]
    write_precomputed([rec], path)
    with pytest.raises(FormatError):
        load_precomputed(path, tmp_path / "cache", {})


def test_cache_round_trip_is_bit_exact(tmp_path):
    sentences = [sent("quantum computing accelerates discovery"), sent("hello world", 1)]
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(list(s.tokens), dim=8) for s in sentences], path)
    parsed = load_precomputed(path, tmp_path / "cache", {})
    cached = open_precomputed_cache(tmp_path / "cache")
    assert cached.texts == parsed.texts
    for attr in ("token_vectors", "token_spans", "token_offsets", "sentence_vectors"):
        assert getattr(cached, attr).tobytes() == getattr(parsed, attr).tobytes()
    for s in sentences:
        (ia, a), (ib, b) = Embedder(parsed, 8).embed_words(s), Embedder(cached, 8).embed_words(s)
        assert ia.tobytes() == ib.tobytes() and a.tobytes() == b.tobytes()
    with pytest.raises(DimensionMismatch):
        Embedder(cached, 16).embed_words(sentences[0])


def test_cache_open_rejects_missing_and_malformed_files(tmp_path):
    with pytest.raises(MissingArtifact):
        open_precomputed_cache(tmp_path)
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["hello", "world"], dim=4)], path)
    load_precomputed(path, tmp_path, {})
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


# --- the per-record and per-sentence paths against per-token formulas ---------------


def reference_word_vectors(sentence: LabeledSentence, enc, stopwords) -> tuple:
    """embed_words one word at a time: its covering mask, the mean of the
    covered rows and l2_normalize, raising on the first uncovered word."""
    starts, ends = enc.token_spans.T
    ranges = token_char_ranges(sentence.tokens)
    kept = [i for i, word in enumerate(sentence.tokens) if word.lower() not in stopwords]
    rows = []
    for i in kept:
        ws, we = ranges[i]
        covering = (starts < we) & (ends > ws)
        if not covering.any():
            raise AlignmentGap(f"sentence {sentence.id}: word {sentence.tokens[i]!r} at chars "
                               f"[{ws},{we}) covered by no subword token")
        rows.append(l2_normalize(enc.token_vectors[covering].mean(axis=0)))
    width = enc.token_vectors.shape[1]
    return np.array(kept, dtype=np.int64), np.array(rows).reshape(len(kept), width)


# "the snowboarding ski lift of tea": [CLS], the stop word "the", three tokens
# for "snowboarding", "ski l" over "ski" and "lift", "ift", the stop word
# "of", "tea", [SEP] at the end of the text and a second (0, 0) token
MIXED_TEXT = "the snowboarding ski lift of tea"
MIXED_SPANS = [(0, 0), (0, 3), (4, 8), (8, 13), (13, 16), (17, 22), (22, 25), (26, 28),
               (29, 32), (32, 32), (0, 0)]


def mixed_vectors(seed: int) -> np.ndarray:
    """Token vectors with -0.0, 0.0 and integer entries among the normals."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(len(MIXED_SPANS), 6))
    vectors[rng.random(vectors.shape) < 0.2] = -0.0
    vectors[rng.random(vectors.shape) < 0.1] = 0.0
    vectors[rng.random(vectors.shape) < 0.1] = 3.0
    vectors[5, :3] = vectors[8, :2] = -0.0  # in the one-token words "ski" and "tea"
    return vectors


@pytest.mark.parametrize("seed", range(8))
def test_embed_words_equals_the_per_word_formulas_byte_for_byte(seed):
    enc = encoding(MIXED_SPANS, mixed_vectors(seed), [1.0] * 6)
    embedder = Embedder(precomputed_provider({MIXED_TEXT: enc}), 6)
    sentence = sent(MIXED_TEXT, 4)
    indexes, vectors = embedder.embed_words(sentence)
    want_indexes, want_vectors = reference_word_vectors(sentence, enc, embedder.stopwords)
    assert indexes.tolist() == [1, 2, 3, 5] and indexes.dtype == want_indexes.dtype
    assert indexes.tobytes() == want_indexes.tobytes()
    assert vectors.dtype == np.float64 and vectors.flags.c_contiguous
    assert vectors.tobytes() == want_vectors.tobytes()


@pytest.mark.parametrize("drop, zero, error", [
    ({2, 3, 4, 8}, set(), AlignmentGap),  # "snowboarding" and "tea" uncovered: the first names
    ({8}, {2, 3, 4}, EmbedderError),  # a zero word before the uncovered "tea"
    ({2, 3, 4}, {8}, AlignmentGap),  # the uncovered word before the zero "tea"
    (set(), {5, 6}, EmbedderError),  # "ski" and "lift" are both zero
], ids=["two gaps", "zero then gap", "gap then zero", "zero"])
def test_embed_words_raises_the_first_fault_with_the_per_word_message(drop, zero, error):
    vectors = mixed_vectors(0)
    vectors[sorted(zero)] = 0.0
    keep = [i for i in range(len(MIXED_SPANS)) if i not in drop]
    enc = encoding([MIXED_SPANS[i] for i in keep], vectors[keep], [1.0] * 6)
    embedder = Embedder(precomputed_provider({MIXED_TEXT: enc}), 6)
    with pytest.raises(error) as want:
        reference_word_vectors(sent(MIXED_TEXT, 4), enc, embedder.stopwords)
    with pytest.raises(error) as got:
        embedder.embed_words(sent(MIXED_TEXT, 4))
    assert str(got.value) == str(want.value)


def test_embed_words_of_a_sentence_with_no_tokens():
    enc = encoding([], [], [1.0, 0.0])
    embedder = Embedder(precomputed_provider({"the of": enc, "tea": enc}), 2)
    indexes, vectors = embedder.embed_words(sent("the of"))
    assert indexes.shape == (0,) and vectors.shape == (0, 2)
    with pytest.raises(AlignmentGap, match=re.escape("word 'tea' at chars [0,3) covered by no")):
        embedder.embed_words(sent("tea"))


def reference_parse(path) -> tuple:
    """The embedding file parsed line by line with json.loads, np.asarray per
    vector, the last line of a text winning."""
    docs = {}
    for raw in path.read_bytes().split(b"\n"):
        line = raw.decode("utf-8").strip()
        if line:
            doc = json.loads(line)
            docs.pop(doc["text"], None)
            docs[doc["text"]] = doc
    tokens = [t for doc in docs.values() for t in doc["tokens"]]
    return (
        list(docs),
        np.array([np.asarray(t["vector"], dtype=np.float64) for t in tokens]),
        np.array([(t["start_char"], t["end_char"]) for t in tokens], dtype=np.int64),
        np.cumsum([0] + [len(doc["tokens"]) for doc in docs.values()], dtype=np.int64),
        np.array([np.asarray(doc["sentence_vector"], dtype=np.float64) for doc in docs.values()]),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )


def test_load_precomputed_equals_a_reference_parse(tmp_path):
    first = encoding_record(["naïve", "[café]", "{x}"], dim=4)
    first["tokens"][0]["vector"] = [1, True, -0.0, 2**60 + 1]
    first["tokens"][2]["vector"] = [False, 3, 0.5, -7]
    other = encoding_record(["日本", "[語]", "{", "ü"], dim=4)
    other["sentence_vector"] = [True, 0, -2, 1e-300]
    again = encoding_record(["naïve", "[café]", "{x}"], dim=4, sentence_vector=[4, 3, 2, 1])
    lines = [json.dumps(doc, ensure_ascii=False).encode() for doc in (first, other, again)]
    path = tmp_path / "emb.jsonl"
    path.write_bytes(b"\r\n".join([lines[0], b"", b"  \t ", lines[1], b" \r", lines[2], b""]))
    digests = {}
    provider = load_precomputed(path, tmp_path / "cache", digests)
    texts, token_vectors, token_spans, token_offsets, sentence_vectors, sha = reference_parse(path)
    assert provider.texts == texts == ["日本 [語] { ü", "naïve [café] {x}"]
    assert provider.token_vectors.tobytes() == token_vectors.tobytes()
    assert provider.token_spans.tobytes() == token_spans.tobytes()
    assert provider.token_offsets.tobytes() == token_offsets.tobytes()
    assert provider.sentence_vectors.tobytes() == sentence_vectors.tobytes()
    assert digests == {str(path): sha}


@pytest.mark.parametrize("chunk", [ragner.embedder._COPY_CHUNK, 40], ids=["default", "40 B"])
def test_the_streamed_cache_is_what_np_save_writes_of_a_reference_parse(tmp_path, monkeypatch,
                                                                        chunk):
    # a chunk smaller than a row moves each kept record in several pieces
    monkeypatch.setattr(ragner.embedder, "_COPY_CHUNK", chunk)
    a, b, c, d, e = (encoding_record([f"w{i}", "x" * (i + 1)], dim=6) for i in range(5))
    c["tokens"] = []
    again = [encoding_record(["w0", "x"], dim=6, sentence_vector=[1, 2, 3, 4, 5, 6]),
             encoding_record(["w1", "xx"], dim=6, sentence_vector=[6, 5, 4, 3, 2, 1])]
    last = encoding_record(["w0", "x"], dim=6, sentence_vector=[0, 0, 0, 0, 0, 1])
    path = tmp_path / "emb.jsonl"
    write_precomputed([a, b, c, again[0], d, again[1], e, last], path)
    load_precomputed(path, tmp_path / "cache", {})
    texts, *arrays, _ = reference_parse(path)
    assert texts == [c["text"], d["text"], b["text"], e["text"], a["text"]]
    for name, array in zip(CACHE_ARRAYS.values(), arrays):
        expected = io.BytesIO()
        np.save(expected, array)
        assert (tmp_path / "cache" / name).read_bytes() == expected.getvalue(), name
    assert (tmp_path / "cache" / CACHE_TEXTS).read_text(encoding="utf-8") == \
        json.dumps(texts, ensure_ascii=False) + "\n"


def parse_peak(tmp_path, records: int) -> int:
    """The traced peak of parsing a file of `records` records of 32 tokens at 128-d."""
    path = tmp_path / f"emb-{records}.jsonl"
    write_precomputed([encoding_record([f"r{i}w{j}" for j in range(32)], dim=128)
                       for i in range(records)], path)
    tracemalloc.start()
    try:
        provider = load_precomputed(path, tmp_path / f"cache-{records}", {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(provider) == records
    return peak


def test_the_parse_holds_one_record_at_a_time(tmp_path):
    parse_peak(tmp_path, 1)  # the first parse's imports and module-level allocations
    line = len((tmp_path / "emb-1.jsonl").read_bytes())
    small, large = parse_peak(tmp_path, 25), parse_peak(tmp_path, 100)
    # 75 more records add their texts and row offsets: far less than one record's line
    assert large - small < line


def record_with_openers(openers: int) -> dict:
    """A valid record whose JSON text holds exactly `openers` '[' and '{'
    bytes: braces that no token covers pad its text."""
    record = encoding_record(["w"] * 10, dim=4)
    count = json.dumps(record).count("[") + json.dumps(record).count("{")
    record["text"] += " " + "{" * (openers - count)
    assert json.dumps(record).count("[") + json.dumps(record).count("{") == openers
    return record


@pytest.mark.parametrize("openers, parser", [
    (ragner.embedder._MAX_OPENERS, "orjson"), (ragner.embedder._MAX_OPENERS + 1, "json")])
def test_the_depth_guard_sends_a_line_past_the_limit_to_json(tmp_path, monkeypatch, openers,
                                                             parser):
    import orjson

    path = tmp_path / "emb.jsonl"
    write_precomputed([record_with_openers(openers)], path)
    calls = []
    for module in (orjson, json):
        loads = module.loads
        monkeypatch.setattr(module, "loads", lambda s, _loads=loads, _name=module.__name__:
                            calls.append(_name) or _loads(s))
    load_precomputed(path, tmp_path / "cache", {})
    assert calls == [parser]


def numpy_message(value) -> str:
    """What the cast of one vector to float64 says of `value`."""
    with pytest.raises((TypeError, ValueError)) as exc:
        np.asarray(value, dtype=np.float64)
    return str(exc.value)


@pytest.mark.parametrize("vector, message", [
    ([1.0, 2.0, 3.0], "vector of shape (3,), expected (4,)"),
    ([1.0, 2.0, 3.0, 4.0, 5.0], "vector of shape (5,), expected (4,)"),
    ([[1.0, 2.0], [3.0]], numpy_message([[1.0, 2.0], [3.0]])),
    (["x", 1.0, 2.0, 3.0], "could not convert string to float: 'x'"),
    ([[1.0, 2.0, 3.0, 4.0]], "vector of shape (1, 4), expected (4,)"),
    ({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}, numpy_message({"a": 1.0})),
    (5.0, "vector of shape (), expected (4,)"),
], ids=["short", "long", "ragged", "string entry", "nested list", "object", "number"])
@pytest.mark.parametrize("token", [0, 1])
def test_a_bad_token_vector_keeps_its_message(tmp_path, vector, message, token):
    record = encoding_record(["hello", "world"], dim=4)
    record["tokens"][token]["vector"] = vector
    path = tmp_path / "emb.jsonl"
    write_precomputed([encoding_record(["ok"], dim=4), record], path)
    with pytest.raises(FormatError) as exc:
        load_precomputed(path, tmp_path / "cache", {})
    assert str(exc.value) == f"{path}:2: bad embedding record: {message}"


@pytest.mark.parametrize("vector", [{}, "", []], ids=["object", "string", "list"])
def test_a_record_of_width_zero_checks_its_token_vectors_by_the_cast(tmp_path, vector):
    record = {"text": "a", "tokens": [{"text": "a", "start_char": 0, "end_char": 1,
                                       "vector": vector}], "sentence_vector": []}
    path = tmp_path / "emb.jsonl"
    write_precomputed([record], path)
    if vector == []:
        assert load_precomputed(path, tmp_path / "cache", {}).token_vectors.shape == (1, 0)
        return
    with pytest.raises(FormatError) as exc:
        load_precomputed(path, tmp_path / "cache", {})
    assert str(exc.value) == f"{path}:1: bad embedding record: {numpy_message(vector)}"


def test_a_numeric_string_entry_is_read_as_by_the_float64_cast(tmp_path):
    record = encoding_record(["hello"], dim=4)
    record["tokens"][0]["vector"] = ["1.5", 0.0, "-2", 3]
    path = tmp_path / "emb.jsonl"
    write_precomputed([record], path)
    assert load_precomputed(path, tmp_path / "cache", {}).token_vectors.tolist() == [[1.5, 0.0, -2.0, 3.0]]


@pytest.mark.parametrize("later", [
    ("tokens", 1, "start_char", -1), ("tokens", 1, "vector", [1.0]), ("tokens", 1, "text", None)],
    ids=["span", "short vector", "no text"])
def test_a_non_finite_entry_is_the_first_fault_before_a_later_one(tmp_path, later):
    record = deep_record()  # a line `json` parses, which reads NaN
    *where, value = later
    if value is None:
        del record["tokens"][1]["text"]
    else:
        set_at(record, tuple(where), value)
    path = tmp_path / "emb.jsonl"
    path.write_text(json_with_literal(record, ("tokens", 0, "vector", 2), "NaN") + "\n",
                    encoding="utf-8")
    with pytest.raises(FormatError, match=f"emb.jsonl:1: {NOT_FINITE}$"):
        load_precomputed(path, tmp_path / "cache", {})
