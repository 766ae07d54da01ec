"""End-to-end CLI tests: the real command chain against files on disk.

A small two-type corpus project (BIO train/test, JSONL dev, precomputed
embeddings) is built once per module and driven through ingest -> index ->
retrieve -> augment -> predict -> evaluate -> ablate with click's
CliRunner. Tests that tamper with artifacts or need a different config
get their own throwaway project.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import random
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ragner
from ragner.cli import main
from ragner.config import MAX_WAIT_S, _defaults, load_config
from ragner.corpus import EntitySpan, LabeledSentence, write_sentences_jsonl
from ragner.embedder import CACHE_ARRAYS, CACHE_TEXTS
from ragner.errors import ConfigError
from ragner.vector_index import load_index

from helpers import (domain_schema, encoding_record, json_with_literal, render_bio, set_at,
                     synth_sentences, write_embedding_file)

DIM = 8

SCHEMA_TYPES = [
    {"name": "gadget", "definition": "a small electronic device"},
    {"name": "meeting time", "definition": "when people convene"},
]


def _sent(sid, text, *spans):
    tokens = text.split()
    return LabeledSentence(
        sid,
        tokens,
        [EntitySpan(t, a, b, " ".join(tokens[a:b])) for t, a, b in spans],
    )


TRAIN = [
    _sent(0, "alpha gizmo sits on the desk", ("gadget", 1, 2)),
    _sent(1, "the beta widget hums at dawn", ("gadget", 1, 3), ("meeting time", 5, 6)),
    _sent(2, "we meet at noon thursday", ("meeting time", 3, 5)),
    _sent(3, "carry the gamma phone around", ("gadget", 2, 4)),
    _sent(4, "the delta drone flies home", ("gadget", 1, 3)),
    _sent(5, "lunch happens at nineish", ("meeting time", 3, 4)),
]
DEV = [
    _sent(0, "the epsilon tablet glows", ("gadget", 1, 3)),
    _sent(1, "we gather at dusk", ("meeting time", 3, 4)),
]
TEST = [
    _sent(0, "show me the zeta gizmo", ("gadget", 3, 5)),
    _sent(1, "the briefing starts at nine", ("meeting time", 4, 5)),
    _sent(2, "pack the gamma phone now", ("gadget", 2, 4)),
]


def bio_text(sentences):
    blocks = []
    for s in sentences:
        tags = ["O"] * len(s.tokens)
        for span in s.spans:
            tags[span.start] = f"B-{span.entity_type}"
            for i in range(span.start + 1, span.end):
                tags[i] = f"I-{span.entity_type}"
        blocks.append("\n".join(f"{tok}\t{tag}" for tok, tag in zip(s.tokens, tags)))
    return "\n\n".join(blocks) + "\n"


def make_project(root: Path, store_size=6, with_schema=True, with_test=True):
    data = root / "data"
    data.mkdir()
    (data / "train.txt").write_text(bio_text(TRAIN), encoding="utf-8")
    write_sentences_jsonl(DEV, data / "dev.jsonl")
    (data / "test.txt").write_text(bio_text(TEST), encoding="utf-8")
    (data / "schema.json").write_text(json.dumps(SCHEMA_TYPES), encoding="utf-8")
    write_embedding_file(TRAIN + DEV + TEST, data / "embeddings.jsonl", DIM)

    doc = {
        "seed": 7,
        "paths": {
            "corpus_train": str(data / "train.txt"),
            "corpus_dev": str(data / "dev.jsonl"),
            "corpus_test": str(data / "test.txt") if with_test else None,
            "schema": str(data / "schema.json") if with_schema else None,
            "out_dir": str(root / "out"),
        },
        "embedder": {
            "provider": "precomputed-file",
            "model_name": "test-hash",
            "dimension": DIM,
            "precomputed_path": str(data / "embeddings.jsonl"),
        },
        "store": {"size": store_size, "seed": 3},
        "retriever": {"k": 3},
        "generator": {"backend": "mock-gold", "parallelism": 2},
    }
    cfg_path = root / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return SimpleNamespace(root=root, data=data, cfg=str(cfg_path), out=root / "out")


RUNNER = CliRunner()


def run(args, expect=0):
    result = RUNNER.invoke(main, [str(a) for a in args], catch_exceptions=False)
    detail = result.output + getattr(result, "stderr", "")
    assert result.exit_code == expect, f"exit {result.exit_code}: {detail}"
    return result


def error_payload(result):
    return json.loads(result.stderr.strip().splitlines()[-1])


def read_jsonl(path: Path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


@pytest.fixture(scope="module")
def proj(tmp_path_factory):
    ns = make_project(tmp_path_factory.mktemp("chain"))
    ns.echo = {}
    steps = [
        ("ingest", []),
        ("index", []),
        ("retrieve", ["--input", ns.out / "corpus" / "test.jsonl"]),
        ("augment", []),
        ("predict", []),
        ("evaluate", []),
    ]
    for command, extra in steps:
        ns.echo[command] = run(["-c", ns.cfg, command, *extra]).output
    return ns


# --- the happy-path chain ----------------------------------------------------

def test_chain_echo_lines(proj):
    assert (
        "ingested train=6, dev=2, test=3; store=6 finetune=2; "
        "recovered 0 dangling inside-tags" in proj.echo["ingest"]
    )
    assert "indexed 6 store sentences (word + sentence)" in proj.echo["index"]
    assert "retrieved examples for 3 queries" in proj.echo["retrieve"]
    assert "wrote 3 finetune records" in proj.echo["augment"]
    assert "(0 skipped)" in proj.echo["augment"]
    assert "predicted 3 sentences (0 failures" in proj.echo["predict"]


def test_corpus_artifacts_renumbered_globally(proj):
    corpus = proj.out / "corpus"
    ids = {}
    for name in ("train", "dev", "test", "store", "finetune_split"):
        ids[name] = [doc["id"] for doc in read_jsonl(corpus / f"{name}.jsonl")]
    assert ids["train"] == [0, 1, 2, 3, 4, 5]
    assert ids["dev"] == [6, 7]
    assert ids["test"] == [8, 9, 10]
    # store + finetune partition the train+dev pool at the configured size
    assert len(ids["store"]) == 6 and len(ids["finetune_split"]) == 2
    assert sorted(ids["store"] + ids["finetune_split"]) == list(range(8))

    schema_doc = json.loads((proj.out / "schema.json").read_text(encoding="utf-8"))
    names = [t["name"] for t in schema_doc["types"]] if isinstance(schema_doc, dict) \
        else [t["name"] for t in schema_doc]
    assert names == ["gadget", "meeting time"]


def test_manifests_record_hashes_and_fingerprint(proj):
    fingerprint = load_config(proj.cfg).fingerprint
    for command in ("ingest", "index", "predict", "evaluate"):
        doc = json.loads(
            (proj.out / "manifests" / f"{command}.json").read_text(encoding="utf-8")
        )
        assert doc["command"] == command
        assert doc["config_fingerprint"] == fingerprint
        assert doc["seed"] == 7
        for path, expected in {**doc["inputs"], **doc["outputs"]}.items():
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            assert digest == expected, path

    ingest_outputs = json.loads(
        (proj.out / "manifests" / "ingest.json").read_text(encoding="utf-8")
    )["outputs"]
    expected = {
        str(proj.out / "corpus" / f"{n}.jsonl")
        for n in ("train", "dev", "test", "store", "finetune_split")
    } | {str(proj.out / "schema.json")}
    assert set(ingest_outputs) == expected


def test_predict_manifest_excludes_telemetry(proj):
    doc = json.loads((proj.out / "manifests" / "predict.json").read_text(encoding="utf-8"))
    assert set(doc["outputs"]) == {str(proj.out / "predictions.jsonl")}
    assert set(doc["inputs"]) == {str(proj.out / "corpus" / "test.jsonl")}


def test_retrieval_payloads(proj):
    rows = read_jsonl(proj.out / "retrieval.jsonl")
    assert [r["query_text"] for r in rows] == [s.text for s in TEST]
    store_ids = {doc["id"] for doc in read_jsonl(proj.out / "corpus" / "store.jsonl")}
    for row in rows:
        assert 1 <= len(row["examples"]) <= 3
        scores = [ex["score"] for ex in row["examples"]]
        assert scores == sorted(scores, reverse=True)
        for ex in row["examples"]:
            assert ex["sentence_id"] in store_ids
            sims = [p["similarity"] for p in ex["matched_pairs"]]
            assert sims == sorted(sims, reverse=True)
            for pair in ex["matched_pairs"]:
                assert set(pair) == {"query_word", "store_word", "similarity"}


def test_retrieve_jsonl_keeps_ids_but_text_gets_fresh_ones(proj, tmp_path):
    store_docs = read_jsonl(proj.out / "corpus" / "store.jsonl")
    probe = store_docs[0]
    probe_text = " ".join(probe["tokens"])

    # same id as the store sentence: retrieval must exclude it as "self"
    queries = tmp_path / "queries.jsonl"
    queries.write_text(
        json.dumps({"id": probe["id"], "tokens": probe["tokens"], "spans": []}) + "\n",
        encoding="utf-8",
    )
    out_self = tmp_path / "self.jsonl"
    run(["-c", proj.cfg, "retrieve", "--input", queries, "--output", out_self])
    hits = read_jsonl(out_self)[0]["examples"]
    assert hits and all(ex["sentence_id"] != probe["id"] for ex in hits)

    # identical text passed ad hoc gets a negative id, so nothing is excluded
    out_text = tmp_path / "text.jsonl"
    run(["-c", proj.cfg, "retrieve", "--text", probe_text, "--output", out_text])
    top = read_jsonl(out_text)[0]["examples"][0]
    assert top["sentence_id"] == probe["id"]
    assert top["score"] > 0.999


@pytest.mark.parametrize("command, option", [("predict", "--input"), ("retrieve", "--input"),
                                             ("evaluate", "--gold")])
def test_an_input_id_given_twice_exits_2_with_one_json_line(proj, tmp_path, command, option):
    queries = tmp_path / "q.jsonl"
    queries.write_text("".join(
        json.dumps({"id": 100, "tokens": s.tokens, "spans": []}) + "\n\n" for s in TEST[:2]),
        encoding="utf-8")
    out = tmp_path / "out.jsonl"
    result = run(["-c", proj.cfg, command, option, queries, "--output", out], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "FormatError"
    assert f"{queries}:3: sentence id 100 repeats the one at {queries}:1" in doc["message"]
    assert not out.exists()


def test_retrieve_without_queries_fails(proj):
    result = run(["-c", proj.cfg, "retrieve"], expect=2)
    err = error_payload(result)
    assert err["error"] == "ConfigError"
    assert "no queries given; pass --input or --text" in err["message"]


def test_augment_dataset_shape(proj):
    records = read_jsonl(proj.out / "finetune_dataset.jsonl")
    assert len(records) == 3  # 2 base + round(0.3 * 2) dropout duplicates

    finetune_ids = {doc["id"] for doc in read_jsonl(proj.out / "corpus" / "finetune_split.jsonl")}
    assert {r["provenance"]["sentence_id"] for r in records} == finetune_ids

    dropped = [r for r in records if "dropout" in r["provenance"]["transforms"]]
    assert len(dropped) == 1
    record = dropped[0]
    removed = record["provenance"]["removed_types"]
    assert len(removed) == 1 and removed[0] in {"gadget", "meeting time"}
    kept = ({"gadget", "meeting time"} - set(removed)).pop()
    assert f"- {kept}:" in record["prompt"]
    assert f"- {removed[0]}:" not in record["prompt"]
    assert f"{removed[0]}:" not in record["completion"]

    for r in records:
        assert r["prompt"].endswith("Output: ")
        for name in ("gadget", "meeting time"):
            if f"{name}:" in r["completion"]:
                assert f"- {name}:" in r["prompt"]


def test_predictions_match_gold(proj):
    rows = read_jsonl(proj.out / "predictions.jsonl")
    assert [r["query_id"] for r in rows] == [8, 9, 10]
    expected = [
        {"gadget": ["zeta gizmo"], "meeting time": []},
        {"gadget": [], "meeting time": ["nine"]},
        {"gadget": ["gamma phone"], "meeting time": []},
    ]
    for row, parsed in zip(rows, expected):
        assert row["parsed"] == parsed
        assert row["parse_failed"] is False
        assert "error" not in row
        assert len(row["prompt_hash"]) == 64

    assert rows[0]["completion"] == "{gadget:[zeta gizmo], meeting time:[]}"

    telemetry = json.loads(
        (proj.out / "predictions_telemetry.json").read_text(encoding="utf-8")
    )
    assert telemetry["failures"] == 0
    assert telemetry["latency"]["count"] == 3


def test_evaluate_report(proj):
    out = proj.echo["evaluate"]
    assert "predictions.jsonl: 3 sentences, 0 parse failures" in out
    assert "micro: P=100.00 R=100.00 F1=100.00 (tp=3 fp=0 fn=0)" in out
    assert "gadget" in out and "meeting time" in out

    report = json.loads((proj.out / "report.json").read_text(encoding="utf-8"))
    assert report["micro"] == {
        "tp": 3, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, "f1": 1.0,
    }
    assert set(report["per_type"]) == {"gadget", "meeting time"}
    assert report["n_sentences"] == 3 and report["n_parse_failures"] == 0
    assert report["config_fingerprint"] == load_config(proj.cfg).fingerprint
    assert report["seed"] == 7
    assert report["template_id"] == "default-v1"
    assert report["model_name"] == "mock-gold"
    assert report["grounding"] == "strict"


_ROW = {"query_id": 9, "parsed": {"gadget": [], "meeting time": ["nine"]},
        "parse_failed": False}


@pytest.mark.parametrize("line, error, message", [
    pytest.param(None, "MissingArtifact", "p.jsonl: No such file", id="missing file"),
    pytest.param(b'{"query_id": 9, "parsed": {"gadget": ["caf\xe9"]}}', "FormatError",
                 "p.jsonl:2: not UTF-8", id="not UTF-8"),
    pytest.param(b"not json", "FormatError", "p.jsonl:2: invalid JSON", id="not JSON"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "FormatError", "p.jsonl:2: invalid JSON",
                 id="too deeply nested"),
    pytest.param([_ROW], "FormatError", "p.jsonl:2: bad prediction row: expected an object",
                 id="not an object"),
    pytest.param({"parsed": None, "parse_failed": True}, "FormatError",
                 "p.jsonl:2: bad prediction row: query_id must be an integer",
                 id="no query_id"),
    pytest.param({**_ROW, "query_id": True}, "FormatError", "query_id must be an integer",
                 id="bool query_id"),
    pytest.param({**_ROW, "query_id": "9"}, "FormatError", "query_id must be an integer",
                 id="string query_id"),
    pytest.param({**_ROW, "parsed": ["nine"]}, "FormatError",
                 "p.jsonl:2: bad prediction row: parsed must be null or map each type to a "
                 "list of strings", id="parsed a list"),
    pytest.param({**_ROW, "parsed": {"meeting time": "nine"}}, "FormatError",
                 "parsed must be null or map each type to a list of strings",
                 id="parsed value a string"),
    pytest.param({**_ROW, "parsed": {"meeting time": [9]}}, "FormatError",
                 "parsed must be null or map each type to a list of strings",
                 id="parsed item a number"),
    pytest.param({**_ROW, "parse_failed": "no"}, "FormatError",
                 "p.jsonl:2: bad prediction row: parse_failed must be true or false",
                 id="string parse_failed"),
    pytest.param({**_ROW, "query_id": 8}, "FormatError",
                 "p.jsonl:2: bad prediction row: query_id 8 repeats the row at", id="repeated query_id"),
    pytest.param({**_ROW, "query_id": 999}, "ConfigError",
                 "p.jsonl:2: prediction 999 has no gold sentence", id="no gold sentence"),
])
def test_evaluate_of_an_unreadable_prediction_exits_2_with_one_json_line(proj, tmp_path, line,
                                                                          error, message):
    bad = tmp_path / "p.jsonl"
    if line is not None:
        first = json.dumps({**_ROW, "query_id": 8}).encode()
        second = line if isinstance(line, bytes) else json.dumps(line).encode()
        bad.write_bytes(first + b"\n" + second + b"\n")
    result = run(["-c", proj.cfg, "evaluate", "--predictions", bad,
                  "--output", tmp_path / "report.json"], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == error and message in doc["message"]
    assert not (tmp_path / "report.json").exists()


def test_each_ablation_cell_scores_like_predict_then_evaluate(tmp_path):
    ns = indexed_project(tmp_path)
    echo = ["-S", "generator.backend=mock-echo-nearest"]
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1, 2]}})
    run(["-c", ns.cfg, *echo, "ablate", "--grid", grid, "--output", tmp_path / "ablation.json"])
    cells = json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))["cells"]
    assert [c["axes"] for c in cells] == [{"retriever.k": 1}, {"retriever.k": 2}]
    for cell in cells:
        flags = ["-c", ns.cfg, *echo, "-S", f"retriever.k={cell['axes']['retriever.k']}"]
        predictions, report = tmp_path / "predictions.jsonl", tmp_path / "report.json"
        run([*flags, "predict", "--output", predictions])
        run([*flags, "evaluate", "--predictions", predictions, "--output", report])
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert cell["report"]["micro"] == doc["micro"]
        assert cell["report"]["per_type"] == doc["per_type"]
        assert cell["report"]["n_parse_failures"] == doc["n_parse_failures"]


def test_reruns_are_byte_identical(proj):
    targets = [
        proj.out / "retrieval.jsonl",
        proj.out / "finetune_dataset.jsonl",
        proj.out / "predictions.jsonl",
        proj.out / "manifests" / "retrieve.json",
        proj.out / "manifests" / "augment.json",
        proj.out / "manifests" / "predict.json",
    ]
    commands = [
        ("retrieve", ["--input", proj.out / "corpus" / "test.jsonl"]),
        ("augment", []),
        ("predict", []),
    ]
    for command, extra in commands:
        run(["-c", proj.cfg, command, *extra])
    before = {p: p.read_bytes() for p in targets}
    for command, extra in commands:
        run(["-c", proj.cfg, command, *extra])
    after = {p: p.read_bytes() for p in targets}
    assert before == after


def test_set_override_changes_results_and_fingerprint(proj, tmp_path):
    base_fingerprint = load_config(proj.cfg).fingerprint
    probe_text = TEST[0].text
    out_path = tmp_path / "k1.jsonl"
    run(["-c", proj.cfg, "-S", "retriever.k=1", "retrieve",
         "--text", probe_text, "--output", out_path])
    rows = read_jsonl(out_path)
    assert len(rows[0]["examples"]) == 1

    manifest = json.loads((proj.out / "manifests" / "retrieve.json").read_text(encoding="utf-8"))
    assert manifest["config_fingerprint"] != base_fingerprint


def test_unknown_override_key_fails(proj):
    result = run(["-c", proj.cfg, "-S", "retriever.bogus=1", "ingest"], expect=2)
    err = error_payload(result)
    assert err["error"] == "ConfigError"
    assert "unknown config key: retriever.bogus" in err["message"]


@pytest.mark.parametrize("content, message", [
    pytest.param(b"seed: caf\xe9\n", "not UTF-8", id="not UTF-8"),
    pytest.param(None, "cannot read", id="a directory"),
    pytest.param(b"- seed\n", "top level must be a mapping", id="a list"),
])
def test_unreadable_config_file_exits_2_with_one_json_line(tmp_path, content, message):
    path = tmp_path / "bad.yaml"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    result = run(["-c", path, "ingest"], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError"
    assert str(path) in doc["message"] and message in doc["message"]


def test_missing_config_file_fails(proj):
    result = run(["-c", proj.root / "nope.yaml", "ingest"], expect=2)
    err = error_payload(result)
    assert err["error"] == "ConfigError"
    assert "config file not found" in err["message"]


@pytest.mark.parametrize("override, error, message", [
    ("retriever=3", "ConfigError", "config key retriever must be a mapping"),
    ("prompt.template_id=nope", "UnknownTemplate", "unknown template id 'nope'"),
    ("prompt.template_file=nope.txt", "TemplateError", "cannot read template file nope.txt"),
    ("store.source_splits=3", "ConfigError", "[store] config: source_splits must be a list of"),
    # a split named twice would put each of its sentences in the store twice, under one id
    ("store.source_splits=[train, train]", "ConfigError",
     "[store] config: source_splits must name no split twice, got ('train', 'train')"),
    ("store.modes=word-level", "ConfigError", "[store] config: modes must be a list of strings"),
    ("embedder.provider=bogus", "ConfigError", "[embedder] config: provider must be one of"),
    ("embedder.dimension=0", "ConfigError", "[embedder] config: dimension must be a positive"),
    ("store.size=abc", "ConfigError", "[store] config: size must be an integer or null"),
    ("retriever.nlist=abc", "ConfigError", "[retriever] config: nlist must be an integer or null"),
    ("retriever.nlist=true", "ConfigError", "[retriever] config: nlist must be an integer or null"),
    ("retriever.kmeans_iters=abc", "ConfigError", "[retriever] config: kmeans_iters must be an integer"),
    # a negative count ran no Lloyd iteration, an nlist of 0 failed only at the IVF build, and a
    # negative max_tokens went to the completion endpoint
    ("retriever.kmeans_iters=-3", "ConfigError",
     "[retriever] config: kmeans_iters must be >= 0, got -3"),
    ("retriever.nlist=0", "ConfigError", "[retriever] config: nlist must be >= 1, got 0"),
    ("generator.max_tokens=-5", "ConfigError",
     "[generator] config: max_tokens must be >= 1, got -5"),
    ("retriever.seed=abc", "ConfigError", "[retriever] config: seed must be an integer"),
    ("retriever.seed=18446744073709551616", "ConfigError",
     "[retriever] config: seed must fit in a signed 64-bit integer"),
    ("retriever.seed=-9223372036854775809", "ConfigError",
     "[retriever] config: seed must fit in a signed 64-bit integer"),
    ("retriever.exclude_self=abc", "ConfigError",
     "[retriever] config: exclude_self must be true or false, got 'abc'"),
    ("retriever.k=true", "ConfigError", "[retriever] config: k must be an integer, got True"),
    ("retriever.k=0", "ConfigError", "[retriever] config: k must be >= 1"),
    ("retriever.per_word_k=0", "ConfigError", "[retriever] config: per_word_k must be >= 1"),
    ("generator.max_tokens=abc", "ConfigError", "[generator] config: max_tokens must be an integer"),
    ("generator.timeout=abc", "ConfigError", "[generator] config: timeout must be a number"),
    ("generator.mock_delay=abc", "ConfigError", "[generator] config: mock_delay must be a number"),
    ("generator.mock_delay=.inf", "ConfigError",
     "[generator] config: mock_delay must be finite, got inf"),
    ("generator.mock_delay=-0.5", "ConfigError", "[generator] config: mock_delay must be >= 0"),
    ("generator.mock_jitter=-0.5", "ConfigError", "[generator] config: mock_jitter must be >= 0"),
    ("generator={backend: remote-completion, endpoint: 'http://127.0.0.1:9/v1', timeout: -1}",
     "ConfigError", "[generator] config: timeout must be > 0, got -1"),
    ("generator.max_retries=-1", "ConfigError", "[generator] config: max_retries must be >= 0"),
    ("embedder={provider: remote-service, endpoint: 'http://127.0.0.1:9/v1', timeout: -1}",
     "ConfigError", "[embedder] config: timeout must be > 0, got -1"),
    ("embedder.max_retries=-1", "ConfigError", "[embedder] config: max_retries must be >= 0"),
    ("embedder.max_in_flight=0", "ConfigError", "unknown config key: embedder.max_in_flight"),
    # time.sleep and socket timeouts refuse waits this long with a traceback
    ("generator.mock_delay=1.0e+300", "ConfigError",
     "[generator] config: mock_delay + mock_jitter must be <= 4611686018.0, got 1e+300"),
    ("generator={backend: remote-completion, endpoint: 'http://127.0.0.1:9/v1', timeout: 1.0e+300}",
     "ConfigError", "[generator] config: timeout must be <= 4611686018.0, got 1e+300"),
    ("embedder={provider: remote-service, endpoint: 'http://127.0.0.1:9/v1', timeout: 1.0e+300}",
     "ConfigError", "[embedder] config: timeout must be <= 4611686018.0, got 1e+300"),
    ("embedder.timeout=9223372036.0", "ConfigError",
     "[embedder] config: timeout must be <= 4611686018.0, got 9223372036.0"),
    ("augment.seed=abc", "ConfigError", "[augment] config: seed must be an integer"),
    ("augment.dropout_fraction=true", "ConfigError",
     "[augment] config: dropout_fraction must be a number, got True"),
    ("store.seed=abc", "ConfigError", "[store] config: seed must be an integer"),
    ("eval.dedupe=abc", "ConfigError", "[eval] config: dedupe must be true or false"),
    ("paths.out_dir=null", "ConfigError", "[paths] config: out_dir must be a string, got None"),
    ('paths.out_dir="out\\0"', "ConfigError",
     "[paths] config: out_dir must not contain a NUL character"),
    ('embedder.stopwords_file="\\0"', "ConfigError",
     "[embedder] config: stopwords_file must not contain a NUL character"),
    ("embedder.stopwords_file=missing.txt", "MissingArtifact",
     "cannot read missing.txt: No such file or directory"),
    ("embedder.stopwords_file=.", "MissingArtifact", "cannot read .: Is a directory"),
    ("prompt.template_file=.", "TemplateError", "cannot read template file .: Is a directory"),
    ("seed=true", "ConfigError", "bad config: seed must be an integer, got True"),
    pytest.param("retriever.k=" + "[" * 20_000 + "]" * 20_000, "ConfigError",
                 "cannot parse override value", id="retriever.k=too-deeply-nested"),
])
@pytest.mark.parametrize("command", ["predict", "augment"])
def test_bad_override_exits_2_with_one_json_line(proj, tmp_path, override, error, message, command):
    result = run(["-c", proj.cfg, "-S", override, command, "--output", tmp_path / "out.jsonl"],
                 expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == error and message in doc["message"]
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("override, message", [
    ("retriever.mode=bogus",
     "bad [retriever] config: mode must be one of ('word-level', 'sentence-level'), got 'bogus'"),
    ("retriever.store_words=bogus",
     "bad [retriever] config: store_words must be one of ('entity-only', 'all'), got 'bogus'"),
    ("retriever.index_kind=bogus",
     "bad [retriever] config: index_kind must be one of ('flat', 'ivf'), got 'bogus'"),
    ("retriever.aggregator=bogus",
     "bad [retriever] config: aggregator must be one of ('max', 'sum'), got 'bogus'"),
    ("generator.backend=bogus", "bad [generator] config: backend must be one of "
     "('remote-completion', 'mock-gold', 'mock-echo-nearest'), got 'bogus'"),
    ("generator.wire_format=bogus",
     "bad [generator] config: wire_format must be one of ('prompt', 'chat'), got 'bogus'"),
    ("embedder.provider=bogus", "bad [embedder] config: provider must be one of "
     "('remote-service', 'precomputed-file'), got 'bogus'"),
    ("eval.grounding=bogus",
     "bad [eval] config: grounding must be one of ('off', 'strict'), got 'bogus'"),
    ("eval.match_mode=bogus",
     "bad [eval] config: match_mode must be one of ('multiset', 'positional'), got 'bogus'"),
    ("store.modes=[bogus]",
     "bad [store] config: modes must be one of ('word-level', 'sentence-level'), got 'bogus'"),
    ("store.modes=[word-level, bogus]",
     "bad [store] config: modes must be one of ('word-level', 'sentence-level'), got 'bogus'"),
    # a value of the wrong type gets the type message, not the allowed values
    ("retriever.mode=5", "bad [retriever] config: mode must be a string, got 5"),
])
def test_a_value_outside_its_allowed_set_exits_2(proj, tmp_path, override, message):
    out = tmp_path / "out.jsonl"
    err = error_payload(run(["-c", proj.cfg, "-S", override, "predict", "--output", out],
                            expect=2))
    assert err == {"error": "ConfigError", "message": message}
    assert not out.exists()


def test_ivf_index_with_a_seed_beyond_64_bits_exits_2(tmp_path):
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    result = run(["-c", ns.cfg, "-S", "retriever.index_kind=ivf",
                  "-S", "retriever.seed=18446744073709551616", "index"], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError" and "seed must fit in a signed 64-bit" in doc["message"]


def test_ivf_index_with_a_negative_seed_exits_2(tmp_path):
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    result = run(["-c", ns.cfg, "-S", "retriever.index_kind=ivf", "-S", "retriever.seed=-1",
                  "index"], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError"
    assert "[retriever] config: an ivf index needs a non-negative seed, got -1" in doc["message"]
    # a flat index takes any seed in the 64-bit range
    run(["-c", ns.cfg, "-S", "retriever.seed=-1", "index"])


@pytest.mark.parametrize("record, error, message", [
    ({"id": 0, "tokens": ["a", "b", "c"],
      "spans": [{"type": "gadget", "start": 2, "end": 4, "surface": "c"}]},
     "InvalidSpan", "outside [0, 3)"),
    (b"not json", "FormatError", "dev.jsonl:3: invalid JSON"),
    (b"[" * 100_000 + b"]" * 100_000, "FormatError", "dev.jsonl:3: invalid JSON"),
    (b'{"id": 0, "tokens": ["caf\xe9"], "spans": []}', "FormatError", "dev.jsonl:3: not UTF-8"),
    ({"id": 0, "tokens": ["a", "b"],
      "spans": [{"type": "gadget", "start": "0", "end": 1, "surface": "a"}]},
     "FormatError", "dev.jsonl:3: bad sentence record: each span needs"),
    ({"id": 0, "tokens": "ab", "spans": []},
     "FormatError", "dev.jsonl:3: bad sentence record: tokens must be a list of strings"),
    ({"id": True, "tokens": ["a"], "spans": []},
     "FormatError", "dev.jsonl:3: bad sentence record: id must be an integer"),
    (b'{"id": 0, "tokens": ["\\ud800"], "spans": []}',
     "FormatError", "dev.jsonl:3: bad sentence record: tokens must be valid Unicode"),
])
def test_bad_jsonl_corpus_record_exits_2_with_one_json_line(tmp_path, record, error, message):
    ns = make_project(tmp_path)
    dev = ns.data / "dev.jsonl"
    line = record if isinstance(record, bytes) else json.dumps(record).encode()
    dev.write_bytes(dev.read_bytes() + line + b"\n")
    result = run(["-c", ns.cfg, "ingest"], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == error and message in doc["message"]


@pytest.mark.parametrize("damaged, command, error, message", [
    ("config.yaml", "ingest", "ConfigError", "cannot parse"),
    ("data/embeddings.jsonl", "index", "FormatError", "invalid JSON"),
])
def test_too_deeply_nested_input_file_exits_2_with_one_json_line(tmp_path, damaged, command,
                                                                  error, message):
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    path = tmp_path / damaged
    nested = b"[" * 100_000 + b"]" * 100_000
    path.write_bytes(path.read_bytes() + (b"extra: " if damaged.endswith(".yaml") else b"")
                     + nested + b"\n")
    result = run(["-c", ns.cfg, command], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == error and message in doc["message"]


BIG_INT = "1" * 5000  # past the 4,300 digits int(str) converts by default


@pytest.mark.parametrize("place, message", [
    ("yaml config", "cannot parse config file"),
    ("json config", "cannot parse config file"),
    ("override", "cannot parse override value"),
    ("yaml grid", "cannot parse grid file"),
    ("json grid", "cannot parse grid file"),
])
def test_an_integer_past_the_digit_limit_in_config_text_exits_2(tmp_path, place, message):
    ns = make_project(tmp_path)
    cfg, args = Path(ns.cfg), ["predict"]
    if place.endswith("config"):
        doc = yaml.safe_load(cfg.read_text(encoding="utf-8"))
        text = (json.dumps(doc) if place == "json config" else yaml.safe_dump(doc))
        cfg = cfg.with_suffix(".json" if place == "json config" else ".yaml")
        cfg.write_text(text.replace('"seed": 7', f'"seed": {BIG_INT}')
                       .replace("\nseed: 7\n", f"\nseed: {BIG_INT}\n"), encoding="utf-8")
    elif place == "override":
        args = ["-S", f"seed={BIG_INT}", "predict"]
    else:
        grid = tmp_path / f"grid.{place.split()[0]}"
        grid.write_text(f'{{"axes": {{"retriever.k": [{BIG_INT}]}}}}', encoding="utf-8")
        args = ["ablate", "--grid", grid, "--output", tmp_path / "ablation.json"]
    result = run(["-c", cfg, *args], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError" and doc["message"].startswith(message)


@pytest.mark.parametrize("command", ["ingest", "predict --input", "evaluate --predictions"])
def test_an_integer_past_the_digit_limit_in_json_lines_exits_2(proj, tmp_path, command):
    line = f'{{"id": {BIG_INT}, "query_id": {BIG_INT}, "tokens": ["a"], "spans": []}}\n'
    if command == "ingest":
        ns = make_project(tmp_path)
        path, args = ns.data / "dev.jsonl", ["-c", ns.cfg, "ingest"]
        path.write_text(path.read_text(encoding="utf-8") + line, encoding="utf-8")
        where = f"{path}:3"
    else:
        path = tmp_path / "rows.jsonl"
        path.write_text(line, encoding="utf-8")
        args = ["-c", proj.cfg, *command.split(), path, "--output", tmp_path / "out.json"]
        where = f"{path}:1"
    result = run(args, expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "FormatError" and doc["message"].startswith(f"{where}: ")
    assert not (tmp_path / "out.json").exists()


def embedding_line(where: tuple, literal: str) -> bytes:
    """A record of the embedding file with the JSON text `literal` at the
    path `where`."""
    return json_with_literal(encoding_record(["odd", "record"], DIM), where, literal).encode()


@pytest.mark.parametrize("line, message", [
    pytest.param(embedding_line(("tokens", 0, "vector", 0), "NaN"), "invalid JSON", id="NaN"),
    pytest.param(embedding_line(("tokens", 0, "vector", 0), "-Infinity"), "invalid JSON",
                 id="-Infinity"),
    pytest.param(embedding_line(("tokens", 0, "vector", 0), "1e400"), "invalid JSON",
                 id="1e400"),
    pytest.param(embedding_line(("tokens", 0, "vector", 0), "null"),
                 "bad embedding record: vector entries must be finite numbers", id="null"),
    pytest.param(embedding_line(("text",), '"\\ud800"'), "invalid JSON", id="lone surrogate"),
    pytest.param(b"[" * 1_000_000 + b"]" * 1_000_000, "invalid JSON", id="a million arrays"),
    pytest.param(b'{"a":' * 50_000 + b"[" * 50_000 + b"]" * 50_000 + b"}" * 50_000,
                 "invalid JSON", id="objects around arrays"),
])
def test_bad_embedding_line_exits_2_with_one_json_line(tmp_path, line, message):
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    path = ns.data / "embeddings.jsonl"
    n_lines = len(path.read_bytes().splitlines())
    path.write_bytes(path.read_bytes() + line + b"\n")
    result = run(["-c", ns.cfg, "index"], expect=2)
    [err] = result.stderr.strip().splitlines()
    doc = json.loads(err)
    assert doc["error"] == "FormatError"
    assert f"embeddings.jsonl:{n_lines + 1}: " in doc["message"] and message in doc["message"]


# Arbitrary JSON values, strings with lone surrogates included (json.dumps
# escapes them, so the corpus file itself stays UTF-8).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters() | st.characters(categories=["Cs"]), max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)
RECORD_FIELDS = [(), ("id",), ("tokens",), ("tokens", 0), ("spans",), ("spans", 0),
                 ("spans", 0, "type"), ("spans", 0, "start"), ("spans", 0, "end"),
                 ("spans", 0, "surface")]


@pytest.fixture(scope="module")
def fuzz_proj(tmp_path_factory):
    ns = make_project(tmp_path_factory.mktemp("fuzz"))
    ns.dev = (ns.data / "dev.jsonl").read_bytes()
    return ns


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from(RECORD_FIELDS), value=JSON_VALUES)
def test_ingest_of_any_jsonl_record_exits_0_or_2_with_one_json_line(fuzz_proj, field, value):
    record = {"id": 5, "tokens": ["the", "omega", "pager"],
              "spans": [{"type": "gadget", "start": 1, "end": 3, "surface": "omega pager"}]}
    record = set_at(record, field, value)
    (fuzz_proj.data / "dev.jsonl").write_bytes(fuzz_proj.dev + json.dumps(record).encode() + b"\n")
    result = RUNNER.invoke(main, ["-c", fuzz_proj.cfg, "ingest"])
    # an exception that escapes the command, which would print a traceback, exits 1
    assert result.exit_code in (0, 2), (record, result.exception)
    if result.exit_code == 2:
        doc = json.loads(result.stderr.strip().splitlines()[-1])
        assert set(doc) == {"error", "message"}


EMBEDDING_FIELDS = [(), ("text",), ("tokens",), ("tokens", 0), ("tokens", 0, "text"),
                    ("tokens", 0, "start_char"), ("tokens", 0, "end_char"),
                    ("tokens", 0, "vector"), ("tokens", 0, "vector", 0),
                    ("sentence_vector",), ("sentence_vector", 0)]


@pytest.fixture(scope="module")
def index_fuzz_proj(tmp_path_factory):
    ns = make_project(tmp_path_factory.mktemp("index-fuzz"))
    run(["-c", ns.cfg, "ingest"])
    ns.embeddings = (ns.data / "embeddings.jsonl").read_bytes()
    return ns


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from(EMBEDDING_FIELDS), value=JSON_VALUES)
def test_index_of_any_embedding_record_exits_0_or_2_with_one_json_line(index_fuzz_proj, field,
                                                                      value):
    record = set_at(encoding_record(["the", "omega", "pager"], DIM), field, value)
    (index_fuzz_proj.data / "embeddings.jsonl").write_bytes(
        index_fuzz_proj.embeddings + json.dumps(record).encode() + b"\n")
    result = RUNNER.invoke(main, ["-c", index_fuzz_proj.cfg, "index"])
    # an exception that escapes the command, which would print a traceback, exits 1
    assert result.exit_code in (0, 2), (record, result.exception)
    if result.exit_code == 2:
        doc = json.loads(result.stderr.strip().splitlines()[-1])
        assert set(doc) == {"error", "message"}


# Wrong-typed and out-of-range values for any config key. Strings are
# relative names, so a path key names a file in the run's own directory.
OVERRIDE_NAMES = st.text(st.sampled_from("az09-_ ./\x00"), max_size=6).filter(
    lambda s: ".." not in s and not s.startswith("/"))
OVERRIDE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([-2**63 - 1, -1, 0, 2**63, 2**64]) | st.integers(-3, 100_000),
    st.floats(),
    OVERRIDE_NAMES,
    st.lists(OVERRIDE_NAMES | st.integers(-1, 3), max_size=3),
    st.dictionaries(OVERRIDE_NAMES, st.integers(-1, 3), max_size=2),
)
OVERRIDE_KEYS = ["seed", *(f"{section}.{key}" for section, keys in _defaults().items()
                           if isinstance(keys, dict) for key in keys)]
OVERRIDE_COMMANDS = {"ingest": [], "index": [], "retrieve": ["--text", TEST[2].text],
                     "augment": [], "predict": [], "evaluate": [],
                     "ablate": ["--grid", "grid.yaml"]}


def yaml_scalar(value) -> str:
    """`value` as the YAML text of an -S override."""
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return ".nan" if math.isnan(value) else ("-.inf" if value < 0 else ".inf")
        text = repr(value)  # YAML 1.1 reads a float only with a dot in it
        return text if "." in text else text.replace("e", ".0e")
    return json.dumps(value)


@pytest.fixture(scope="module")
def override_proj(tmp_path_factory):
    root = tmp_path_factory.mktemp("overrides") / "project"
    root.mkdir()
    ns = make_project(root)
    for command in ("ingest", "index", "predict"):
        run(["-c", ns.cfg, command])
    write_grid(ns.root / "grid.yaml", {"axes": {"retriever.k": [1, 2]}})
    ns.runs = ns.root.parent / "runs"
    return ns


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(OVERRIDE_KEYS), value=OVERRIDE_VALUES,
       command=st.sampled_from(sorted(OVERRIDE_COMMANDS)))
def test_any_override_of_any_command_exits_0_or_2_with_one_json_line(override_proj, key, value,
                                                                     command):
    # a valid mock delay is a real sleep; a longer one is refused before any
    assume(not (key.startswith("generator.mock_") and type(value) in (int, float)
                and 0.01 < value <= MAX_WAIT_S))
    root = override_proj.runs / "project"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(override_proj.root, root)
    cfg = root / "config.yaml"
    cfg.write_text(cfg.read_text(encoding="utf-8").replace(str(override_proj.root), str(root)),
                   encoding="utf-8")
    override = f"{key}={yaml_scalar(value)}"
    with contextlib.chdir(root):
        result = RUNNER.invoke(main, ["-c", str(cfg), "-S", override, command,
                                      *OVERRIDE_COMMANDS[command]])
    # an exception that escapes the command, which would print a traceback, exits 1
    assert result.exit_code in (0, 2), (override, command, result.exception)
    if result.exit_code == 2:
        doc = json.loads(result.stderr.strip().splitlines()[-1])
        assert set(doc) == {"error", "message"}


@pytest.mark.parametrize("built, mode", [("word-level", "sentence-level"),
                                         ("sentence-level", "word-level")])
@pytest.mark.parametrize("command", ["predict", "augment", "retrieve"])
def test_mode_without_its_index_fails_before_any_row(tmp_path, built, mode, command):
    ns = make_project(tmp_path)
    only = ["-c", ns.cfg, "-S", f"store.modes=[{built}]"]
    run([*only, "ingest"])
    run([*only, "index"])
    extra = ["--text", TEST[0].text] if command == "retrieve" else []
    out = tmp_path / "out.jsonl"
    result = run([*only, "-S", f"retriever.mode={mode}", command, *extra, "--output", out],
                 expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError"
    assert f"retriever.mode={mode}" in doc["message"]
    assert f"store.modes=['{built}']" in doc["message"]
    assert not out.exists()


@pytest.mark.parametrize("modes, message", [
    ("[]", "bad [store] config: modes must list one or more modes, none twice, got ()"),
    ("[word-level, word-level]", "bad [store] config: modes must list one or more modes, "
                                 "none twice, got ('word-level', 'word-level')"),
], ids=["empty", "repeated"])
def test_empty_or_repeated_store_modes_exit_2(tmp_path, modes, message):
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    err = error_payload(run(["-c", ns.cfg, "-S", f"store.modes={modes}", "index"], expect=2))
    assert err == {"error": "ConfigError", "message": message}
    assert not (ns.out / "store").exists()


@pytest.mark.parametrize("modes", ["[word-level, sentence-level]", "[sentence-level]"])
def test_index_under_a_dimension_too_large_for_an_array_exits_2(tmp_path, modes):
    # the store's matrices are sized only after an embedding has checked the width
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    err = error_payload(run(["-c", ns.cfg, "-S", f"store.modes={modes}",
                             "-S", f"embedder.dimension={2**63}", "index"], expect=2))
    assert err["error"] == "DimensionMismatch"
    assert f"expected ({2**63},)" in err["message"]


@pytest.mark.parametrize("first", [[], ["-S", "retriever.index_kind=ivf",
                                         "-S", "retriever.nlist=2"]], ids=["flat", "ivf"])
def test_index_removes_the_files_of_modes_it_no_longer_builds(tmp_path, first):
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, *first, "index"])
    store = ns.out / "store"
    assert {p.name for p in store.glob("sentence_index.*")}
    run(["-c", ns.cfg, "-S", "store.modes=[word-level]", "index"])
    meta = json.loads((store / "meta.json").read_text(encoding="utf-8"))
    assert meta["indexes"] == {"word": "word_index.bin"}
    index_files = {p.name for p in store.glob("*_index.*")}
    assert index_files == {"word_index.bin", "word_index.sentence_ids.npy", "word_index.json"}
    manifest = json.loads((ns.out / "manifests" / "index.json").read_text(encoding="utf-8"))
    assert sorted(manifest["outputs"]) == sorted(str(p) for p in store.iterdir())


class _EmbeddingHandler(BaseHTTPRequestHandler):
    """An embedding service answering each text with the record the
    project's embedding file holds for it."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        payload = json.dumps(encoding_record(body["text"].split(), DIM)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def embedding_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbeddingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    thread.join()


def test_an_index_that_writes_no_cache_removes_the_cache_of_an_earlier_one(tmp_path,
                                                                           embedding_server):
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, "index"])
    store = ns.out / "store"
    cache = {*CACHE_ARRAYS.values(), CACHE_TEXTS}
    assert {p.name for p in store.glob("embeddings.*")} == cache
    remote = ["-c", ns.cfg, "-S",
              f"embedder={{provider: remote-service, endpoint: '{embedding_server}'}}"]
    run([*remote, "index"])
    meta = json.loads((store / "meta.json").read_text(encoding="utf-8"))
    assert meta["indexes"] == {"word": "word_index.bin", "sentence": "sentence_index.bin"}
    index_files = {f"{mode}_index.{part}" for mode in ("word", "sentence")
                   for part in ("bin", "sentence_ids.npy", "json")}
    assert {p.name for p in store.iterdir()} == {"sentences.jsonl", "schema.json", "meta.json",
                                                 *index_files}
    manifest = json.loads((ns.out / "manifests" / "index.json").read_text(encoding="utf-8"))
    assert sorted(manifest["outputs"]) == sorted(str(p) for p in store.iterdir())
    out = tmp_path / "retrieval.jsonl"
    run([*remote, "retrieve", "--text", TEST[0].text, "--output", out])
    assert len(read_jsonl(out)) == 1


@pytest.fixture(scope="module")
def ivf_proj(tmp_path_factory):
    ns = make_project(tmp_path_factory.mktemp("ivf"))
    ns.ivf = ["-c", ns.cfg, "-S", "retriever.index_kind=ivf", "-S", "retriever.nlist=2"]
    run([*ns.ivf, "ingest"])
    run([*ns.ivf, "index"])
    return ns


@pytest.mark.parametrize("nprobe, message", [
    (5, "retriever.nprobe=5 must be in [1, 2]"),
    (0, "[retriever] config: nprobe must be >= 1"),
])
@pytest.mark.parametrize("command", ["predict", "augment", "retrieve"])
def test_nprobe_outside_the_store_nlist_exits_2(ivf_proj, tmp_path, nprobe, message, command):
    extra = ["--text", TEST[0].text] if command == "retrieve" else []
    out = tmp_path / "out.jsonl"
    result = run([*ivf_proj.ivf, "-S", f"retriever.nprobe={nprobe}", command, *extra,
                  "--output", out], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError" and message in doc["message"]
    assert not out.exists()
    run([*ivf_proj.ivf, "-S", "retriever.nprobe=2", command, *extra, "--output", out])


def test_ablate_fails_a_cell_with_a_bad_nprobe(ivf_proj, tmp_path):
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"axes": {"retriever.nprobe": [1, 5, 0]}}), encoding="utf-8")
    run([*ivf_proj.ivf, "ablate", "--grid", grid, "--output", tmp_path / "ablation.json"])
    ok, above, below = json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))["cells"]
    assert ok["error"] is None and ok["report"]["micro"]["f1"] == 1.0
    assert above["report"] is None and above["error"].startswith("ConfigError")
    assert "retriever.nprobe=5 must be in [1, 2]" in above["error"]
    assert below["report"] is None and "nprobe must be >= 1" in below["error"]


def test_retrieve_writes_nothing_when_a_query_fails(tmp_path):
    ns = make_project(tmp_path)
    stopwords_only = LabeledSentence(99, ["the", "at", "on"], [])
    write_embedding_file(TRAIN + DEV + TEST + [stopwords_only], ns.data / "embeddings.jsonl", DIM)
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, "index"])
    out = tmp_path / "retrieval.jsonl"
    texts = ["--text", TEST[0].text, "--text", stopwords_only.text, "--text", TEST[1].text]
    result = run(["-c", ns.cfg, "retrieve", *texts, "--output", out], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "EmptyQueryAfterStopwords" and "the at on" in doc["message"]
    assert not out.exists()
    assert not (ns.out / "manifests" / "retrieve.json").exists()
    run(["-c", ns.cfg, "retrieve", *texts[:2], *texts[4:], "--output", out])
    assert len(read_jsonl(out)) == 2


def test_section_override_merges_into_the_section(proj):
    cfg = load_config(proj.cfg, ["retriever={k: 2, aggregator: sum}"])
    assert (cfg.retriever.k, cfg.retriever.aggregator) == (2, "sum")
    assert cfg.retriever.mode == load_config(proj.cfg).retriever.mode
    with pytest.raises(ConfigError, match="unknown config key: retriever.bogus"):
        load_config(proj.cfg, ["retriever={bogus: 1}"])


# --- ablation ----------------------------------------------------------------

def test_ablate_axes_grid(proj, tmp_path):
    grid = tmp_path / "grid.yaml"
    grid.write_text(
        yaml.safe_dump({"axes": {"retriever.mode": ["word-level", "sentence-level"]}}),
        encoding="utf-8",
    )
    result = run(["-c", proj.cfg, "ablate", "--grid", grid])
    assert "retriever.mode" in result.output
    assert "100.00" in result.output

    doc = json.loads((proj.out / "ablation.json").read_text(encoding="utf-8"))
    assert doc["config_fingerprint"] == load_config(proj.cfg).fingerprint
    cells = doc["cells"]
    assert {c["axes"]["retriever.mode"] for c in cells} == {"word-level", "sentence-level"}
    for cell in cells:
        assert cell["error"] is None
        assert cell["report"]["micro"]["f1"] == 1.0
        assert cell["latency"]["count"] == 3


def test_ablate_isolates_failing_cells(proj, tmp_path):
    grid = tmp_path / "grid.yaml"
    grid.write_text(
        yaml.safe_dump({"cells": [
            {"retriever.mode": "word-level"},
            {"retriever.mode": "sideways"},
        ]}),
        encoding="utf-8",
    )
    result = run(["-c", proj.cfg, "ablate", "--grid", grid,
                  "--output", tmp_path / "ablation.json"])
    assert "failed: ConfigError" in result.output

    cells = json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))["cells"]
    ok, bad = cells
    assert ok["error"] is None and ok["report"]["micro"]["f1"] == 1.0
    assert bad["report"] is None and bad["error"].startswith("ConfigError")
    assert "sideways" in bad["error"]


def test_ablate_isolates_a_cell_that_raises_any_exception(proj, tmp_path, monkeypatch):
    from ragner import pipeline

    predict = pipeline.predict_sentences

    def unlucky(sentences, store, cfg, *args):
        if cfg.retriever.k == 2:
            raise RuntimeError("unlucky")
        return predict(sentences, store, cfg, *args)

    monkeypatch.setattr(pipeline, "predict_sentences", unlucky)
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1, 2, 3]}})
    result = run(["-c", proj.cfg, "ablate", "--grid", grid, "--output", tmp_path / "ablation.json"])
    assert "failed: RuntimeError: unlucky" in result.output
    cells = json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))["cells"]
    assert [c["error"] for c in cells] == [None, "RuntimeError: unlucky", None]
    assert [c["report"] and c["report"]["micro"]["f1"] for c in cells] == [1.0, None, 1.0]


def test_ablate_fails_a_cell_whose_mode_the_store_lacks(proj, tmp_path):
    grid = tmp_path / "grid.yaml"
    grid.write_text(
        yaml.safe_dump({"axes": {"retriever.mode": ["word-level", "sentence-level"]}}),
        encoding="utf-8",
    )
    run(["-c", proj.cfg, "-S", "store.modes=[word-level]", "ablate", "--grid", grid,
         "--output", tmp_path / "ablation.json"])
    ok, bad = json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))["cells"]
    assert ok["error"] is None and ok["report"]["micro"]["f1"] == 1.0
    assert bad["report"] is None and bad["error"].startswith("ConfigError")
    assert "retriever.mode=sentence-level" in bad["error"]


def test_ablate_names_the_store_modes_when_it_builds_no_index_a_cell_searches(proj, tmp_path):
    grid = write_grid(tmp_path / "grid.yaml", {"cells": [{"retriever.mode": "sentence-level"}]})
    run(["-c", proj.cfg, "-S", "store.modes=[word-level]", "ablate", "--grid", grid,
         "--output", tmp_path / "ablation.json"], expect=2)
    [cell] = json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))["cells"]
    assert cell["error"].startswith("ConfigError: retriever.mode=sentence-level needs")
    assert "the store was built with store.modes=['word-level']" in cell["error"]


def test_ablate_exits_2_when_no_cell_succeeds(proj, tmp_path):
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"axes": {"retriever.index_kind": ["ivf-flat"]}}),
                    encoding="utf-8")
    result = run(["-c", proj.cfg, "ablate", "--grid", grid,
                  "--output", tmp_path / "ablation.json"], expect=2)
    assert "failed: ConfigError" in result.output  # the table still prints
    err = error_payload(result)
    assert err["error"] == "AblationFailed"
    assert "no cell of 1 succeeded" in err["message"]
    [cell] = json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))["cells"]
    assert cell["error"].startswith("ConfigError") and "ivf-flat" in cell["error"]


def test_ablate_reruns_are_byte_identical(proj, tmp_path):
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"axes": {"retriever.k": [1, 3]}}), encoding="utf-8")
    out = tmp_path / "ablation.json"
    targets = [out, proj.out / "manifests" / "ablate.json"]
    runs = []
    for _ in range(2):
        run(["-c", proj.cfg, "ablate", "--grid", grid, "--output", out])
        runs.append([p.read_bytes() for p in targets])
    assert runs[0] == runs[1]
    assert [c["latency"] for c in json.loads(out.read_text(encoding="utf-8"))["cells"]] == \
        [{"count": 3}, {"count": 3}]
    # wall-clock figures live in the sidecar, outside the manifest
    telemetry = json.loads((tmp_path / "ablation_telemetry.json").read_text(encoding="utf-8"))
    assert [c["axes"] for c in telemetry["cells"]] == [{"retriever.k": 1}, {"retriever.k": 3}]
    assert all(c["latency"]["median"] > 0 for c in telemetry["cells"])
    manifest = json.loads(targets[1].read_text(encoding="utf-8"))
    assert str(tmp_path / "ablation_telemetry.json") not in manifest["outputs"]


@pytest.mark.parametrize("index_kind", ["flat", "ivf"])
def test_full_chain_reruns_are_byte_identical(tmp_path, index_kind):
    """ingest ... evaluate and a 2-cell ablate, twice into a fresh out dir:
    every artifact and manifest comes out byte for byte the same."""
    ns = make_project(tmp_path)
    kind = ["-S", f"retriever.index_kind={index_kind}"]
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"axes": {"retriever.mode": ["word-level", "sentence-level"]}}),
                    encoding="utf-8")
    runs = []
    for _ in range(2):
        shutil.rmtree(ns.out, ignore_errors=True)
        for command, extra in [("ingest", []), ("index", []),
                               ("retrieve", ["--input", ns.out / "corpus" / "test.jsonl"]),
                               ("augment", []), ("predict", []), ("evaluate", []),
                               ("ablate", ["--grid", grid])]:
            run(["-c", ns.cfg, *kind, command, *extra])
        runs.append({p.relative_to(ns.out): p.read_bytes() for p in sorted(ns.out.rglob("*"))
                     if p.is_file() and not p.name.endswith("_telemetry.json")})
    assert runs[0].keys() == runs[1].keys()
    hashed = set()
    for manifest in (ns.out / "manifests").glob("*.json"):
        hashed |= {Path(p).relative_to(ns.out) for p in json.loads(manifest.read_text())["outputs"]}
    assert hashed <= runs[0].keys()
    assert len(hashed) > 10
    assert [p for p in runs[0] if runs[0][p] != runs[1][p]] == []
    ivf_parts = {Path("store", f"word_index.{name}.npy")
                 for name in ("centroids", "offsets", "row_record_ids")}
    assert (ivf_parts <= runs[0].keys()) == (index_kind == "ivf")


def test_ablate_rejects_gridless_file(proj, tmp_path):
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"foo": 1}), encoding="utf-8")
    result = run(["-c", proj.cfg, "ablate", "--grid", grid], expect=2)
    err = error_payload(result)
    assert err["error"] == "ConfigError"
    assert "grid file needs an 'axes' or 'cells' key" in err["message"]


@pytest.mark.parametrize("text, message", [
    ("axes: [unclosed", "cannot parse grid file"),
    ("axes: 3", "axes must map each dotted key to a list of values"),
    ("axes: {retriever.k: 3}", "axes must map each dotted key to a list of values"),
    ("axes: {1: [2], retriever.k: [3]}", "axes must map each dotted key to a list of values"),
    ("cells: 3", "cells must be a list of mappings from dotted keys"),
    ("cells: [3]", "cells must be a list of mappings from dotted keys"),
    ("cells: [{1: 2, retriever.k: 3}]", "cells must be a list of mappings from dotted keys"),
    ("3", "grid file needs an 'axes' or 'cells' key"),
    ("xaxesx", "grid file needs an 'axes' or 'cells' key"),
])
def test_ablate_rejects_malformed_grid_file(proj, tmp_path, text, message):
    grid = tmp_path / "grid.yaml"
    grid.write_text(text, encoding="utf-8")
    result = run(["-c", proj.cfg, "ablate", "--grid", grid, "--output", tmp_path / "a.json"],
                 expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError"
    assert str(grid) in doc["message"] and message in doc["message"]
    assert not (tmp_path / "a.json").exists()


# --- upstream verification ---------------------------------------------------

def test_upstream_verification_lifecycle(tmp_path):
    ns = make_project(tmp_path)

    result = run(["-c", ns.cfg, "predict"], expect=2)
    err = error_payload(result)
    assert err["error"] == "MissingArtifact"
    assert "no index manifest" in err["message"]
    assert "run `ragner index` first" in err["message"]

    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, "index"])
    probe = ["retrieve", "--text", TEST[0].text, "--output", tmp_path / "r.jsonl"]
    run(["-c", ns.cfg, *probe])

    # appending a byte to any indexed artifact breaks the hash check
    victim = sorted(p for p in (ns.out / "store").iterdir() if p.is_file())[0]
    original = victim.read_bytes()
    victim.write_bytes(original + b"x")
    err = error_payload(run(["-c", ns.cfg, *probe], expect=2))
    assert err["error"] == "MissingArtifact"
    assert "changed since its manifest" in err["message"]

    victim.unlink()
    err = error_payload(run(["-c", ns.cfg, *probe], expect=2))
    assert err["error"] == "MissingArtifact"
    assert "artifact missing" in err["message"]

    victim.write_bytes(original)
    run(["-c", ns.cfg, *probe])

    # so is a manifest that is no longer JSON
    manifest = ns.out / "manifests" / "index.json"
    manifest.write_text("{", encoding="utf-8")
    err = error_payload(run(["-c", ns.cfg, *probe], expect=2))
    assert err["error"] == "FormatError"
    assert "unreadable manifest" in err["message"] and "re-run `ragner index`" in err["message"]


@pytest.mark.parametrize("reshape", [
    pytest.param(lambda doc: [], id="a list"),
    pytest.param(lambda doc: {**doc, "outputs": sorted(doc["outputs"])}, id="outputs a list"),
    pytest.param(lambda doc: {**doc, "inputs": sorted(doc["inputs"].items())},
                 id="inputs a list of pairs"),
    pytest.param(lambda doc: {**doc, "outputs": dict.fromkeys(doc["outputs"])},
                 id="digests null"),
    pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "outputs"}, id="no outputs"),
])
def test_a_manifest_of_the_wrong_shape_asks_for_a_rerun(tmp_path, parses, reshape):
    ns = indexed_project(tmp_path)
    manifest = ns.out / "manifests" / "index.json"
    manifest.write_text(json.dumps(reshape(json.loads(manifest.read_text(encoding="utf-8")))),
                        encoding="utf-8")
    result = run(["-c", ns.cfg, "predict"], expect=2)
    [line] = result.stderr.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "FormatError"
    assert "unreadable manifest" in err["message"] and "re-run `ragner index`" in err["message"]
    # an ablation cell finds the indexed store not current, so it builds its own from a parse
    before = index_outputs(ns)
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1]}})
    out = tmp_path / "ablation.json"
    parses.clear()
    run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", out])
    [cell] = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert cell["error"] is None and cell["report"]["micro"]["f1"] == 1.0
    assert len(parses) == 1
    assert index_outputs(ns) == before


def test_ingest_requires_schema(tmp_path):
    ns = make_project(tmp_path, with_schema=False)
    err = error_payload(run(["-c", ns.cfg, "ingest"], expect=2))
    assert err["error"] == "ConfigError"
    assert "paths.schema is not configured" in err["message"]


def test_ingest_refuses_a_schema_definition_that_is_not_a_string(tmp_path):
    ns = make_project(tmp_path)
    schema = ns.data / "null-definition.json"
    schema.write_text(json.dumps([{"name": "gadget", "definition": None}]), encoding="utf-8")
    err = error_payload(run(["-c", ns.cfg, "-S", f"paths.schema={schema}", "ingest"], expect=2))
    assert err == {"error": "FormatError",
                   "message": f"schema file {schema}: definition must be a string, got None"}
    assert not (ns.out / "schema.json").exists()


@pytest.mark.parametrize("key, name", [
    ("paths.schema", "schema.json"),
    ("paths.corpus_dev", "dev.jsonl"),
    ("paths.corpus_train", "train.txt"),  # BIO
])
def test_ingest_with_a_missing_input_file_exits_2(tmp_path, key, name):
    ns = make_project(tmp_path)
    missing = tmp_path / "nowhere" / name
    result = run(["-c", ns.cfg, "-S", f"{key}={missing}", "ingest"], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "MissingArtifact" and str(missing) in doc["message"]


def test_ablate_records_a_missing_corpus_file_as_missing_artifact(tmp_path):
    ns = make_project(tmp_path)
    missing = tmp_path / "missing.jsonl"
    grid = write_grid(tmp_path / "grid.yaml", {"cells": [{"paths.corpus_dev": str(missing)}]})
    out = tmp_path / "ablation.json"
    err = error_payload(run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", out], expect=2))
    assert err["error"] == "AblationFailed"
    [cell] = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert cell["error"].startswith("MissingArtifact") and str(missing) in cell["error"]


def test_ablate_refuses_a_test_split_that_ingest_refuses(tmp_path):
    ns = make_project(tmp_path)
    bad = _sent(0, "show me the zeta gizmo", ("gadget", 3, 5))
    bad.spans[0] = EntitySpan("gadget", 3, 5, "zeta")  # not the surface of tokens 3-5
    test = ns.data / "test.jsonl"
    write_sentences_jsonl([bad], test)
    override = ["-c", ns.cfg, "-S", f"paths.corpus_test={test}"]
    err = error_payload(run([*override, "ingest"], expect=2))
    assert err["error"] == "InvalidSpan"
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1, 3]}})
    out = tmp_path / "ablation.json"
    run([*override, "ablate", "--grid", grid, "--output", out], expect=2)
    cells = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert [c["error"] for c in cells] == [f"InvalidSpan: {err['message']}"] * 2


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    # no test split, no store.size: everything goes to the store
    ns = make_project(tmp_path_factory.mktemp("mini"), store_size=None, with_test=False)
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, "index"])
    return ns


def test_augment_needs_a_finetune_split(mini):
    err = error_payload(run(["-c", mini.cfg, "augment"], expect=2))
    assert err["error"] == "ConfigError"
    assert "finetune split is empty" in err["message"]


def test_predict_on_the_bio_test_file_renders_the_ingested_split_prompts(tmp_path):
    ns = indexed_project(tmp_path)
    run(["-c", ns.cfg, "predict", "--output", tmp_path / "split.jsonl"])
    run(["-c", ns.cfg, "predict", "--input", ns.data / "test.txt",
         "--output", tmp_path / "bio.jsonl"])
    split, bio = read_jsonl(tmp_path / "split.jsonl"), read_jsonl(tmp_path / "bio.jsonl")
    # BIO input gets negative ids, as with `retrieve`, so no store sentence is excluded
    assert [r["query_id"] for r in bio] == [-1, -2, -3]
    assert [(r["prompt_hash"], r["completion"]) for r in bio] == \
        [(r["prompt_hash"], r["completion"]) for r in split]


def test_an_untransformed_finetune_prompt_is_the_prompt_predict_renders(tmp_path):
    ns = indexed_project(tmp_path)
    run(["-c", ns.cfg, "augment"])
    records = read_jsonl(ns.out / "finetune_dataset.jsonl")
    plain = {r["provenance"]["sentence_id"]: r["prompt"] for r in records
             if not r["provenance"]["transforms"]}
    assert plain
    out = tmp_path / "finetune_predictions.jsonl"
    run(["-c", ns.cfg, "predict", "--input", ns.out / "corpus" / "finetune_split.jsonl",
         "--output", out])
    rendered = {r["query_id"]: r["prompt_hash"] for r in read_jsonl(out)}
    for sentence_id, prompt in plain.items():
        assert hashlib.sha256(prompt.encode("utf-8")).hexdigest() == rendered[sentence_id]


def test_predict_needs_input_sentences(mini):
    err = error_payload(run(["-c", mini.cfg, "predict"], expect=2))
    assert err["error"] == "MissingArtifact"
    assert "no input sentences at" in err["message"]


def test_a_rejected_augment_leaves_the_earlier_dataset_as_it_was(tmp_path, monkeypatch):
    ns = indexed_project(tmp_path)
    run(["-c", ns.cfg, "augment"])
    before = {p: p.read_bytes() for p in sorted(ns.out.rglob("*")) if p.is_file()}
    index = json.loads((ns.out / "manifests" / "index.json").read_text(encoding="utf-8"))
    counts = count_hashes(monkeypatch)
    # the 2-type schema cannot lose 2 types: dropout is refused before the store is read
    err = error_payload(run(["-c", ns.cfg, "-S", "augment.min_removed=2", "augment"], expect=2))
    assert err == {"error": "SchemaTooSmall",
                   "message": "removal bounds [2, 1] invalid for schema of 2"}
    assert [path for path in index["outputs"] if path in counts] == []
    assert str(ns.data / "embeddings.jsonl") not in counts
    monkeypatch.undo()
    after = {p: p.read_bytes() for p in sorted(ns.out.rglob("*")) if p.is_file()}
    assert after.keys() == before.keys()
    assert [p.name for p in before if before[p] != after[p]] == []


def _cut_the_test_split(ns):
    test = ns.out / "corpus" / "test.jsonl"
    test.write_bytes(test.read_bytes().splitlines(keepends=True)[0])
    return test


def _reformat_the_schema(ns):
    schema = ns.out / "schema.json"
    schema.write_text(json.dumps(json.loads(schema.read_text(encoding="utf-8"))),
                      encoding="utf-8")
    return schema


@pytest.mark.parametrize("command, change", [
    ("predict", _cut_the_test_split),
    ("evaluate", _cut_the_test_split),
    ("evaluate", _reformat_the_schema),
], ids=["predict, test split cut", "evaluate, test split cut", "evaluate, schema reformatted"])
def test_predict_and_evaluate_refuse_a_changed_ingest_output(tmp_path, command, change):
    ns = indexed_project(tmp_path)
    run(["-c", ns.cfg, "predict"])
    changed = change(ns)
    err = error_payload(run(["-c", ns.cfg, command], expect=2))
    assert err["error"] == "MissingArtifact"
    assert err["message"] == (f"ingest artifact changed since its manifest: {changed}; "
                              "re-run `ragner ingest`")
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, command])


def test_predict_and_evaluate_read_an_input_or_gold_file_as_it_is(tmp_path):
    ns = indexed_project(tmp_path)
    queries = tmp_path / "queries.jsonl"
    shutil.copy(ns.out / "corpus" / "test.jsonl", queries)
    _cut_the_test_split(ns)  # the default, which neither command reads here
    out = tmp_path / "predictions.jsonl"
    run(["-c", ns.cfg, "predict", "--input", queries, "--output", out])
    run(["-c", ns.cfg, "evaluate", "--predictions", out, "--gold", queries,
         "--output", tmp_path / "report.json"])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["n_sentences"] == len(TEST)


# --- the embedding cache and the store build key ------------------------------

CACHE_FILES = (*CACHE_ARRAYS.values(), CACHE_TEXTS)


def indexed_project(root: Path):
    ns = make_project(root)
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, "index"])
    return ns


def test_index_manifest_records_cache_and_embedding_file(proj):
    doc = json.loads((proj.out / "manifests" / "index.json").read_text(encoding="utf-8"))
    for name in CACHE_FILES:
        assert str(proj.out / "store" / name) in doc["outputs"]
    jsonl = proj.data / "embeddings.jsonl"
    assert doc["inputs"][str(jsonl)] == hashlib.sha256(jsonl.read_bytes()).hexdigest()


def test_store_meta_records_the_embedder_model_and_the_build_key(proj):
    meta = json.loads((proj.out / "store" / "meta.json").read_text(encoding="utf-8"))
    assert meta["model_name"] == "test-hash"
    assert meta["build_key"] == load_config(proj.cfg).store_build_key


def test_store_built_under_another_config_is_refused(proj, tmp_path):
    before = (proj.out / "predictions.jsonl").read_bytes()
    for override in ("retriever.index_kind=ivf", "retriever.store_words=all",
                     "store.size=5", "embedder.model_name=other"):
        result = run(["-c", proj.cfg, "-S", override, "predict"], expect=2)
        err = error_payload(result)
        assert err["error"] == "ConfigError", override
        assert "re-run `ragner index`" in err["message"]
    assert (proj.out / "predictions.jsonl").read_bytes() == before
    # query-time fields stay free
    run(["-c", proj.cfg, "-S", "retriever.nprobe=1", "-S", "retriever.k=2", "retrieve",
         "--text", TEST[0].text, "--output", tmp_path / "r.jsonl"])


def test_cache_outputs_match_a_parsed_embedder(tmp_path, monkeypatch):
    from ragner import embedder as embedder_mod
    from ragner import pipeline

    ns = indexed_project(tmp_path)
    commands = {
        "retrieval.jsonl": ["retrieve", "--input", ns.out / "corpus" / "test.jsonl"],
        "finetune_dataset.jsonl": ["augment"],
        "predictions.jsonl": ["predict"],
    }

    # downstream commands never read the embedding file
    jsonl = ns.data / "embeddings.jsonl"
    hidden = jsonl.rename(ns.data / "hidden.jsonl")
    for name, args in commands.items():
        run(["-c", ns.cfg, *args, "--output", tmp_path / f"cached-{name}"])
    hidden.rename(jsonl)

    monkeypatch.setattr(pipeline, "open_precomputed_cache", lambda store_dir:
                        embedder_mod.load_precomputed(jsonl, tmp_path / "parse", {}))
    for name, args in commands.items():
        run(["-c", ns.cfg, *args, "--output", tmp_path / f"parsed-{name}"])
        cached = (tmp_path / f"cached-{name}").read_bytes()
        assert cached and cached == (tmp_path / f"parsed-{name}").read_bytes(), name


@pytest.mark.parametrize("damage", ["truncate", "alter"])
def test_damaged_cache_file_fails_downstream(tmp_path, damage):
    ns = indexed_project(tmp_path)
    victim = ns.out / "store" / CACHE_ARRAYS["token_vectors"]
    data = victim.read_bytes()
    if damage == "truncate":
        victim.write_bytes(data[: len(data) // 2])
    else:
        victim.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    for command in (["predict"], ["augment"], ["retrieve", "--text", TEST[0].text]):
        err = error_payload(run(["-c", ns.cfg, *command], expect=2))
        assert err["error"] == "MissingArtifact"
        assert "changed since its manifest" in err["message"]


def test_store_without_cache_asks_for_reindex(tmp_path):
    # a store written before the cache existed: no cache files, none in the manifest
    ns = indexed_project(tmp_path)
    manifest_path = ns.out / "manifests" / "index.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    for name in CACHE_FILES:
        (ns.out / "store" / name).unlink()
        del doc["outputs"][str(ns.out / "store" / name)]
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["predict"], ["augment"], ["retrieve", "--text", TEST[0].text]):
        err = error_payload(run(["-c", ns.cfg, *command], expect=2))
        assert err["error"] == "MissingArtifact"
        assert "no embedding cache" in err["message"]
        assert "re-run `ragner index`" in err["message"]


def ragidx_flat_index(index) -> bytes:
    """A flat word index in the RAGIDX binary that stores held before their
    indexes became .npy files: magic, version 1, kind, has-words, dim and
    count, then the sentence ids, the word table and the vectors."""
    blobs = [w.encode("utf-8") for w in index.words]
    return b"".join([
        b"RAGIDX", struct.pack("<IBBIQ", 1, 0, 1, index.dim, len(index)),
        np.asarray(index.sentence_ids, dtype="<i8").tobytes(),
        np.asarray([len(b) for b in blobs], dtype="<u4").tobytes(), *blobs,
        np.asarray(index.matrix, dtype="<f8").tobytes(),
    ])


@pytest.mark.parametrize("new_parts", ["kept", "removed"])
def test_store_in_the_old_index_format_asks_for_reindex(tmp_path, new_parts):
    ns = indexed_project(tmp_path)
    store = ns.out / "store"
    manifest_path = ns.out / "manifests" / "index.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    path = store / "word_index.bin"
    path.write_bytes(ragidx_flat_index(load_index(path)))
    doc["outputs"][str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    if new_parts == "removed":  # as the store was written then
        for part in ("word_index.json", "word_index.sentence_ids.npy"):
            (store / part).unlink()
            del doc["outputs"][str(store / part)]
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["predict"], ["augment"], ["retrieve", "--text", TEST[0].text]):
        result = run(["-c", ns.cfg, *command], expect=2)
        [line] = result.stderr.strip().splitlines()
        err = json.loads(line)
        assert err["error"] == "FormatError"
        assert "word_index.bin: unreadable index" in err["message"]
        assert "re-run `ragner index`" in err["message"]


@pytest.mark.parametrize("mode", ["word-level", "sentence-level"])
def test_a_query_command_keeps_only_the_index_of_its_mode(tmp_path, mode):
    from ragner import pipeline
    from ragner.manifest import Digests

    ns = indexed_project(tmp_path)
    store = pipeline.load_store(load_config(ns.cfg, [f"retriever.mode={mode}"]), Digests())
    assert list(store.indexes) == [mode]
    assert store.modes == ("word-level", "sentence-level")  # what `index` built


def test_a_word_level_command_still_checks_the_sentence_level_index(tmp_path):
    ns = indexed_project(tmp_path)
    manifest_path = ns.out / "manifests" / "index.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    path = ns.out / "store" / "sentence_index.bin"
    rows = np.load(path)
    with path.open("wb") as out:
        np.save(out, 2 * rows)  # rows of norm 2
    doc["outputs"][str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["predict"], ["augment"], ["retrieve", "--text", TEST[0].text]):
        err = error_payload(run(["-c", ns.cfg, "-S", "retriever.mode=word-level", *command],
                                expect=2))
        assert err["error"] == "FormatError"
        assert "sentence_index.bin: unreadable index: rows must be unit-norm" in err["message"]


@pytest.mark.parametrize("first, then", [("ivf", "flat"), ("flat", "ivf")])
def test_reindex_under_another_index_kind_reads_no_stale_file(tmp_path, first, then):
    for name in ("reused", "fresh"):
        (tmp_path / name).mkdir()
    reused, fresh = make_project(tmp_path / "reused"), make_project(tmp_path / "fresh")
    run(["-c", reused.cfg, "ingest"])
    run(["-c", reused.cfg, "-S", f"retriever.index_kind={first}", "index"])
    run(["-c", fresh.cfg, "ingest"])
    for ns in (reused, fresh):
        run(["-c", ns.cfg, "-S", f"retriever.index_kind={then}", "index"])
        run(["-c", ns.cfg, "-S", f"retriever.index_kind={then}", "predict"])
    predictions = [(ns.out / "predictions.jsonl").read_bytes() for ns in (reused, fresh)]
    assert predictions[0] and predictions[0] == predictions[1]
    assert sorted(p.name for p in (reused.out / "store").iterdir()) == \
        sorted(p.name for p in (fresh.out / "store").iterdir())


@pytest.mark.parametrize("axes, reindexes", [
    ({"retriever.k": [1, 3], "retriever.mode": ["word-level", "sentence-level"]}, 0),
    ({"retriever.index_kind": ["flat", "ivf"]}, 1),
])
def test_ablate_parses_once_and_builds_once_per_store(proj, tmp_path, monkeypatch, axes,
                                                      reindexes):
    from ragner import pipeline
    from ragner.retriever import ExampleStore

    calls = {"parse": 0, "build": 0, "reindex": 0}
    parse = pipeline.load_precomputed
    build = ExampleStore.build.__func__
    reindex = ExampleStore.reindex

    def counting_parse(path, directory, digests):
        calls["parse"] += 1
        return parse(path, directory, digests)

    def counting_build(cls, *args, **kwargs):
        calls["build"] += 1
        return build(cls, *args, **kwargs)

    def counting_reindex(self, *args, **kwargs):
        calls["reindex"] += 1
        return reindex(self, *args, **kwargs)

    monkeypatch.setattr(pipeline, "load_precomputed", counting_parse)
    monkeypatch.setattr(ExampleStore, "build", classmethod(counting_build))
    monkeypatch.setattr(ExampleStore, "reindex", counting_reindex)
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"axes": axes}), encoding="utf-8")
    out = tmp_path / "ablation.json"
    run(["-c", proj.cfg, "ablate", "--grid", grid, "--output", out])

    cells = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert all(c["error"] is None and c["report"]["micro"]["f1"] == 1.0 for c in cells)
    # the project is indexed: every cell's embedder opens the store's embedding cache, the
    # flat cells load the indexed store, and the IVF cell rebuilds its indexes from it
    assert calls == {"parse": 0, "build": 0, "reindex": reindexes}


@pytest.fixture
def parses(monkeypatch):
    """The paths `pipeline.load_precomputed` parses while the test runs."""
    from ragner import pipeline

    calls = []
    parse = pipeline.load_precomputed

    def counting_parse(path, directory, digests):
        calls.append(path)
        return parse(path, directory, digests)

    monkeypatch.setattr(pipeline, "load_precomputed", counting_parse)
    return calls


def write_grid(path: Path, doc: dict) -> Path:
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def test_ablate_table_is_the_same_from_the_cache_and_from_a_parse(tmp_path, parses):
    ns = make_project(tmp_path)
    grid = write_grid(tmp_path / "grid.yaml",
                      {"axes": {"retriever.mode": ["word-level", "sentence-level"]}})
    # never ingested or indexed: the cells parse the embedding file
    run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", tmp_path / "parsed.json"])
    assert len(parses) == 1
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, "index"])
    parses.clear()
    run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", tmp_path / "cached.json"])
    assert parses == []
    parsed = (tmp_path / "parsed.json").read_bytes()
    assert b'"error": null' in parsed
    assert (tmp_path / "cached.json").read_bytes() == parsed


@pytest.mark.parametrize("change", ["edited after index", "byte-identical copy"])
def test_ablate_parses_a_file_the_index_did_not_cache(tmp_path, parses, change):
    ns = indexed_project(tmp_path)
    parses.clear()
    jsonl = ns.data / "embeddings.jsonl"
    cells = [{"retriever.k": 1}, {"retriever.k": 3}]
    if change == "edited after index":
        jsonl.write_bytes(jsonl.read_bytes() + b"\n")
    else:
        copy = shutil.copy(jsonl, ns.data / "copy.jsonl")
        cells = [{**cell, "embedder.precomputed_path": str(copy)} for cell in cells]
    grid = write_grid(tmp_path / "grid.yaml", {"cells": cells})
    run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", tmp_path / "ablation.json"])
    assert len(parses) == 1
    cells = json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))["cells"]
    assert all(c["error"] is None and c["report"]["micro"]["f1"] == 1.0 for c in cells)


ECHO = ("-S", "generator.backend=mock-echo-nearest")  # the scores follow the retrieval


def ablate_indexed_then_fresh(ns, tmp_path, monkeypatch, grid, options=(), change=None):
    """`ablate` of the grid on the indexed project after `change`, then on the
    same project with its outputs removed: both ablation.json files' bytes and
    the ExampleStore.build calls of the first run."""
    from ragner.retriever import ExampleStore

    run(["-c", ns.cfg, *options, "ingest"])
    run(["-c", ns.cfg, *options, "index"])
    if change is not None:
        change(ns)
    grid = write_grid(tmp_path / "grid.yaml", grid)
    builds = []
    build = ExampleStore.build.__func__

    def counting_build(cls, *args, **kwargs):
        builds.append(1)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(ExampleStore, "build", classmethod(counting_build))
    tables, indexed_builds = [], None
    for name in ("indexed", "fresh"):
        run(["-c", ns.cfg, *ECHO, *options, "ablate", "--grid", grid,
             "--output", tmp_path / f"{name}.json"])
        tables.append((tmp_path / f"{name}.json").read_bytes())
        indexed_builds = len(builds) if indexed_builds is None else indexed_builds
        shutil.rmtree(ns.out)
    assert b'"error": null' in tables[1]
    return tables, indexed_builds


@pytest.mark.parametrize("indexed_kind, grid", [
    ("flat", {"axes": {"retriever.index_kind": ["flat", "ivf"]}}),
    ("ivf", {"axes": {"retriever.index_kind": ["ivf", "flat"]}}),
    ("flat", {"axes": {"retriever.k": [1, 3], "retriever.mode": ["word-level", "sentence-level"]}}),
    ("ivf", {"axes": {"retriever.k": [1, 3], "retriever.mode": ["word-level", "sentence-level"]}}),
])
def test_ablate_over_the_indexed_store_writes_what_a_fresh_build_does(
        tmp_path, monkeypatch, indexed_kind, grid):
    ns = make_project(tmp_path)
    options = ("-S", f"retriever.index_kind={indexed_kind}")
    [indexed, fresh], builds = ablate_indexed_then_fresh(ns, tmp_path, monkeypatch, grid, options)
    assert indexed == fresh
    assert builds == 0  # every cell loaded the indexed store or rebuilt only its indexes


def _alter_a_store_file(ns):
    """Swap the first two rows of the word index: still unit-norm, the same size."""
    path = ns.out / "store" / "word_index.bin"
    matrix = np.load(path)
    np.save(path.with_name("swapped.npy"), matrix[[1, 0, *range(2, len(matrix))]])
    path.with_name("swapped.npy").replace(path)


def _edit_the_corpus(ns):
    """Drop the entity of the train sentence "we meet at noon thursday"."""
    train = ns.data / "train.txt"
    text = train.read_text(encoding="utf-8")
    train.write_text(text.replace("noon\tB-meeting time", "noon\tO")
                     .replace("thursday\tI-meeting time", "thursday\tO"), encoding="utf-8")


@pytest.mark.parametrize("change, grid", [
    (_alter_a_store_file, {"axes": {"retriever.k": [1, 3]}}),
    (_edit_the_corpus, {"axes": {"retriever.k": [1, 3]}}),
    (None, {"axes": {"store.size": [6, 5]}}),
], ids=["a store file altered after index", "a corpus edited after ingest", "store.size swept"])
def test_ablate_builds_its_own_store_when_the_indexed_one_is_not_its_store(
        tmp_path, monkeypatch, change, grid):
    ns = make_project(tmp_path)
    [indexed, fresh], builds = ablate_indexed_then_fresh(ns, tmp_path, monkeypatch, grid,
                                                         change=change)
    assert indexed == fresh
    assert builds == 1  # the one store the indexed run cannot load


def test_ablate_rebuilds_a_store_indexed_under_an_edited_stop_word_file(tmp_path, monkeypatch):
    ns = make_project(tmp_path)
    stopwords = ns.data / "stopwords.txt"
    stopwords.write_text("the\nat\ngamma\nphone\n", encoding="utf-8")
    options = ("-S", f"embedder.stopwords_file={stopwords}")

    def edit(ns):
        # a fresh store holds the records of "gamma phone"; the indexed one does not
        stopwords.write_text("the\nat\n", encoding="utf-8")
        index = json.loads((ns.out / "manifests" / "index.json").read_text(encoding="utf-8"))
        assert str(stopwords) in index["inputs"]

    [indexed, fresh], builds = ablate_indexed_then_fresh(
        ns, tmp_path, monkeypatch, {"axes": {"retriever.k": [1, 3]}}, options, change=edit)
    assert indexed == fresh
    assert builds == 1


def stop_word_project(root: Path, *options):
    """A project whose config sets a stop-word file, ingested and indexed
    (under the `-S` options given)."""
    ns = make_project(root)
    ns.stopwords = ns.data / "stopwords.txt"
    ns.stopwords.write_text("the\nat\ngamma\nphone\n", encoding="utf-8")
    doc = yaml.safe_load(Path(ns.cfg).read_text(encoding="utf-8"))
    doc["embedder"]["stopwords_file"] = str(ns.stopwords)
    Path(ns.cfg).write_text(yaml.safe_dump(doc), encoding="utf-8")
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, *options, "index"])
    return ns


QUERY_COMMANDS = pytest.mark.parametrize(
    "command", [["predict"], ["augment"], ["retrieve", "--text", TEST[0].text]],
    ids=["predict", "augment", "retrieve"])


def _edit_the_stop_words(ns) -> Path:
    ns.stopwords.write_text("the\nat\n", encoding="utf-8")
    return ns.stopwords


def _reingest_an_edited_corpus(ns) -> Path:
    store = ns.out / "corpus" / "store.jsonl"
    before = store.read_bytes()
    _edit_the_corpus(ns)
    run(["-c", ns.cfg, "ingest"])
    assert store.read_bytes() != before  # the edited sentence is in the store split
    return store


@pytest.mark.parametrize("change", [_edit_the_stop_words, _reingest_an_edited_corpus],
                         ids=["stop words edited", "corpus edited and re-ingested"])
@QUERY_COMMANDS
def test_a_store_input_changed_after_index_asks_for_reindex(tmp_path, change, command):
    ns = stop_word_project(tmp_path)
    changed = change(ns)
    result = run(["-c", ns.cfg, *command], expect=2)
    [line] = result.stderr.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "MissingArtifact"
    assert str(changed) in err["message"] and "re-run `ragner index`" in err["message"]


# --- a re-index opens the embedding cache when it is current ---------------------

def _edit_the_embedding_file(ns):
    jsonl = ns.data / "embeddings.jsonl"
    jsonl.write_bytes(jsonl.read_bytes() + b"\n")


def _flip_a_byte_of_the_cache(ns):
    victim = ns.out / "store" / CACHE_ARRAYS["token_vectors"]
    data = victim.read_bytes()
    victim.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))


def _delete_a_cache_file(ns):
    (ns.out / "store" / CACHE_ARRAYS["token_vectors"]).unlink()


def index_outputs(ns) -> dict[str, bytes]:
    """The bytes of every file under store/ and of manifests/index.json."""
    paths = [*(ns.out / "store").iterdir(), ns.out / "manifests" / "index.json"]
    return {str(p.relative_to(ns.out)): p.read_bytes() for p in sorted(paths)}


@pytest.mark.parametrize("index_kind", ["flat", "ivf"])
@pytest.mark.parametrize("option, change, parsed", [
    ("retriever.store_words=all", None, 0),
    ("retriever.index_kind=other", None, 0),
    (None, _edit_the_stop_words, 0),
    (None, _edit_the_embedding_file, 1),
    (None, _flip_a_byte_of_the_cache, 1),
    (None, _delete_a_cache_file, 1),
], ids=["store_words", "index_kind", "stop words edited", "embedding file edited",
        "a cache byte flipped", "a cache file deleted"])
def test_a_reindex_parses_only_a_changed_embedding_file_and_writes_what_a_fresh_index_does(
        tmp_path, parses, index_kind, option, change, parsed):
    kind = ("-S", f"retriever.index_kind={index_kind}")
    ns = stop_word_project(tmp_path, *kind)
    if change is not None:
        change(ns)
    other = {"flat": "ivf", "ivf": "flat"}[index_kind]
    options = (*kind, "-S", option.replace("other", other)) if option else kind
    parses.clear()
    run(["-c", ns.cfg, *options, "index"])
    assert len(parses) == parsed
    reindexed = index_outputs(ns)
    shutil.rmtree(ns.out)
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, *options, "index"])
    fresh = index_outputs(ns)
    assert reindexed.keys() == fresh.keys()
    assert [name for name in fresh if reindexed[name] != fresh[name]] == []


def _reshape_the_index_manifest(ns):
    (ns.out / "manifests" / "index.json").write_text("[]", encoding="utf-8")


@pytest.mark.parametrize("damage", [_flip_a_byte_of_the_cache, _delete_a_cache_file,
                                    _reshape_the_index_manifest],
                         ids=["a cache byte flipped", "a cache file deleted",
                              "the index manifest reshaped"])
def test_ablate_over_a_damaged_cache_or_index_manifest_builds_its_own_store(tmp_path, parses,
                                                                             damage):
    ns = indexed_project(tmp_path)
    damage(ns)
    before = index_outputs(ns)
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1, 3]}})
    parses.clear()
    run(["-c", ns.cfg, *ECHO, "ablate", "--grid", grid, "--output", tmp_path / "damaged.json"])
    assert len(parses) == 1  # once for the sweep's one embedder
    assert index_outputs(ns) == before  # ablate writes nothing into the indexed store
    shutil.rmtree(ns.out)
    run(["-c", ns.cfg, *ECHO, "ablate", "--grid", grid, "--output", tmp_path / "fresh.json"])
    damaged = (tmp_path / "damaged.json").read_bytes()
    assert [c["error"] for c in json.loads(damaged)["cells"]] == [None, None]
    assert damaged == (tmp_path / "fresh.json").read_bytes()


def count_hashes(monkeypatch) -> dict[str, int]:
    """How often `files.sha256_file` hashes each path while the test runs."""
    from ragner import files

    counts: dict[str, int] = {}
    sha256_file = files.sha256_file

    def counting(path, *args):
        counts[str(path)] = counts.get(str(path), 0) + 1
        return sha256_file(path, *args)

    monkeypatch.setattr(files, "sha256_file", counting)
    return counts


@QUERY_COMMANDS
def test_a_query_command_hashes_each_indexed_file_once_but_not_the_embedding_file(
        tmp_path, monkeypatch, command):
    ns = stop_word_project(tmp_path)
    manifests = {name: json.loads((ns.out / "manifests" / f"{name}.json").read_text("utf-8"))
                 for name in ("ingest", "index")}
    counts = count_hashes(monkeypatch)
    run(["-c", ns.cfg, *command])
    jsonl = str(ns.data / "embeddings.jsonl")
    recorded = [*manifests["index"]["inputs"], *manifests["index"]["outputs"]]
    assert jsonl in recorded and str(ns.stopwords) in recorded
    # augment takes store.jsonl's and schema.json's digests from its check of the ingest outputs
    assert {path: counts.get(path, 0) for path in recorded} == \
        {path: int(path != jsonl) for path in recorded}


def test_ablate_hashes_each_indexed_file_once_per_sweep(tmp_path, monkeypatch, parses):
    ns = stop_word_project(tmp_path)
    other = ns.data / "other-stopwords.txt"
    other.write_text("the\nat\n", encoding="utf-8")
    index = json.loads((ns.out / "manifests" / "index.json").read_text(encoding="utf-8"))
    cells = [{"embedder.stopwords_file": str(path)} for path in (ns.stopwords, other) * 2]
    grid = write_grid(tmp_path / "grid.yaml", {"cells": cells})
    parses.clear()
    counts = count_hashes(monkeypatch)
    run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", tmp_path / "ablation.json"])
    cells = json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))["cells"]
    assert all(c["error"] is None and c["report"]["micro"]["f1"] == 1.0 for c in cells)
    assert parses == []  # every cell's embedder opened the cache
    recorded = [*index["inputs"], *index["outputs"]]
    assert str(ns.data / "embeddings.jsonl") in recorded
    assert all(str(ns.out / "store" / name) in recorded for name in CACHE_FILES)
    assert {path: counts.get(path, 0) for path in recorded} == dict.fromkeys(recorded, 1)
    assert str(other) not in counts  # index recorded no digest for it


def test_an_index_kind_sweep_builds_the_ivf_index_of_its_mode_alone(tmp_path, monkeypatch):
    from ragner import retriever

    ns = indexed_project(tmp_path)
    built = []
    ivf_from_matrix = retriever.ivf_from_matrix

    def counting(matrix, *args, **kwargs):
        built.append(len(matrix))
        return ivf_from_matrix(matrix, *args, **kwargs)

    monkeypatch.setattr(retriever, "ivf_from_matrix", counting)
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.index_kind": ["flat", "ivf"]}})
    out = tmp_path / "ablation.json"
    run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", out])
    cells = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert [c["error"] for c in cells] == [None, None]
    telemetry = json.loads((tmp_path / "ablation_telemetry.json").read_text(encoding="utf-8"))
    assert [c["store"] for c in telemetry["cells"]] == ["loaded", "reindexed"]
    store = read_jsonl(ns.out / "corpus" / "store.jsonl")
    assert len(built) == 1 and built[0] > len(store)  # the word index alone


def test_a_mode_sweep_keeps_and_searches_both_indexes(tmp_path):
    ns = indexed_project(tmp_path)
    modes = ["word-level", "sentence-level"]
    sweeps = {}
    for name, axes in {"both": modes, **{mode: [mode] for mode in modes}}.items():
        grid = write_grid(tmp_path / f"{name}.yaml", {"axes": {"retriever.mode": axes}})
        out = tmp_path / f"{name}.json"
        run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", out])
        sweeps[name] = json.loads(out.read_text(encoding="utf-8"))["cells"]
    telemetry = json.loads((tmp_path / "both_telemetry.json").read_text(encoding="utf-8"))
    assert [c["store"] for c in telemetry["cells"]] == ["loaded", "held"]
    assert all(c["error"] is None for c in sweeps["both"])
    assert sweeps["both"] == [sweeps[mode][0] for mode in modes]


def store_digests(ns) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((ns.out / "store").iterdir())}


@pytest.mark.parametrize("indexed_kind, kinds", [("flat", ["flat", "ivf"]),
                                                 ("ivf", ["ivf", "flat"])])
def test_an_index_kind_sweep_writes_no_store_file(tmp_path, indexed_kind, kinds):
    # a reindex regroups the mapped rows copy-on-write: the files keep their bytes
    ns = make_project(tmp_path)
    options = ("-S", f"retriever.index_kind={indexed_kind}")
    run(["-c", ns.cfg, *options, "ingest"])
    run(["-c", ns.cfg, *options, "index"])
    before = store_digests(ns)
    assert "word_index.bin" in before
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.index_kind": kinds}})
    out = tmp_path / "ablation.json"
    run(["-c", ns.cfg, *options, "ablate", "--grid", grid, "--output", out])
    assert [c["error"] for c in json.loads(out.read_text(encoding="utf-8"))["cells"]] == [None] * 2
    assert store_digests(ns) == before
    run(["-c", ns.cfg, *options, "predict"])


def test_a_cell_after_a_failed_reindex_reports_what_a_fresh_run_does(tmp_path):
    # the first cell holds the indexed store. The sweep searches both modes, so the
    # second cell's reindex rebuilds both indexes: nlist 7 fits the word index and fails
    # the sentence index of the store's 6 sentences, after the word index took its rows
    ns = indexed_project(tmp_path)
    assert len(read_jsonl(ns.out / "corpus" / "store.jsonl")) == 6
    cells = [{"retriever.mode": "sentence-level"},
             {"retriever.index_kind": "ivf", "retriever.nlist": 7},
             {"retriever.index_kind": "ivf", "retriever.nlist": 2}]
    sweeps = {}
    for name, grid in {"sweep": cells, "alone": cells[2:]}.items():
        grid = write_grid(tmp_path / f"{name}.yaml", {"cells": grid})
        out = tmp_path / f"{name}.json"
        run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", out])
        sweeps[name] = json.loads(out.read_text(encoding="utf-8"))["cells"]
    held, failed, after = sweeps["sweep"]
    assert held["error"] is None
    assert failed["error"].startswith("NlistTooLarge: nlist 7 out of range for 6 records")
    assert after == sweeps["alone"][0] and after["error"] is None


def test_a_store_of_other_sentences_releases_the_loaded_store_before_it_builds(
        tmp_path, monkeypatch):
    import weakref

    from ragner.retriever import ExampleStore

    ns = indexed_project(tmp_path)
    _edit_the_corpus(ns)  # the indexed store is current, but of other sentences
    load, build = ExampleStore.load.__func__, ExampleStore.build.__func__
    loaded, alive_at_build = [], []

    def recording_load(cls, *args, **kwargs):
        store = load(cls, *args, **kwargs)
        loaded.append(weakref.ref(store))
        return store

    def checking_build(cls, *args, **kwargs):
        alive_at_build.append([ref() is not None for ref in loaded])
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(ExampleStore, "load", classmethod(recording_load))
    monkeypatch.setattr(ExampleStore, "build", classmethod(checking_build))
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1, 3]}})
    out = tmp_path / "ablation.json"
    run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", out])
    assert [c["error"] for c in json.loads(out.read_text(encoding="utf-8"))["cells"]] == [None] * 2
    assert alive_at_build == [[False]]


def stamp(path: Path) -> tuple[int, int]:
    """What changes when a file is written: its inode when replaced, else its mtime."""
    stat = path.stat()
    return stat.st_ino, stat.st_mtime_ns


def test_no_command_hashes_a_file_twice(tmp_path, monkeypatch):
    ns = make_project(tmp_path)
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1, 3]}})
    store_words = ("-S", "retriever.store_words=all")
    chain = {
        "ingest": ["ingest"],
        "index, fresh": ["index"],
        "index, the same config": ["index"],  # loads the store
        "index, another store": [*store_words, "index"],  # builds from the cache
        "index, the first store again": ["index"],
        "index, an edited embedding file": ["index"],  # parses it
        "retrieve": ["retrieve", "--input", ns.out / "corpus" / "test.jsonl"],
        "augment": ["augment"],
        "predict": ["predict"],
        "evaluate": ["evaluate"],
        "ablate": ["ablate", "--grid", grid],
    }
    twice = {}
    for name, args in chain.items():
        if name == "index, an edited embedding file":
            _edit_the_embedding_file(ns)
        stats = {str(p): stamp(p) for p in tmp_path.rglob("*") if p.is_file()}
        counts = count_hashes(monkeypatch)
        run(["-c", ns.cfg, *args])
        monkeypatch.undo()
        # a file the command wrote may be hashed once before and once after
        twice[name] = sorted(path for path, count in counts.items()
                             if count > 1 and stamp(Path(path)) == stats.get(path))
    assert twice == dict.fromkeys(chain, [])


def out_tree(ns) -> dict[str, bytes | None]:
    """Every path under the project's output directory, with a file's bytes."""
    return {str(p.relative_to(ns.out)): p.read_bytes() if p.is_file() else None
            for p in sorted(ns.out.rglob("*"))}


def _break_the_last_line(ns):
    jsonl = ns.data / "embeddings.jsonl"
    jsonl.write_bytes(jsonl.read_bytes() + b'{"text": "a line without tokens"}\n')


def _uncover_a_store_word(ns):
    """An embedding file that parses, whose tokens of the first store
    sentence cover none of its words."""
    [store_text] = [" ".join(json.loads(line)["tokens"]) for line in
                    (ns.out / "corpus" / "store.jsonl").read_text("utf-8").splitlines()[:1]]
    jsonl = ns.data / "embeddings.jsonl"
    records = [json.loads(line) for line in jsonl.read_text("utf-8").splitlines()]
    for token in next(r for r in records if r["text"] == store_text)["tokens"]:
        token["start_char"] = token["end_char"] = 0
    jsonl.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@pytest.mark.parametrize("index_kind", ["flat", "ivf"])
@pytest.mark.parametrize("change, error", [(_break_the_last_line, "FormatError"),
                                           (_uncover_a_store_word, "AlignmentGap")],
                         ids=["the parse fails on the last line", "the build fails"])
def test_a_failed_index_leaves_the_indexed_store_as_it_was(tmp_path, index_kind, change, error):
    kind = ("-S", f"retriever.index_kind={index_kind}")
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, *kind, "index"])
    before = out_tree(ns)
    change(ns)
    result = run(["-c", ns.cfg, *kind, "index"], expect=2)
    assert error_payload(result)["error"] == error
    assert out_tree(ns) == before  # no temporary file either


def test_ablate_without_an_index_leaves_nothing_but_its_outputs(tmp_path, monkeypatch, parses):
    ns = make_project(tmp_path)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    grid = write_grid(tmp_path / "grid.yaml",
                      {"axes": {"retriever.mode": ["word-level", "sentence-level"]}})
    before = set(tmp_path.rglob("*"))
    run(["-c", ns.cfg, "ablate", "--grid", grid])
    assert len(parses) == 1
    outputs = ["ablation.json", "ablation_telemetry.json", "manifests", "manifests/ablate.json"]
    assert sorted(set(tmp_path.rglob("*")) - before) == [ns.out, *(ns.out / p for p in outputs)]


# --- usage errors ------------------------------------------------------------------


@pytest.mark.parametrize("args", [["--bogus"], ["predict", "--nope"], ["frob"], ["ablate"]],
                         ids=["unknown option", "unknown command option", "unknown command",
                              "missing --grid"])
def test_a_usage_error_is_one_json_line(args):
    result = run(args, expect=2)
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert json.loads(line)["error"] == "UsageError"


def test_help_is_unchanged_and_an_in_process_usage_error_exits_2(capsys):
    assert run(["--help"]).stdout.startswith("Usage: ")
    assert run(["predict", "--help"]).stdout.startswith("Usage: ")
    with pytest.raises(SystemExit) as exc:
        main.main(args=["frob"], prog_name="ragner", standalone_mode=False)
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "UsageError", "message": "No such command 'frob'. See `ragner --help`."}
    # and so does any other error, which the same group method turns into one line
    with pytest.raises(SystemExit) as exc:
        main.main(args=["-S", "retriever.k=0", "ingest"], prog_name="ragner",
                  standalone_mode=False)
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": "bad [retriever] config: k must be >= 1"}


# --- what each command imports, and remote generation ---------------------------

HEAVY_MODULES = ("numpy", "orjson", "requests", "urllib.request")
_PROBE = """
import json, sys
if sys.argv[2:]:
    from ragner.cli import main
    main.main(args=sys.argv[2:], prog_name="ragner", standalone_mode=False)
else:
    import ragner.cli
print(json.dumps([m for m in json.loads(sys.argv[1]) if m in sys.modules]))
"""


def modules_loaded(names, *args) -> list[str]:
    """Run one command in a fresh interpreter; which of the modules `names` it loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(ragner.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(names), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def heavy_modules_loaded(*args) -> list[str]:
    return modules_loaded(HEAVY_MODULES, *args)


def test_commands_import_only_what_they_use(tmp_path):
    ns = make_project(tmp_path)
    assert heavy_modules_loaded() == []
    assert heavy_modules_loaded("-c", ns.cfg, "ingest") == []
    # only a command that parses the embedding file loads its parser
    assert heavy_modules_loaded("-c", ns.cfg, "index") == ["numpy", "orjson"]
    # a re-index over a current cache opens it, under other build settings too
    assert heavy_modules_loaded("-c", ns.cfg, "-S", "retriever.store_words=all", "index") == \
        ["numpy"]
    assert heavy_modules_loaded("-c", ns.cfg, "index") == ["numpy"]
    # mock generation over the embedding cache loads no HTTP machinery
    assert heavy_modules_loaded("-c", ns.cfg, "predict") == ["numpy"]
    assert heavy_modules_loaded("-c", ns.cfg, "evaluate") == []


LAZY_MODULES = ("yaml", "ragner.evaluation", "concurrent.futures", "logging", "statistics")


def test_a_json_config_loads_no_yaml_and_each_command_loads_what_it_runs(tmp_path):
    """A JSON config, grid and override value are read without PyYAML; only
    evaluate and ablate load the scoring module; a serial run that skips no
    sentence loads no thread pool, logging or statistics."""
    ns = make_project(tmp_path)
    doc = yaml.safe_load(Path(ns.cfg).read_text(encoding="utf-8"))
    doc["generator"]["parallelism"] = 1
    cfg, grid = tmp_path / "config.json", tmp_path / "grid.json"
    cfg.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    grid.write_text(json.dumps({"axes": {"retriever.k": [1, 2]}}), encoding="utf-8")
    for command, loaded in (("ingest", []), ("index", []), ("augment", []), ("predict", []),
                            ("evaluate", ["ragner.evaluation"])):
        assert modules_loaded(LAZY_MODULES, "-c", cfg, command) == loaded, command
    assert "(0 skipped)" in run(["-c", cfg, "augment", "--output", tmp_path / "f.jsonl"]).output
    assert modules_loaded(LAZY_MODULES, "-c", cfg, "-S", "retriever.k=3", "predict",
                          "--output", tmp_path / "k3.jsonl") == []
    assert modules_loaded(LAZY_MODULES, "-c", cfg, "ablate", "--grid", grid) == \
        ["ragner.evaluation"]
    # the YAML twin still works, and is the same config
    assert modules_loaded(LAZY_MODULES, "-c", ns.cfg, "-S", "generator.parallelism=1",
                          "predict", "--output", tmp_path / "twin.jsonl") == ["yaml"]
    assert (tmp_path / "twin.jsonl").read_bytes() == (ns.out / "predictions.jsonl").read_bytes()
    twin = load_config(ns.cfg, ["generator.parallelism=1"])
    assert twin.fingerprint == load_config(cfg).fingerprint


class _FlakyCompletionHandler(BaseHTTPRequestHandler):
    """Answers every prompt but the one about a briefing, which gets HTML."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        payload = (b"<html>oops</html>" if "briefing" in body["prompt"]
                   else json.dumps({"text": "{gadget: [], meeting time: []}"}).encode())
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_predict_fails_only_the_row_with_a_bad_reply(tmp_path):
    ns = indexed_project(tmp_path)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyCompletionHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}/v1/completions"
        run(["-c", ns.cfg, "-S", "generator.backend=remote-completion",
             "-S", f"generator.endpoint={endpoint}", "-S", "generator.max_retries=0",
             "predict"])
    finally:
        server.shutdown()
        thread.join(timeout=10)
    rows = read_jsonl(ns.out / "predictions.jsonl")
    assert [r["text"] for r in rows] == [s.text for s in TEST]
    failed = [r for r in rows if "error" in r]
    assert [r["text"] for r in failed] == [TEST[1].text]
    assert failed[0]["error"].startswith("HttpError") and "non-JSON" in failed[0]["error"]
    assert all(r["parsed"] is not None for r in rows if "error" not in r)


def test_predict_fails_only_the_row_whose_span_type_is_outside_the_schema(proj, tmp_path):
    queries = tmp_path / "queries.jsonl"
    write_sentences_jsonl([_sent(100, TEST[0].text, ("gadget", 3, 5)),
                           _sent(101, TEST[1].text, ("bogus", 4, 5))], queries)
    out = tmp_path / "predictions.jsonl"
    result = run(["-c", proj.cfg, "predict", "--input", queries, "--output", out])
    assert "predicted 2 sentences (1 failures" in result.output
    good, bad = read_jsonl(out)
    assert "error" not in good and good["parsed"] == {"gadget": ["zeta gizmo"], "meeting time": []}
    assert bad["error"].startswith("UnknownSpanType") and "'bogus'" in bad["error"]
    assert bad["parse_failed"] and bad["parsed"] is None


# --- what an ablation sweep shares -------------------------------------------

def test_ablate_embeds_and_searches_each_query_once_per_mode(tmp_path, monkeypatch):
    """Over k x mode the cells of a mode share one search, made at the largest
    k, and each store sentence's in-prompt example is rendered once."""
    from ragner import promptkit
    from ragner.embedder import Embedder
    from ragner.vector_index import FlatIndex

    ns = indexed_project(tmp_path)
    embeds, depths, renders = {}, [], {}

    def counting(method, kind):
        def wrapper(self, sentence):
            embeds[kind, sentence.text] = embeds.get((kind, sentence.text), 0) + 1
            return method(self, sentence)
        return wrapper

    def counting_search(self, queries, k, *args, **kwargs):
        depths.append(k)
        return search_batch(self, queries, k, *args, **kwargs)

    def counting_render(text, gold):
        renders[text] = renders.get(text, 0) + 1
        return render_example(text, gold)

    search_batch, render_example = FlatIndex.search_batch, promptkit.render_example
    monkeypatch.setattr(Embedder, "embed_words", counting(Embedder.embed_words, "words"))
    monkeypatch.setattr(Embedder, "embed_sentence",
                        counting(Embedder.embed_sentence, "sentence"))
    monkeypatch.setattr(FlatIndex, "search_batch", counting_search)
    monkeypatch.setattr(promptkit, "render_example", counting_render)
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {
        "retriever.k": [1, 3, 5], "retriever.mode": ["word-level", "sentence-level"]}})
    out = tmp_path / "ablation.json"
    run(["-c", ns.cfg, *ECHO, "ablate", "--grid", grid, "--output", out])

    cells = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert [c["error"] for c in cells] == [None] * 6
    # the loaded store embeds nothing: every embedding is of a test sentence
    assert embeds == {(kind, s.text): 1 for kind in ("words", "sentence") for s in TEST}
    assert depths == [5, 5]  # one block per mode for three test sentences
    assert renders and max(renders.values()) == 1


@pytest.mark.parametrize("backend", [(), ECHO])
def test_ablate_parses_each_distinct_completion_once_per_sweep(tmp_path, monkeypatch, backend):
    from ragner import pipeline

    ns = indexed_project(tmp_path)
    calls = []

    def counting_parse(completion, schema, query_text="", grounding="off"):
        calls.append((completion, schema, query_text, grounding))
        return parse_output(completion, schema, query_text, grounding)

    parse_output = pipeline.parse_output
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {
        "retriever.k": [1, 3], "retriever.mode": ["word-level", "sentence-level"],
        "eval.grounding": ["off", "strict"]}})
    out = tmp_path / "ablation.json"
    run(["-c", ns.cfg, *backend, "ablate", "--grid", grid, "--output", out])
    cached = out.read_bytes()
    monkeypatch.setattr(pipeline, "parse_output", counting_parse)
    run(["-c", ns.cfg, *backend, "ablate", "--grid", grid, "--output", out])

    cells = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert [c["error"] for c in cells] == [None] * 8
    assert len(calls) == len(set(calls)) < 8 * len(TEST)
    assert {grounding for *_, grounding in calls} == {"off", "strict"}
    assert out.read_bytes() == cached
    # the same sweep with every row parsed by its own call writes the same bytes
    monkeypatch.setattr(pipeline, "AblationLoads",
                        functools.partial(pipeline.AblationLoads, parse=parse_output))
    run(["-c", ns.cfg, *backend, "ablate", "--grid", grid, "--output", out])
    assert out.read_bytes() == cached


def test_ablate_runs_cells_grouped_by_store_and_writes_them_in_grid_order(tmp_path,
                                                                          monkeypatch):
    from ragner.retriever import ExampleStore

    ns = indexed_project(tmp_path)
    builds = []
    build = ExampleStore.build.__func__

    def counting_build(cls, *args, **kwargs):
        builds.append(1)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(ExampleStore, "build", classmethod(counting_build))
    axes = {"retriever.k": [1, 3], "retriever.store_words": ["entity-only", "all"]}
    grid = write_grid(tmp_path / "grid.yaml", {"axes": axes})
    out = tmp_path / "ablation.json"
    result = run(["-c", ns.cfg, *ECHO, "ablate", "--grid", grid, "--output", out])

    order = [{"retriever.k": k, "retriever.store_words": words}
             for k in (1, 3) for words in ("entity-only", "all")]
    cells = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert [c["axes"] for c in cells] == order
    assert [c["error"] for c in cells] == [None] * 4
    table = result.output.splitlines()[2:]
    assert [line.split()[:2] for line in table] == [[str(k), words] for k, words in
                                                    ((1, "entity-only"), (1, "all"),
                                                     (3, "entity-only"), (3, "all"))]
    # in grid order the store_words values alternate, and the memo would build twice
    assert builds == [1]
    telemetry = json.loads((tmp_path / "ablation_telemetry.json").read_text(encoding="utf-8"))
    assert [(c["store"], c["retrieval"]) for c in telemetry["cells"]] == [
        ("loaded", "searched"), ("built", "searched"), ("held", "shared"), ("held", "shared")]


def test_ablate_telemetry_tells_how_each_cell_got_its_store_and_retrieval(tmp_path):
    ns = indexed_project(tmp_path)  # retriever.k=3, a flat index, store.size=6
    cells = [{"retriever.k": 1}, {"retriever.k": 0}, {"retriever.k": 2},
             {"retriever.index_kind": "ivf", "retriever.nlist": 2},
             {"store.size": 5, "retriever.k": 1}, {"retriever.k": 1, "retriever.nprobe": 1}]
    grid = write_grid(tmp_path / "grid.yaml", {"cells": cells})
    out = tmp_path / "ablation.json"
    run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", out])
    telemetry = json.loads((tmp_path / "ablation_telemetry.json").read_text(encoding="utf-8"))
    notes = [{key: c.get(key) for key in ("store", "retrieval", "search_depth")}
             for c in telemetry["cells"]]
    assert [c["axes"] for c in telemetry["cells"]] == cells
    assert notes == [
        {"store": "loaded", "retrieval": "searched", "search_depth": 2},
        {"store": None, "retrieval": None, "search_depth": None},  # k=0 does not resolve
        {"store": "held", "retrieval": "shared", "search_depth": 2},
        {"store": "reindexed", "retrieval": "searched", "search_depth": 3},
        {"store": "built", "retrieval": "searched", "search_depth": 1},
        {"store": "held", "retrieval": "searched", "search_depth": 1},  # another nprobe
    ]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert all("store" not in c and "retrieval" not in c for c in doc["cells"])


# --- a store large enough for the float32 selection ------------------------------------


def float32_project(root: Path) -> SimpleNamespace:
    """A generated project whose word index (every non-stop word kept) has
    at least as many records as `retriever._FLOAT32_FROM` asks for: its
    `retrieve` and `predict` select in float32. Words repeat across
    sentences, so scores tie exactly."""
    rng = random.Random(31)
    schema = domain_schema("big", n_types=2)
    train = synth_sentences("big", 300, schema, rng)
    test = synth_sentences("big", 12, schema, rng, id_base=300)
    data = root / "data"
    data.mkdir()
    (data / "train.txt").write_text(render_bio(train), encoding="utf-8")
    (data / "test.txt").write_text(render_bio(test), encoding="utf-8")
    (data / "schema.json").write_text(json.dumps(
        [{"name": t.name, "definition": t.definition} for t in schema.types]), encoding="utf-8")
    write_embedding_file(train + test, data / "embeddings.jsonl", 16)
    doc = {
        "paths": {"corpus_train": "data/train.txt", "corpus_test": "data/test.txt",
                  "schema": "data/schema.json", "out_dir": "out"},
        "embedder": {"provider": "precomputed-file", "model_name": "test-hash", "dimension": 16,
                     "precomputed_path": "data/embeddings.jsonl"},
        "store": {"source_splits": ["train"]},
        "retriever": {"store_words": "all"},
        "generator": {"backend": "mock-echo-nearest"},
    }
    (root / "config.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    return SimpleNamespace(root=root, cfg="config.yaml", out=root / "out")


def brute_force_retrieve(store, queries, cfg) -> list[list[tuple[int, float]]]:
    """Word-level retrieval by brute force in float64: every query word
    against every word record by a fixed-order dot, the query's own
    records left out, its per_word_k best records by descending score then
    ascending record id, the best score per sentence, the k best sentences
    by descending score then ascending sentence id."""
    index = store.indexes["word-level"]
    out = []
    for query in queries:
        best: dict[int, float] = {}
        for vector in store.embedder.embed_words(query)[1]:
            scores = np.einsum("ij,ij->i", np.broadcast_to(vector, index.matrix.shape), index.matrix)
            allowed = np.flatnonzero(index.sentence_ids != query.id)
            for record in sorted(allowed.tolist(), key=lambda i: (-scores[i], i))[:cfg.k]:
                sid = int(index.sentence_ids[record])
                best[sid] = max(best.get(sid, -np.inf), float(scores[record]))
        out.append([(sid, best[sid]) for sid in sorted(best, key=lambda s: (-best[s], s))[:cfg.k]])
    return out


def test_retrieve_and_predict_over_a_store_that_selects_in_float32(tmp_path, monkeypatch):
    from ragner import pipeline, retriever, vector_index
    from ragner.corpus import read_sentences_jsonl
    from ragner.manifest import Digests
    from ragner.retriever import RetrievedExample

    ns = float32_project(tmp_path)
    monkeypatch.chdir(ns.root)
    copies = []
    monkeypatch.setattr(retriever, "Float32Copy", lambda matrix: copies.append(
        matrix.shape) or vector_index.Float32Copy(matrix))
    runs = []
    for _ in range(2):
        shutil.rmtree(ns.out, ignore_errors=True)
        run(["-c", ns.cfg, "ingest"])
        run(["-c", ns.cfg, "index"])
        store_part = read_sentences_jsonl(ns.out / "corpus" / "store.jsonl")[:40]
        write_sentences_jsonl(store_part + read_sentences_jsonl(ns.out / "corpus" / "test.jsonl"),
                              tmp_path / "queries.jsonl")
        copies.clear()
        run(["-c", ns.cfg, "retrieve", "--input", tmp_path / "queries.jsonl"])
        run(["-c", ns.cfg, "predict"])
        runs.append({p.relative_to(ns.out): p.read_bytes() for p in sorted(ns.out.rglob("*"))
                     if p.is_file() and not p.name.endswith("_telemetry.json")})
    assert [p for p in runs[0] if runs[0][p] != runs[1][p]] == [] and runs[0].keys() == runs[1].keys()

    cfg = load_config(ns.cfg)
    store = pipeline.load_store(cfg, Digests())
    assert len(store.indexes["word-level"]) >= retriever._FLOAT32_FROM
    assert len(copies) == 2  # one float32 search each for retrieve and predict
    queries = read_sentences_jsonl(tmp_path / "queries.jsonl")
    test = read_sentences_jsonl(ns.out / "corpus" / "test.jsonl")

    want = brute_force_retrieve(store, queries, cfg.retriever)
    got = [[(ex["sentence_id"], ex["score"]) for ex in row["examples"]]
           for row in read_jsonl(ns.out / "retrieval.jsonl")]
    assert [[sid for sid, _ in row] for row in got] == [[sid for sid, _ in row] for row in want]
    np.testing.assert_allclose([s for row in got for _, s in row],
                               [s for row in want for _, s in row], rtol=0, atol=1e-12)
    assert any(q.id in store.by_id for q in queries)  # self-exclusion had work to do

    oracle = [[RetrievedExample(sid, score) for sid, score in row]
              for row in brute_force_retrieve(store, test, cfg.retriever)]
    expected, _ = pipeline.predict_sentences(test, store, cfg, oracle)
    assert read_jsonl(ns.out / "predictions.jsonl") == [row.to_dict() for row in expected]
