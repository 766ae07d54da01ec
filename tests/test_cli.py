"""End-to-end CLI tests: the real command chain against files on disk.

A small two-type corpus project (BIO train/test, JSONL dev, precomputed
embeddings) is built once per module and driven through ingest -> index ->
retrieve -> augment -> predict -> evaluate -> ablate with click's
CliRunner. Tests that tamper with artifacts or need a different config
get their own throwaway project.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import ragner
from ragner.cli import main
from ragner.config import load_config
from ragner.corpus import EntitySpan, LabeledSentence, write_sentences_jsonl
from ragner.embedder import CACHE_ARRAYS, CACHE_TEXTS
from ragner.errors import ConfigError
from ragner.vector_index import load_index

from helpers import write_embedding_file

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


def test_evaluate_rejects_unknown_query_id(proj, tmp_path):
    rows = read_jsonl(proj.out / "predictions.jsonl")
    rows[0]["query_id"] = 999
    bad = tmp_path / "bad_predictions.jsonl"
    bad.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    result = run(["-c", proj.cfg, "evaluate", "--predictions", bad], expect=2)
    err = error_payload(result)
    assert err["error"] == "ConfigError"
    assert "prediction 999 has no gold sentence" in err["message"]


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
    ("store.modes=word-level", "ConfigError", "[store] config: modes must be a list of strings"),
    ("embedder.provider=bogus", "ConfigError", "[embedder] config: provider must be one of"),
    ("embedder.dimension=0", "ConfigError", "[embedder] config: dimension must be a positive"),
    ("store.size=abc", "ConfigError", "[store] config: size must be an integer or null"),
    ("retriever.nlist=abc", "ConfigError", "[retriever] config: nlist must be an integer or null"),
    ("retriever.nlist=true", "ConfigError", "[retriever] config: nlist must be an integer or null"),
    ("retriever.kmeans_iters=abc", "ConfigError", "[retriever] config: kmeans_iters must be an integer"),
    ("retriever.seed=abc", "ConfigError", "[retriever] config: seed must be an integer"),
    ("retriever.seed=18446744073709551616", "ConfigError",
     "[retriever] config: seed must fit in a signed 64-bit integer"),
    ("retriever.seed=-9223372036854775809", "ConfigError",
     "[retriever] config: seed must fit in a signed 64-bit integer"),
    ("retriever.exclude_self=abc", "ConfigError",
     "[retriever] config: exclude_self must be true or false, got 'abc'"),
    ("retriever.k=true", "ConfigError", "[retriever] config: k must be an integer, got True"),
    ("generator.max_tokens=abc", "ConfigError", "[generator] config: max_tokens must be an integer"),
    ("generator.timeout=abc", "ConfigError", "[generator] config: timeout must be a number"),
    ("generator.mock_delay=abc", "ConfigError", "[generator] config: mock_delay must be a number"),
    ("augment.seed=abc", "ConfigError", "[augment] config: seed must be an integer"),
    ("augment.dropout_fraction=true", "ConfigError",
     "[augment] config: dropout_fraction must be a number, got True"),
    ("store.seed=abc", "ConfigError", "[store] config: seed must be an integer"),
    ("eval.dedupe=abc", "ConfigError", "[eval] config: dedupe must be true or false"),
    ("paths.out_dir=null", "ConfigError", "[paths] config: out_dir must be a string, got None"),
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
    if field:
        *parents, last = field
        holder = record
        for key in parents:
            holder = holder[key]
        holder[last] = value
    else:
        record = value
    (fuzz_proj.data / "dev.jsonl").write_bytes(fuzz_proj.dev + json.dumps(record).encode() + b"\n")
    result = RUNNER.invoke(main, ["-c", fuzz_proj.cfg, "ingest"])
    # an exception that escapes the command, which would print a traceback, exits 1
    assert result.exit_code in (0, 2), (record, result.exception)
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


def test_ingest_requires_schema(tmp_path):
    ns = make_project(tmp_path, with_schema=False)
    err = error_payload(run(["-c", ns.cfg, "ingest"], expect=2))
    assert err["error"] == "ConfigError"
    assert "paths.schema is not configured" in err["message"]


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


def test_predict_needs_input_sentences(mini):
    err = error_payload(run(["-c", mini.cfg, "predict"], expect=2))
    assert err["error"] == "MissingArtifact"
    assert "no input sentences at" in err["message"]


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

    monkeypatch.setattr(pipeline, "open_precomputed_cache",
                        lambda store_dir: embedder_mod.load_precomputed(jsonl))
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


@pytest.mark.parametrize("axes, builds", [
    ({"retriever.k": [1, 3], "retriever.mode": ["word-level", "sentence-level"]}, 1),
    ({"retriever.index_kind": ["flat", "ivf"]}, 2),
])
def test_ablate_parses_once_and_builds_once_per_store(proj, tmp_path, monkeypatch, axes, builds):
    from ragner import pipeline
    from ragner.retriever import ExampleStore

    calls = {"parse": 0, "build": 0}
    parse = pipeline.load_precomputed
    build = ExampleStore.build.__func__

    def counting_parse(path):
        calls["parse"] += 1
        return parse(path)

    def counting_build(cls, *args, **kwargs):
        calls["build"] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(pipeline, "load_precomputed", counting_parse)
    monkeypatch.setattr(ExampleStore, "build", classmethod(counting_build))
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"axes": axes}), encoding="utf-8")
    out = tmp_path / "ablation.json"
    run(["-c", proj.cfg, "ablate", "--grid", grid, "--output", out])

    cells = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert all(c["error"] is None and c["report"]["micro"]["f1"] == 1.0 for c in cells)
    # the project is indexed: every cell's embedder opens the store's embedding cache
    assert calls == {"parse": 0, "build": builds}


@pytest.fixture
def parses(monkeypatch):
    """The paths `pipeline.load_precomputed` parses while the test runs."""
    from ragner import pipeline

    calls = []
    parse = pipeline.load_precomputed

    def counting_parse(path):
        calls.append(path)
        return parse(path)

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


@pytest.mark.parametrize("damage, message", [
    ("flip a byte", "index artifact changed since its manifest"),
    ("delete", "index artifact missing"),
])
def test_ablate_fails_every_cell_on_a_damaged_cache(tmp_path, parses, damage, message):
    ns = indexed_project(tmp_path)
    parses.clear()
    victim = ns.out / "store" / CACHE_ARRAYS["token_vectors"]
    if damage == "delete":
        victim.unlink()
    else:
        data = victim.read_bytes()
        victim.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    grid = write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1, 3]}})
    out = tmp_path / "ablation.json"
    result = run(["-c", ns.cfg, "ablate", "--grid", grid, "--output", out], expect=2)
    err = error_payload(result)
    assert err["error"] == "AblationFailed" and "no cell of 2 succeeded" in err["message"]
    cells = json.loads(out.read_text(encoding="utf-8"))["cells"]
    assert [c["error"].split(":")[0] for c in cells] == ["MissingArtifact"] * 2
    assert all(message in c["error"] and str(victim) in c["error"] for c in cells)
    assert parses == []


# --- what each command imports, and remote generation ---------------------------

HEAVY_MODULES = ("numpy", "requests", "urllib.request")
_PROBE = """
import json, sys
if sys.argv[1:]:
    from ragner.cli import main
    main.main(args=sys.argv[1:], prog_name="ragner", standalone_mode=False)
else:
    import ragner.cli
print(json.dumps([m for m in %r if m in sys.modules]))
""" % (HEAVY_MODULES,)


def heavy_modules_loaded(*args) -> list[str]:
    """Run one command in a fresh interpreter; the heavy modules it loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(ragner.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", _PROBE, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_import_only_what_they_use(tmp_path):
    ns = make_project(tmp_path)
    assert heavy_modules_loaded() == []
    assert heavy_modules_loaded("-c", ns.cfg, "ingest") == []
    run(["-c", ns.cfg, "index"])
    # mock generation over the embedding cache loads no HTTP machinery
    assert heavy_modules_loaded("-c", ns.cfg, "predict") == ["numpy"]
    assert heavy_modules_loaded("-c", ns.cfg, "evaluate") == []


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
