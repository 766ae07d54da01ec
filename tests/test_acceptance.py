"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test records one PASS/FAIL ledger line; conftest echoes the ledger
in the terminal summary, so a full run ends with a ten-line scoreboard:

    pytest tests/test_acceptance.py -q

Criteria with a wall-clock budget measure and assert it themselves.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from conftest import ACCEPTANCE_LEDGER

from ragner.augment import build_finetune_dataset, write_finetune_jsonl
from ragner.cli import main
from ragner.config import AugmentConfig, RetrieverConfig
from ragner.corpus import (
    EntitySchema,
    EntitySpan,
    EntityType,
    LabeledSentence,
    NerOutput,
    gold_output,
)
from ragner.errors import NoDictionaryFound
from ragner.evaluation import PredictionRecord, score
from ragner.promptkit import parse_output, render_output
from ragner.retriever import ExampleStore, retrieve
from ragner.vector_index import default_nlist, flat_from_matrix, ivf_from_matrix

from helpers import (
    DOMAIN_SIZES,
    all_domain_sentences,
    fixture_embedder,
    fixture_query,
    fixture_store_sentences,
    hash_unit_vector,
    make_embedder,
    product_schema,
    synth_domain,
    write_embedding_file,
)


def _announce(number: int, label: str, verdict: str) -> None:
    line = f"[{number:2d}/10] {label:<58s} {verdict}"
    print(line, flush=True)
    ACCEPTANCE_LEDGER.append(line)


def criterion(number: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _announce(number, label, "FAIL")
                raise
            _announce(number, label, "PASS")

        return wrapper

    return deco


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def oracle_top_k(matrix: np.ndarray, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Brute force reference: per-row dots, ties broken by ascending id."""
    scored = [(float(np.dot(row, query)), i) for i, row in enumerate(matrix)]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(i, s) for s, i in scored[:k]]


# --- 1. retrieval exactness ---------------------------------------------------

@criterion(1, "flat top-k identical to the brute-force oracle")
def test_flat_search_matches_bruteforce_oracle():
    start = time.perf_counter()
    dims = [4, 64, 768]
    for case in range(50):
        rng = np.random.default_rng(1000 + case)
        dim = dims[case % 3]
        n = int(rng.integers(5, 2001))
        k = int(rng.integers(1, 21))
        matrix = unit_rows(rng.standard_normal((n, dim)))
        index = flat_from_matrix(matrix, np.arange(n))
        for _ in range(4):
            query = unit_rows(rng.standard_normal((1, dim)))[0]
            expected = oracle_top_k(matrix, query, k)
            hits = index.search(query, k)
            assert [h.record_id for h in hits] == [i for i, _ in expected]
            for hit, (_, score_) in zip(hits, expected):
                assert abs(hit.score - score_) < 1e-6
    assert time.perf_counter() - start < 60.0


# --- 2. IVF correctness -------------------------------------------------------

@criterion(2, "IVF full probe equals flat; recall@10 monotone in nprobe")
def test_ivf_full_probe_equals_flat_and_recall_is_monotone():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n, dim = 2048, 64
    matrix = unit_rows(rng.standard_normal((n, dim)))
    ids = np.arange(n)
    flat = flat_from_matrix(matrix, ids)
    nlist = default_nlist(n)
    ivf = ivf_from_matrix(matrix, ids, None, nlist=nlist, seed=5)
    queries = unit_rows(rng.standard_normal((100, dim)))

    truth = []
    for query in queries:
        reference = flat.search(query, 10)
        truth.append([h.record_id for h in reference])
        full = ivf.search(query, 10, nprobe=nlist)
        assert [h.record_id for h in full] == truth[-1]
        assert np.allclose(
            [h.score for h in full], [h.score for h in reference], atol=1e-12
        )

    nprobes = [1, 2, 4, 8, 16, 32, nlist]
    recalls = []
    for nprobe in nprobes:
        overlap = sum(
            len(set(truth[i]) & {h.record_id for h in ivf.search(q, 10, nprobe=nprobe)})
            for i, q in enumerate(queries)
        )
        recalls.append(overlap / (10 * len(queries)))
    assert all(a <= b for a, b in zip(recalls, recalls[1:])), recalls
    assert recalls[-1] == 1.0
    assert time.perf_counter() - start < 120.0


# --- 3. the word-vs-sentence retrieval contrast -------------------------------

@criterion(3, "word-level and sentence-level rank the contrast fixture apart")
def test_word_level_contrast_fixture(tmp_path):
    start = time.perf_counter()
    cfg = RetrieverConfig(k=2)
    store = ExampleStore.build(
        fixture_store_sentences(),
        product_schema(),
        fixture_embedder(tmp_path),
        cfg,
        modes=("word-level", "sentence-level"),
    )
    query = fixture_query()

    [word] = retrieve([query], store, cfg)
    [sent] = retrieve([query], store, replace(cfg, mode="sentence-level"))
    word_ids = [ex.sentence_id for ex in word]
    sent_ids = [ex.sentence_id for ex in sent]
    # word level surfaces the sentence sharing the entity word; sentence
    # level prefers the globally closer sentence embedding
    assert word_ids == [1, 0]
    assert sent_ids == [0, 1]
    assert time.perf_counter() - start < 1.0


# --- 4. pooling equivalence ----------------------------------------------------

def _pooling_store(rng: random.Random, n_sentences: int) -> list[LabeledSentence]:
    # each token occurs in exactly one sentence so no two scores can tie
    vocab = [f"tok{i}" for i in range(300)]
    rng.shuffle(vocab)
    sentences, cursor = [], 0
    for idx in range(n_sentences):
        n_words = rng.randint(3, 6)
        sentences.append(LabeledSentence(idx, vocab[cursor:cursor + n_words], []))
        cursor += n_words
    return sentences


def _pooling_oracle(store, query, cfg) -> list[tuple[int, float]]:
    """Exhaustive (query word x store word record) pooling reference."""
    embedder = store.embedder
    records = []
    for sentence in store.sentences:
        for vector in embedder.embed_words(sentence)[1]:
            records.append((sentence.id, vector))
    per_word_k = cfg.per_word_k if cfg.per_word_k is not None else cfg.k
    best: dict[int, float] = {}
    for qw in embedder.embed_words(query)[1]:
        sims = sorted(
            ((float(np.dot(qw, vec)), sid) for sid, vec in records),
            key=lambda t: (-t[0], t[1]),
        )
        for sim, sid in sims[:per_word_k]:
            if sid not in best or sim > best[sid]:
                best[sid] = sim
    ranked = sorted(best, key=lambda sid: (-best[sid], sid))[: cfg.k]
    return [(sid, best[sid]) for sid in ranked]


@criterion(4, "word-level pooling equals the exhaustive oracle")
def test_pooling_equivalence(tmp_path):
    start = time.perf_counter()
    for seed in range(20):
        rng = random.Random(seed)
        sentences = _pooling_store(rng, rng.randint(5, 30))
        query = LabeledSentence(500, rng.sample([f"tok{i}" for i in range(300, 400)], 4))
        embedder = make_embedder(
            sentences + [query], tmp_path, dim=8, name=f"emb{seed}.jsonl"
        )
        for k in (1, 3, 5):
            cfg = RetrieverConfig(k=k, store_words="all")
            store = ExampleStore.build(
                sentences, product_schema(), embedder, cfg, modes=("word-level",)
            )
            [got] = retrieve([query], store, cfg)
            expected = _pooling_oracle(store, query, cfg)
            assert [ex.sentence_id for ex in got] == [sid for sid, _ in expected]
            for ex, (_, score_) in zip(got, expected):
                assert abs(ex.score - score_) < 1e-9
    assert time.perf_counter() - start < 10.0


# --- 5. the oracle pipeline ----------------------------------------------------

def _write_domain_project(root: Path, domain: str, seed: int = 1) -> tuple[str, Path]:
    splits, schema = synth_domain(domain)
    data = root / "data"
    data.mkdir(parents=True)
    from ragner.corpus import write_sentences_jsonl

    for name, sentences in splits.items():
        write_sentences_jsonl(sentences, data / f"{name}.jsonl")
    (data / "schema.json").write_text(json.dumps(schema.to_json()), encoding="utf-8")
    write_embedding_file(all_domain_sentences(splits), data / "embeddings.jsonl", 8)

    out = root / "out"
    doc = {
        "seed": seed,
        "paths": {
            "corpus_train": str(data / "train.jsonl"),
            "corpus_dev": str(data / "dev.jsonl"),
            "corpus_test": str(data / "test.jsonl"),
            "schema": str(data / "schema.json"),
            "out_dir": str(out),
        },
        "embedder": {
            "provider": "precomputed-file",
            "model_name": "test-hash",
            "dimension": 8,
            "precomputed_path": str(data / "embeddings.jsonl"),
        },
        "retriever": {"k": 5},
        "generator": {"backend": "mock-gold", "parallelism": 4},
    }
    cfg_path = root / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(cfg_path), out


@criterion(5, "mock-gold pipeline reaches micro-F1 = 100.00 on every domain")
def test_oracle_pipeline_hits_perfect_f1(tmp_path):
    runner = CliRunner()
    for domain, (_, _, n_test) in DOMAIN_SIZES.items():
        domain_start = time.perf_counter()
        cfg_path, out = _write_domain_project(tmp_path / domain, domain)
        outputs = {}
        for command in ("ingest", "index", "predict", "evaluate"):
            result = runner.invoke(main, ["-c", cfg_path, command], catch_exceptions=False)
            assert result.exit_code == 0, f"{domain} {command}: {result.output}"
            outputs[command] = result.output

        lines = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == n_test
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["micro"]["precision"] == 1.0
        assert report["micro"]["recall"] == 1.0
        assert report["micro"]["f1"] == 1.0
        assert report["n_parse_failures"] == 0
        assert "F1=100.00" in outputs["evaluate"]
        assert time.perf_counter() - domain_start < 120.0


# --- 6. F1 arithmetic -----------------------------------------------------------

@criterion(6, "hand-computed F1 case plus additivity and permutation fuzz")
def test_f1_arithmetic():
    schema_names = ("person", "location")
    gold = NerOutput({"person": ["obama"], "location": []})
    pred = NerOutput({"person": ["obama", "biden"], "location": []})
    report = score([PredictionRecord(sentence_id=0, gold=gold, predicted=pred)])
    assert report.precision == 0.5
    assert report.recall == 1.0
    assert abs(report.f1 - 2.0 / 3.0) < 1e-4

    rng = random.Random(99)
    pool = ["ada", "bo", "cy", "dee", "ed"]

    def random_record(i: int) -> PredictionRecord:
        def entries():
            return NerOutput(
                {name: [rng.choice(pool) for _ in range(rng.randrange(3))]
                 for name in schema_names}
            )

        return PredictionRecord(
            sentence_id=i,
            gold=entries(),
            predicted=entries(),
            parse_failed=rng.random() < 0.1,
        )

    for _ in range(1000):
        records = [random_record(i) for i in range(rng.randrange(1, 8))]
        whole = score(records)
        cut = rng.randrange(len(records) + 1)
        left, right = score(records[:cut]), score(records[cut:])
        assert (whole.tp, whole.fp, whole.fn) == (
            left.tp + right.tp, left.fp + right.fp, left.fn + right.fn
        )
        shuffled = records[:]
        rng.shuffle(shuffled)
        again = score(shuffled)
        assert (again.tp, again.fp, again.fn, again.f1) == (
            whole.tp, whole.fp, whole.fn, whole.f1
        )
        assert 0.0 <= whole.f1 <= 1.0


# --- 7. the augmentation contract ----------------------------------------------

@criterion(7, "augmentation counts, key containment, uniformity, determinism")
def test_augmentation_contract(tmp_path):
    start = time.perf_counter()
    names = ("anchor", "breeze", "cobalt", "dune", "ember")
    schema = EntitySchema(tuple(EntityType(n, f"things called {n}") for n in names))
    rng = random.Random(4)
    vocab = [f"w{i}" for i in range(400)]

    def make(sid: int, entity_p: float) -> LabeledSentence:
        tokens = [rng.choice(vocab) for _ in range(4)]
        spans = []
        if rng.random() < entity_p:
            tokens[0] = f"e{rng.randrange(80)}"
            spans = [EntitySpan(rng.choice(names), 0, 1, tokens[0])]
        return LabeledSentence(sid, tokens, spans)

    store_sentences = [make(100_000 + i, 1.0) for i in range(12)]
    finetune = [make(i, 0.7) for i in range(10_000)]
    embedder = make_embedder(store_sentences + finetune, tmp_path, dim=4)
    retriever_cfg = RetrieverConfig(k=2)
    store = ExampleStore.build(
        store_sentences, schema, embedder, retriever_cfg, modes=("word-level",)
    )
    augment_cfg = AugmentConfig(dropout_fraction=0.3, shuffle_fraction=0.5, seed=12)

    records = list(build_finetune_dataset(finetune, store, augment_cfg, retriever_cfg))
    assert abs(len(records) - 13_000) <= 1

    for record in records:
        for name in names:
            if f"{name}:[" in record.completion:
                assert f"- {name}:" in record.prompt

    removals = [
        name
        for record in records
        if "dropout" in record.provenance.transforms
        for name in record.provenance.removed_types
    ]
    share = 1.0 / len(names)
    for name in names:
        assert abs(removals.count(name) / len(removals) - share) < 0.02, name

    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_finetune_jsonl(records, first)
    write_finetune_jsonl(
        build_finetune_dataset(finetune, store, augment_cfg, retriever_cfg), second
    )
    assert first.read_bytes() == second.read_bytes()
    assert time.perf_counter() - start < 60.0


# --- 8. prompt/parse robustness --------------------------------------------------

@criterion(8, "render->parse round-trips all gold; 100k-completion fuzz")
def test_render_parse_round_trip_and_fuzz():
    schema = None
    for domain in DOMAIN_SIZES:
        splits, schema = synth_domain(domain)
        for sentence in all_domain_sentences(splits):
            gold = gold_output(sentence, schema)
            assert parse_output(render_output(gold), schema).entries == gold.entries

    rng = random.Random(31)
    alphabet = "{}[]:,'\"\\ \naz09é✓"
    for _ in range(100_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        try:
            result = parse_output(text, schema)
        except NoDictionaryFound:
            continue
        assert set(result.entries) >= set(schema.names)


# --- 9. reporting shapes + the word-vs-sentence direction ------------------------

def _write_twin_project(root: Path) -> tuple[str, Path]:
    """Store/query twins sharing an entity word, with sentence embeddings
    deliberately pointing every query at the wrong twin."""
    names = ("critter", "artifact")
    n = 24
    store_sents = [
        LabeledSentence(
            i,
            [f"filler{i}a", f"ent{i:02d}", f"filler{i}b"],
            [EntitySpan(names[i % 2], 1, 2, f"ent{i:02d}")],
        )
        for i in range(n)
    ]
    queries = [
        LabeledSentence(
            1000 + i,
            [f"other{i}", f"ent{i:02d}"],
            [EntitySpan(names[i % 2], 1, 2, f"ent{i:02d}")],
        )
        for i in range(n)
    ]
    sentence_vectors = {
        queries[i].text: hash_unit_vector(f"sent::{store_sents[(i + 1) % n].text}", 8)
        for i in range(n)
    }

    data = root / "data"
    data.mkdir(parents=True)
    from ragner.corpus import write_sentences_jsonl

    write_sentences_jsonl(store_sents, data / "train.jsonl")
    write_sentences_jsonl(queries, data / "test.jsonl")
    schema = EntitySchema(tuple(EntityType(t, f"a {t}") for t in names))
    (data / "schema.json").write_text(json.dumps(schema.to_json()), encoding="utf-8")
    write_embedding_file(
        store_sents + queries, data / "embeddings.jsonl", 8,
        sentence_vectors=sentence_vectors,
    )

    out = root / "out"
    doc = {
        "seed": 5,
        "paths": {
            "corpus_train": str(data / "train.jsonl"),
            "corpus_test": str(data / "test.jsonl"),
            "schema": str(data / "schema.json"),
            "out_dir": str(out),
        },
        "embedder": {
            "provider": "precomputed-file",
            "model_name": "test-hash",
            "dimension": 8,
            "precomputed_path": str(data / "embeddings.jsonl"),
        },
        "store": {"source_splits": ["train"]},
        "retriever": {"k": 1},
        "generator": {"backend": "mock-echo-nearest"},
    }
    cfg_path = root / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(cfg_path), out


@criterion(9, "ablation tables have the report shape; word >= sentence F1")
def test_ablation_shapes_and_word_vs_sentence_direction(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert "reproduc" in readme.lower()
    assert "ablate" in readme and "endpoint" in readme

    runner = CliRunner()
    cfg_path, out = _write_twin_project(tmp_path)

    # k-sweep shape with the oracle backend: six rows, all ok, timed column
    grid = tmp_path / "k_grid.yaml"
    grid.write_text(
        yaml.safe_dump({"axes": {"retriever.k": [1, 3, 5, 10, 20, 30]}}), encoding="utf-8"
    )
    result = runner.invoke(
        main,
        ["-c", cfg_path, "-S", "generator.backend=mock-gold", "ablate", "--grid", str(grid)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    header = result.output.splitlines()[0].split()
    assert header == ["retriever.k", "P", "R", "F1", "median_latency_s", "status"]
    cells = json.loads((out / "ablation.json").read_text(encoding="utf-8"))["cells"]
    assert sorted(c["axes"]["retriever.k"] for c in cells) == [1, 3, 5, 10, 20, 30]
    assert all(c["error"] is None for c in cells)
    assert all(c["latency"]["count"] == 24 for c in cells)

    # retrieval-mode sweep with a generator that just echoes the nearest
    # example: F1 now measures retrieval quality directly
    grid.write_text(
        yaml.safe_dump({"axes": {"retriever.mode": ["word-level", "sentence-level"]}}),
        encoding="utf-8",
    )
    result = runner.invoke(main, ["-c", cfg_path, "ablate", "--grid", str(grid)],
                           catch_exceptions=False)
    assert result.exit_code == 0, result.output
    cells = json.loads((out / "ablation.json").read_text(encoding="utf-8"))["cells"]
    f1 = {c["axes"]["retriever.mode"]: c["report"]["micro"]["f1"] for c in cells}
    assert f1["word-level"] >= f1["sentence-level"]
    assert f1["word-level"] == 1.0
    assert f1["sentence-level"] < 1.0


# --- 10. index scaling sanity -----------------------------------------------------

@criterion(10, "IVF default nprobe at least 2x faster than flat at 1e5x768")
def test_index_scaling_sanity():
    rng = np.random.default_rng(3)
    n, dim = 100_000, 768
    matrix = unit_rows(rng.standard_normal((n, dim)))
    ids = np.arange(n)
    flat = flat_from_matrix(matrix, ids)
    # three k-means iterations: partition quality is irrelevant here,
    # only the probing arithmetic is under test
    ivf = ivf_from_matrix(matrix, ids, None, nlist=default_nlist(n), kmeans_iters=3, seed=0)
    queries = unit_rows(rng.standard_normal((100, dim)))

    def median_seconds(search) -> float:
        times = []
        for query in queries:
            t0 = time.perf_counter()
            search(query)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    flat_median = median_seconds(lambda q: flat.search(q, 10))
    ivf_median = median_seconds(lambda q: ivf.search(q, 10))
    assert flat_median < 1.0, flat_median
    assert ivf_median * 2 <= flat_median, (ivf_median, flat_median)
