"""Finetune dataset generation: dropout, shuffle, provenance, determinism."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from ragner.augment import (
    FinetuneRecord,
    build_finetune_dataset,
    drop_entity_types,
    shuffle_entity_types,
    write_finetune_jsonl,
)
from ragner.config import AugmentConfig, RetrieverConfig
from ragner.corpus import (
    EntitySchema,
    EntitySpan,
    EntityType,
    LabeledSentence,
    NerOutput,
    gold_output,
)
from ragner.errors import SchemaTooSmall
from ragner.retriever import ExampleStore

from helpers import (
    domain_schema,
    fixture_embedder,
    fixture_query,
    fixture_store_sentences,
    make_embedder,
    product_schema,
)


# --- config ------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dropout_fraction": -0.1},
        {"dropout_fraction": 1.5},
        {"shuffle_fraction": 2.0},
        {"min_removed": 0},
        {"min_removed": 3, "max_removed": 2},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        AugmentConfig(**kwargs)


def test_removal_bounds_default_to_all_but_one():
    cfg = AugmentConfig()
    assert cfg.removal_bounds(9) == (1, 8)
    assert cfg.removal_bounds(2) == (1, 1)


def test_removal_bounds_cap_at_schema_size():
    cfg = AugmentConfig(max_removed=50)
    assert cfg.removal_bounds(4) == (1, 3)


def test_removal_bounds_reject_tiny_schema():
    with pytest.raises(SchemaTooSmall):
        AugmentConfig().removal_bounds(1)
    with pytest.raises(SchemaTooSmall):
        AugmentConfig(min_removed=4).removal_bounds(4)


# --- dropout ------------------------------------------------------------------


def test_drop_entity_types_removes_from_schema_and_gold():
    schema = product_schema()
    sentence = LabeledSentence(1, ["lamp", "tomorrow"], [])
    gold = NerOutput({"product": ["lamp"], "time": ["tomorrow"]})
    cfg = AugmentConfig(min_removed=1, max_removed=1)
    reduced_schema, reduced_gold, removed = drop_entity_types(
        sentence, gold, schema, random.Random(0), cfg
    )
    assert len(removed) == 1
    kept = [n for n in schema.names if n not in removed]
    assert list(reduced_schema.names) == kept
    assert list(reduced_gold.entries) == kept
    for name in kept:
        assert reduced_gold.entries[name] == gold.entries[name]


def test_drop_entity_types_removed_is_sorted():
    schema = domain_schema("politics")
    gold = NerOutput({name: [] for name in schema.names})
    sentence = LabeledSentence(1, ["x"], [])
    for seed in range(20):
        _, _, removed = drop_entity_types(
            sentence, gold, schema, random.Random(seed), AugmentConfig()
        )
        assert list(removed) == sorted(removed)
        assert 1 <= len(removed) <= len(schema) - 1


def test_per_type_removal_is_uniform():
    schema = domain_schema("politics")  # 9 types
    gold = NerOutput({name: [] for name in schema.names})
    sentence = LabeledSentence(1, ["x"], [])
    cfg = AugmentConfig()
    counts: Counter = Counter()
    total = 0
    for i in range(10_000):
        _, _, removed = drop_entity_types(sentence, gold, schema, random.Random(i), cfg)
        counts.update(removed)
        total += len(removed)
    expected_share = 1 / len(schema)
    for name in schema.names:
        assert abs(counts[name] / total - expected_share) < 0.02


# --- shuffle ------------------------------------------------------------------


def test_shuffle_preserves_names_and_definitions():
    schema = domain_schema("politics")
    shuffled = shuffle_entity_types(schema, random.Random(5))
    assert sorted(shuffled.names) == sorted(schema.names)
    definitions = {t.name: t.definition for t in schema.types}
    for t in shuffled:
        assert definitions[t.name] == t.definition


def test_shuffle_two_types_is_a_fair_coin():
    schema = product_schema()
    flips = Counter(
        shuffle_entity_types(schema, random.Random(i)).names for i in range(10_000)
    )
    assert set(flips) == {("product", "time"), ("time", "product")}
    assert abs(flips[("product", "time")] / 10_000 - 0.5) < 0.02


def test_shuffle_six_types_covers_many_permutations():
    schema = domain_schema("science", n_types=6)
    seen = {shuffle_entity_types(schema, random.Random(i)).names for i in range(5000)}
    assert len(seen) > 650  # of 720 possible orders


# --- dataset construction --------------------------------------------------------


def build_corpus(tmp_path, n_finetune=10):
    """Fixture store (2 sentences) plus n synthetic finetune sentences."""
    store_sents = fixture_store_sentences()
    finetune = []
    for i in range(n_finetune):
        tokens = [f"item{i}", f"day{i}", "please"]
        spans = [
            EntitySpan("product", 0, 1, f"item{i}"),
            EntitySpan("time", 1, 2, f"day{i}"),
        ]
        finetune.append(LabeledSentence(200 + i, tokens, spans))
    embedder = make_embedder(
        store_sents + [fixture_query()] + finetune, tmp_path, dim=8, name="aug.jsonl"
    )
    store = ExampleStore.build(
        store_sents, product_schema(), embedder, RetrieverConfig(k=2)
    )
    return store, finetune


def records_list(store, sentences, cfg, **kwargs):
    return list(
        build_finetune_dataset(
            sentences, store, cfg, RetrieverConfig(k=2), **kwargs
        )
    )


def test_dataset_size_follows_dropout_fraction(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=10)
    records = records_list(store, finetune, AugmentConfig(dropout_fraction=0.3, seed=1))
    assert len(records) == 13
    duplicates = [r for r in records if "dropout" in r.provenance.transforms]
    assert len(duplicates) == 3


def test_dataset_size_edge_fractions(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=4)
    assert len(records_list(store, finetune, AugmentConfig(dropout_fraction=0.0))) == 4
    assert len(records_list(store, finetune, AugmentConfig(dropout_fraction=1.0))) == 8
    assert records_list(store, [], AugmentConfig()) == []


def test_records_come_in_sentence_order(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=6)
    records = records_list(store, finetune, AugmentConfig(dropout_fraction=0.5, seed=3))
    ids = [r.provenance.sentence_id for r in records]
    assert ids == sorted(ids)
    # a dropout duplicate directly follows its base record
    for i, r in enumerate(records):
        if "dropout" in r.provenance.transforms:
            assert records[i - 1].provenance.sentence_id == r.provenance.sentence_id


def completion_keys(record: FinetuneRecord) -> list[str]:
    body = record.completion.strip()[1:-1]
    return [part.split(":[", 1)[0].strip() for part in body.split("], ") if part]


def test_every_completion_key_is_defined_in_its_prompt(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=10)
    cfg = AugmentConfig(dropout_fraction=0.5, shuffle_fraction=0.5, seed=7)
    for record in records_list(store, finetune, cfg):
        for key in completion_keys(record):
            assert f"- {key}: " in record.prompt


def test_dropout_duplicate_loses_the_removed_type(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=10)
    cfg = AugmentConfig(dropout_fraction=1.0, shuffle_fraction=0.0, seed=2)
    records = records_list(store, finetune, cfg)
    schema = product_schema()
    for record in records:
        prov = record.provenance
        if "dropout" not in prov.transforms:
            assert completion_keys(record) == list(schema.names)
            continue
        assert len(prov.removed_types) == 1
        removed = prov.removed_types[0]
        kept = [n for n in schema.names if n != removed]
        assert completion_keys(record) == kept
        assert f"- {removed}: " not in record.prompt
        # the removed type's surface value is gone from the completion
        sentence_id = prov.sentence_id
        idx = sentence_id - 200
        gone_value = f"item{idx}" if removed == "product" else f"day{idx}"
        assert gone_value not in record.completion


def test_shuffle_reorders_prompt_definitions_and_completion(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=10)
    cfg = AugmentConfig(dropout_fraction=0.0, shuffle_fraction=1.0, seed=5)
    records = records_list(store, finetune, cfg)
    flipped = 0
    for record in records:
        prov = record.provenance
        assert prov.transforms == ("shuffle",)
        assert sorted(prov.permutation) == ["product", "time"]
        assert completion_keys(record) == list(prov.permutation)
        first, second = prov.permutation
        assert record.prompt.index(f"- {first}: ") < record.prompt.index(f"- {second}: ")
        if prov.permutation == ("time", "product"):
            flipped += 1
    assert 0 < flipped < 10  # both orders occur across sentences


def test_shuffle_and_dropout_compose_on_the_duplicate(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=10)
    cfg = AugmentConfig(dropout_fraction=1.0, shuffle_fraction=1.0, seed=11)
    records = records_list(store, finetune, cfg)
    bases = [r for r in records if r.provenance.transforms == ("shuffle",)]
    duplicates = [r for r in records if r.provenance.transforms == ("shuffle", "dropout")]
    assert len(bases) == len(duplicates) == 10
    for base, dup in zip(bases, duplicates):
        assert base.provenance.sentence_id == dup.provenance.sentence_id
        # the duplicate's key order is the shuffled order minus removed types
        expected = [n for n in base.provenance.permutation if n not in dup.provenance.removed_types]
        assert list(dup.provenance.permutation) == expected
        assert completion_keys(dup) == expected


def test_gold_values_survive_in_completion(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=5)
    records = records_list(store, finetune, AugmentConfig(dropout_fraction=0.0))
    schema = product_schema()
    for record, sentence in zip(records, finetune):
        gold = gold_output(sentence, schema)
        from ragner.promptkit import parse_output

        parsed = parse_output(record.completion, schema)
        assert parsed.entries == gold.entries


def test_examples_ordered_most_similar_last(tmp_path):
    store_sents = fixture_store_sentences()
    embedder = fixture_embedder(tmp_path)
    store = ExampleStore.build(
        store_sents, product_schema(), embedder, RetrieverConfig(k=2),
        modes=("word-level",),
    )
    records = records_list(store, [fixture_query()], AugmentConfig(dropout_fraction=0.0))
    [record] = records
    table_pos = record.prompt.index("Input: I want to buy a table from store")
    macbook_pos = record.prompt.index("Input: Show me a 15-inch macbook")
    assert table_pos < macbook_pos  # best match (macbook) sits next to the query


def test_regeneration_is_byte_identical(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=12)
    cfg = AugmentConfig(dropout_fraction=0.4, shuffle_fraction=0.6, seed=13)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    n1 = write_finetune_jsonl(records_list(store, finetune, cfg), first)
    n2 = write_finetune_jsonl(records_list(store, finetune, cfg), second)
    assert n1 == n2 == 12 + round(0.4 * 12)
    assert first.read_bytes() == second.read_bytes()


def test_different_seed_changes_the_subsets(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=12)
    base = AugmentConfig(dropout_fraction=0.4, shuffle_fraction=0.5, seed=0)
    other = AugmentConfig(dropout_fraction=0.4, shuffle_fraction=0.5, seed=999)

    def dropout_ids(cfg):
        return {
            r.provenance.sentence_id
            for r in records_list(store, finetune, cfg)
            if "dropout" in r.provenance.transforms
        }

    assert dropout_ids(base) != dropout_ids(other)


def test_failed_sentences_are_skipped_and_reported(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=3)
    # no precomputed embedding for this text: retrieval fails, others proceed
    broken = LabeledSentence(999, ["unembeddable", "mystery"], [])
    skipped: list[tuple[int, str]] = []
    records = records_list(
        store,
        [finetune[0], broken, finetune[1]],
        AugmentConfig(dropout_fraction=0.0),
        skipped=skipped,
    )
    assert [r.provenance.sentence_id for r in records] == [200, 201]
    assert len(skipped) == 1
    assert skipped[0][0] == 999


def test_duplicate_sentence_ids_rejected(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=2)
    twin = [finetune[0], finetune[0]]
    with pytest.raises(ValueError, match="unique"):
        records_list(store, twin, AugmentConfig())


def test_single_type_schema_rejected_for_dropout(tmp_path):
    schema = EntitySchema((EntityType("product", "a thing"),))
    sents = [
        LabeledSentence(0, ["alpha"], [EntitySpan("product", 0, 1, "alpha")]),
        LabeledSentence(1, ["beta"], [EntitySpan("product", 0, 1, "beta")]),
    ]
    embedder = make_embedder(sents, tmp_path, dim=4)
    store = ExampleStore.build(sents, schema, embedder, RetrieverConfig(k=1))
    with pytest.raises(SchemaTooSmall):
        records_list(store, [sents[0]], AugmentConfig(dropout_fraction=0.5))
    # without dropout the 1-type schema is fine
    records = records_list(store, [sents[0]], AugmentConfig(dropout_fraction=0.0))
    assert len(records) == 1


def test_write_finetune_jsonl_round_trips(tmp_path):
    store, finetune = build_corpus(tmp_path, n_finetune=4)
    records = records_list(
        store, finetune, AugmentConfig(dropout_fraction=0.5, shuffle_fraction=0.5, seed=3)
    )
    path = tmp_path / "out.jsonl"
    count = write_finetune_jsonl(records, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == count == len(records)
    for row, record in zip(rows, records):
        assert row["prompt"] == record.prompt
        assert row["completion"] == record.completion
        assert row["provenance"]["sentence_id"] == record.provenance.sentence_id
        assert set(row["provenance"]) == {
            "sentence_id", "transforms", "removed_types", "permutation",
        }
