"""Corpus parsing, schema loading, gold rendering and the store split."""

from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragner.corpus import (
    CorpusSplit,
    EntitySchema,
    EntitySpan,
    EntityType,
    LabeledSentence,
    ParseWarnings,
    gold_output,
    load_schema,
    load_split_file,
    parse_bio,
    read_sentences_jsonl,
    sentence_from_dict,
    sentence_to_dict,
    split_store_finetune,
    write_sentences_jsonl,
)
from ragner.errors import (
    DuplicateTypeName,
    EmptyDefinition,
    FormatError,
    MalformedLine,
    StoreSizeTooLarge,
    UnknownSpanType,
)

from helpers import bio_tags, domain_schema, render_bio, synth_domain


def test_parse_bio_single_span():
    """A B- tag opens a span; O closes it."""
    sentences = parse_bio("Obama B-person\nspoke O\n")
    assert len(sentences) == 1
    s = sentences[0]
    assert s.tokens == ["Obama", "spoke"]
    assert s.spans == [EntitySpan("person", 0, 1, "Obama")]


def test_parse_bio_empty_document():
    assert parse_bio("") == []


def test_parse_bio_multi_token_span_and_tabs():
    text = "New\tB-location\nYork\tI-location\nwins\tO\n"
    (s,) = parse_bio(text)
    assert s.spans == [EntitySpan("location", 0, 2, "New York")]


def test_parse_bio_blank_line_separates_sentences():
    sentences = parse_bio("a B-x\n\nb B-x\n\n\nc O\n")
    assert [s.id for s in sentences] == [0, 1, 2]
    assert [s.tokens for s in sentences] == [["a"], ["b"], ["c"]]


def test_parse_bio_malformed_line_field_count():
    with pytest.raises(MalformedLine) as exc:
        parse_bio("one two three\n")
    assert exc.value.line_no == 1


def test_parse_bio_malformed_tag():
    with pytest.raises(MalformedLine):
        parse_bio("word X-thing\n")


def test_parse_bio_dangling_inside_recovered_as_begin():
    """I-X after O (or a different type) starts a new span and is tallied."""
    warnings = ParseWarnings()
    (s,) = parse_bio("the O\nSeine I-river\nbanks O\n", warnings)
    assert s.spans == [EntitySpan("river", 1, 2, "Seine")]
    assert warnings.dangling_inside == 1

    warnings = ParseWarnings()
    (s2,) = parse_bio("Obama B-person\nParis I-location\n", warnings)
    assert [sp.entity_type for sp in s2.spans] == ["person", "location"]
    assert warnings.dangling_inside == 1


def test_parse_bio_politics_test_file_sentence_count():
    """A full-size politics test split renders and re-parses at 651."""
    splits, _ = synth_domain("politics")
    text = render_bio(splits["test"])
    assert len(parse_bio(text)) == 651


def test_bio_round_trip_structure():
    splits, _ = synth_domain("music")
    sample = splits["train"][:50]
    reparsed = parse_bio(render_bio(sample))
    for original, parsed in zip(sample, reparsed):
        assert parsed.tokens == original.tokens
        assert parsed.spans == original.spans


@st.composite
def bio_sentences(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    tokens = [f"t{i}" for i in range(n)]
    spans = []
    cursor = 0
    while cursor < n:
        if draw(st.booleans()):
            width = draw(st.integers(min_value=1, max_value=min(3, n - cursor)))
            kind = draw(st.sampled_from(["person", "location", "event"]))
            spans.append(
                EntitySpan(kind, cursor, cursor + width, " ".join(tokens[cursor: cursor + width]))
            )
            cursor += width
        else:
            cursor += 1
    return LabeledSentence(0, tokens, spans)


@settings(max_examples=200, deadline=None)
@given(st.lists(bio_sentences(), min_size=0, max_size=5))
def test_bio_round_trip_property(sentences):
    """render -> parse is the identity on structure for any valid sentence."""
    reparsed = parse_bio(render_bio(sentences))
    assert len(reparsed) == len(sentences)
    for original, parsed in zip(sentences, reparsed):
        assert parsed.tokens == original.tokens
        assert parsed.spans == original.spans


def test_bio_tags_reconstruction():
    s = LabeledSentence(0, ["New", "York", "wins"], [EntitySpan("location", 0, 2, "New York")])
    assert bio_tags(s) == ["B-location", "I-location", "O"]


def test_schema_load_ordered(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps([
        {"name": "person", "definition": "names of people"},
        {"name": "location", "definition": "places"},
    ]))
    schema = load_schema(path)
    assert schema.names == ("person", "location")
    assert [t.definition for t in schema.types] == ["names of people", "places"]


def test_schema_politics_nine_types(tmp_path):
    schema = domain_schema("politics")
    path = tmp_path / "politics.json"
    path.write_text(json.dumps({"types": schema.to_json()}))
    loaded = load_schema(path)
    assert len(loaded) == 9
    assert "politician" in loaded.names
    assert "political party" in loaded.names


def test_schema_duplicate_name_rejected(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps([
        {"name": "person", "definition": "a"},
        {"name": "Person", "definition": "b"},
    ]))
    with pytest.raises(DuplicateTypeName):
        load_schema(path)


def test_schema_empty_definition_rejected():
    with pytest.raises(EmptyDefinition):
        EntitySchema((EntityType("person", "  "),))


def test_schema_bad_file_shape(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('{"kinds": []}')
    with pytest.raises(FormatError):
        load_schema(path)


@pytest.mark.parametrize("entry, field", [
    ({"name": "person", "definition": None}, "definition"),
    ({"name": "person", "definition": ["a"]}, "definition"),
    ({"name": 7, "definition": "people"}, "name"),
    ({"name": ["person"], "definition": "people"}, "name"),
])
def test_schema_name_and_definition_must_be_strings(tmp_path, entry, field):
    # str() made them "None", "['a']" and "7" in every rendered prompt
    path = tmp_path / "schema.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(FormatError, match=re.escape(f"schema file {path}: {field} must be a string")):
        load_schema(path)


@pytest.mark.parametrize("content", [b"[" * 100_000 + b"]" * 100_000, b"[\xff]"])
def test_schema_that_cannot_be_decoded_is_a_format_error(tmp_path, content):
    path = tmp_path / "schema.json"
    path.write_bytes(content)
    with pytest.raises(FormatError, match="invalid JSON"):
        load_schema(path)


def test_schema_canonical_folds_case_space_underscore():
    schema = EntitySchema((EntityType("political party", "parties"),))
    assert schema.canonical("Political_Party") == "political party"
    assert schema.canonical("  POLITICAL   PARTY ") == "political party"
    assert schema.canonical("politician") is None


def test_gold_output_dictionary_shape():
    """Spans become {type: [surfaces]} with one key per schema type."""
    schema = EntitySchema((EntityType("product", "goods"), EntityType("time", "when")))
    s = LabeledSentence(
        0,
        ["Can", "i", "pick", "this", "up", "tomorrow"],
        [EntitySpan("time", 5, 6, "tomorrow")],
    )
    gold = gold_output(s, schema)
    assert gold.entries == {"product": [], "time": ["tomorrow"]}
    assert list(gold.entries) == ["product", "time"]


def test_gold_output_no_spans_all_empty():
    schema = EntitySchema((EntityType("person", "people"),))
    gold = gold_output(LabeledSentence(0, ["nothing", "here"]), schema)
    assert gold.entries == {"person": []}


def test_gold_output_preserves_span_order():
    schema = EntitySchema((EntityType("person", "people"),))
    s = LabeledSentence(
        0,
        ["Obama", "met", "Biden"],
        [EntitySpan("person", 0, 1, "Obama"), EntitySpan("person", 2, 3, "Biden")],
    )
    assert gold_output(s, schema).entries == {"person": ["Obama", "Biden"]}


def test_gold_output_unknown_type():
    schema = EntitySchema((EntityType("person", "people"),))
    s = LabeledSentence(0, ["Paris"], [EntitySpan("location", 0, 1, "Paris")])
    with pytest.raises(UnknownSpanType):
        gold_output(s, schema)


def test_split_store_finetune_paper_sizes():
    """14987 sentences minus a 500-example store leaves 14487 to finetune."""
    sentences = [LabeledSentence(i, ["tok"]) for i in range(14987)]
    split = split_store_finetune(sentences, 500, seed=3)
    assert len(split.store) == 500
    assert len(split.finetune) == 14487
    store_ids = {s.id for s in split.store}
    finetune_ids = {s.id for s in split.finetune}
    assert store_ids.isdisjoint(finetune_ids)
    assert len(store_ids | finetune_ids) == 14987


def test_split_store_finetune_zero_and_determinism():
    sentences = [LabeledSentence(i, ["tok"]) for i in range(20)]
    empty = split_store_finetune(sentences, 0, seed=1)
    assert empty.store == [] and len(empty.finetune) == 20
    a = split_store_finetune(sentences, 7, seed=42)
    b = split_store_finetune(sentences, 7, seed=42)
    assert [s.id for s in a.store] == [s.id for s in b.store]
    c = split_store_finetune(sentences, 7, seed=43)
    assert [s.id for s in a.store] != [s.id for s in c.store]


def test_split_store_finetune_too_large():
    with pytest.raises(StoreSizeTooLarge):
        split_store_finetune([LabeledSentence(0, ["a"])], 2, seed=0)


def test_sentence_jsonl_round_trip(tmp_path):
    splits, _ = synth_domain("ai")
    sample = splits["test"][:25]
    path = tmp_path / "sentences.jsonl"
    write_sentences_jsonl(sample, path)
    loaded = read_sentences_jsonl(path)
    assert loaded == sample


def test_sentence_dict_round_trip():
    s = LabeledSentence(7, ["New", "York"], [EntitySpan("location", 0, 2, "New York")])
    assert sentence_from_dict(sentence_to_dict(s)) == s


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**70, 2**70), st.lists(st.text(), max_size=6),
                          st.lists(st.tuples(st.text(), st.integers(), st.integers(), st.text()),
                                   max_size=3)),
                max_size=5))
def test_every_written_sentence_reads_back(tmp_path_factory, rows):
    sentences = [LabeledSentence(sid, tokens, [EntitySpan(*span) for span in spans])
                 for sid, tokens, spans in rows]
    path = tmp_path_factory.mktemp("jsonl") / "sentences.jsonl"
    write_sentences_jsonl(sentences, path)
    assert read_sentences_jsonl(path) == sentences


_RECORD = {"id": 3, "tokens": ["New", "York"],
           "spans": [{"type": "location", "start": 0, "end": 2, "surface": "New York"}]}


@pytest.mark.parametrize("field, value", [
    ("id", 1.0), ("id", False), ("id", "3"), ("id", None),
    ("tokens", "New York"), ("tokens", ["New", 7]), ("tokens", None),
    ("spans", {}), ("spans", [["location", 0, 2, "New York"]]), ("spans", None),
    ("type", None), ("start", "0"), ("start", 0.0), ("end", True), ("surface", ["New York"]),
])
def test_sentence_from_dict_rejects_a_field_of_the_wrong_type(field, value):
    doc = json.loads(json.dumps(_RECORD))
    if field in doc:
        doc[field] = value
    else:
        doc["spans"][0][field] = value
    with pytest.raises(FormatError, match="bad sentence record"):
        sentence_from_dict(doc)


@pytest.mark.parametrize("doc", [[], 3, "record", {"id": 3, "tokens": ["a"]},
                                 {**_RECORD, "spans": [None]}])
def test_sentence_from_dict_rejects_a_record_of_the_wrong_shape(doc):
    with pytest.raises(FormatError, match="bad sentence record"):
        sentence_from_dict(doc)


def test_bio_corpus_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "train.txt"
    path.write_bytes(b"caf\xe9\tO\n")
    with pytest.raises(FormatError, match="train.txt: not UTF-8"):
        load_split_file(path)


def test_validate_rejects_bad_surface():
    s = LabeledSentence(0, ["New", "York"], [EntitySpan("location", 0, 2, "New Jersey")])
    with pytest.raises(ValueError):
        s.validate(EntitySchema((EntityType("location", "places"),)))


def test_validate_rejects_overlap():
    s = LabeledSentence(
        0,
        ["a", "b", "c"],
        [EntitySpan("x", 0, 2, "a b"), EntitySpan("x", 1, 3, "b c")],
    )
    with pytest.raises(ValueError):
        s.validate(EntitySchema((EntityType("x", "a type"),)))
