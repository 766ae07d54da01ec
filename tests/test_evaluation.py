"""Micro-F1 scoring, report formatting, and the ablation runner."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragner.corpus import EntitySchema, EntitySpan, EntityType, LabeledSentence, NerOutput
from ragner.config import EvalConfig
from ragner.errors import FormatError
from ragner.evaluation import (
    AblationCell,
    EvalReport,
    PredictionRecord,
    TypeCounts,
    ablation_to_dict,
    expand_grid,
    format_ablation,
    format_report,
    normalize_surface,
    report_to_dict,
    score,
    score_rows,
    to_multiset,
    write_report_json,
)


def rec(gold: dict, pred: dict, sentence_id: int = 0, **kwargs) -> PredictionRecord:
    return PredictionRecord(
        sentence_id, NerOutput(dict(gold)), NerOutput(dict(pred)), **kwargs
    )


# --- primitives -----------------------------------------------------------------


def test_normalize_surface_folds_case_and_whitespace():
    assert normalize_surface("  New\tYork  ") == "new york"
    assert normalize_surface("A  B\n C") == "a b c"
    assert normalize_surface("") == ""


def test_to_multiset_counts_duplicates():
    out = NerOutput({"person": ["Obama", "OBAMA", "Biden"], "location": []})
    assert to_multiset(out) == Counter(
        {("person", "obama"): 2, ("person", "biden"): 1}
    )


def test_to_multiset_dedupe_caps_counts():
    out = NerOutput({"person": ["Obama", "obama", "obama"]})
    assert to_multiset(out, dedupe=True) == Counter({("person", "obama"): 1})


def test_type_counts_zero_denominators():
    assert TypeCounts().precision == 0.0
    assert TypeCounts().recall == 0.0
    assert TypeCounts().f1 == 0.0
    assert TypeCounts(tp=0, fp=3).recall == 0.0
    assert TypeCounts(tp=0, fn=3).precision == 0.0


def test_type_counts_addition():
    total = TypeCounts(1, 2, 3) + TypeCounts(4, 5, 6)
    assert (total.tp, total.fp, total.fn) == (5, 7, 9)


# --- the hand-checked case --------------------------------------------------------


def test_obama_biden_hand_case():
    report = score([rec({"person": ["obama"]}, {"person": ["obama", "biden"]})])
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(1.0)
    assert report.f1 == pytest.approx(2 / 3, abs=1e-4)
    assert (report.tp, report.fp, report.fn) == (1, 1, 0)


def test_perfect_prediction_is_100():
    records = [
        rec({"person": ["Ada"], "location": ["Paris"]},
            {"person": ["Ada"], "location": ["Paris"]}),
        rec({"person": [], "location": ["Rome", "Oslo"]},
            {"person": [], "location": ["Rome", "Oslo"]}),
    ]
    report = score(records)
    assert report.f1 == 1.0
    assert report.fp == report.fn == 0
    assert report.n_sentences == 2


def test_empty_everything_scores_zero():
    report = score([rec({"person": []}, {"person": []})])
    assert (report.tp, report.fp, report.fn) == (0, 0, 0)
    assert report.f1 == 0.0


def test_score_empty_batch():
    report = score([])
    assert report.n_sentences == 0
    assert report.f1 == 0.0


def test_duplicate_surfaces_are_multiset_matched():
    report = score([rec({"person": ["x", "x"]}, {"person": ["x"]})])
    assert (report.tp, report.fp, report.fn) == (1, 0, 1)


def test_dedupe_collapses_repeats_on_both_sides():
    report = score([rec({"person": ["x", "x"]}, {"person": ["x", "x", "x"]})], dedupe=True)
    assert (report.tp, report.fp, report.fn) == (1, 0, 0)
    assert report.f1 == 1.0


def test_matching_folds_case_and_whitespace():
    report = score([rec({"person": ["New  York"]}, {"person": ["new york"]})])
    assert report.f1 == 1.0


def test_parse_failure_scores_all_false_negatives():
    record = rec(
        {"person": ["Ada", "Bob"]},
        {"person": ["Ada", "Bob"]},  # present but unusable
        parse_failed=True,
    )
    report = score([record])
    assert (report.tp, report.fp, report.fn) == (0, 0, 2)
    assert report.n_parse_failures == 1


def test_per_type_counts_sum_to_micro():
    records = [
        rec({"person": ["a"], "location": ["x", "y"]},
            {"person": ["a", "b"], "location": ["x"]}),
        rec({"person": [], "location": ["z"]},
            {"person": ["c"], "location": []}),
    ]
    report = score(records)
    total = TypeCounts()
    for counts in report.per_type.values():
        total = total + counts
    assert (report.tp, report.fp, report.fn) == (total.tp, total.fp, total.fn)
    assert sorted(report.per_type) == ["location", "person"]


# --- fuzzed algebraic properties ------------------------------------------------------


_words = st.sampled_from(["ada", "bob", "eve", "new york", "paris"])
_entry = st.lists(_words, max_size=3)


@st.composite
def _records(draw, max_records=6):
    n = draw(st.integers(0, max_records))
    out = []
    for i in range(n):
        gold = {"person": draw(_entry), "location": draw(_entry)}
        pred = {"person": draw(_entry), "location": draw(_entry)}
        failed = draw(st.booleans())
        out.append(rec(gold, pred, sentence_id=i, parse_failed=failed))
    return out


@settings(max_examples=150, deadline=None)
@given(_records(), _records())
def test_counts_are_additive_over_batches(a, b):
    merged = score(a + b)
    ra, rb = score(a), score(b)
    assert merged.tp == ra.tp + rb.tp
    assert merged.fp == ra.fp + rb.fp
    assert merged.fn == ra.fn + rb.fn
    for name in set(ra.per_type) | set(rb.per_type):
        got = merged.per_type.get(name, TypeCounts())
        want = ra.per_type.get(name, TypeCounts()) + rb.per_type.get(name, TypeCounts())
        assert (got.tp, got.fp, got.fn) == (want.tp, want.fp, want.fn)


@settings(max_examples=150, deadline=None)
@given(_records(), st.randoms(use_true_random=False))
def test_score_is_permutation_invariant(records, rnd):
    shuffled = list(records)
    rnd.shuffle(shuffled)
    assert score(shuffled) == score(records)


@settings(max_examples=150, deadline=None)
@given(_records())
def test_score_bounds_and_count_identities(records):
    report = score(records)
    for value in (report.precision, report.recall, report.f1):
        assert 0.0 <= value <= 1.0
    n_gold = sum(sum(len(v) for v in r.gold.entries.values()) for r in records)
    n_pred = sum(
        0 if r.parse_failed else sum(len(v) for v in r.predicted.entries.values())
        for r in records
    )
    assert report.tp + report.fn == n_gold
    assert report.tp + report.fp == n_pred


# --- positional mode ---------------------------------------------------------------


def _positional_record(tokens, spans, pred, sentence_id=0, **kwargs):
    sentence = LabeledSentence(sentence_id, list(tokens), list(spans))
    gold = {"t": [s.surface for s in spans]}
    return PredictionRecord(
        sentence_id, NerOutput(gold), NerOutput({"t": list(pred)}),
        sentence=sentence, **kwargs,
    )


def test_positional_matches_repeated_surfaces_in_order():
    record = _positional_record(
        ["x", "y", "x"],
        [EntitySpan("t", 0, 1, "x"), EntitySpan("t", 2, 3, "x")],
        pred=["x", "x"],
    )
    report = score([record], match_mode="positional")
    assert (report.tp, report.fp, report.fn) == (2, 0, 0)


def test_positional_disagrees_with_multiset_on_wrong_occurrence():
    record = _positional_record(
        ["x", "y", "x"],
        [EntitySpan("t", 2, 3, "x")],  # gold marks the second occurrence
        pred=["x"],  # prediction maps to the first
    )
    positional = score([record], match_mode="positional")
    assert (positional.tp, positional.fp, positional.fn) == (0, 1, 1)
    multiset = score([record], match_mode="multiset")
    assert (multiset.tp, multiset.fp, multiset.fn) == (1, 0, 0)


def test_positional_overflow_predictions_are_fp():
    record = _positional_record(
        ["x", "y", "x"],
        [EntitySpan("t", 0, 1, "x"), EntitySpan("t", 2, 3, "x")],
        pred=["x", "x", "x"],  # only two occurrences exist
    )
    report = score([record], match_mode="positional")
    assert (report.tp, report.fp, report.fn) == (2, 1, 0)


def test_positional_unfindable_value_is_fp():
    record = _positional_record(
        ["x", "y"], [EntitySpan("t", 0, 1, "x")], pred=["zebra"]
    )
    report = score([record], match_mode="positional")
    assert (report.tp, report.fp, report.fn) == (0, 1, 1)


def test_positional_parse_failure_drops_predictions():
    record = _positional_record(
        ["x"], [EntitySpan("t", 0, 1, "x")], pred=["x"], parse_failed=True
    )
    report = score([record], match_mode="positional")
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)


# --- reports --------------------------------------------------------------------


def test_score_rows_refuses_a_repeated_query_id():
    gold = {3: LabeledSentence(3, ["the", "gizmo"], [EntitySpan("gadget", 1, 2, "gizmo")])}
    schema = EntitySchema((EntityType("gadget", "a device"),))
    row = {"query_id": 3, "parsed": {"gadget": ["gizmo"]}, "parse_failed": False}
    report = score_rows([("p:1", row)], gold, schema, EvalConfig())
    assert (report.tp, report.n_sentences) == (1, 1)
    with pytest.raises(FormatError, match="^p:7: bad prediction row: query_id 3 repeats the row "
                                          "at p:1$"):
        score_rows([("p:1", row), ("p:7", row)], gold, schema, EvalConfig())


@pytest.mark.parametrize("match_mode", ["multiset", "positional"])
def test_score_rows_keys_gold_and_prediction_by_the_schema(match_mode):
    # a parsed type outside the schema is dropped and a missing one is empty,
    # so every record of a batch scores the schema's keys
    schema = EntitySchema((EntityType("gadget", "a device"), EntityType("time", "when")))
    gold = {3: LabeledSentence(3, ["the", "gizmo", "now"], [EntitySpan("gadget", 1, 2, "gizmo")]),
            4: LabeledSentence(4, ["at", "noon"], [EntitySpan("time", 1, 2, "noon")])}
    rows = [("p:1", {"query_id": 3, "parsed": {"gadget": ["gizmo"], "person": ["now"]}}),
            ("p:2", {"query_id": 4, "parsed": {}})]
    report = score_rows(rows, gold, schema, EvalConfig(match_mode=match_mode))
    assert (report.tp, report.fp, report.fn) == (1, 0, 1)
    assert list(report.per_type) == ["gadget", "time"]


def test_format_report_text():
    report = score([rec({"person": ["obama"]}, {"person": ["obama", "biden"]})])
    text = format_report(report, title="dev")
    assert "dev: 1 sentences, 0 parse failures" in text
    assert "P=50.00 R=100.00 F1=66.67" in text
    assert "person" in text


def test_report_to_dict_embeds_context():
    report = score([rec({"person": ["a"]}, {"person": ["a"]})])
    doc = report_to_dict(report, config_fingerprint="abc", seed=7)
    assert doc["micro"]["f1"] == 1.0
    assert doc["config_fingerprint"] == "abc"
    assert doc["seed"] == 7
    assert doc["per_type"]["person"]["tp"] == 1


def test_write_report_json_round_trips(tmp_path):
    report = score([rec({"person": ["a"]}, {"person": ["a"]})])
    path = tmp_path / "report.json"
    write_report_json(report, path, domain="politics")
    doc = json.loads(path.read_text())
    assert doc["domain"] == "politics"
    assert doc["micro"]["tp"] == 1


# --- ablation machinery ------------------------------------------------------------


def test_expand_grid_is_sorted_cartesian():
    grid = expand_grid({"b": [1, 2], "a": ["x", "y"]})
    assert grid == [
        {"a": "x", "b": 1},
        {"a": "x", "b": 2},
        {"a": "y", "b": 1},
        {"a": "y", "b": 2},
    ]
    assert expand_grid({}) == [{}]


def test_format_ablation_table():
    report = score([rec({"t": ["a"]}, {"t": ["a"]})])
    cells = [
        AblationCell(axes={"k": 1, "mode": "word-level"}, report=report,
                     latency={"median": 0.1234}),
        AblationCell(axes={"k": 5, "mode": "sentence-level"}, error="HttpError: down"),
    ]
    text = format_ablation(cells)
    lines = text.splitlines()
    assert lines[0].split() == ["k", "mode", "P", "R", "F1", "median_latency_s", "status"]
    assert "100.00" in lines[2]
    assert "0.1234" in lines[2]
    assert "failed: HttpError: down" in lines[3]
    assert lines[3].count("-") >= 3  # score columns are dashed out


def test_ablation_to_dict_shape():
    report = score([rec({"t": ["a"]}, {"t": ["a"]})])
    cells = [AblationCell(axes={"k": 1}, report=report, latency=None)]
    doc = ablation_to_dict(cells, config_fingerprint="xyz")
    assert doc["config_fingerprint"] == "xyz"
    [cell] = doc["cells"]
    assert cell["axes"] == {"k": 1}
    assert cell["report"]["micro"]["f1"] == 1.0
    assert cell["error"] is None
