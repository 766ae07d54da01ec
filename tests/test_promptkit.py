"""Prompt rendering and completion parsing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragner.config import PromptConfig
from ragner.corpus import EntitySchema, EntityType, NerOutput, gold_output
from ragner.errors import NoDictionaryFound
from ragner.promptkit import (
    DEFAULT_TASK_DESCRIPTION,
    DEFAULT_TEMPLATE_ID,
    PromptExample,
    PromptTemplate,
    build_prompt,
    parse_output,
    render_entity_definitions,
    render_example,
    render_output,
    resolve_prompt,
    resolve_template,
)

from helpers import product_schema, synth_domain


# --- templates ---------------------------------------------------------------


def test_default_template_resolves():
    text = resolve_template(DEFAULT_TEMPLATE_ID)
    for placeholder in ("{task_description}", "{entity_definitions}", "{examples}", "{query}"):
        assert placeholder in text


def test_unknown_template_id_raises():
    with pytest.raises(KeyError):
        resolve_template("no-such-template")


def test_template_file_overrides_builtin(tmp_path):
    path = tmp_path / "custom.txt"
    path.write_text(
        "{task_description}|{entity_definitions}|{examples}|Q:{query}", encoding="utf-8"
    )
    assert resolve_template("whatever", template_file=path).startswith("{task_description}|")


def test_template_file_missing_placeholder_raises(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("{task_description} {examples} {query}", encoding="utf-8")
    with pytest.raises(ValueError, match="entity_definitions"):
        resolve_template("broken", template_file=path)


# --- rendering ---------------------------------------------------------------


def test_render_output_dictionary_shape():
    out = NerOutput({"product": [], "time": ["tomorrow"]})
    assert render_output(out) == "{product:[], time:[tomorrow]}"


def test_render_output_multiple_values():
    out = NerOutput({"person": ["Obama", "Joe Biden"], "location": []})
    assert render_output(out) == "{person:[Obama, Joe Biden], location:[]}"


def test_render_atom_quotes_structural_characters():
    out = NerOutput({"person": ["O'Brien", "a,b", "x:y", "[z]", "( half"]})
    text = render_output(out)
    assert "'O\\'Brien'" in text
    assert "'a,b'" in text
    assert "'x:y'" in text
    assert "'[z]'" in text
    assert "'( half'" in text


def test_render_atom_quotes_untrimmed_values():
    assert render_output(NerOutput({"t": [" padded "]})) == "{t:[' padded ']}"


def test_render_example_layout():
    gold = NerOutput({"product": ["lamp"], "time": []})
    assert render_example("Buy a lamp", gold) == "Input: Buy a lamp\nOutput: {product:[lamp], time:[]}"


def test_render_entity_definitions_one_line_per_type():
    schema = product_schema()
    lines = render_entity_definitions(schema).splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("- product: ")
    assert lines[1].startswith("- time: ")


# --- build_prompt ------------------------------------------------------------


def _example(schema: EntitySchema, text: str, **entities) -> PromptExample:
    entries = {name: list(entities.get(name.replace(" ", "_"), [])) for name in schema.names}
    return PromptExample(text, NerOutput(entries))


def test_build_prompt_sections_in_order():
    schema = product_schema()
    ex1 = _example(schema, "I want a table", product=["table"])
    ex2 = _example(schema, "Ship it tomorrow", time=["tomorrow"])
    prompt = build_prompt(schema, [ex1, ex2], "Need a lamp today")

    expected = (
        f"{DEFAULT_TASK_DESCRIPTION}\n\n"
        f"Entity Definitions:\n{render_entity_definitions(schema)}\n\n"
        "Input Output Examples:\n"
        "Input: I want a table\nOutput: {product:[table], time:[]}\n\n"
        "Input: Ship it tomorrow\nOutput: {product:[], time:[tomorrow]}\n\n"
        "Input: Need a lamp today\nOutput: "
    )
    assert prompt.rendered == expected
    assert prompt.examples == [ex1, ex2] and prompt.schema == schema


def test_build_prompt_ends_ready_for_completion():
    schema = product_schema()
    prompt = build_prompt(schema, [], "anything")
    assert prompt.rendered.endswith("Input: anything\nOutput: ")


def test_nearest_example_defaults_to_last():
    schema = product_schema()
    ex1 = _example(schema, "first", product=["a"])
    ex2 = _example(schema, "second", time=["b"])
    prompt = build_prompt(schema, [ex1, ex2], "q")
    assert prompt.nearest_example is not None
    assert prompt.nearest_example.input_text == "second"


def test_nearest_example_none_without_examples():
    prompt = build_prompt(product_schema(), [], "q")
    assert prompt.nearest_example is None


def test_custom_template_text_is_used():
    schema = product_schema()
    template = "T={task_description}\nD={entity_definitions}\nE={examples}\nQ={query}>>"
    prompt = build_prompt(schema, [], "hello", PromptTemplate(template, "task"))
    assert prompt.rendered.startswith("T=task\n")
    assert prompt.rendered.endswith("Q=hello>>")


def test_resolve_prompt_reads_the_prompt_section(tmp_path):
    assert resolve_prompt(PromptConfig()) == PromptTemplate()
    path = tmp_path / "t.txt"
    path.write_text("{task_description}|{entity_definitions}|{examples}|{query}", encoding="utf-8")
    template = resolve_prompt(PromptConfig(template_file=str(path), task_description="Find."))
    assert template == PromptTemplate(path.read_text(encoding="utf-8"), "Find.")


# --- parsing -----------------------------------------------------------------


def test_parse_canonical_dictionary():
    out = parse_output("{product:[], time:[tomorrow]}", product_schema())
    assert out.entries == {"product": [], "time": ["tomorrow"]}
    assert out.unrecognized == {}
    assert out.dropped_ungrounded == 0


def test_parse_ignores_wrapper_text():
    completion = "Sure! Here are the entities:\n{product:[lamp], time:[]}\nHope that helps."
    out = parse_output(completion, product_schema())
    assert out.entries == {"product": ["lamp"], "time": []}


@pytest.mark.parametrize(
    "completion",
    [
        "{'product': ['lamp'], 'time': []}",
        '{"product": ["lamp"], "time": []}',
        "{product:[lamp], time:[]}",
        "{ product : [ lamp ] , time : [ ] }",
    ],
)
def test_parse_tolerates_quote_styles(completion):
    out = parse_output(completion, product_schema())
    assert out.entries == {"product": ["lamp"], "time": []}


def test_parse_folds_keys_to_schema():
    schema = EntitySchema(
        (
            EntityType("political party", "an organized political group"),
            EntityType("person", "a human being"),
        )
    )
    out = parse_output("{Political_Party:[Labour], PERSON:[Starmer]}", schema)
    assert out.entries == {"political party": ["Labour"], "person": ["Starmer"]}


def test_parse_collects_unrecognized_keys():
    out = parse_output("{product:[lamp], color:[red], time:[]}", product_schema())
    assert out.entries == {"product": ["lamp"], "time": []}
    assert out.unrecognized == {"color": ["red"]}


def test_parse_scalar_value_becomes_singleton():
    out = parse_output("{product: lamp, time: []}", product_schema())
    assert out.entries == {"product": ["lamp"], "time": []}


def test_parse_empty_scalar_words_mean_no_entities():
    for word in ("None", "null", "NIL", "n/a"):
        out = parse_output(f"{{product: {word}, time:[]}}", product_schema())
        assert out.entries == {"product": [], "time": []}


def test_parse_keeps_none_as_list_item():
    # only scalars are treated as "nothing"; list items survive verbatim
    out = parse_output("{product:[None], time:[]}", product_schema())
    assert out.entries == {"product": ["None"], "time": []}


def test_parse_survives_stray_apostrophe():
    out = parse_output("{person:[O'Brien]}", EntitySchema((EntityType("person", "a name"),)))
    assert out.entries == {"person": ["O'Brien"]}


def test_parse_missing_schema_keys_default_empty():
    out = parse_output("{time:[tomorrow]}", product_schema())
    assert out.entries == {"product": [], "time": ["tomorrow"]}


def test_parse_duplicate_keys_accumulate():
    out = parse_output("{product:[a], product:[b], time:[]}", product_schema())
    assert out.entries == {"product": ["a", "b"], "time": []}


def test_parse_no_dictionary_raises():
    with pytest.raises(NoDictionaryFound):
        parse_output("no entities found", product_schema())


def test_parse_unbalanced_braces_raise():
    with pytest.raises(NoDictionaryFound):
        parse_output("{product:[lamp], time:[", product_schema())


def test_parse_takes_first_balanced_region():
    out = parse_output("{product:[a], time:[]} and also {product:[b], time:[]}", product_schema())
    assert out.entries["product"] == ["a"]


def test_grounding_strict_drops_unsupported_values():
    query = "I want to buy a lamp from the store"
    out = parse_output(
        "{product:[lamp, chandelier], time:[yesterday]}",
        product_schema(),
        query_text=query,
        grounding="strict",
    )
    assert out.entries == {"product": ["lamp"], "time": []}
    assert out.dropped_ungrounded == 2


def test_grounding_is_case_insensitive():
    out = parse_output(
        "{product:[LAMP], time:[]}",
        product_schema(),
        query_text="a Lamp on the desk",
        grounding="strict",
    )
    assert out.entries["product"] == ["LAMP"]
    assert out.dropped_ungrounded == 0


# --- render -> parse round trip ----------------------------------------------


def assert_round_trip(output: NerOutput, schema: EntitySchema):
    parsed = parse_output(render_output(output), schema)
    assert parsed.entries == output.entries
    assert parsed.unrecognized == {}


def test_round_trip_hand_cases():
    schema = product_schema()
    cases = [
        {"product": [], "time": []},
        {"product": ["table"], "time": ["tomorrow", "next week"]},
        {"product": ["O'Brien's lamp", "a,b", "x: y"], "time": [" padded "]},
        {"product": ["None", "null"], "time": ["15-inch macbook"]},
        {"product": ["back\\slash", "brace{y}"], "time": ["(unbalanced"]},
    ]
    for entries in cases:
        assert_round_trip(NerOutput({k: list(v) for k, v in entries.items()}), schema)


def test_round_trip_synthesized_domain_gold():
    splits, schema = synth_domain("politics", seed=3)
    for split in splits.values():
        for sentence in split:
            assert_round_trip(gold_output(sentence, schema), schema)


_value = st.text(min_size=1, max_size=12).filter(lambda s: s.strip("\r\n") == s)


@settings(max_examples=200, deadline=None)
@given(
    product=st.lists(_value, max_size=4),
    time=st.lists(_value, max_size=4),
)
def test_round_trip_property(product, time):
    assert_round_trip(NerOutput({"product": product, "time": time}), product_schema())


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parser_is_total(completion):
    try:
        out = parse_output(completion, product_schema())
    except NoDictionaryFound:
        return
    assert set(out.entries) == {"product", "time"}
    for values in out.entries.values():
        assert all(isinstance(v, str) and v for v in values)
