"""Prompt construction and robust parsing of model completions.

The prompt has four sections in fixed order: task description, entity
definitions, input/output examples, and the user query. The model is asked
to answer with a dictionary mapping every entity type to the list of entity
strings of that type, e.g. ``{product:[], time:[tomorrow]}``.

`parse_output` is total over arbitrary text: it either returns a
well-formed NerOutput or raises NoDictionaryFound, never anything else.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from . import files
from .config import PromptConfig
from .corpus import EntitySchema, LabeledSentence, NerOutput, gold_output
from .errors import NoDictionaryFound, RagnerError, TemplateError, UnknownSpanType, UnknownTemplate

if TYPE_CHECKING:  # the retriever loads numpy; this module needs only its names
    from .retriever import ExampleStore

DEFAULT_TEMPLATE_ID = "default-v1"

DEFAULT_TASK_DESCRIPTION = (
    "You are a smart and intelligent Named Entity Recognition (NER) system. "
    "You will be provided with the definition of the entities to extract, the "
    "sentence from which to extract the entities and the format in which you "
    "are to display the output. Respond with a single dictionary that maps "
    "every listed entity type to the list of entities of that type found in "
    "the sentence; use an empty list for types with no entities."
)

_DEFAULT_TEMPLATE = """{task_description}

Entity Definitions:
{entity_definitions}

Input Output Examples:
{examples}

Input: {query}
Output: """

BUILTIN_TEMPLATES: dict[str, str] = {DEFAULT_TEMPLATE_ID: _DEFAULT_TEMPLATE}

_PLACEHOLDERS = ("{task_description}", "{entity_definitions}", "{examples}", "{query}")


def resolve_template(template_id: str, template_file: str | Path | None = None) -> str:
    """Look up a built-in template or read one from a file.

    Template files are plain text with the placeholders {task_description},
    {entity_definitions}, {examples} and {query}.
    """
    if template_file is not None:
        role = files.Role("template file", TemplateError, TemplateError)
        text = files.read_text(template_file, role)
    elif template_id in BUILTIN_TEMPLATES:
        text = BUILTIN_TEMPLATES[template_id]
    else:
        raise UnknownTemplate(f"unknown template id {template_id!r} and no template file given")
    missing = [p for p in _PLACEHOLDERS if p not in text]
    if missing:
        raise TemplateError(f"template {template_id!r} missing placeholders: {missing}")
    return text


class PromptTemplate(NamedTuple):
    """The [prompt] section resolved: the template text and the task
    description it is rendered with."""

    text: str = _DEFAULT_TEMPLATE
    task_description: str = DEFAULT_TASK_DESCRIPTION


def resolve_prompt(cfg: PromptConfig) -> PromptTemplate:
    """Resolve [prompt] once per command, so that a template that cannot be
    used fails the command before any row."""
    task_description = (
        cfg.task_description if cfg.task_description is not None else DEFAULT_TASK_DESCRIPTION
    )
    return PromptTemplate(resolve_template(cfg.template_id, cfg.template_file), task_description)


@dataclass(frozen=True)
class PromptExample:
    """One in-prompt example: an input sentence and its gold output."""

    input_text: str
    output: NerOutput

    @functools.cached_property
    def rendered(self) -> str:
        return render_example(self.input_text, self.output)


@dataclass
class Prompt:
    """A fully rendered prompt plus the structured pieces it was built from."""

    examples: list[PromptExample]
    rendered: str
    schema: EntitySchema

    @property
    def nearest_example(self) -> PromptExample | None:
        """The in-prompt example most similar to the query: the last one."""
        return self.examples[-1] if self.examples else None


# --- rendering --------------------------------------------------------------

_NEEDS_QUOTE = set(",:[]{}()'\"")


def _render_atom(value: str) -> str:
    # Plain words render bare (matching the documented output format); values
    # containing structural characters are single-quoted so parsing stays
    # unambiguous and the render->parse round trip is exact.
    if value and not (set(value) & _NEEDS_QUOTE) and value == value.strip():
        return value
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def render_output(output: NerOutput) -> str:
    """Render a NerOutput as the dictionary-shaped completion text."""
    parts = []
    for name, values in output.entries.items():
        items = ", ".join(_render_atom(v) for v in values)
        parts.append(f"{_render_atom(name)}:[{items}]")
    return "{" + ", ".join(parts) + "}"


def render_example(text: str, gold: NerOutput) -> str:
    """Render one in-prompt example as ``Input: ...\\nOutput: {...}``."""
    return f"Input: {text}\nOutput: {render_output(gold)}"


def render_entity_definitions(schema: EntitySchema) -> str:
    return "\n".join(f"- {t.name}: {t.definition}" for t in schema)


def query_rows(sentences: Sequence[LabeledSentence], entries: Sequence, store: ExampleStore
               ) -> Iterator[tuple[list[PromptExample], NerOutput] | RagnerError]:
    """`retrieve`'s entries (examples most similar first) for `sentences` as
    one value per sentence, in order: its in-prompt examples, most similar
    last, next to the query, each made and rendered once per store, and its
    gold output under the store's schema; or the RagnerError that failed
    it, retrieval's own or an --input span type outside the schema.
    `predict` fails the row of such a sentence and `augment` skips it."""
    made, schema = store.prompt_examples, store.schema
    for sentence, examples in zip(sentences, entries):
        if isinstance(examples, RagnerError):
            yield examples
            continue
        try:
            gold = gold_output(sentence, schema)
        except UnknownSpanType as exc:
            yield exc
            continue
        sids = [ex.sentence_id for ex in reversed(examples)]
        for sid in sids:
            if sid not in made:
                example = store.by_id[sid]
                made[sid] = PromptExample(example.text, gold_output(example, schema))
        yield [made[sid] for sid in sids], gold


def build_prompt(
    schema: EntitySchema,
    examples: list[PromptExample],
    query_text: str,
    template: PromptTemplate = PromptTemplate(),
) -> Prompt:
    """Deterministically render the four-section prompt.

    Examples are rendered in the order given, the most similar last (see
    `query_rows`); each output is keyed by `schema`, in its order.
    """
    examples_block = "\n\n".join(ex.rendered for ex in examples)
    rendered = template.text.format(
        task_description=template.task_description,
        entity_definitions=render_entity_definitions(schema),
        examples=examples_block,
        query=query_text,
    )
    return Prompt(examples=examples, rendered=rendered, schema=schema)


# --- parsing ----------------------------------------------------------------

def _scan_balanced(text: str, start: int, quote_aware: bool) -> int | None:
    """Index of the '}' closing the '{' at `start`, or None if unbalanced."""
    depth = 0
    in_str: str | None = None
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_str is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == in_str:
                in_str = None
            continue
        if quote_aware and ch in "'\"":
            in_str = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


def _first_balanced_region(text: str) -> str | None:
    # Quote-aware first, so properly escaped values containing braces are
    # honored; quote-unaware fallback rescues completions with stray
    # apostrophes (O'Brien) that would otherwise swallow the closer.
    for quote_aware in (True, False):
        start = text.find("{")
        while start != -1:
            end = _scan_balanced(text, start, quote_aware)
            if end is not None:
                return text[start + 1:end]
            start = text.find("{", start + 1)
    return None


def _read_quoted(body: str, i: int) -> tuple[str, int]:
    quote = body[i]
    i += 1
    out = []
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            out.append(body[i + 1])
            i += 2
            continue
        if ch == quote:
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    return "".join(out), i  # unterminated string: take what we have


def _read_bare(body: str, i: int, stops: str) -> tuple[str, int]:
    # Bare token until a stop character at bracket depth 0. Quotes inside a
    # bare token (O'Brien) are ordinary characters.
    depth = 0
    start = i
    while i < len(body):
        ch = body[i]
        if depth == 0 and ch in stops:
            break
        if ch in "[{(":
            depth += 1
        elif ch in ")}]" and depth > 0:
            depth -= 1
        i += 1
    return body[start:i].strip(), i


def _read_value_item(body: str, i: int, stops: str) -> tuple[str, int]:
    while i < len(body) and body[i].isspace():
        i += 1
    if i < len(body) and body[i] in "'\"":
        item, i = _read_quoted(body, i)
        # discard junk between a closing quote and the next delimiter
        while i < len(body) and body[i] not in stops:
            i += 1
        return item, i
    return _read_bare(body, i, stops)


def _read_list(body: str, i: int) -> tuple[list[str], int]:
    i += 1  # consume '['
    items: list[str] = []
    while i < len(body):
        while i < len(body) and (body[i].isspace() or body[i] == ","):
            i += 1
        if i >= len(body):
            break
        if body[i] == "]":
            return items, i + 1
        item, i = _read_value_item(body, i, stops=",]")
        if item:
            items.append(item)
    return items, i  # unterminated list


# Scalar values an LLM emits to mean "nothing here". Only scalars are
# filtered: a list item is always kept verbatim, so a genuine entity string
# such as "None" survives the render->parse round trip.
_EMPTY_SCALAR_WORDS = {"none", "null", "nil", "n/a"}


def _parse_pairs(body: str) -> list[tuple[str, list[str]]]:
    pairs: list[tuple[str, list[str]]] = []
    i = 0
    n = len(body)
    while i < n:
        while i < n and (body[i].isspace() or body[i] == ","):
            i += 1
        if i >= n:
            break
        if body[i] in "'\"":
            key, i = _read_quoted(body, i)
            while i < n and body[i] not in ":,":
                i += 1
        else:
            key, i = _read_bare(body, i, stops=":,")
        if i >= n or body[i] == ",":
            if key:
                pairs.append((key, []))  # key with no value
            i += 1
            continue
        i += 1  # consume ':'
        while i < n and body[i].isspace():
            i += 1
        if i < n and body[i] == "[":
            values, i = _read_list(body, i)
        else:
            scalar, i = _read_value_item(body, i, stops=",")
            if scalar.lower() in _EMPTY_SCALAR_WORDS:
                scalar = ""
            values = [scalar] if scalar else []
        pairs.append((key.strip(), values))
    return pairs


def parse_output(
    completion: str,
    schema: EntitySchema,
    query_text: str = "",
    grounding: str = "off",
) -> NerOutput:
    """Parse a model completion into a NerOutput.

    Extracts the first balanced ``{...}`` region (wrapper text before and
    after is ignored) and parses key/value pairs tolerating single, double
    or absent quotes. Keys are matched to the schema case-insensitively
    with whitespace/underscore folding; non-schema keys are kept in
    `unrecognized`. With grounding="strict", values that do not occur
    case-insensitively as a substring of `query_text` are dropped and
    counted in `dropped_ungrounded`.

    Raises NoDictionaryFound when the completion has no balanced braces.
    """
    body = _first_balanced_region(completion)
    if body is None:
        raise NoDictionaryFound("completion contains no balanced {...} region")
    entries: dict[str, list[str]] = {name: [] for name in schema.names}
    unrecognized: dict[str, list[str]] = {}
    dropped = 0
    query_folded = query_text.lower()
    for raw_key, raw_values in _parse_pairs(body):
        # bare tokens were stripped while reading; quoted values stay verbatim
        values = [v for v in raw_values if v]
        canon = schema.canonical(raw_key)
        if canon is None:
            if raw_key:
                unrecognized.setdefault(raw_key, []).extend(values)
            continue
        if grounding == "strict":
            kept = [v for v in values if v.lower() in query_folded]
            dropped += len(values) - len(kept)
            values = kept
        entries[canon].extend(values)
    return NerOutput(entries, unrecognized=unrecognized, dropped_ungrounded=dropped)
