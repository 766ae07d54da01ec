"""Prompt construction and robust parsing of model completions.

The prompt has four sections in fixed order: task description, entity
definitions, input/output examples, and the user query. The model is asked
to answer with a dictionary mapping every entity type to the list of entity
strings of that type, e.g. ``{product:[], time:[tomorrow]}``.

`parse_output` is total over arbitrary text: it either returns a
well-formed NerOutput or raises NoDictionaryFound, never anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import EntitySchema, LabeledSentence, NerOutput
from .errors import NoDictionaryFound, SchemaMismatch, TemplateError, UnknownTemplate

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
        try:
            text = Path(template_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise TemplateError(f"cannot read template file {template_file}: {exc}") from exc
    elif template_id in BUILTIN_TEMPLATES:
        text = BUILTIN_TEMPLATES[template_id]
    else:
        raise UnknownTemplate(f"unknown template id {template_id!r} and no template file given")
    missing = [p for p in _PLACEHOLDERS if p not in text]
    if missing:
        raise TemplateError(f"template {template_id!r} missing placeholders: {missing}")
    return text


@dataclass(frozen=True)
class PromptExample:
    """One in-prompt example: an input sentence and its gold output."""

    input_text: str
    output: NerOutput


@dataclass
class Prompt:
    """A fully rendered prompt plus the structured pieces it was built from."""

    task_description: str
    entity_definitions: str
    examples: list[PromptExample]
    user_query: str
    rendered: str
    schema: EntitySchema
    template_id: str
    nearest_index: int | None = None

    @property
    def nearest_example(self) -> PromptExample | None:
        """The in-prompt example most similar to the query, if any."""
        if not self.examples:
            return None
        idx = self.nearest_index if self.nearest_index is not None else len(self.examples) - 1
        return self.examples[idx]


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


def render_example(sentence: LabeledSentence | str, gold: NerOutput) -> str:
    """Render one in-prompt example as ``Input: ...\\nOutput: {...}``."""
    text = sentence if isinstance(sentence, str) else sentence.text
    return f"Input: {text}\nOutput: {render_output(gold)}"


def render_entity_definitions(schema: EntitySchema) -> str:
    return "\n".join(f"- {t.name}: {t.definition}" for t in schema)


def build_prompt(
    schema: EntitySchema,
    examples: list[tuple[LabeledSentence | str, NerOutput]],
    query_text: str,
    template_id: str = DEFAULT_TEMPLATE_ID,
    template_text: str | None = None,
    task_description: str = DEFAULT_TASK_DESCRIPTION,
    nearest_index: int | None = None,
) -> Prompt:
    """Deterministically render the four-section prompt.

    Examples are rendered in the order given; the caller chooses that order
    (the pipeline default puts the most similar example last, adjacent to
    the query). `nearest_index` records which example is the most similar;
    it defaults to the last one.
    """
    for _, output in examples:
        if tuple(output.entries.keys()) != schema.names:
            raise SchemaMismatch(
                f"example output keys {tuple(output.entries.keys())} != schema {schema.names}"
            )
    template = template_text if template_text is not None else resolve_template(template_id)
    prompt_examples = [
        PromptExample(s if isinstance(s, str) else s.text, out) for s, out in examples
    ]
    examples_block = "\n\n".join(render_example(ex.input_text, ex.output) for ex in prompt_examples)
    rendered = template.format(
        task_description=task_description,
        entity_definitions=render_entity_definitions(schema),
        examples=examples_block,
        query=query_text,
    )
    if nearest_index is None and prompt_examples:
        nearest_index = len(prompt_examples) - 1
    return Prompt(
        task_description=task_description,
        entity_definitions=render_entity_definitions(schema),
        examples=prompt_examples,
        user_query=query_text,
        rendered=rendered,
        schema=schema,
        template_id=template_id,
        nearest_index=nearest_index,
    )


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
    if grounding not in ("off", "strict"):
        raise ValueError(f"grounding must be 'off' or 'strict', got {grounding!r}")
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
