"""Shared data model: BIO corpora, entity schemas, gold outputs, splits.

A corpus is a list of LabeledSentence objects parsed from BIO-tagged text.
An EntitySchema gives the ordered entity types (with natural-language
definitions) that drive prompt rendering and output key order. NerOutput is
the generation-task target: an ordered mapping from entity type to the
entity surface strings of that type.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import files
from .config import RunConfig
from .errors import (
    ConfigError,
    DuplicateTypeName,
    EmptyDefinition,
    FormatError,
    InvalidSpan,
    MalformedLine,
    StoreSizeTooLarge,
    UnknownSpanType,
)

_FOLD_RE = re.compile(r"[\s_]+")


def fold_type_name(name: str) -> str:
    """Canonical form for matching entity type names: lowercase, whitespace
    and underscores collapsed to single spaces."""
    return _FOLD_RE.sub(" ", name.strip().lower())


@dataclass(frozen=True)
class EntitySpan:
    """A typed contiguous token range [start, end) within one sentence."""

    entity_type: str
    start: int
    end: int
    surface: str


@dataclass
class LabeledSentence:
    """A tokenized sentence with non-overlapping typed entity spans."""

    id: int
    tokens: list[str]
    spans: list[EntitySpan] = field(default_factory=list)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def validate(self, schema: "EntitySchema") -> None:
        """Check span invariants and span types."""
        prev_end = 0
        for span in self.spans:
            if not (0 <= span.start < span.end <= len(self.tokens)):
                raise InvalidSpan(
                    f"sentence {self.id}: span {span} outside [0, {len(self.tokens)})"
                )
            if span.start < prev_end:
                raise InvalidSpan(f"sentence {self.id}: overlapping/unsorted span {span}")
            expected = " ".join(self.tokens[span.start:span.end])
            if span.surface != expected:
                raise InvalidSpan(
                    f"sentence {self.id}: span surface {span.surface!r} != {expected!r}"
                )
            if span.entity_type not in schema:
                raise UnknownSpanType(
                    f"sentence {self.id}: span type {span.entity_type!r} not in schema"
                )
            prev_end = span.end


@dataclass(frozen=True)
class EntityType:
    name: str
    definition: str


@dataclass(frozen=True)
class EntitySchema:
    """Ordered entity types; the order is the prompt order."""

    types: tuple[EntityType, ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen: dict[str, str] = {}
        for t in self.types:
            if not t.definition.strip():
                raise EmptyDefinition(f"entity type {t.name!r} has an empty definition")
            key = fold_type_name(t.name)
            if key in seen:
                raise DuplicateTypeName(f"{t.name!r} collides with {seen[key]!r}")
            seen[key] = t.name
        # once per schema: parsing and rendering ask for them per row
        object.__setattr__(self, "names", tuple(t.name for t in self.types))
        object.__setattr__(self, "_by_folded_name", seen)

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self) -> Iterator[EntityType]:
        return iter(self.types)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def canonical(self, raw: str) -> str | None:
        """Match a raw key to a schema type name, folding case/space/underscore."""
        return self._by_folded_name.get(fold_type_name(raw))

    def without(self, removed: Iterable[str]) -> "EntitySchema":
        """Schema with the given type names deleted, order preserved."""
        gone = set(removed)
        return EntitySchema(tuple(t for t in self.types if t.name not in gone))

    def reordered(self, names: Sequence[str]) -> "EntitySchema":
        """Schema permuted to the given name order, a permutation of its names."""
        by_name = {t.name: t for t in self.types}
        return EntitySchema(tuple(by_name[n] for n in names))

    def to_json(self) -> list[dict]:
        return [{"name": t.name, "definition": t.definition} for t in self.types]


@dataclass
class NerOutput:
    """Generation-task target: entity type -> ordered entity surface strings.

    `entries` keys are exactly the governing schema's type names, in schema
    order. `unrecognized` collects non-schema keys seen while parsing model
    output; `dropped_ungrounded` counts values discarded by strict grounding.
    """

    entries: dict[str, list[str]]
    unrecognized: dict[str, list[str]] = field(default_factory=dict)
    dropped_ungrounded: int = 0

    def restricted_to(self, schema: EntitySchema) -> "NerOutput":
        """Entries re-keyed to the given schema's types and order; types the
        output did not cover map to empty lists."""
        return NerOutput({n: list(self.entries.get(n, [])) for n in schema.names})


@dataclass
class CorpusSplit:
    """Store/finetune partition of a corpus, disjoint by sentence id."""

    store: list[LabeledSentence]
    finetune: list[LabeledSentence]


@dataclass
class ParseWarnings:
    """Tally of recoverable problems found while parsing a BIO document."""

    dangling_inside: int = 0


_TAG_RE = re.compile(r"^(O|[BI]-.+)$")


def parse_bio(text: str, warnings: ParseWarnings | None = None) -> list[LabeledSentence]:
    """Parse a BIO-tagged document into LabeledSentence objects.

    One `token<TAB-or-space>tag` pair per line, blank lines separate
    sentences, tags are O / B-X / I-X. An I-X with no open span of type X
    is recoverable: it is treated as B-X and counted in `warnings`.
    Sentence ids are assigned sequentially from 0.
    """
    if warnings is None:
        warnings = ParseWarnings()
    sentences: list[LabeledSentence] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush() -> None:
        if tokens:
            sid = len(sentences)
            sentences.append(LabeledSentence(sid, list(tokens), _spans_from_tags(tokens, tags)))
            tokens.clear()
            tags.clear()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        # tab is the primary delimiter so type names may contain spaces;
        # plain-space files work when their tags are space-free
        if "\t" in line:
            fields = [f.strip() for f in line.split("\t") if f.strip()]
        else:
            fields = line.split()
        if len(fields) != 2:
            raise MalformedLine(line_no, raw, reason=f"expected 2 fields, got {len(fields)}")
        token, tag = fields
        if not _TAG_RE.match(tag):
            raise MalformedLine(line_no, raw, reason=f"bad tag {tag!r}")
        if tag.startswith("I-"):
            open_type = tags[-1][2:] if tags and tags[-1] != "O" else None
            if open_type != tag[2:]:
                warnings.dangling_inside += 1
                tag = "B-" + tag[2:]
        tokens.append(token)
        tags.append(tag)
    flush()
    return sentences


def _spans_from_tags(tokens: list[str], tags: list[str]) -> list[EntitySpan]:
    spans: list[EntitySpan] = []
    start = None
    current = None

    def close(end: int) -> None:
        nonlocal start, current
        if current is not None:
            spans.append(EntitySpan(current, start, end, " ".join(tokens[start:end])))
        start = None
        current = None

    for i, tag in enumerate(tags):
        if tag == "O":
            close(i)
        elif tag.startswith("B-"):
            close(i)
            start, current = i, tag[2:]
        else:  # I-X extending the open span; parse_bio guarantees the type matches
            pass
    close(len(tags))
    return spans


def load_schema(path: str | Path) -> EntitySchema:
    """Load an EntitySchema from a JSON file.

    Accepts either a bare array of {name, definition} objects or an object
    with a `types` array; file order is the schema (and prompt) order.
    """
    doc = files.read_json(path)
    if isinstance(doc, dict):
        doc = doc.get("types")
    if not isinstance(doc, list):
        raise FormatError(f"schema file {path}: expected an array of types")
    types = []
    for item in doc:
        if not isinstance(item, dict) or "name" not in item or "definition" not in item:
            raise FormatError(f"schema file {path}: bad entry {item!r}")
        for field in ("name", "definition"):
            if not isinstance(item[field], str):
                raise FormatError(f"schema file {path}: {field} must be a string, "
                                  f"got {item[field]!r}")
        name = item["name"].strip()
        if not name:
            raise FormatError(f"schema file {path}: empty type name")
        types.append(EntityType(name, item["definition"].strip()))
    return EntitySchema(tuple(types))


def save_schema(schema: EntitySchema, path: str | Path) -> None:
    """Write the schema as `load_schema` reads it back."""
    files.write_json(path, schema.to_json(), indent=2)


def gold_output(sentence: LabeledSentence, schema: EntitySchema) -> NerOutput:
    """Gold NerOutput for a sentence: one key per schema type in schema
    order, values the surfaces of that type's spans in span order."""
    entries: dict[str, list[str]] = {name: [] for name in schema.names}
    for span in sentence.spans:
        if span.entity_type not in entries:
            raise UnknownSpanType(
                f"sentence {sentence.id}: span type {span.entity_type!r} not in schema"
            )
        entries[span.entity_type].append(span.surface)
    return NerOutput(entries)


def split_store_finetune(
    sentences: Sequence[LabeledSentence], store_size: int, seed: int
) -> CorpusSplit:
    """Uniformly random store subset of exactly `store_size` sentences;
    deterministic for a fixed seed. Both parts keep the input order."""
    n = len(sentences)
    if not 0 <= store_size <= n:
        raise StoreSizeTooLarge(f"store_size {store_size} out of range for {n} sentences")
    rng = random.Random(seed)
    chosen = set(rng.sample(range(n), store_size))
    store = [sentences[i] for i in range(n) if i in chosen]
    finetune = [sentences[i] for i in range(n) if i not in chosen]
    return CorpusSplit(store=store, finetune=finetune)


# --- JSON-lines persistence -------------------------------------------------

def sentence_to_dict(sentence: LabeledSentence) -> dict:
    return {
        "id": sentence.id,
        "tokens": sentence.tokens,
        "spans": [
            {"type": sp.entity_type, "start": sp.start, "end": sp.end, "surface": sp.surface}
            for sp in sentence.spans
        ],
    }


def _bad_record(doc, reason: str) -> FormatError:
    return FormatError(f"bad sentence record: {reason}: {doc!r}")


def sentence_from_dict(doc: dict) -> LabeledSentence:
    """Read one record in the `sentence_to_dict` shape; FormatError when a
    field is missing or has the wrong JSON type (a bool is no integer)."""
    if not isinstance(doc, dict) or not {"id", "tokens", "spans"} <= doc.keys():
        raise _bad_record(doc, "expected an object with id, tokens and spans")
    tokens = doc["tokens"]
    if type(doc["id"]) is not int:
        raise _bad_record(doc, "id must be an integer")
    if type(tokens) is not list:
        raise _bad_record(doc, "tokens must be a list of strings")
    try:
        " ".join(tokens).encode("utf-8")
    except TypeError:  # a token that is no string
        raise _bad_record(doc, "tokens must be a list of strings") from None
    except UnicodeEncodeError:  # a lone surrogate, which JSON escapes allow and no output can hold
        raise _bad_record(doc, "tokens must be valid Unicode") from None
    if type(doc["spans"]) is not list:
        raise _bad_record(doc, "spans must be a list")
    spans = []
    for sp in doc["spans"]:
        if not (isinstance(sp, dict) and type(sp.get("type")) is str
                and type(sp.get("surface")) is str
                and type(sp.get("start")) is int and type(sp.get("end")) is int):
            raise _bad_record(
                doc, "each span needs a string type and surface and integer start and end"
            )
        spans.append(EntitySpan(sp["type"], sp["start"], sp["end"], sp["surface"]))
    return LabeledSentence(doc["id"], list(tokens), spans)


def write_sentences_jsonl(sentences: Iterable[LabeledSentence], path: str | Path) -> None:
    files.write_jsonl(path, (sentence_to_dict(s) for s in sentences))


def read_sentences_jsonl(path: str | Path, unique_ids: bool = False) -> list[LabeledSentence]:
    """Read the records `write_sentences_jsonl` writes, one per line, as
    `files.read_jsonl` does; a record of another shape, or with `unique_ids` one
    whose id an earlier record has, raises FormatError naming path:line."""
    sentences, places = [], {}
    for where, doc in files.read_jsonl(path):
        try:
            sentence = sentence_from_dict(doc)
        except FormatError as exc:
            raise FormatError(f"{where}: {exc}") from exc
        if unique_ids:
            if sentence.id in places:
                raise FormatError(f"{where}: sentence id {sentence.id} repeats the one at "
                                  f"{places[sentence.id]}")
            places[sentence.id] = where
        sentences.append(sentence)
    return sentences


def load_split_file(path: str | Path, id_base: int = 0) -> tuple[list[LabeledSentence], ParseWarnings]:
    """Read one corpus file (BIO text or sentence JSONL), re-basing ids."""
    path = Path(path)
    warnings = ParseWarnings()
    if path.suffix == ".jsonl":
        sentences = read_sentences_jsonl(path)
    else:
        sentences = parse_bio(files.read_text(path), warnings)
    for i, s in enumerate(sentences):
        s.id = id_base + i
    return sentences, warnings


def load_corpus(
    cfg: RunConfig,
) -> tuple[dict[str, list[LabeledSentence]], EntitySchema, ParseWarnings]:
    """The configured schema and corpus files, with globally unique sentence
    ids and every span checked against the schema: what `ingest` persists
    and what each ablation cell runs on.

    Ids run on across splits (train, then dev, then test), so store records
    and incoming queries can never collide on id and self-exclusion in the
    retriever stays sound.
    """
    if not cfg.paths.schema:
        raise ConfigError("paths.schema is not configured")
    schema = load_schema(cfg.paths.schema)
    sources = (("train", cfg.paths.corpus_train), ("dev", cfg.paths.corpus_dev),
               ("test", cfg.paths.corpus_test))
    splits: dict[str, list[LabeledSentence]] = {}
    warnings = ParseWarnings()
    next_id = 0
    for name, path in sources:
        if path is None:
            continue
        sentences, w = load_split_file(path, id_base=next_id)
        warnings.dangling_inside += w.dangling_inside
        next_id += len(sentences)
        splits[name] = sentences
    if not splits:
        raise ConfigError("no corpus files configured under [paths]")
    for sentences in splits.values():
        for s in sentences:
            s.validate(schema)
    return splits, schema, warnings


def select_store_split(splits: dict[str, list[LabeledSentence]], cfg: RunConfig) -> CorpusSplit:
    """Assemble the store per [store]: concatenate source splits, then
    either sample store.size of them (rest becomes the finetune split) or
    take them all."""
    source: list[LabeledSentence] = []
    for name in cfg.store.source_splits:
        if name not in splits:
            raise ConfigError(f"store.source_splits names {name!r} but no such corpus file")
        source.extend(splits[name])
    if cfg.store.size is None:
        return CorpusSplit(store=source, finetune=[])
    return split_store_finetune(source, cfg.store.size, cfg.store.seed)
