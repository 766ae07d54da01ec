"""Build the regularized finetuning dataset.

Each finetune-split sentence yields a plain (prompt, completion) record
whose prompt embeds k retrieved store examples. Two regularizing
transforms apply to seeded subsets of the sentences:

- entity-type shuffling permutes the schema order of a sentence's own
  record;
- entity-type dropout emits an additional duplicate record whose schema
  and gold output both lose a random selection of types.

A sentence selected for both gets a shuffled base record plus a duplicate
that composes shuffle and dropout; provenance records exactly what was
applied. Subsets are chosen by exact count (round(fraction * n)) from a
master RNG, and every per-sentence random draw comes from an RNG seeded
with seed ^ sentence_id, so the dataset is reproducible record-for-record
and safe to generate in parallel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import files
from .config import AugmentConfig, RetrieverConfig
from .corpus import EntitySchema, LabeledSentence, NerOutput
from .errors import RagnerError
from .promptkit import PromptExample, PromptTemplate, build_prompt, query_rows, render_output
from .retriever import ExampleStore, retrieve


@dataclass(frozen=True)
class Provenance:
    sentence_id: int
    transforms: tuple[str, ...]
    removed_types: tuple[str, ...] = ()
    permutation: tuple[str, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "sentence_id": self.sentence_id,
            "transforms": list(self.transforms),
            "removed_types": list(self.removed_types),
            "permutation": list(self.permutation) if self.permutation is not None else None,
        }


@dataclass(frozen=True)
class FinetuneRecord:
    prompt: str
    completion: str
    provenance: Provenance

    def to_dict(self) -> dict:
        return {
            "prompt": self.prompt,
            "completion": self.completion,
            "provenance": self.provenance.to_dict(),
        }


def drop_entity_types(
    gold: NerOutput,
    schema: EntitySchema,
    rng: random.Random,
    cfg: AugmentConfig,
) -> tuple[EntitySchema, NerOutput, tuple[str, ...]]:
    """Delete r uniformly chosen types from both schema and gold.

    r is uniform in [min_removed, max_removed]; deleted spans simply
    vanish (their words become untagged context).
    """
    lo, hi = cfg.removal_bounds(len(schema))
    r = rng.randint(lo, hi)
    removed = tuple(sorted(rng.sample(list(schema.names), r)))
    reduced_schema = schema.without(removed)
    return reduced_schema, gold.restricted_to(reduced_schema), removed


def shuffle_entity_types(schema: EntitySchema, rng: random.Random) -> EntitySchema:
    """Uniformly permute the schema order; gold key order follows it."""
    names = list(schema.names)
    rng.shuffle(names)
    return schema.reordered(names)


def _exact_count_subset(ids: list[int], fraction: float, rng: random.Random) -> set[int]:
    n_pick = int(round(fraction * len(ids)))
    return set(rng.sample(ids, n_pick))


def _sentence_rng(seed: int, sentence_id: int) -> random.Random:
    return random.Random(seed ^ sentence_id)


def build_finetune_dataset(
    sentences: list[LabeledSentence],
    store: ExampleStore,
    cfg: AugmentConfig,
    retriever_cfg: RetrieverConfig,
    template: PromptTemplate = PromptTemplate(),
    skipped: list[tuple[int, str]] | None = None,
) -> Iterator[FinetuneRecord]:
    """Yield FinetuneRecords for the finetune split, in sentence order.

    Each prompt is the one `predict` renders for the sentence, under the
    record's own schema. Output size is len(sentences) * (1 +
    dropout_fraction) within rounding. A sentence that `query_rows` fails,
    as `predict` fails its row, is logged, appended to `skipped` when
    given, and omitted. A dropout record refuses a schema too small for
    cfg's removal bounds (`ragner augment` checks them before it loads the
    store).
    """
    schema = store.schema
    ids = [s.id for s in sentences]
    master = random.Random(cfg.seed)
    dropout_ids = _exact_count_subset(ids, cfg.dropout_fraction, master)
    shuffle_ids = _exact_count_subset(ids, cfg.shuffle_fraction, master)

    retrieved = retrieve(sentences, store, retriever_cfg, pairs=False)
    for sentence, entry in zip(sentences, query_rows(sentences, retrieved, store)):
        if isinstance(entry, RagnerError):
            import logging  # here, so that a run that skips nothing never loads it
            logging.getLogger(__name__).warning("skipping sentence %d: %s", sentence.id, entry)
            if skipped is not None:
                skipped.append((sentence.id, str(entry)))
            continue
        example_gold, gold = entry
        rng = _sentence_rng(cfg.seed, sentence.id)
        base_schema = schema
        transforms: tuple[str, ...] = ()
        permutation: tuple[str, ...] | None = None
        if sentence.id in shuffle_ids:
            base_schema = shuffle_entity_types(schema, rng)
            transforms = ("shuffle",)
            permutation = base_schema.names

        yield _render_record(
            sentence, base_schema, example_gold, gold, transforms, (), permutation, template
        )

        if sentence.id in dropout_ids:
            reduced_schema, reduced_gold, removed = drop_entity_types(gold, base_schema, rng, cfg)
            yield _render_record(
                sentence, reduced_schema, example_gold, reduced_gold,
                transforms + ("dropout",), removed,
                reduced_schema.names if permutation is not None else None, template,
            )


def _render_record(
    sentence: LabeledSentence,
    schema: EntitySchema,
    example_gold: list[PromptExample],
    gold: NerOutput,
    transforms: tuple[str, ...],
    removed: tuple[str, ...],
    permutation: tuple[str, ...] | None,
    template: PromptTemplate,
) -> FinetuneRecord:
    # an example already keyed as `schema` is the store's own, rendered once per store
    examples = [ex if tuple(ex.output.entries) == schema.names
                else PromptExample(ex.input_text, ex.output.restricted_to(schema))
                for ex in example_gold]
    prompt = build_prompt(schema, examples, sentence.text, template)
    return FinetuneRecord(
        prompt=prompt.rendered,
        completion=render_output(gold.restricted_to(schema)),
        provenance=Provenance(sentence.id, transforms, removed, permutation),
    )


def write_finetune_jsonl(records: Iterable[FinetuneRecord], path: str | Path) -> int:
    """Write records as JSON lines; returns the record count."""
    return files.write_jsonl(path, (record.to_dict() for record in records))
