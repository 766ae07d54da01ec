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

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .config import AugmentConfig, RetrieverConfig
from .corpus import EntitySchema, LabeledSentence, NerOutput, gold_output
from .errors import RagnerError
from .promptkit import DEFAULT_TASK_DESCRIPTION, DEFAULT_TEMPLATE_ID, build_prompt, render_output
from .retriever import ExampleStore, retrieve

logger = logging.getLogger(__name__)


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
    sentence: LabeledSentence,
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
    schema: EntitySchema | None = None,
    template_id: str = DEFAULT_TEMPLATE_ID,
    template_text: str | None = None,
    task_description: str = DEFAULT_TASK_DESCRIPTION,
    skipped: list[tuple[int, str]] | None = None,
) -> Iterator[FinetuneRecord]:
    """Yield FinetuneRecords for the finetune split, in sentence order.

    Output size is len(sentences) * (1 + dropout_fraction) within
    rounding. Sentences whose retrieval or rendering fails are logged,
    appended to `skipped` when given, and omitted.
    """
    schema = schema if schema is not None else store.schema
    if cfg.dropout_fraction > 0:
        cfg.removal_bounds(len(schema))  # fail fast on 1-type schemas
    ids = [s.id for s in sentences]
    if len(set(ids)) != len(ids):
        raise ValueError("finetune sentences must have unique ids")
    master = random.Random(cfg.seed)
    dropout_ids = _exact_count_subset(ids, cfg.dropout_fraction, master)
    shuffle_ids = _exact_count_subset(ids, cfg.shuffle_fraction, master)

    for sentence, examples in zip(sentences, retrieve(sentences, store, retriever_cfg)):
        rng = _sentence_rng(cfg.seed, sentence.id)
        try:
            if isinstance(examples, RagnerError):
                raise examples
            example_gold = [
                (store.by_id[ex.sentence_id], gold_output(store.by_id[ex.sentence_id], schema))
                for ex in reversed(examples)  # most similar example last, next to the query
            ]
            gold = gold_output(sentence, schema)
        except RagnerError as exc:
            logger.warning("skipping sentence %d: %s", sentence.id, exc)
            if skipped is not None:
                skipped.append((sentence.id, str(exc)))
            continue

        base_schema = schema
        transforms: tuple[str, ...] = ()
        permutation: tuple[str, ...] | None = None
        if sentence.id in shuffle_ids:
            base_schema = shuffle_entity_types(schema, rng)
            transforms = ("shuffle",)
            permutation = base_schema.names

        yield _render_record(
            sentence, base_schema, example_gold, gold, transforms, (), permutation,
            template_id, template_text, task_description,
        )

        if sentence.id in dropout_ids:
            reduced_schema, reduced_gold, removed = drop_entity_types(
                sentence, gold, base_schema, rng, cfg
            )
            yield _render_record(
                sentence, reduced_schema, example_gold, reduced_gold,
                transforms + ("dropout",), removed,
                reduced_schema.names if permutation is not None else None,
                template_id, template_text, task_description,
            )


def _render_record(
    sentence: LabeledSentence,
    schema: EntitySchema,
    example_gold: list[tuple[LabeledSentence, NerOutput]],
    gold: NerOutput,
    transforms: tuple[str, ...],
    removed: tuple[str, ...],
    permutation: tuple[str, ...] | None,
    template_id: str,
    template_text: str | None,
    task_description: str,
) -> FinetuneRecord:
    examples = [(s, out.restricted_to(schema)) for s, out in example_gold]
    prompt = build_prompt(
        schema,
        examples,
        sentence.text,
        template_id=template_id,
        template_text=template_text,
        task_description=task_description,
    )
    return FinetuneRecord(
        prompt=prompt.rendered,
        completion=render_output(gold.restricted_to(schema)),
        provenance=Provenance(sentence.id, transforms, removed, permutation),
    )


def write_finetune_jsonl(records: Iterable[FinetuneRecord], path: str | Path) -> int:
    """Write records as JSON lines; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")
            count += 1
    return count
