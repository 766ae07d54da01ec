"""Micro-F1 scoring of NerOutput predictions against gold, plus the
ablation grid, cells and table.

Matching is multiset-over-(type, normalized string): the generation format
is string-valued, so positions are gone by the time predictions exist. A
positional mode (first-unused-occurrence grounding back onto the token
sequence) is available for comparability with BIO-based scorers. Parse
failures are never skipped; they score all their gold items as false
negatives, because skipping would inflate F1 exactly where
instruction-following breaks down.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import files
from .config import EvalConfig
from .corpus import EntitySchema, LabeledSentence, NerOutput, gold_output
from .errors import ConfigError, FormatError


def normalize_surface(value: str) -> str:
    """Lowercase and collapse runs of whitespace."""
    return " ".join(value.lower().split())


def to_multiset(output: NerOutput, dedupe: bool = False) -> Counter:
    """(type, normalized string) -> occurrence count; dedupe caps counts at 1."""
    counts: Counter = Counter()
    for name, values in output.entries.items():
        for value in values:
            counts[(name, normalize_surface(value))] += 1
    if dedupe:
        return Counter(dict.fromkeys(counts, 1))
    return counts


@dataclass(frozen=True)
class TypeCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def __add__(self, other: "TypeCounts") -> "TypeCounts":
        return TypeCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    per_type: dict[str, TypeCounts]
    n_sentences: int
    n_parse_failures: int

    @classmethod
    def from_counts(
        cls, per_type: dict[str, TypeCounts], n_sentences: int, n_parse_failures: int
    ) -> "EvalReport":
        micro = sum(per_type.values(), TypeCounts())
        return cls(micro.tp, micro.fp, micro.fn, micro.precision, micro.recall, micro.f1,
                   per_type, n_sentences, n_parse_failures)


@dataclass(frozen=True)
class PredictionRecord:
    """One scored sentence; `sentence` is only needed for positional mode."""

    sentence_id: int
    gold: NerOutput
    predicted: NerOutput
    parse_failed: bool = False
    sentence: LabeledSentence | None = None


def _type_diff(gold: Counter, pred: Counter, per_type: dict[str, TypeCounts]) -> None:
    for key in gold | pred:
        name = key[0]
        g, p = gold[key], pred[key]
        tp = min(g, p)
        prev = per_type.get(name, TypeCounts())
        per_type[name] = prev + TypeCounts(tp=tp, fp=p - tp, fn=g - tp)


def _first_unused_span(
    tokens_folded: list[str], surface: str, used: set[tuple[int, int]]
) -> tuple[int, int] | None:
    words = normalize_surface(surface).split()
    if not words:
        return None
    width = len(words)
    for start in range(len(tokens_folded) - width + 1):
        if tokens_folded[start: start + width] == words and (start, start + width) not in used:
            return (start, start + width)
    return None


def _positional_multisets(record: PredictionRecord) -> tuple[Counter, Counter]:
    gold: Counter = Counter(
        (s.entity_type, s.start, s.end) for s in record.sentence.spans
    )
    tokens_folded = [normalize_surface(t) for t in record.sentence.tokens]
    pred: Counter = Counter()
    used: set[tuple[int, int]] = set()
    for name, values in record.predicted.entries.items():
        for value in values:
            span = _first_unused_span(tokens_folded, value, used)
            if span is None:
                # unmappable prediction: a unique non-position key, always fp
                pred[(name, -1, -len(pred) - 1)] += 1
            else:
                used.add(span)
                pred[(name, span[0], span[1])] += 1
    return gold, pred


def score(
    records: Sequence[PredictionRecord],
    dedupe: bool = False,
    match_mode: str = "multiset",
) -> EvalReport:
    """Micro F1 over pooled per-type counts.

    Per sentence: tp = sum over (type, string) of min(pred count, gold
    count); fp = predicted surplus; fn = gold surplus.
    """
    per_type: dict[str, TypeCounts] = {}
    n_parse_failures = 0
    for record in records:
        if match_mode == "positional":
            gold_ms, pred_ms = _positional_multisets(record)
            if record.parse_failed:
                pred_ms = Counter()
        else:
            gold_ms = to_multiset(record.gold, dedupe=dedupe)
            pred_ms = Counter() if record.parse_failed else to_multiset(
                record.predicted, dedupe=dedupe
            )
        if record.parse_failed:
            n_parse_failures += 1
        _type_diff(gold_ms, pred_ms, per_type)
    per_type = dict(sorted(per_type.items()))
    return EvalReport.from_counts(per_type, len(records), n_parse_failures)


def _is_entries(parsed) -> bool:
    return isinstance(parsed, dict) and all(
        type(values) is list and all(type(v) is str for v in values)
        for values in parsed.values()
    )


def _prediction_record(
    where: str, doc, gold: Mapping[int, LabeledSentence], schema: EntitySchema
) -> PredictionRecord:
    def bad(reason: str) -> FormatError:
        return FormatError(f"{where}: bad prediction row: {reason}")

    if not isinstance(doc, dict):
        raise bad("expected an object")
    query_id, parsed = doc.get("query_id"), doc.get("parsed")
    parse_failed = doc.get("parse_failed", False)
    if type(query_id) is not int:
        raise bad("query_id must be an integer")
    if parsed is not None and not _is_entries(parsed):
        raise bad("parsed must be null or map each type to a list of strings")
    if type(parse_failed) is not bool:
        raise bad("parse_failed must be true or false")
    sentence = gold.get(query_id)
    if sentence is None:
        raise ConfigError(f"{where}: prediction {query_id} has no gold sentence")
    return PredictionRecord(
        sentence_id=sentence.id,
        gold=gold_output(sentence, schema),
        predicted=NerOutput(parsed or {}).restricted_to(schema),
        parse_failed=parse_failed,
        sentence=sentence,
    )


def score_rows(
    rows: Iterable[tuple[str, object]],
    gold: Mapping[int, LabeledSentence],
    schema: EntitySchema,
    cfg: EvalConfig,
) -> EvalReport:
    """Score rows shaped like `predictions.jsonl` lines, each with the place
    it came from, against the gold sentences by id: what `evaluate` does to
    the file and each ablation cell to its rows.

    A row of another shape or with the query_id of an earlier row raises
    FormatError and a query_id with no gold sentence ConfigError, both
    naming the row's place.
    """
    records, places = [], {}
    for where, doc in rows:
        record = _prediction_record(where, doc, gold, schema)
        if record.sentence_id in places:
            raise FormatError(f"{where}: bad prediction row: query_id {record.sentence_id} "
                              f"repeats the row at {places[record.sentence_id]}")
        places[record.sentence_id] = where
        records.append(record)
    return score(records, dedupe=cfg.dedupe, match_mode=cfg.match_mode)


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def format_report(report: EvalReport, title: str = "evaluation") -> str:
    """Human-readable table; percentages carry two decimals."""
    lines = [
        f"{title}: {report.n_sentences} sentences, "
        f"{report.n_parse_failures} parse failures",
        f"micro: P={_pct(report.precision)} R={_pct(report.recall)} "
        f"F1={_pct(report.f1)} (tp={report.tp} fp={report.fp} fn={report.fn})",
    ]
    if report.per_type:
        width = max(len(name) for name in report.per_type)
        lines.append(f"{'type'.ljust(width)}  {'P':>6} {'R':>6} {'F1':>6} {'tp':>5} {'fp':>5} {'fn':>5}")
        for name, c in report.per_type.items():
            lines.append(
                f"{name.ljust(width)}  {_pct(c.precision):>6} {_pct(c.recall):>6} "
                f"{_pct(c.f1):>6} {c.tp:>5} {c.fp:>5} {c.fn:>5}"
            )
    return "\n".join(lines)


def _counts_dict(c: TypeCounts | EvalReport) -> dict:
    return {"tp": c.tp, "fp": c.fp, "fn": c.fn,
            "precision": c.precision, "recall": c.recall, "f1": c.f1}


def report_to_dict(report: EvalReport, **context) -> dict:
    """JSON form; extra keyword context (fingerprint, seeds, ...) is embedded."""
    return {
        "micro": _counts_dict(report),
        "per_type": {name: _counts_dict(c) for name, c in report.per_type.items()},
        "n_sentences": report.n_sentences,
        "n_parse_failures": report.n_parse_failures,
        **context,
    }


def write_report_json(report: EvalReport, path, **context) -> None:
    files.write_json(path, report_to_dict(report, **context), indent=2, sort_keys=True)


# --- ablation grid, cells and table ------------------------------------------

@dataclass
class AblationCell:
    """One grid point: the axis values plus the outcome (or the error)."""

    axes: dict
    report: EvalReport | None = None
    latency: dict | None = None
    error: str | None = None
    telemetry: dict = field(default_factory=dict)  # kept out of the hashed table

    @property
    def ok(self) -> bool:
        return self.error is None


def expand_grid(axes: Mapping[str, Sequence]) -> list[dict]:
    """Cartesian product of axis values, axes in sorted-name order."""
    cells: list[dict] = [{}]
    for name in sorted(axes):
        cells = [{**cell, name: value} for cell in cells for value in axes[name]]
    return cells


def format_ablation(cells: Sequence[AblationCell]) -> str:
    """Fixed-width table: one row per cell, axis columns then scores."""
    axis_names = sorted({name for cell in cells for name in cell.axes})
    header = axis_names + ["P", "R", "F1", "median_latency_s", "status"]
    rows = [header]
    for cell in cells:
        row = [str(cell.axes.get(name, "")) for name in axis_names]
        if cell.report is not None:
            row += [_pct(cell.report.precision), _pct(cell.report.recall), _pct(cell.report.f1)]
        else:
            row += ["-", "-", "-"]
        median = (cell.latency or {}).get("median")
        row.append(f"{median:.4f}" if isinstance(median, (int, float)) else "-")
        row.append("ok" if cell.ok else f"failed: {cell.error}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def ablation_to_dict(cells: Sequence[AblationCell], **context) -> dict:
    """The deterministic part of a sweep: of each cell's latency summary
    only the count stays, so that a rerun writes the same bytes."""
    doc = {
        "cells": [
            {
                "axes": cell.axes,
                "report": report_to_dict(cell.report) if cell.report else None,
                "latency": {"count": cell.latency["count"]} if cell.latency else None,
                "error": cell.error,
            }
            for cell in cells
        ]
    }
    doc.update(context)
    return doc
