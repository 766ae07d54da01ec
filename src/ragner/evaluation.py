"""Micro-F1 scoring of NerOutput predictions against gold, plus the
ablation runner.

Matching is multiset-over-(type, normalized string): the generation format
is string-valued, so positions are gone by the time predictions exist. A
positional mode (first-unused-occurrence grounding back onto the token
sequence) is available for comparability with BIO-based scorers. Parse
failures are never skipped; they score all their gold items as false
negatives, because skipping would inflate F1 exactly where
instruction-following breaks down.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import LabeledSentence, NerOutput
from .errors import SchemaMismatch, SchemaMismatchAcrossRecords


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
        micro = TypeCounts()
        for counts in per_type.values():
            micro = micro + counts
        return cls(
            tp=micro.tp,
            fp=micro.fp,
            fn=micro.fn,
            precision=micro.precision,
            recall=micro.recall,
            f1=micro.f1,
            per_type=per_type,
            n_sentences=n_sentences,
            n_parse_failures=n_parse_failures,
        )


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
    if record.sentence is None:
        raise ValueError(
            f"positional scoring needs the sentence attached (record {record.sentence_id})"
        )
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
    if match_mode not in ("multiset", "positional"):
        raise ValueError(f"match_mode must be 'multiset' or 'positional', got {match_mode!r}")
    key_set: frozenset | None = None
    per_type: dict[str, TypeCounts] = {}
    n_parse_failures = 0
    for record in records:
        gold_keys = frozenset(record.gold.entries)
        pred_keys = frozenset(record.predicted.entries)
        if gold_keys != pred_keys:
            raise SchemaMismatch(
                f"record {record.sentence_id}: gold keys {sorted(gold_keys)} != "
                f"predicted keys {sorted(pred_keys)}"
            )
        if key_set is None:
            key_set = gold_keys
        elif gold_keys != key_set:
            raise SchemaMismatchAcrossRecords(
                f"record {record.sentence_id} uses keys {sorted(gold_keys)}, "
                f"batch started with {sorted(key_set)}"
            )
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


def report_to_dict(report: EvalReport, **context) -> dict:
    """JSON form; extra keyword context (fingerprint, seeds, ...) is embedded."""
    doc = {
        "micro": {
            "tp": report.tp,
            "fp": report.fp,
            "fn": report.fn,
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
        },
        "per_type": {
            name: {
                "tp": c.tp,
                "fp": c.fp,
                "fn": c.fn,
                "precision": c.precision,
                "recall": c.recall,
                "f1": c.f1,
            }
            for name, c in report.per_type.items()
        },
        "n_sentences": report.n_sentences,
        "n_parse_failures": report.n_parse_failures,
    }
    doc.update(context)
    return doc


def write_report_json(report: EvalReport, path, **context) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report, **context), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- ablation runner --------------------------------------------------------

@dataclass
class AblationCell:
    """One grid point: the axis values plus the outcome (or the error)."""

    axes: dict
    report: EvalReport | None = None
    latency: dict | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def expand_grid(axes: Mapping[str, Sequence]) -> list[dict]:
    """Cartesian product of axis values, axes in sorted-name order."""
    cells: list[dict] = [{}]
    for name in sorted(axes):
        cells = [{**cell, name: value} for cell in cells for value in axes[name]]
    return cells


def run_ablation(
    grid: Iterable[Mapping],
    runner: Callable[[Mapping], tuple[EvalReport, dict | None]],
) -> list[AblationCell]:
    """Evaluate one pipeline run per grid cell.

    `runner` maps a cell's axis overrides to (EvalReport, latency summary);
    a raising cell is recorded as failed instead of aborting the sweep.
    """
    cells: list[AblationCell] = []
    for axes in grid:
        cell = AblationCell(axes=dict(axes))
        try:
            report, latency = runner(axes)
            cell.report = report
            cell.latency = latency
        except Exception as exc:  # per-cell isolation, every cell must report
            cell.error = f"{type(exc).__name__}: {exc}"
        cells.append(cell)
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
