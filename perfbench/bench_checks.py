"""Output checks, computed apart from the program.

Expected values come from the generated corpora and vectors
(`bench_inputs.build_workload`), never from a stored copy of earlier
output:

- mock-gold is an oracle backend, so every prediction parses to exactly
  the sentence's gold entities and the report reads P = R = F1 = 1.0;
- augment writes n + round(0.3 n) records whose completions name exactly
  the gold entities minus the types their provenance says were removed;
- `ragner retrieve` agrees with a brute-force numpy retrieval oracle.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from bench_inputs import Corpus

HASHED_ARTIFACTS = ("predictions.jsonl", "report.json", "finetune_dataset.jsonl")
DROPOUT_FRACTION = 0.3  # AugmentConfig default, left unset in the configs
SCORE_TIE = 1e-9
_PAIR_RE = re.compile(r"\s*([^:\[\]{},]+):\[([^\]]*)\]\s*,?")


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_completion(text: str) -> list[tuple[str, list[str]]]:
    """Ordered (type, surfaces) pairs of a dictionary-shaped completion.

    Enough for the generated corpora, whose type names and surfaces hold
    no structural characters.
    """
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a dictionary: {text!r}")
    body = text[1:-1]
    pairs, pos = [], 0
    while pos < len(body):
        m = _PAIR_RE.match(body, pos)
        if m is None:
            raise ValueError(f"cannot parse {body[pos:]!r}")
        items = m.group(2).strip()
        pairs.append((m.group(1).strip(), items.split(", ") if items else []))
        pos = m.end()
    return pairs


def check_predict_chain(corpus: Corpus, out: Path) -> tuple[list[str], int]:
    """Predictions and report of one corpus; returns (errors, failed rows)."""
    errors: list[str] = []
    test = corpus.splits["test"]
    gold = {s.id: s.gold(corpus.types) for s in test}
    rows = _read_jsonl(out / "predictions.jsonl")
    failed_rows = sum(1 for r in rows if r.get("error") or r.get("parse_failed"))
    if len(rows) != len(test) or {r["query_id"] for r in rows} != set(gold):
        errors.append(f"{corpus.name}: {len(rows)} prediction rows for {len(test)} test sentences")
    for r in rows:
        if r.get("parsed") != gold.get(r["query_id"]):
            errors.append(f"{corpus.name}: row {r['query_id']} parsed {r.get('parsed')!r}")
            break
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    micro = report["micro"]
    n_entities = sum(len(s.spans) for s in test)
    expected = {"tp": n_entities, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, "f1": 1.0}
    if {k: micro.get(k) for k in expected} != expected:
        errors.append(f"{corpus.name}: report micro {micro} != {expected}")
    if report.get("n_parse_failures") != 0 or report.get("n_sentences") != len(test):
        errors.append(f"{corpus.name}: report counts {report.get('n_sentences')} sentences, "
                      f"{report.get('n_parse_failures')} parse failures")
    return errors, failed_rows


def check_augment(corpus: Corpus, out: Path, store_ids: set[int]) -> tuple[list[str], int]:
    """The finetune dataset; returns (errors, records written)."""
    errors: list[str] = []
    finetune = {s.id: s for s in corpus.store_pool if s.id not in store_ids}
    n = len(finetune)
    records = _read_jsonl(out / "finetune_dataset.jsonl")
    if n != corpus.n_finetune:
        errors.append(f"{corpus.name}: finetune split holds {n}, expected {corpus.n_finetune}")
    want = n + round(DROPOUT_FRACTION * n)
    if len(records) != want:
        errors.append(f"{corpus.name}: {len(records)} finetune records, expected {want}")
    base_ids = []
    for rec in records:
        prov = rec["provenance"]
        sentence = finetune.get(prov["sentence_id"])
        if sentence is None:
            errors.append(f"{corpus.name}: record for non-finetune sentence {prov['sentence_id']}")
            continue
        if "dropout" not in prov["transforms"]:
            base_ids.append(sentence.id)
        removed = set(prov["removed_types"])
        gold = sentence.gold(corpus.types)
        try:
            pairs = parse_completion(rec["completion"])
        except ValueError as exc:
            errors.append(f"{corpus.name}: sentence {sentence.id}: {exc}")
            continue
        names = [name for name, _ in pairs]
        order = prov["permutation"] or [t for t in corpus.types if t not in removed]
        if names != order or set(names) != set(corpus.types) - removed:
            errors.append(f"{corpus.name}: sentence {sentence.id}: completion keys {names}")
        elif any(values != gold[name] for name, values in pairs):
            errors.append(f"{corpus.name}: sentence {sentence.id}: completion {rec['completion']!r}")
    if sorted(base_ids) != sorted(finetune):
        errors.append(f"{corpus.name}: base records do not cover the finetune split once each")
    return errors[:5], len(records)


def check_ablation(corpus: Corpus, out: Path) -> tuple[list[str], int, int]:
    """The ablation table; returns (errors, cells, failed cells)."""
    cells = json.loads((out / "ablation.json").read_text(encoding="utf-8"))["cells"]
    want = int(np.prod([len(v) for v in corpus.ablate_axes.values()]))
    n_test = len(corpus.splits["test"])
    errors = [] if len(cells) == want else [f"{corpus.name}: {len(cells)} ablation cells, expected {want}"]
    failed = 0
    for cell in cells:
        f1 = (cell.get("report") or {}).get("micro", {}).get("f1")
        count = (cell.get("latency") or {}).get("count")
        if cell.get("error") is not None:
            failed += 1
        if cell.get("error") is not None or f1 != 1.0 or count != n_test:
            errors.append(f"{corpus.name}: ablation cell {cell['axes']}: error={cell.get('error')} "
                          f"f1={f1} latency count={count}")
    return errors, len(cells), failed


def store_ids(out: Path) -> set[int]:
    return {row["id"] for row in _read_jsonl(out / "corpus" / "store.jsonl")}


def oracle_retrieve(
    corpus: Corpus, in_store: set[int], query_id: int, k: int = 5
) -> tuple[list[tuple[int, float]], dict[int, float]]:
    """Word-level top-k by brute force: per-word top k over the store's word
    records (ties by ascending record id), the query's own records excluded,
    max pooling per store sentence, ties by ascending sentence id."""
    by_id = {s.id: s for s in corpus.sentences}
    rec_vectors, rec_sids = [], []
    for sid in sorted(in_store):
        s = by_id[sid]
        keep = range(len(s.tokens))
        if corpus.store_words == "entity-only":
            keep = sorted({j for _, a, b in s.spans for j in range(a, b)})
        for j in keep:
            rec_vectors.append(s.vectors[j])
            rec_sids.append(sid)
    matrix = np.asarray(rec_vectors)
    matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    rec_sids = np.asarray(rec_sids)
    query = by_id[query_id].vectors
    query = query / np.linalg.norm(query, axis=1, keepdims=True)
    best: dict[int, float] = {}
    for scores in query @ matrix.T:
        order = np.lexsort((np.arange(len(scores)), -scores))
        hits = [i for i in order if rec_sids[i] != query_id][:k]
        for i in hits:
            sid = int(rec_sids[i])
            best[sid] = max(best.get(sid, -np.inf), float(scores[i]))
    ranked = sorted(best, key=lambda sid: (-best[sid], sid))[:k]
    return [(sid, best[sid]) for sid in ranked], best


def check_retrieval(corpus: Corpus, out: Path, retrieval_path: Path) -> list[str]:
    """`ragner retrieve` against the numpy oracle for the sampled queries."""
    in_store = store_ids(out)
    results = _read_jsonl(retrieval_path)
    errors = []
    if len(results) != len(corpus.retrieval_ids):
        return [f"{corpus.name}: {len(results)} retrieval results for "
                f"{len(corpus.retrieval_ids)} queries"]
    for qid, result in zip(corpus.retrieval_ids, results):
        expected, best = oracle_retrieve(corpus, in_store, qid)
        got = [(ex["sentence_id"], ex["score"]) for ex in result["examples"]]
        ok = len(got) == len(expected) and len({sid for sid, _ in got}) == len(got)
        for (sid, score), (want_sid, want_score) in zip(got, expected):
            tie = abs(best.get(sid, np.inf) - want_score) <= SCORE_TIE
            if abs(score - want_score) > SCORE_TIE or (sid != want_sid and not tie):
                ok = False
        if not ok:
            errors.append(f"{corpus.name}: query {qid}: retrieved {got}, oracle {expected}")
    return errors
