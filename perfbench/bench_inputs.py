"""Seeded input generator for the benchmark workloads.

Everything the program receives comes from here: BIO corpora, entity
schemas, the precomputed embedding JSONL, run configs, the ablation grid
and the sample of retrieval queries. The same (workload, seed) always
gives byte-identical files, so generated inputs are cached per seed.

Word vectors are a per-word-type base vector plus a seeded
per-occurrence perturbation, so (like a contextual encoder) no two
occurrences of a word share a vector. Each word is one subword token
covering its full character range.

Regenerate the inputs of one workload and seed:

    python3 perfbench/bench_inputs.py --workload large-store --seed 3
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 5
DIM = 768
PERTURBATION = 0.35

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / ".cache"

# CrossNER-shaped (train, dev, test) sentence counts, the sizes of
# tests/helpers.DOMAIN_SIZES divided by CROSSNER_SCALE so that a whole
# chain over all five domains fits several times into one run.
CROSSNER_SIZES = {
    "politics": (200, 541, 651),
    "science": (200, 450, 543),
    "music": (100, 380, 456),
    "literature": (100, 400, 416),
    "ai": (100, 350, 431),
}
CROSSNER_SCALE = 8
POLITICS_TYPES = (
    "politician", "person", "organization", "political party", "election",
    "event", "country", "location", "miscellaneous",
)

LARGE_STORE = 480
LARGE_FINETUNE = 32
LARGE_TEST = 160
LARGE_TYPES = ("product", "order id", "date", "location", "payment method", "issue")


@dataclass
class Sentence:
    id: int
    tokens: list[str]
    spans: list[tuple[str, int, int]]  # (type, start, end)
    vectors: np.ndarray  # (len(tokens), DIM), as written to the JSONL

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def gold(self, types: tuple[str, ...]) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {t: [] for t in types}
        for etype, start, end in self.spans:
            out[etype].append(" ".join(self.tokens[start:end]))
        return out


@dataclass
class Corpus:
    """One domain: splits with globally numbered sentences, plus its setup."""

    name: str
    types: tuple[str, ...]
    splits: dict[str, list[Sentence]]
    store_size: int
    store_words: str
    ablate_axes: dict | None = None
    retrieval_ids: list[int] = field(default_factory=list)

    @property
    def sentences(self) -> list[Sentence]:
        return [s for split in ("train", "dev", "test") for s in self.splits[split]]

    @property
    def store_pool(self) -> list[Sentence]:
        return self.splits["train"] + self.splits["dev"]

    @property
    def n_finetune(self) -> int:
        return len(self.store_pool) - self.store_size


def _make_corpus(
    name: str,
    sizes: tuple[int, int, int],
    types: tuple[str, ...],
    n_context: int,
    n_entity: int,
    rng: np.random.Generator,
) -> dict[str, list[Sentence]]:
    """Random sentences of 5-10 words; 80% hold one typed span of 1-2 words.

    Lengths and span widths follow the sentence's position, not the seed, so
    every seed gives the program the same amount of work.
    """
    pick = random.Random(int(rng.integers(2**63)))
    vocab = [f"{name}w{i}" for i in range(n_context)] + [f"{name}e{i}" for i in range(n_entity)]
    base = rng.standard_normal((len(vocab), DIM))
    seen: set[str] = set()
    splits: dict[str, list[Sentence]] = {}
    next_id = 0
    for split, count in zip(("train", "dev", "test"), sizes):
        out = []
        while len(out) < count:
            i = len(out)
            n = 5 + i % 6
            word_ids = [pick.randrange(n_context) for _ in range(n)]
            spans = []
            if i % 5:
                start = pick.randrange(n - i % 2)
                end = start + 1 + i % 2
                for j in range(start, end):
                    word_ids[j] = n_context + pick.randrange(n_entity)
                spans.append((pick.choice(types), start, end))
            tokens = [vocab[i] for i in word_ids]
            text = " ".join(tokens)
            if text in seen:  # one embedding record per text: keep texts unique
                continue
            seen.add(text)
            vectors = base[word_ids] + PERTURBATION * rng.standard_normal((n, DIM))
            out.append(Sentence(next_id, tokens, spans, vectors))
            next_id += 1
        splits[split] = out
    return splits


def build_workload(workload: str, seed: int) -> list[Corpus]:
    """The in-memory corpora of a workload; cheap, used by writer and checks."""
    if workload == "crossner-domains":
        corpora = []
        for d, (name, sizes) in enumerate(CROSSNER_SIZES.items()):
            rng = np.random.default_rng([seed, 1, d])
            scaled = tuple(max(2, round(n / CROSSNER_SCALE)) for n in sizes)
            types = POLITICS_TYPES if name == "politics" else tuple(
                f"{name}-type-{i}" for i in range(4)
            )
            splits = _make_corpus(name, scaled, types, 240, 61, rng)
            corpus = Corpus(
                name, types, splits,
                store_size=round(0.6 * (scaled[0] + scaled[1])),
                store_words="entity-only",
            )
            if name == "politics":
                corpus.ablate_axes = {
                    "retriever.k": [1, 5, 10],
                    "retriever.mode": ["word-level", "sentence-level"],
                }
                corpus.retrieval_ids = _retrieval_sample(corpus, rng)
            corpora.append(corpus)
        return corpora
    if workload == "large-store":
        rng = np.random.default_rng([seed, 2, 0])
        sizes = (LARGE_STORE + LARGE_FINETUNE - 128, 128, LARGE_TEST)
        splits = _make_corpus("support", sizes, LARGE_TYPES, 2000, 400, rng)
        corpus = Corpus(
            "support", LARGE_TYPES, splits,
            store_size=LARGE_STORE, store_words="all",
            ablate_axes={"retriever.index_kind": ["flat", "ivf"]},
        )
        corpus.retrieval_ids = _retrieval_sample(corpus, rng)
        return [corpus]
    raise ValueError(f"unknown workload {workload!r}")


def _retrieval_sample(corpus: Corpus, rng: np.random.Generator) -> list[int]:
    """Ids of 16 test sentences plus 8 store-pool sentences (self-exclusion)."""
    test = [s.id for s in corpus.splits["test"]]
    pool = [s.id for s in corpus.store_pool]
    return sorted(rng.choice(test, 16, replace=False).tolist()) + sorted(
        rng.choice(pool, 8, replace=False).tolist()
    )


# --- writing -----------------------------------------------------------------

def _write_bio(sentences: list[Sentence], path: Path) -> None:
    blocks = []
    for s in sentences:
        tags = ["O"] * len(s.tokens)
        for etype, start, end in s.spans:
            tags[start] = f"B-{etype}"
            for j in range(start + 1, end):
                tags[j] = f"I-{etype}"
        blocks.append("\n".join(f"{tok}\t{tag}" for tok, tag in zip(s.tokens, tags)))
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def _write_embeddings(sentences: list[Sentence], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            pos = 0
            tokens = []
            for tok, vec in zip(s.tokens, s.vectors):
                tokens.append(
                    '{"text": %s, "start_char": %d, "end_char": %d, "vector": %s}'
                    % (json.dumps(tok), pos, pos + len(tok), json.dumps(vec.tolist()))
                )
                pos += len(tok) + 1
            sentence_vector = json.dumps(s.vectors.mean(axis=0).tolist())
            fh.write('{"text": %s, "tokens": [%s], "sentence_vector": %s}\n'
                     % (json.dumps(s.text), ", ".join(tokens), sentence_vector))


def corpus_config(corpus: Corpus, out_dir: str, inputs: str) -> dict:
    """The run config of one corpus; paths are relative to the run directory."""
    return {
        "seed": 7,
        "paths": {
            "corpus_train": f"{inputs}/{corpus.name}/train.txt",
            "corpus_dev": f"{inputs}/{corpus.name}/dev.txt",
            "corpus_test": f"{inputs}/{corpus.name}/test.txt",
            "schema": f"{inputs}/{corpus.name}/schema.json",
            "out_dir": out_dir,
        },
        "embedder": {"dimension": DIM,
                     "precomputed_path": f"{inputs}/{corpus.name}/embeddings.jsonl"},
        "store": {"size": corpus.store_size},
        "retriever": {"store_words": corpus.store_words},
        "generator": {"backend": "mock-gold", "parallelism": 1},
    }


def write_inputs(workload: str, seed: int, dest: Path) -> list[Corpus]:
    corpora = build_workload(workload, seed)
    tmp = dest.with_name(dest.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    for corpus in corpora:
        cdir = tmp / corpus.name
        cdir.mkdir(parents=True)
        for split, sentences in corpus.splits.items():
            _write_bio(sentences, cdir / f"{split}.txt")
        schema = [{"name": t, "definition": f"{t} entities of the {corpus.name} domain"}
                  for t in corpus.types]
        (cdir / "schema.json").write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
        _write_embeddings(corpus.sentences, cdir / "embeddings.jsonl")
        if corpus.ablate_axes:
            (cdir / "grid.json").write_text(json.dumps({"axes": corpus.ablate_axes}) + "\n",
                                            encoding="utf-8")
        if corpus.retrieval_ids:
            by_id = {s.id: s for s in corpus.sentences}
            with open(cdir / "queries.jsonl", "w", encoding="utf-8") as fh:
                for sid in corpus.retrieval_ids:
                    fh.write(json.dumps({"id": sid, "tokens": by_id[sid].tokens, "spans": []})
                             + "\n")
    shutil.rmtree(dest, ignore_errors=True)
    tmp.rename(dest)
    return corpora


def cache_dir(workload: str, seed: int) -> Path:
    return CACHE_DIR / f"v{GENERATOR_VERSION}-{workload}-s{seed}"


def ensure_inputs(workload: str, seed: int) -> tuple[Path, list[Corpus]]:
    """Generate the inputs of (workload, seed) unless already cached.

    Only the latest seed of each workload stays cached (each takes 90-120 MB).
    """
    dest = cache_dir(workload, seed)
    for old in CACHE_DIR.glob(f"v*-{workload}-s*"):
        if old != dest:
            shutil.rmtree(old, ignore_errors=True)
    if dest.is_dir():
        return dest, build_workload(workload, seed)
    return dest, write_inputs(workload, seed, dest)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["crossner-domains", "large-store"])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    dest = cache_dir(args.workload, args.seed)
    write_inputs(args.workload, args.seed, dest)
    print(dest)


if __name__ == "__main__":
    main()
