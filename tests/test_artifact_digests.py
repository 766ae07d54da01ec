"""The artifacts of the CLI test project's command chain, pinned by digest.

The project is `test_cli`'s: the same corpus, schema and embedding file,
but its config names every path relative to the project directory, and
each command runs from there, so that the config fingerprints and the
paths in the manifests are the same in any checkout. The chain runs
ingest, index, retrieve, augment, predict, evaluate and ablate once for
each of flat and IVF indexes and each of the mock-gold and
mock-echo-nearest backends, each chain in its own output directory. Every
file it writes, except the wall-clock `*_telemetry.json` sidecars, must
hash to its sha256 in `artifact_digests.json`; the test lists each file
that differs, is missing or is new.

Where the bytes pass through BLAS. The digests are exact, so a machine
whose BLAS rounds differently (another CPU kernel, numpy or BLAS build)
fails here, and the list names the files; nothing is compared with a
tolerance. These files carry floats that BLAS computed, or choices made
from them:
- `data/embeddings.jsonl`, which `helpers.hash_unit_vector` normalizes by
  `np.linalg.norm`, and so the five `store/embeddings.*` cache files
  parsed from it;
- the store's `word_index.*` and `sentence_index.*` files (vectors
  normalized through a dot product), and for IVF the centroids and
  cluster order from the k-means matrix products;
- `retrieval.jsonl` (scores from the search's matrix product), and the
  example order behind the prompt hashes of `predictions.jsonl`, the
  prompts of `finetune_dataset.jsonl` and, under mock-echo-nearest, the
  completions and scores of `predictions.jsonl`, `report.json` and
  `ablation.json`;
- every manifest that records one of these files' digests.
Only `corpus/*.jsonl`, `schema.json` and `manifests/ingest.json` are free
of BLAS.

A change that alters an artifact on purpose regenerates the pins with

    PYTHONPATH=src python tests/test_artifact_digests.py

and says in CHANGES.md which files moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import yaml
from click.testing import CliRunner

from ragner.cli import main
from ragner.corpus import write_sentences_jsonl

from helpers import write_embedding_file
from test_cli import DEV, DIM, SCHEMA_TYPES, TEST, TRAIN, bio_text

PINS = Path(__file__).with_name("artifact_digests.json")
CHAINS = [(kind, backend) for kind in ("flat", "ivf")
          for backend in ("mock-gold", "mock-echo-nearest")]
GRID = {"axes": {"retriever.k": [1, 3], "retriever.mode": ["word-level", "sentence-level"],
                 "store.size": [6, 5]}}


def write_project(root: Path) -> None:
    """`test_cli.make_project`'s inputs under `root`, and a config that
    names them relative to `root`."""
    data = root / "data"
    data.mkdir()
    (data / "train.txt").write_text(bio_text(TRAIN), encoding="utf-8")
    write_sentences_jsonl(DEV, data / "dev.jsonl")
    (data / "test.txt").write_text(bio_text(TEST), encoding="utf-8")
    (data / "schema.json").write_text(json.dumps(SCHEMA_TYPES), encoding="utf-8")
    write_embedding_file(TRAIN + DEV + TEST, data / "embeddings.jsonl", DIM)
    doc = {
        "seed": 7,
        "paths": {"corpus_train": "data/train.txt", "corpus_dev": "data/dev.jsonl",
                  "corpus_test": "data/test.txt", "schema": "data/schema.json",
                  "out_dir": "out"},
        "embedder": {"provider": "precomputed-file", "model_name": "test-hash",
                     "dimension": DIM, "precomputed_path": "data/embeddings.jsonl"},
        "store": {"size": 6, "seed": 3},
        "retriever": {"k": 3},
        "generator": {"backend": "mock-gold", "parallelism": 2},
    }
    (root / "config.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    (root / "grid.yaml").write_text(yaml.safe_dump(GRID), encoding="utf-8")


def chain_digests(root: Path) -> dict[str, str]:
    """Write the project under the empty directory `root`, run every chain
    from there, and return the sha256 of each output file but telemetry,
    by its path relative to `root`."""
    write_project(root)
    runner = CliRunner()
    with contextlib.chdir(root):
        for kind, backend in CHAINS:
            out = f"out/{kind}-{backend}"
            options = ["-c", "config.yaml", "-S", f"paths.out_dir={out}",
                       "-S", f"retriever.index_kind={kind}", "-S", f"generator.backend={backend}"]
            for command in (["ingest"], ["index"],
                            ["retrieve", "--input", f"{out}/corpus/test.jsonl"],
                            ["augment"], ["predict"], ["evaluate"],
                            ["ablate", "--grid", "grid.yaml"]):
                result = runner.invoke(main, [*options, *command], catch_exceptions=False)
                assert result.exit_code == 0, (kind, backend, command, result.stderr)
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((root / "out").rglob("*"))
            if path.is_file() and not path.name.endswith("_telemetry.json")}


def test_every_artifact_of_the_chain_matches_its_pinned_digest(tmp_path):
    digests = chain_digests(tmp_path)
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    differ = sorted(path for path in pinned.keys() | digests.keys()
                    if pinned.get(path) != digests.get(path))
    assert differ == [], (
        f"{len(differ)} of {len(pinned)} pinned files differ; missing: "
        f"{[p for p in differ if p not in digests]}, new: {[p for p in differ if p not in pinned]}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as name:
        pins = chain_digests(Path(name))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} digests to {PINS}", file=sys.stderr)
