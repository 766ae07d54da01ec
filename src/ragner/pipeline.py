"""End-to-end pipeline steps shared by the CLI and the ablation runner."""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .config import RunConfig, fingerprint, resolve, set_key
from .corpus import (
    EntitySchema,
    LabeledSentence,
    NerOutput,
    gold_output,
    load_corpus,
    select_store_split,
)
from .embedder import (
    CACHE_ARRAYS,
    CACHE_TEXTS,
    Embedder,
    RemoteEmbeddingProvider,
    load_precomputed,
    open_precomputed_cache,
)
from .errors import ConfigError, MissingArtifact, NoDictionaryFound, RagnerError
from .evaluation import EvalReport, score_rows
from .generation import (
    GenerationResult,
    GenerationTask,
    generate_batch,
    latency_summary,
    prompt_hash,
)
from . import files
from .manifest import check_digests, read_manifest
from .promptkit import build_prompt, order_examples, parse_output, resolve_prompt
from .retriever import ExampleStore, retrieve
from .stopwords import DEFAULT_STOPWORDS, load_stopwords


def make_embedder(cfg: RunConfig, store_dir: str | Path | None = None) -> Embedder:
    """Build the embedder named by the config's [embedder] section.

    A precomputed-file embedder parses its JSON-lines file, unless
    `store_dir` is given: it then opens the embedding cache `index` wrote
    there and never reads the file.
    """
    e = cfg.embedder
    stopwords = (
        load_stopwords(e.stopwords_file) if e.stopwords_file else DEFAULT_STOPWORDS
    )
    if e.provider == "precomputed-file":
        if not e.precomputed_path:
            raise ConfigError("embedder.provider=precomputed-file needs precomputed_path")
        if store_dir is not None:
            provider = open_precomputed_cache(store_dir)
        else:
            provider = load_precomputed(e.precomputed_path)
    else:
        if not e.endpoint:
            raise ConfigError("embedder.provider=remote-service needs endpoint")
        provider = RemoteEmbeddingProvider(e.endpoint, e.model_name, e.timeout, e.max_retries,
                                           e.max_in_flight)
    return Embedder(provider, e.dimension, stopwords)


def load_store(cfg: RunConfig) -> ExampleStore:
    """The indexed store, with the embedder opened from its embedding cache;
    refuses a store built under another config."""
    store_dir = cfg.paths.out_path("store")
    store = ExampleStore.load(store_dir, embedder=make_embedder(cfg, store_dir))
    if store.build_key != cfg.store_build_key:
        raise ConfigError(
            f"the store in {store_dir} was built under another [embedder], [store] or "
            "retriever index config; re-run `ragner index` with this config"
        )
    store.require_index(cfg.retriever)
    return store


def build_store(
    sentences: list[LabeledSentence],
    schema: EntitySchema,
    embedder: Embedder,
    cfg: RunConfig,
) -> ExampleStore:
    store = ExampleStore.build(
        sentences, schema, embedder, cfg.retriever, modes=cfg.store.modes
    )
    store.model_name = cfg.embedder.model_name
    store.build_key = cfg.store_build_key
    return store


@dataclass
class PredictionRow:
    """Everything the predict stage knows about one query sentence."""

    query_id: int
    text: str
    prompt_hash: str | None = None
    completion: str = ""
    parsed: NerOutput | None = None
    parse_failed: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        doc = {
            "query_id": self.query_id,
            "text": self.text,
            "prompt_hash": self.prompt_hash,
            "completion": self.completion,
            "parsed": {k: list(v) for k, v in self.parsed.entries.items()}
            if self.parsed is not None
            else None,
            "parse_failed": self.parse_failed,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


@dataclass
class PredictOutcome:
    rows: list[PredictionRow]
    latency: dict


def predict_sentences(
    sentences: list[LabeledSentence],
    store: ExampleStore,
    cfg: RunConfig,
) -> PredictOutcome:
    """retrieve -> prompt -> generate -> parse for every sentence.

    Record-level failures (retrieval, generation, parsing) mark the row
    failed and score as all-false-negative; they never abort the batch.
    """
    schema = store.schema
    template = resolve_prompt(cfg.prompt)
    rows: dict[int, PredictionRow] = {}
    tasks: list[GenerationTask] = []
    for sentence, examples in zip(sentences, retrieve(sentences, store, cfg.retriever)):
        row = PredictionRow(query_id=sentence.id, text=sentence.text)
        rows[sentence.id] = row
        try:
            if isinstance(examples, RagnerError):
                raise examples
            prompt = build_prompt(schema, order_examples(examples, store), sentence.text, template)
        except RagnerError as exc:
            row.parse_failed = True
            row.error = f"{type(exc).__name__}: {exc}"
            continue
        row.prompt_hash = prompt_hash(prompt)
        tasks.append(GenerationTask(sentence.id, prompt, gold_output(sentence, schema)))

    results: list[GenerationResult] = generate_batch(tasks, cfg.generator)
    prompts_by_id = {t.query_id: t.prompt for t in tasks}
    for result in results:
        row = rows[result.query_id]
        row.completion = result.completion_text
        if result.error is not None:
            row.parse_failed = True
            row.error = result.error
            continue
        try:
            row.parsed = parse_output(
                result.completion_text,
                schema,
                query_text=prompts_by_id[result.query_id].user_query,
                grounding=cfg.eval.grounding,
            )
        except NoDictionaryFound as exc:
            row.parse_failed = True
            row.error = f"{type(exc).__name__}: {exc}"

    return PredictOutcome(
        rows=[rows[s.id] for s in sentences],
        latency=latency_summary(results),
    )


class _Memo:
    """One cached value and the key it was built for."""

    def __init__(self):
        self.key = None
        self.value = None

    def get(self, key, build):
        if self.value is None or self.key != key:
            self.value = None  # release the old value before building the next
            self.value = build()
            self.key = key
        return self.value


@dataclass
class AblationLoads:
    """What consecutive ablation cells share, each keyed on the config it
    depends on: splits and schema on [paths]; the embedder and the store
    directory whose cache it opened on [paths] + [embedder]; the store on
    [paths] + its build key less the index settings. `sha256` hashes a file
    once per sweep."""

    inputs: _Memo = field(default_factory=_Memo)
    embedder: _Memo = field(default_factory=_Memo)
    store: _Memo = field(default_factory=_Memo)
    sha256: Callable = field(default_factory=lambda: functools.cache(files.sha256_file))


def _indexed_cache_dir(cfg: RunConfig) -> Path | None:
    """The store directory, when `index` cached there the embedding file this
    config names and that file still hashes to the digest `index` recorded;
    otherwise None.

    `load_precomputed` reads nothing but the file, so its digest is the whole
    key of the cache. The cache files are checked against their recorded
    digests: a changed or missing one raises MissingArtifact.
    """
    e = cfg.embedder
    if e.provider != "precomputed-file" or not e.precomputed_path:
        return None
    try:
        doc = read_manifest(cfg, "index")
    except MissingArtifact:
        return None
    source = Path(e.precomputed_path)
    recorded = doc["inputs"].get(str(source))
    if recorded is None or not source.is_file() or files.sha256_file(source) != recorded:
        return None
    store_dir = cfg.paths.out_path("store")
    outputs = doc["outputs"]
    cache = [str(store_dir / name) for name in (*CACHE_ARRAYS.values(), CACHE_TEXTS)]
    check_digests({path: outputs.get(path) for path in cache}, "index")
    return store_dir


def _indexed_store(cfg: RunConfig, store_dir: Path | None, sentences, schema, embedder,
                   sha256: Callable) -> ExampleStore | None:
    """The store `index` wrote into `store_dir`, when it is the one this cell
    would build: the same build key, sentences, schema and stop-word file,
    and every file but the embedding cache (checked already) unchanged."""
    if store_dir is None:
        return None
    doc = read_manifest(cfg, "index")
    cache = (*CACHE_ARRAYS.values(), CACHE_TEXTS)
    recorded = {path: digest for path, digest in doc["outputs"].items()
                if Path(path).parent == store_dir and Path(path).name not in cache}
    if cfg.embedder.stopwords_file:
        stopwords = str(Path(cfg.embedder.stopwords_file))
        recorded[stopwords] = doc["inputs"].get(stopwords)
    if not all(Path(path).is_file() and sha256(path) == digest
               for path, digest in recorded.items()):
        return None
    store = ExampleStore.load(store_dir, embedder)
    held = (store.build_key, store.sentences, store.schema)
    return store if held == (cfg.store_build_key, sentences, schema) else None


def run_cell(base: RunConfig, axes: dict, loads: AblationLoads) -> tuple[EvalReport, dict]:
    """Run one ablation cell, base config plus dotted-key overrides:
    its report and latency summary.

    Every cell of a sweep gets the same `loads`, so that a cell reuses the
    splits, embedder and store of the cell before when its config allows.
    The embedder opens the store's embedding cache when `index` wrote one
    from the same, unchanged embedding file, and parses the file otherwise.
    The cell loads the store `index` wrote when `_indexed_store` finds it
    current, and rebuilds only the indexes of the store before when the two
    differ in index settings alone.
    """
    doc = copy.deepcopy(base.raw)
    for dotted, value in axes.items():
        set_key(doc, dotted, value)
    cfg = resolve(doc)
    paths_key = fingerprint(doc["paths"])
    records_key = fingerprint({"embedder": doc["embedder"], "store": doc["store"],
                               "store_words": cfg.retriever.store_words})

    def inputs():
        splits, schema, _ = loads.inputs.get(paths_key, lambda: load_corpus(cfg))
        if "test" not in splits:
            raise ConfigError("ablation needs a corpus_test file")
        return splits, schema

    def open_embedder():
        store_dir = _indexed_cache_dir(cfg)
        return store_dir, make_embedder(cfg, store_dir)

    def new_store():
        splits, schema = inputs()
        store_dir, embedder = loads.embedder.get((paths_key, fingerprint(doc["embedder"])),
                                                 open_embedder)
        sentences = select_store_split(splits, cfg).store
        store = _indexed_store(cfg, store_dir, sentences, schema, embedder, loads.sha256)
        return store if store is not None else build_store(sentences, schema, embedder, cfg)

    # the old store (and what only it holds) is released before a new one is built
    store = loads.store.get((paths_key, records_key), new_store)
    if store.build_key != cfg.store_build_key:  # the same records, other index settings
        store = loads.store.value = store.reindex(cfg.retriever)
        store.build_key = cfg.store_build_key
    store.require_index(cfg.retriever)
    test = inputs()[0]["test"]
    outcome = predict_sentences(test, store, cfg)
    rows = ((f"test sentence {row.query_id}", row.to_dict()) for row in outcome.rows)
    report = score_rows(rows, {s.id: s for s in test}, store.schema, cfg.eval)
    return report, outcome.latency


def make_ablation_runner(base: RunConfig):
    """Adapter for evaluation.run_ablation: axes dict -> (report, latency).

    The runner keeps its loads for the sweep it serves and no longer.
    """
    loads = AblationLoads()
    return lambda axes: run_cell(base, dict(axes), loads)
