"""End-to-end pipeline steps shared by the CLI and the ablation runner."""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection

from .config import RunConfig, fingerprint, resolve, set_key
from .corpus import EntitySchema, LabeledSentence, NerOutput, load_corpus, select_store_split
from .embedder import (
    CACHE_FILES,
    Embedder,
    RemoteEmbeddingProvider,
    load_precomputed,
    open_precomputed_cache,
)
from .errors import ConfigError, NoDictionaryFound, RagnerError
from .generation import GenerationTask, generate_batch, latency_summary, prompt_hash
from .manifest import Digests, check_digests, read_manifest
from .promptkit import build_prompt, parse_output, query_rows, resolve_prompt
from .retriever import ExampleStore, _retrieve_blocks, retrieve, select
from .stopwords import DEFAULT_STOPWORDS, load_stopwords

if TYPE_CHECKING:  # only evaluate and ablate load the scoring module
    from .evaluation import AblationCell, EvalReport


def make_embedder(cfg: RunConfig, store_dir: Path | None, parse_dir: Path | None = None,
                  digests: dict | None = None) -> Embedder:
    """Build the embedder named by the config's [embedder] section.

    A precomputed-file embedder opens the embedding cache `index` wrote in
    `store_dir` and never reads its JSON-lines file; when `store_dir` is
    None, it parses the file into a cache in `parse_dir`, and `digests` gets
    the file's sha256.
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
            provider = load_precomputed(e.precomputed_path, parse_dir, digests)
    else:
        if not e.endpoint:
            raise ConfigError("embedder.provider=remote-service needs endpoint")
        provider = RemoteEmbeddingProvider(e.endpoint, e.model_name, e.timeout, e.max_retries)
    return Embedder(provider, e.dimension, stopwords)


def indexed_store(cfg: RunConfig, sha256: Callable, modes: Collection[str],
                  embedder: Callable | None = None) -> ExampleStore:
    """The store `index` wrote, when it is current for `cfg`, keeping the
    indexes of `modes` (`ExampleStore.load`); raises the reason when it is
    not. It is current when meta.json's build key is `cfg.store_build_key`
    and every file `manifests/index.json` records still hashes by `sha256`
    to its digest.

    The query commands pass no `embedder` and do not hash the embedding
    file: their embedder reads only the cache, itself a recorded output.
    The `embedder` of `index` and of an ablation cell opens the cache in the
    directory it is given; it is called only when the embedding file and
    the cache are recorded and current.
    """
    e, store_dir = cfg.embedder, cfg.paths.out_path("store")
    doc = read_manifest(cfg, "index")
    recorded = {**doc["inputs"], **doc["outputs"]}
    source = str(Path(e.precomputed_path)) if e.precomputed_path else None
    if embedder is not None and e.provider == "precomputed-file" and source:
        check_digests({source: doc["inputs"].get(source)}, "index", sha256)
    recorded.pop(source, None)  # hashed above, or not at all
    cache = {p: recorded.pop(p) for p in doc["outputs"] if Path(p).name in CACHE_FILES}
    check_digests(cache, "index", sha256)
    opened = (embedder or functools.partial(make_embedder, cfg))(store_dir)
    check_digests(recorded, "index", sha256)
    store = ExampleStore.load(store_dir, opened, modes)
    if store.build_key != cfg.store_build_key:
        raise ConfigError(f"the store in {store_dir} was built under another [embedder], "
                          "[store] or retriever index config; re-run `ragner index` with this "
                          "config")
    return store


def load_store(cfg: RunConfig, sha256: Callable) -> ExampleStore:
    """The indexed store for a query command, its files hashed by `sha256`,
    holding the index of cfg.retriever.mode alone; raises the reason when
    it is not current."""
    store = indexed_store(cfg, sha256, (cfg.retriever.mode,))
    store.require_index(cfg.retriever)
    return store


def current_store(cfg: RunConfig, sentences: list[LabeledSentence], schema: EntitySchema,
                  sha256: Digests, parse_dir: Path, modes: Collection[str],
                  memo: _Memo | None = None, key=None) -> tuple[ExampleStore, str]:
    """The store of `sentences` under `schema` for `cfg`, with the indexes of
    `modes` that cfg.store.modes names, and how it came: "loaded" when
    `indexed_store` finds the indexed store current and it holds these
    sentences under this schema; else "built", whatever the reason, by the
    embedder `indexed_store` opened from the cache, or else by parsing the
    embedding file into `parse_dir`. `sha256` hashes the indexed files and
    gets the parsed file's digest; `memo` holds the embedder under `key`
    for later calls."""
    memo = memo or _Memo()

    def embedder(store_dir: Path | None = None) -> Embedder:
        return memo.get(key, lambda: make_embedder(cfg, store_dir, parse_dir, sha256))

    try:
        indexed = indexed_store(cfg, sha256, modes, embedder)
        if (indexed.sentences, indexed.schema) == (sentences, schema):
            return indexed, "loaded"
        del indexed  # its sentences and mapped indexes go before the build
    except RagnerError:  # nothing indexed, a changed input, a damaged file, another build key
        pass
    store = ExampleStore.build(sentences, schema, embedder(), cfg.retriever,
                               modes=tuple(mode for mode in cfg.store.modes if mode in modes))
    store.modes = cfg.store.modes
    store.model_name = cfg.embedder.model_name
    store.build_key = cfg.store_build_key
    return store, "built"


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


def predict_sentences(
    sentences: list[LabeledSentence],
    store: ExampleStore,
    cfg: RunConfig,
    retrieved: list | None = None,
    parse: Callable = parse_output,
) -> tuple[list[PredictionRow], dict]:
    """retrieve (unless `retrieved`) -> prompt -> generate -> parse, per
    sentence: a row per sentence, in order, and the latency summary of the
    generation. `parse` is `parse_output` or a cache of it.

    Record-level failures (retrieval, a span type outside the schema,
    generation, parsing) mark the row failed and score as
    all-false-negative; they never abort the batch.
    """
    schema = store.schema
    template = resolve_prompt(cfg.prompt)
    if retrieved is None:
        retrieved = retrieve(sentences, store, cfg.retriever, pairs=False)
    rows: list[PredictionRow] = []
    tasks: list[GenerationTask] = []  # one per row without an error, in row order
    for sentence, entry in zip(sentences, query_rows(sentences, retrieved, store)):
        row = PredictionRow(query_id=sentence.id, text=sentence.text)
        rows.append(row)
        if isinstance(entry, RagnerError):
            row.parse_failed, row.error = True, f"{type(entry).__name__}: {entry}"
            continue
        examples, gold = entry
        prompt = build_prompt(schema, examples, sentence.text, template)
        row.prompt_hash = prompt_hash(prompt)
        tasks.append(GenerationTask(sentence.id, prompt, gold))

    results = generate_batch(tasks, cfg.generator)  # in task order
    for row, result in zip([row for row in rows if row.error is None], results, strict=True):
        row.completion = result.completion_text
        row.error = result.error
        if row.error is None:
            try:
                row.parsed = parse(result.completion_text, schema, query_text=row.text,
                                   grounding=cfg.eval.grounding)
            except NoDictionaryFound as exc:
                row.error = f"{type(exc).__name__}: {exc}"
        row.parse_failed = row.error is not None
    return rows, latency_summary(results)


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
    """What the cells of one sweep share, each keyed on the config it
    depends on: splits and schema on [paths]; the embedder on [paths] +
    [embedder]; the store with its searches (at `depths`) on [paths] + its
    build key less the index settings, holding the indexes of the modes its
    cells search (`modes`). An embedder that parses its file
    writes its cache under `scratch`, in a directory of its own, which
    lasts the sweep. `sha256` hashes a file once per sweep, so
    `indexed_store` hashes each file `index` recorded at most once. `parse`
    parses each distinct (completion, schema, query text, grounding) once
    per sweep: `parse_output` is a pure function of them."""

    scratch: Path
    inputs: _Memo = field(default_factory=_Memo)
    embedder: _Memo = field(default_factory=_Memo)
    store: _Memo = field(default_factory=_Memo)
    depths: dict = field(default_factory=dict)
    modes: dict = field(default_factory=dict)
    sha256: Callable = field(default_factory=Digests)
    parse: Callable = field(default_factory=lambda: functools.cache(parse_output))


def _cell_config(base: RunConfig, axes: dict) -> tuple[RunConfig, tuple]:
    """A cell's config and the keys of what it can share: [paths], embedder,
    store records, store, search (less the keys only `select` reads)."""
    doc = copy.deepcopy(base.raw)
    for dotted, value in axes.items():
        set_key(doc, dotted, value)
    cfg = resolve(doc)
    paths = fingerprint(doc["paths"])
    records = (paths, fingerprint({"embedder": doc["embedder"], "store": doc["store"],
                                   "store_words": cfg.retriever.store_words}))
    store = (*records, cfg.store_build_key)
    search = (*store, fingerprint({**doc["retriever"], "k": 0, "per_word_k": 0, "aggregator": 0}))
    return cfg, (paths, (paths, fingerprint(doc["embedder"])), records, store, search)


def run_cell(base: RunConfig, axes: dict, loads: AblationLoads,
             telemetry: dict) -> tuple[EvalReport, dict]:
    """Run one ablation cell, base config plus dotted-key overrides:
    its report and latency summary; `telemetry` gets how it came by its
    store and retrieval.

    Every cell of a sweep gets the same `loads`, so that a cell reuses the
    splits, embedder and store of the cell before when its config allows.
    A new store is `current_store`'s for the cell's store split and schema.
    A cell whose store differs from the one before in index settings alone
    rebuilds only the indexes. A cell selects from the held store's search,
    made at the depth `loads.depths` gives.
    """
    from .evaluation import score_rows

    cfg, (paths_key, embedder_key, records_key, _, search_key) = _cell_config(base, axes)

    def inputs():
        splits, schema, _ = loads.inputs.get(paths_key, lambda: load_corpus(cfg))
        if "test" not in splits:
            raise ConfigError("ablation needs a corpus_test file")
        return splits, schema

    def new_store():
        splits, schema = inputs()
        store, telemetry["store"] = current_store(
            cfg, select_store_split(splits, cfg).store, schema, loads.sha256,
            loads.scratch.joinpath(*embedder_key), loads.modes[records_key], loads.embedder,
            embedder_key)
        return store, {}

    # the old store (and what only it holds) is released before a new one is built
    store, searches = loads.store.get(records_key, new_store)
    if store.build_key != cfg.store_build_key:  # the same records, other index settings
        loads.store.value = None  # the reindex spends the store: a failed one leaves none held
        store = store.reindex(cfg.retriever)
        store.build_key = cfg.store_build_key
        loads.store.value = store, searches = store, {}
        telemetry["store"] = "reindexed"
    telemetry.setdefault("store", "held")
    store.require_index(cfg.retriever)
    test = inputs()[0]["test"]
    depth = loads.depths[search_key]  # the deepest of the sweep's cells that share the search
    telemetry.update(retrieval="shared", search_depth=depth)
    if search_key not in searches:
        searches[search_key] = _retrieve_blocks(test, store, cfg.retriever, depth)
        telemetry["retrieval"] = "searched"
    examples = select(test, searches[search_key], store, cfg.retriever, pairs=False)
    rows, latency = predict_sentences(test, store, cfg, examples, loads.parse)
    report = score_rows(((f"test sentence {row.query_id}", row.to_dict()) for row in rows),
                        {s.id: s for s in test}, store.schema, cfg.eval)
    return report, latency


def run_sweep(base: RunConfig, grid: list[dict], scratch: Path) -> list[AblationCell]:
    """One ablation cell per entry of `grid`, in grid order, with its telemetry.
    Cells run grouped by [paths], [embedder], store records and store, each
    group where its first cell stands. A look-ahead gives each search its
    deepest cell's depth and each store the modes its cells search,
    skipping cells that do not resolve (they fail alone).
    A cell that parses an embedding file writes its cache under `scratch`."""
    from .evaluation import AblationCell

    loads, ranks, groups = AblationLoads(scratch), ({}, {}, {}, {}), []
    for axes in grid:
        try:
            cfg, keys = _cell_config(base, axes)
        except Exception:  # the cell's own run records why
            groups.append(())
            continue
        groups.append(tuple(rank.setdefault(key, len(rank)) for rank, key in zip(ranks, keys)))
        loads.depths[keys[-1]] = max(loads.depths.get(keys[-1], 0), cfg.retriever.search_depth)
        loads.modes.setdefault(keys[2], set()).add(cfg.retriever.mode)
    cells: list = [None] * len(grid)
    for i in sorted(range(len(grid)), key=groups.__getitem__):
        cells[i] = cell = AblationCell(axes=dict(grid[i]))
        try:
            cell.report, cell.latency = run_cell(base, cell.axes, loads, cell.telemetry)
        except Exception as exc:  # per-cell isolation, every cell must report
            cell.error = f"{type(exc).__name__}: {exc}"
    return cells
