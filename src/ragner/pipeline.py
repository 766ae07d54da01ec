"""End-to-end pipeline steps shared by the CLI and the ablation runner."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

from .config import RunConfig, fingerprint, resolve, set_key
from .corpus import (
    EntitySchema,
    LabeledSentence,
    NerOutput,
    gold_output,
    load_schema,
    load_splits,
    select_store_split,
)
from .embedder import (
    CACHE_ARRAYS,
    CACHE_TEXTS,
    Embedder,
    EmbedderSpec,
    RemoteEmbeddingProvider,
    load_precomputed,
    open_precomputed_cache,
)
from .errors import ConfigError, MissingArtifact, NoDictionaryFound, RagnerError
from .evaluation import EvalReport, PredictionRecord, score
from .generation import (
    GenerationResult,
    GenerationTask,
    generate_batch,
    latency_summary,
    prompt_hash,
)
from .manifest import check_digests, read_manifest, sha256_file
from .promptkit import (
    DEFAULT_TASK_DESCRIPTION,
    Prompt,
    build_prompt,
    parse_output,
    resolve_template,
)
from .retriever import ExampleStore, RetrievedExample, retrieve
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
    spec = EmbedderSpec(
        provider=e.provider,
        model_name=e.model_name,
        dimension=e.dimension,
        stopwords=stopwords,
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
        provider = RemoteEmbeddingProvider(
            endpoint=e.endpoint,
            model_name=e.model_name,
            timeout=e.timeout,
            max_retries=e.max_retries,
            max_in_flight=e.max_in_flight,
        )
    return Embedder(provider, spec)


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
    store.build_key = cfg.store_build_key
    return store


def _task_description(cfg: RunConfig) -> str:
    return (
        cfg.prompt.task_description
        if cfg.prompt.task_description is not None
        else DEFAULT_TASK_DESCRIPTION
    )


def build_query_prompt(sentence: LabeledSentence, examples: list[RetrievedExample],
                       store: ExampleStore, cfg: RunConfig, template_text: str) -> Prompt:
    """Render the prompt over the retrieved examples, most similar example last."""
    example_gold = [
        (store.by_id[ex.sentence_id], gold_output(store.by_id[ex.sentence_id], store.schema))
        for ex in reversed(examples)
    ]
    return build_prompt(
        store.schema,
        example_gold,
        sentence.text,
        template_id=cfg.prompt.template_id,
        template_text=template_text,
        task_description=_task_description(cfg),
    )


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
    records: list[PredictionRecord]
    latency: dict
    failures: list[tuple[int, str]] = field(default_factory=list)


def predict_sentences(
    sentences: list[LabeledSentence],
    store: ExampleStore,
    cfg: RunConfig,
    with_gold: bool = True,
) -> PredictOutcome:
    """retrieve -> prompt -> generate -> parse for every sentence.

    Record-level failures (retrieval, generation, parsing) mark the row
    failed and score as all-false-negative; they never abort the batch.
    """
    schema = store.schema
    # a template that cannot be used fails the whole command, not every row
    template_text = resolve_template(cfg.prompt.template_id, cfg.prompt.template_file)
    rows: dict[int, PredictionRow] = {}
    tasks: list[GenerationTask] = []
    failures: list[tuple[int, str]] = []
    for sentence, examples in zip(sentences, retrieve(sentences, store, cfg.retriever)):
        row = PredictionRow(query_id=sentence.id, text=sentence.text)
        rows[sentence.id] = row
        try:
            if isinstance(examples, RagnerError):
                raise examples
            prompt = build_query_prompt(sentence, examples, store, cfg, template_text)
        except RagnerError as exc:
            row.parse_failed = True
            row.error = f"{type(exc).__name__}: {exc}"
            failures.append((sentence.id, row.error))
            continue
        row.prompt_hash = prompt_hash(prompt)
        gold = gold_output(sentence, schema) if with_gold else None
        tasks.append(GenerationTask(query_id=sentence.id, prompt=prompt, gold=gold))

    results: list[GenerationResult] = generate_batch(tasks, cfg.generator)
    prompts_by_id = {t.query_id: t.prompt for t in tasks}
    for result in results:
        row = rows[result.query_id]
        row.completion = result.completion_text
        if result.error is not None:
            row.parse_failed = True
            row.error = result.error
            failures.append((result.query_id, result.error))
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
            failures.append((result.query_id, row.error))

    empty = NerOutput({}).restricted_to(schema)
    records: list[PredictionRecord] = []
    for sentence in sentences:
        row = rows[sentence.id]
        records.append(
            PredictionRecord(
                sentence_id=sentence.id,
                gold=gold_output(sentence, schema) if with_gold else empty,
                predicted=row.parsed if row.parsed is not None else empty,
                parse_failed=row.parse_failed,
                sentence=sentence,
            )
        )
    return PredictOutcome(
        rows=[rows[s.id] for s in sentences],
        records=records,
        latency=latency_summary(results),
        failures=failures,
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
    depends on: splits and schema on [paths], the embedder on [paths] +
    [embedder], the store on [paths] + the store build key."""

    inputs: _Memo = field(default_factory=_Memo)
    embedder: _Memo = field(default_factory=_Memo)
    store: _Memo = field(default_factory=_Memo)


def _load_cell_inputs(cfg: RunConfig) -> tuple[dict[str, list[LabeledSentence]], EntitySchema]:
    splits, _ = load_splits(cfg)
    if "test" not in splits:
        raise ConfigError("ablation needs a corpus_test file")
    if not cfg.paths.schema:
        raise ConfigError("paths.schema is not configured")
    return splits, load_schema(cfg.paths.schema)


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
    recorded = doc.get("inputs", {}).get(str(source))
    if recorded is None or not source.is_file() or sha256_file(source) != recorded:
        return None
    store_dir = cfg.paths.out_path("store")
    outputs = doc.get("outputs", {})
    cache = [str(store_dir / name) for name in (*CACHE_ARRAYS.values(), CACHE_TEXTS)]
    check_digests({path: outputs.get(path) for path in cache}, "index")
    return store_dir


def run_cell(base: RunConfig, axes: dict, loads: AblationLoads) -> tuple[EvalReport, dict]:
    """Run one ablation cell, base config plus dotted-key overrides:
    its report and latency summary.

    Every cell of a sweep gets the same `loads`, so that a cell reuses the
    splits, embedder and store of the cell before when its config allows.
    The embedder opens the store's embedding cache when `index` wrote one
    from the same, unchanged embedding file, and parses the file otherwise.
    """
    doc = copy.deepcopy(base.raw)
    for dotted, value in axes.items():
        set_key(doc, dotted, value)
    cfg = resolve(doc)
    paths_key = fingerprint(doc["paths"])

    def inputs():
        return loads.inputs.get(paths_key, lambda: _load_cell_inputs(cfg))

    def new_store():
        splits, schema = inputs()
        embedder = loads.embedder.get(
            (paths_key, fingerprint(doc["embedder"])),
            lambda: make_embedder(cfg, _indexed_cache_dir(cfg)),
        )
        return build_store(select_store_split(splits, cfg).store, schema, embedder, cfg)

    # the old store (and what only it holds) is released before a new one is built
    store = loads.store.get((paths_key, cfg.store_build_key), new_store)
    store.require_index(cfg.retriever)
    splits, _ = inputs()
    outcome = predict_sentences(splits["test"], store, cfg)
    report = score(
        outcome.records, dedupe=cfg.eval.dedupe, match_mode=cfg.eval.match_mode
    )
    return report, outcome.latency


def make_ablation_runner(base: RunConfig):
    """Adapter for evaluation.run_ablation: axes dict -> (report, latency).

    The runner keeps its loads for the sweep it serves and no longer.
    """
    loads = AblationLoads()
    return lambda axes: run_cell(base, dict(axes), loads)
