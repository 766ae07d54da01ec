"""Operator surface: ingest -> index -> retrieve/augment/predict ->
evaluate -> ablate.

Every command is idempotent given identical inputs and seed: artifacts
embed no timestamps, and rerunning writes byte-identical files. Each
command writes a manifest (config fingerprint, seed, input/output hashes)
under out_dir/manifests/, and downstream commands verify their upstream
artifacts against it before running. Timing telemetry goes to a separate
*_telemetry.json file that is deliberately outside the manifest, keeping
the deterministic artifacts and the wall-clock numbers apart.

Failures exit nonzero with a one-line machine-readable JSON error on
stderr.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import yaml

from .config import RunConfig, load_config
from .corpus import (
    LabeledSentence,
    NerOutput,
    gold_output,
    load_schema,
    load_split_file,
    load_splits,
    read_sentences_jsonl,
    select_store_split,
    write_sentences_jsonl,
)
from .errors import AblationFailed, ConfigError, MissingArtifact, RagnerError
from .evaluation import (
    PredictionRecord,
    ablation_to_dict,
    expand_grid,
    format_ablation,
    format_report,
    run_ablation,
    score,
    write_report_json,
)
from .manifest import verify_upstream, write_manifest

# Each command imports the modules it runs in its body: ingest and evaluate
# never load numpy, and no command loads what it does not use.


def _write_telemetry(out_path: Path, doc: dict) -> None:
    """Wall-clock figures go next to `out_path`, outside every manifest."""
    telemetry_path = out_path.with_name(out_path.stem + "_telemetry.json")
    telemetry_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RagnerError as exc:
            click.echo(
                json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                err=True,
            )
            sys.exit(2)

    return wrapper


@click.group()
@click.option("--config", "-c", "config_path", type=click.Path(), default=None,
              help="YAML or JSON run configuration.")
@click.option("--set", "-S", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Dotted config override, e.g. retriever.k=10.")
@click.pass_context
@_handle_errors
def main(ctx, config_path, overrides):
    """Retrieval-augmented few-shot NER pipeline."""
    ctx.obj = load_config(config_path, list(overrides))


@main.command()
@click.pass_obj
@_handle_errors
def ingest(cfg: RunConfig):
    """Parse corpus + schema files and persist the store/finetune split."""
    if not cfg.paths.schema:
        raise ConfigError("paths.schema is not configured")
    schema = load_schema(cfg.paths.schema)
    splits, warnings = load_splits(cfg)
    for sentences in splits.values():
        for s in sentences:
            s.validate(schema)
    split = select_store_split(splits, cfg)

    corpus_dir = cfg.paths.out_path("corpus")
    corpus_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, sentences in splits.items():
        path = corpus_dir / f"{name}.jsonl"
        write_sentences_jsonl(sentences, path)
        outputs.append(path)
    store_path = corpus_dir / "store.jsonl"
    write_sentences_jsonl(split.store, store_path)
    finetune_path = corpus_dir / "finetune_split.jsonl"
    write_sentences_jsonl(split.finetune, finetune_path)
    schema_path = cfg.paths.out_path("schema.json")
    schema_path.write_text(json.dumps(schema.to_json(), indent=2) + "\n", encoding="utf-8")
    outputs += [store_path, finetune_path, schema_path]

    inputs = [Path(p) for p in (cfg.paths.corpus_train, cfg.paths.corpus_dev,
                                cfg.paths.corpus_test, cfg.paths.schema) if p]
    write_manifest(cfg, "ingest", inputs, outputs)
    counts = ", ".join(f"{name}={len(s)}" for name, s in splits.items())
    click.echo(
        f"ingested {counts}; store={len(split.store)} finetune={len(split.finetune)}; "
        f"recovered {warnings.dangling_inside} dangling inside-tags"
    )


@main.command()
@click.pass_obj
@_handle_errors
def index(cfg: RunConfig):
    """Embed the store split and build the configured vector indexes."""
    from . import pipeline
    from .embedder import PrecomputedEmbeddingProvider

    verify_upstream(cfg, "ingest")
    sentences = read_sentences_jsonl(cfg.paths.out_path("corpus", "store.jsonl"))
    schema = load_schema(cfg.paths.out_path("schema.json"))
    embedder = pipeline.make_embedder(cfg)
    store = pipeline.build_store(sentences, schema, embedder, cfg)
    store_dir = cfg.paths.out_path("store")
    store.save(store_dir)
    digests = {}
    if isinstance(embedder.provider, PrecomputedEmbeddingProvider):
        # later commands open this cache instead of parsing the file again
        embedder.provider.save_cache(store_dir)
        digests[str(Path(embedder.provider.path))] = embedder.provider.sha256
    outputs = sorted(p for p in store_dir.iterdir() if p.is_file())
    inputs = [cfg.paths.out_path("corpus", "store.jsonl"), cfg.paths.out_path("schema.json")]
    write_manifest(cfg, "index", inputs, outputs, input_digests=digests)
    built = [m for m, attr in (("word", store.word_index), ("sentence", store.sentence_index))
             if attr is not None]
    click.echo(f"indexed {len(sentences)} store sentences ({' + '.join(built)})")


def _read_queries(cfg: RunConfig, input_path: str | None, texts: tuple[str, ...]):
    queries = []
    if input_path:
        path = Path(input_path)
        if path.suffix == ".jsonl":
            queries.extend(read_sentences_jsonl(path))
        else:
            # ad-hoc BIO input gets negative ids so it can never collide
            # with store sentence ids
            sentences, _ = load_split_file(path)
            for i, s in enumerate(sentences):
                s.id = -(i + 1)
            queries.extend(sentences)
    base = len(queries)
    for i, text in enumerate(texts):
        queries.append(LabeledSentence(id=-(base + i + 1), tokens=text.split()))
    if not queries:
        raise ConfigError("no queries given; pass --input or --text")
    return queries


@main.command("retrieve")
@click.option("--input", "input_path", type=click.Path(exists=True), default=None,
              help="Query sentences (.jsonl or BIO).")
@click.option("--text", "texts", multiple=True, help="Ad-hoc query sentence.")
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
@_handle_errors
def retrieve_cmd(cfg: RunConfig, input_path, texts, output_path):
    """Retrieve in-prompt examples for query sentences (JSON lines out)."""
    from . import pipeline
    from .retriever import retrieval_payload, retrieve

    verify_upstream(cfg, "index")
    store = pipeline.load_store(cfg)
    queries = _read_queries(cfg, input_path, texts)
    entries = retrieve(queries, store, cfg.retriever)
    for entry in entries:
        if isinstance(entry, RagnerError):
            raise entry  # before the output is opened, so no partial file is left
    out_path = Path(output_path) if output_path else cfg.paths.out_path("retrieval.jsonl")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        for query, examples in zip(queries, entries):
            fh.write(json.dumps(retrieval_payload(query.text, examples), ensure_ascii=False) + "\n")
    inputs = [Path(input_path)] if input_path else []
    write_manifest(cfg, "retrieve", inputs, [out_path])
    click.echo(f"retrieved examples for {len(queries)} queries -> {out_path}")


@main.command()
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
@_handle_errors
def augment(cfg: RunConfig, output_path):
    """Generate the regularized finetune dataset from the finetune split."""
    from . import pipeline
    from .augment import build_finetune_dataset, write_finetune_jsonl
    from .promptkit import resolve_template

    verify_upstream(cfg, "ingest")
    verify_upstream(cfg, "index")
    finetune_sentences = read_sentences_jsonl(
        cfg.paths.out_path("corpus", "finetune_split.jsonl")
    )
    if not finetune_sentences:
        raise ConfigError(
            "finetune split is empty; set store.size so ingest leaves sentences to finetune on"
        )
    store = pipeline.load_store(cfg)
    out_path = Path(output_path) if output_path else cfg.paths.out_path("finetune_dataset.jsonl")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    skipped: list[tuple[int, str]] = []
    records = build_finetune_dataset(
        finetune_sentences,
        store,
        cfg.augment,
        cfg.retriever,
        template_id=cfg.prompt.template_id,
        template_text=resolve_template(cfg.prompt.template_id, cfg.prompt.template_file),
        task_description=pipeline._task_description(cfg),
        skipped=skipped,
    )
    count = write_finetune_jsonl(records, out_path)
    write_manifest(cfg, "augment",
                    [cfg.paths.out_path("corpus", "finetune_split.jsonl")], [out_path])
    click.echo(f"wrote {count} finetune records -> {out_path} ({len(skipped)} skipped)")


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True), default=None,
              help="Sentences to predict on; defaults to the ingested test split.")
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
@_handle_errors
def predict(cfg: RunConfig, input_path, output_path):
    """Retrieve, prompt, generate and parse for every input sentence."""
    from . import pipeline

    verify_upstream(cfg, "index")
    store = pipeline.load_store(cfg)
    in_path = Path(input_path) if input_path else cfg.paths.out_path("corpus", "test.jsonl")
    if not in_path.exists():
        raise MissingArtifact(f"no input sentences at {in_path}")
    sentences = read_sentences_jsonl(in_path) if in_path.suffix == ".jsonl" else \
        load_split_file(in_path)[0]
    outcome = pipeline.predict_sentences(sentences, store, cfg)

    out_path = Path(output_path) if output_path else cfg.paths.out_path("predictions.jsonl")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        for row in outcome.rows:
            fh.write(json.dumps(row.to_dict(), ensure_ascii=False) + "\n")
    _write_telemetry(out_path, {"latency": outcome.latency, "failures": len(outcome.failures)})
    write_manifest(cfg, "predict", [in_path], [out_path])
    median = outcome.latency.get("median")
    timing = f", median latency {median:.4f}s" if median is not None else ""
    click.echo(
        f"predicted {len(outcome.rows)} sentences "
        f"({len(outcome.failures)} failures{timing}) -> {out_path}"
    )


@main.command()
@click.option("--predictions", "predictions_path", type=click.Path(), default=None)
@click.option("--gold", "gold_path", type=click.Path(), default=None)
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
@_handle_errors
def evaluate(cfg: RunConfig, predictions_path, gold_path, output_path):
    """Score predictions against gold; writes report.json, prints a table."""
    verify_upstream(cfg, "predict")
    pred_path = Path(predictions_path) if predictions_path else cfg.paths.out_path("predictions.jsonl")
    gold_file = Path(gold_path) if gold_path else cfg.paths.out_path("corpus", "test.jsonl")
    schema = load_schema(cfg.paths.out_path("schema.json"))
    gold_by_id = {s.id: s for s in read_sentences_jsonl(gold_file)}

    records = []
    with open(pred_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            sentence = gold_by_id.get(doc["query_id"])
            if sentence is None:
                raise ConfigError(
                    f"prediction {doc['query_id']} has no gold sentence in {gold_file}"
                )
            parsed = doc.get("parsed")
            predicted = NerOutput(dict(parsed)) if parsed else NerOutput({})
            records.append(
                PredictionRecord(
                    sentence_id=sentence.id,
                    gold=gold_output(sentence, schema),
                    predicted=predicted.restricted_to(schema),
                    parse_failed=bool(doc.get("parse_failed")),
                    sentence=sentence,
                )
            )
    report = score(records, dedupe=cfg.eval.dedupe, match_mode=cfg.eval.match_mode)
    click.echo(format_report(report, title=str(pred_path)))
    out_path = Path(output_path) if output_path else cfg.paths.out_path("report.json")
    write_report_json(
        report,
        out_path,
        config_fingerprint=cfg.fingerprint,
        seed=cfg.seed,
        template_id=cfg.prompt.template_id,
        model_name=cfg.generator.model_name or cfg.generator.backend,
        grounding=cfg.eval.grounding,
    )
    write_manifest(cfg, "evaluate", [pred_path, gold_file], [out_path])


def _grid_cells(grid_path: str) -> list[dict]:
    """The cells of a grid file, `{axes: {dotted.key: [values]}}` or
    `{cells: [{dotted.key: value}]}`."""
    try:
        doc = yaml.safe_load(Path(grid_path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"cannot parse grid file {grid_path}: {exc}") from exc
    if not isinstance(doc, dict) or not ("axes" in doc or "cells" in doc):
        raise ConfigError(f"{grid_path}: grid file needs an 'axes' or 'cells' key")
    if "axes" in doc:
        axes = doc["axes"]
        if not isinstance(axes, dict) or not all(
            isinstance(key, str) and isinstance(values, list) for key, values in axes.items()
        ):
            raise ConfigError(f"{grid_path}: axes must map each dotted key to a list of values")
        return expand_grid(axes)
    cells = doc["cells"]
    if not isinstance(cells, list) or not all(
        isinstance(cell, dict) and all(isinstance(key, str) for key in cell) for cell in cells
    ):
        raise ConfigError(f"{grid_path}: cells must be a list of mappings from dotted keys")
    return cells


@main.command()
@click.option("--grid", "grid_path", type=click.Path(exists=True), required=True,
              help="YAML/JSON grid: {axes: {dotted.key: [values]}} or {cells: [...]}.")
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
@_handle_errors
def ablate(cfg: RunConfig, grid_path, output_path):
    """Run one end-to-end evaluation per grid cell, same seed everywhere.

    Exits 2 after writing the table when no cell succeeds."""
    from . import pipeline

    results = run_ablation(_grid_cells(grid_path), pipeline.make_ablation_runner(cfg))
    click.echo(format_ablation(results))
    out_path = Path(output_path) if output_path else cfg.paths.out_path("ablation.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(
        json.dumps(
            ablation_to_dict(results, config_fingerprint=cfg.fingerprint, seed=cfg.seed),
            indent=2, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    _write_telemetry(out_path, {"cells": [{"axes": c.axes, "latency": c.latency} for c in results]})
    write_manifest(cfg, "ablate", [Path(grid_path)], [out_path])
    if not any(cell.ok for cell in results):
        raise AblationFailed(f"no cell of {len(results)} succeeded; see {out_path}")


if __name__ == "__main__":
    main()
