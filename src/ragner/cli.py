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

from . import files
from .config import RunConfig, load_config, read_document
from .corpus import (
    LabeledSentence,
    load_corpus,
    load_schema,
    load_split_file,
    read_sentences_jsonl,
    save_schema,
    select_store_split,
    write_sentences_jsonl,
)
from .errors import AblationFailed, ConfigError, MissingArtifact, RagnerError
from .manifest import Digests, verify_upstream, write_manifest

# Each command imports the modules it runs in its body: ingest and evaluate
# never load numpy, only evaluate and ablate load the scoring module, and a
# JSON config loads no yaml (see README, "What each command loads").


def _telemetry_path(out_path: Path) -> Path:
    """Wall-clock figures go next to `out_path`, outside every manifest."""
    return out_path.with_name(out_path.stem + "_telemetry.json")


def _write_telemetry(out_path: Path, doc: dict) -> None:
    files.write_json(_telemetry_path(out_path), doc, indent=2, sort_keys=True)


def _fail(error: str, message: str):
    click.echo(json.dumps({"error": error, "message": message}), err=True)
    sys.exit(2)


def _one_error_line(method):
    """A `click.Group` method whose usage errors and RagnerErrors end as one
    JSON line and exit 2; `ragner` alone still prints the help."""
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except click.exceptions.NoArgsIsHelpError:
            raise
        except click.UsageError as exc:
            hint = f" See `{exc.ctx.command_path} --help`." if exc.ctx else ""
            _fail("UsageError", exc.format_message() + hint)
        except RagnerError as exc:
            _fail(type(exc).__name__, str(exc))

    return wrapper


class _Commands(click.Group):
    """The command group. A usage error arises while it parses its own
    options (make_context) or chooses a command and parses its options
    (invoke); every other error, while invoke runs the group's callback
    and then the command's."""

    make_context = _one_error_line(click.Group.make_context)
    invoke = _one_error_line(click.Group.invoke)


@click.group(cls=_Commands)
@click.option("--config", "-c", "config_path", type=click.Path(), default=None,
              help="YAML or JSON run configuration.")
@click.option("--set", "-S", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Dotted config override, e.g. retriever.k=10.")
@click.pass_context
def main(ctx, config_path, overrides):
    """Retrieval-augmented few-shot NER pipeline."""
    ctx.obj = load_config(config_path, list(overrides))


@main.command()
@click.pass_obj
def ingest(cfg: RunConfig):
    """Parse corpus + schema files and persist the store/finetune split."""
    splits, schema, warnings = load_corpus(cfg)
    split = select_store_split(splits, cfg)

    parts = {**splits, "store": split.store, "finetune_split": split.finetune}
    outputs = [cfg.paths.out_path("corpus", f"{name}.jsonl") for name in parts]
    for path, sentences in zip(outputs, parts.values()):
        write_sentences_jsonl(sentences, path)
    outputs.append(cfg.paths.out_path("schema.json"))
    save_schema(schema, outputs[-1])

    inputs = [Path(p) for p in (cfg.paths.corpus_train, cfg.paths.corpus_dev,
                                cfg.paths.corpus_test, cfg.paths.schema) if p]
    write_manifest(cfg, "ingest", inputs, outputs, files.sha256_file)
    counts = ", ".join(f"{name}={len(s)}" for name, s in splits.items())
    click.echo(
        f"ingested {counts}; store={len(split.store)} finetune={len(split.finetune)}; "
        f"recovered {warnings.dangling_inside} dangling inside-tags"
    )


@main.command()
@click.pass_obj
def index(cfg: RunConfig):
    """Embed the store split and build the configured vector indexes, from
    the embedding cache while the embedding file is unchanged."""
    from . import pipeline
    from .embedder import CACHE_FILES

    digests = Digests()  # each file read once: the outputs left as they were keep theirs
    verify_upstream(cfg, "ingest", digests)
    inputs = [cfg.paths.out_path("corpus", "store.jsonl"), cfg.paths.out_path("schema.json")]
    sentences = read_sentences_jsonl(inputs[0])
    schema = load_schema(inputs[1])
    store_dir = cfg.paths.out_path("store")
    # a parse writes its cache here, which moves into the store only once the store is saved
    with files.scratch_dir(store_dir.parent) as parse_dir:
        store, how = pipeline.current_store(cfg, sentences, schema, digests, parse_dir,
                                           cfg.store.modes)
        written = []
        if how == "built":  # a loaded store's files are the ones indexed_store hashed
            store.save(store_dir)
            written = [p for p in store_dir.iterdir() if p.name not in CACHE_FILES]
        for name in CACHE_FILES:  # parsed: later commands open this cache instead
            if (parse_dir / name).exists():
                written.append(store_dir / name)
                files.move(parse_dir / name, written[-1])
            elif cfg.embedder.provider != "precomputed-file":  # no command reads it for this store
                (store_dir / name).unlink(missing_ok=True)
    if cfg.embedder.provider == "precomputed-file":
        inputs.append(Path(cfg.embedder.precomputed_path))
    for path in written:
        digests.pop(str(path), None)
    outputs = sorted(p for p in store_dir.iterdir() if p.is_file())
    if cfg.embedder.stopwords_file:  # the store's word records depend on its content
        inputs.append(Path(cfg.embedder.stopwords_file))
    write_manifest(cfg, "index", inputs, outputs, digests)
    built = [mode.removesuffix("-level") for mode in store.indexes]
    click.echo(f"indexed {len(sentences)} store sentences ({' + '.join(built)})")


def _read_input(path: Path) -> list[LabeledSentence]:
    """The sentences of an --input file: JSONL keeps its ids, which must not
    repeat, and BIO input gets negative ids, so that it can never collide
    with store sentence ids."""
    if path.suffix == ".jsonl":
        return read_sentences_jsonl(path, unique_ids=True)
    sentences, _ = load_split_file(path)
    for i, s in enumerate(sentences):
        s.id = -(i + 1)
    return sentences


def _read_queries(input_path: str | None, texts: tuple[str, ...]) -> list[LabeledSentence]:
    queries = _read_input(Path(input_path)) if input_path else []
    base = len(queries)
    for i, text in enumerate(texts):
        queries.append(LabeledSentence(id=-(base + i + 1), tokens=text.split()))
    if not queries:
        raise ConfigError("no queries given; pass --input or --text")
    return queries


@main.command("retrieve")
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="Query sentences (.jsonl or BIO).")
@click.option("--text", "texts", multiple=True, help="Ad-hoc query sentence.")
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
def retrieve_cmd(cfg: RunConfig, input_path, texts, output_path):
    """Retrieve in-prompt examples for query sentences (JSON lines out)."""
    from . import pipeline
    from .retriever import retrieval_payload, retrieve

    out_path = Path(output_path) if output_path else cfg.paths.out_path("retrieval.jsonl")
    files.check_writable(out_path)
    digests = Digests()
    store = pipeline.load_store(cfg, digests)
    queries = _read_queries(input_path, texts)
    entries = retrieve(queries, store, cfg.retriever)
    for entry in entries:
        if isinstance(entry, RagnerError):
            raise entry  # before the output is opened, so no partial file is left
    files.write_jsonl(out_path, (retrieval_payload(query.text, examples)
                                 for query, examples in zip(queries, entries)))
    inputs = [Path(input_path)] if input_path else []
    digests.pop(str(out_path), None)
    write_manifest(cfg, "retrieve", inputs, [out_path], digests)
    click.echo(f"retrieved examples for {len(queries)} queries -> {out_path}")


@main.command()
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
def augment(cfg: RunConfig, output_path):
    """Generate the regularized finetune dataset from the finetune split."""
    from . import pipeline
    from .augment import build_finetune_dataset, write_finetune_jsonl
    from .promptkit import resolve_prompt

    digests = Digests()
    verify_upstream(cfg, "ingest", digests)
    if cfg.augment.dropout_fraction > 0:  # the store's schema, once load_store finds it current
        cfg.augment.removal_bounds(len(load_schema(cfg.paths.out_path("schema.json"))))
    finetune_path = cfg.paths.out_path("corpus", "finetune_split.jsonl")
    finetune_sentences = read_sentences_jsonl(finetune_path)
    if not finetune_sentences:
        raise ConfigError(
            "finetune split is empty; set store.size so ingest leaves sentences to finetune on"
        )
    out_path = Path(output_path) if output_path else cfg.paths.out_path("finetune_dataset.jsonl")
    files.check_writable(out_path)
    store = pipeline.load_store(cfg, digests)
    skipped: list[tuple[int, str]] = []
    records = build_finetune_dataset(
        finetune_sentences, store, cfg.augment, cfg.retriever, resolve_prompt(cfg.prompt),
        skipped=skipped,
    )
    count = write_finetune_jsonl(records, out_path)
    digests.pop(str(out_path), None)
    write_manifest(cfg, "augment", [finetune_path], [out_path], digests)
    click.echo(f"wrote {count} finetune records -> {out_path} ({len(skipped)} skipped)")


@main.command()
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="Sentences to predict on; defaults to the ingested test split.")
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
def predict(cfg: RunConfig, input_path, output_path):
    """Retrieve, prompt, generate and parse for every input sentence."""
    from . import pipeline

    out_path = Path(output_path) if output_path else cfg.paths.out_path("predictions.jsonl")
    files.check_writable(out_path, _telemetry_path(out_path))
    digests = Digests()
    store = pipeline.load_store(cfg, digests)
    in_path = Path(input_path) if input_path else cfg.paths.out_path("corpus", "test.jsonl")
    if not in_path.exists():
        raise MissingArtifact(f"no input sentences at {in_path}")
    if not input_path:
        verify_upstream(cfg, "ingest", digests, only=[in_path])
    rows, latency = pipeline.predict_sentences(_read_input(in_path), store, cfg)

    files.write_jsonl(out_path, (row.to_dict() for row in rows))
    failures = sum(row.error is not None for row in rows)
    _write_telemetry(out_path, {"latency": latency, "failures": failures})
    digests.pop(str(out_path), None)
    write_manifest(cfg, "predict", [in_path], [out_path], digests)
    median = latency.get("median")
    timing = f", median latency {median:.4f}s" if median is not None else ""
    click.echo(f"predicted {len(rows)} sentences ({failures} failures{timing}) -> {out_path}")


@main.command()
@click.option("--predictions", "predictions_path", type=click.Path(), default=None)
@click.option("--gold", "gold_path", type=click.Path(), default=None)
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
def evaluate(cfg: RunConfig, predictions_path, gold_path, output_path):
    """Score predictions against gold; writes report.json, prints a table."""
    from .evaluation import format_report, score_rows, write_report_json

    digests = Digests()
    verify_upstream(cfg, "predict", digests)
    pred_path = Path(predictions_path) if predictions_path else cfg.paths.out_path("predictions.jsonl")
    gold_file = Path(gold_path) if gold_path else cfg.paths.out_path("corpus", "test.jsonl")
    schema_path = cfg.paths.out_path("schema.json")
    checked = [schema_path] if gold_path or not gold_file.exists() else [schema_path, gold_file]
    verify_upstream(cfg, "ingest", digests, only=checked)  # a missing gold file: its reader's error
    schema = load_schema(schema_path)
    gold = {s.id: s for s in read_sentences_jsonl(gold_file, unique_ids=True)}
    report = score_rows(files.read_jsonl(pred_path), gold, schema, cfg.eval)
    click.echo(format_report(report, title=str(pred_path)))
    out_path = Path(output_path) if output_path else cfg.paths.out_path("report.json")
    write_report_json(report, out_path, config_fingerprint=cfg.fingerprint, seed=cfg.seed,
                      template_id=cfg.prompt.template_id,
                      model_name=cfg.generator.model_name or cfg.generator.backend,
                      grounding=cfg.eval.grounding)
    digests.pop(str(out_path), None)
    write_manifest(cfg, "evaluate", [pred_path, gold_file], [out_path], digests)


def _grid_cells(grid_path: str) -> list[dict]:
    """The cells of a grid file, `{axes: {dotted.key: [values]}}` or
    `{cells: [{dotted.key: value}]}`."""
    from .evaluation import expand_grid

    doc = read_document(grid_path, "grid file")
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
@click.option("--grid", "grid_path", type=click.Path(), required=True,
              help="YAML/JSON grid: {axes: {dotted.key: [values]}} or {cells: [...]}.")
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.pass_obj
def ablate(cfg: RunConfig, grid_path, output_path):
    """Run one end-to-end evaluation per grid cell, same seed everywhere.

    Exits 2 after writing the table when no cell succeeds."""
    from . import pipeline
    from .evaluation import ablation_to_dict, format_ablation

    out_path = Path(output_path) if output_path else cfg.paths.out_path("ablation.json")
    files.check_writable(out_path, _telemetry_path(out_path))
    with files.scratch_dir(out_path.parent) as scratch:  # for a cell that has to parse
        results = pipeline.run_sweep(cfg, _grid_cells(grid_path), scratch)
    click.echo(format_ablation(results))
    files.write_json(out_path,
                     ablation_to_dict(results, config_fingerprint=cfg.fingerprint, seed=cfg.seed),
                     indent=2, sort_keys=True)
    _write_telemetry(out_path, {"cells": [{"axes": c.axes, "latency": c.latency, **c.telemetry}
                                          for c in results]})
    write_manifest(cfg, "ablate", [Path(grid_path)], [out_path], files.sha256_file)
    if not any(cell.ok for cell in results):
        raise AblationFailed(f"no cell of {len(results)} succeeded; see {out_path}")


if __name__ == "__main__":
    main()
