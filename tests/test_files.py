"""The file contract: every file a command reads or writes fails the same way.

A file that is missing, a directory, not UTF-8 or a JSON document of the
wrong top-level type, and an output path that is a directory or lies under
a file, each end the command with exit status 2 and one JSON line on
stderr, never a traceback. `ragner.files` is the only module that opens a
file, so the rule has one implementation.
"""

from __future__ import annotations

import ast
import errno
import hashlib
import json
import os
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest

from ragner import files
from ragner.errors import MissingArtifact
from ragner.files import read_jsonl, write_json, write_jsonl

from test_cli import TEST, make_project, run, write_grid

SRC = Path(__file__).resolve().parents[1] / "src" / "ragner"

# --- the rule's one implementation ---------------------------------------------

FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "mkdir"}
# calls that open a file elsewhere, each with the reason it cannot move
ALLOWED: dict[tuple[str, str], str] = {}


def file_calls(source: str) -> list[tuple[str, int]]:
    """(call, line) of each call in `source` that opens, writes or creates a
    file itself; a `files.<name>(...)` call goes through the file module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "files":
                continue
            name = func.attr
        else:
            name = getattr(func, "id", None)
        if name in FILE_CALLS:
            found.append((name, node.lineno))
    return found


def test_only_the_file_module_opens_files():
    modules = {m.stem: m for m in SRC.glob("*.py")}
    assert "files" in modules
    calls = [(stem, name, line) for stem, path in sorted(modules.items()) if stem != "files"
             for name, line in file_calls(path.read_text(encoding="utf-8"))]
    assert [c for c in calls if c[:2] not in ALLOWED] == []


def test_the_check_sees_every_kind_of_file_call():
    sample = ("open(p)\nPath(p).read_text()\nfh.read_bytes()\np.write_text(s)\n"
              "p.write_bytes(b)\nd.mkdir()\nfiles.read_text(p)\nfiles.write_json(p, d)\n")
    assert sorted(name for name, _ in file_calls(sample)) == sorted(FILE_CALLS)


def index_manifest_calls(source: str) -> list[tuple[str | None, str, int]]:
    """(owner, call, line) of each `read_manifest(..., "index")` and
    `verify_upstream(..., "index")` in `source`; the owner is the top-level
    function or class the call is in, None at module level."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            command = node.args[1:2] + [k.value for k in node.keywords if k.arg == "command"]
            if name in ("read_manifest", "verify_upstream") and any(
                    isinstance(arg, ast.Constant) and arg.value == "index" for arg in command):
                found.append((getattr(top, "name", None), name, node.lineno))
    return found


def test_only_the_currency_function_asks_whether_the_store_is_current():
    sample = ("def f(cfg):\n    manifest.read_manifest(cfg, command='index')\n"
              "verify_upstream(cfg, 'index')\nread_manifest(cfg, 'ingest')\n")
    assert index_manifest_calls(sample) == [("f", "read_manifest", 2),
                                            (None, "verify_upstream", 3)]
    calls = [(path.stem, owner, name) for path in sorted(SRC.glob("*.py"))
             for owner, name, _ in index_manifest_calls(path.read_text(encoding="utf-8"))]
    assert calls == [("pipeline", "indexed_store", "read_manifest")]


# --- writers -------------------------------------------------------------------

def test_writers_keep_their_json_arguments_and_create_the_directory(tmp_path):
    doc = {"b": ["é"], "a": 1}
    write_json(tmp_path / "new" / "doc.json", doc, indent=2, sort_keys=True)
    assert (tmp_path / "new" / "doc.json").read_text(encoding="utf-8") == \
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert write_jsonl(tmp_path / "deep" / "er" / "rows.jsonl", iter([doc, doc])) == 2
    assert (tmp_path / "deep" / "er" / "rows.jsonl").read_bytes() == \
        2 * (json.dumps(doc, ensure_ascii=False) + "\n").encode("utf-8")
    assert write_jsonl(tmp_path / "empty.jsonl", []) == 0


def test_the_line_loop_digests_every_byte_and_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    raw = b'{"a": 1}\n\n  \n[2]\n'
    path.write_bytes(raw)
    digest = hashlib.sha256()
    assert list(read_jsonl(path, digest=digest)) == [(f"{path}:1", {"a": 1}), (f"{path}:4", [2])]
    assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("size", [0, 1, (1 << 18) - 1, 1 << 18, (1 << 18) + 1, 3 << 18])
def test_sha256_file_digests_every_byte(tmp_path, size):
    raw = os.urandom(size)
    (tmp_path / "blob").write_bytes(raw)
    assert files.sha256_file(tmp_path / "blob") == hashlib.sha256(raw).hexdigest()


def test_hashing_a_file_traces_less_than_half_a_megabyte(tmp_path):
    # every read goes into one buffer: no chunk-sized bytes per read
    (tmp_path / "blob").write_bytes(os.urandom(4 << 20))
    tracemalloc.start()
    try:
        files.sha256_file(tmp_path / "blob")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * (1 << 20), peak


class FailingLines:
    """A binary file open for reading whose read of line `fail_at` fails with EIO."""

    def __init__(self, path, fail_at: int):
        self.lines = Path(path).read_bytes().splitlines(keepends=True)
        self.fail_at = fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __iter__(self):
        for line_no, line in enumerate(self.lines, start=1):
            if line_no == self.fail_at:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            yield line


def fail_reading(monkeypatch, path: Path, line_no: int) -> None:
    """Reading line `line_no` of `path` fails with EIO; every other file opens as usual."""
    def opener(name, *args, **kwargs):
        return FailingLines(name, line_no) if Path(name) == path else open(name, *args, **kwargs)

    monkeypatch.setattr(files, "open", opener, raising=False)


def test_a_read_error_in_the_line_loop_is_the_files_cannot_read(tmp_path, monkeypatch):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b"[1]\n[2]\n[3]\n")
    fail_reading(monkeypatch, path, 3)
    rows = read_jsonl(path)
    assert [next(rows), next(rows)] == [(f"{path}:1", [1]), (f"{path}:2", [2])]
    with pytest.raises(MissingArtifact) as exc:
        next(rows)
    assert str(exc.value) == f"cannot read {path}: Input/output error"


def test_a_read_error_in_the_parse_names_the_embedding_file_not_the_cache(tmp_path,
                                                                         monkeypatch):
    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    jsonl = ns.data / "embeddings.jsonl"
    fail_reading(monkeypatch, jsonl, 3)
    err = json.loads(run(["-c", ns.cfg, "index"], expect=2).stderr)
    assert err == {"error": "MissingArtifact",
                   "message": f"cannot read {jsonl}: Input/output error"}
    assert not (ns.out / "store").exists()


# --- every path a command reads or writes ----------------------------------------

NOT_UTF8 = b'{"caf\xe9": 1}\n'


def make_bad(path: Path, kind: str, wrong_type: bytes | None) -> None:
    """Put the bad case `kind` at `path`, replacing what is there."""
    if path.is_file():
        path.unlink()
    if kind == "a directory":
        path.mkdir(parents=True)
    elif kind == "not UTF-8":
        path.write_bytes(NOT_UTF8)
    elif kind == "wrong type":
        path.write_bytes(wrong_type)


def record_digest(ns, command: str, path: Path) -> None:
    """Make `command`'s manifest record the file now at `path`, so that
    the command that reads it gets past the digest check."""
    manifest = ns.out / "manifests" / f"{command}.json"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["outputs"][str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest.write_text(json.dumps(doc), encoding="utf-8")


class Read(NamedTuple):
    """A file a command reads: the commands run first, where the bad file
    goes, the arguments that make a command read it, its wrong-type content,
    the error for a file that cannot be opened and for one that cannot be
    decoded, and the manifest whose digest covers the file."""

    before: tuple[str, ...]
    place: Callable[[SimpleNamespace], Path]
    argv: Callable[[Path], list]
    wrong_type: bytes | None  # None for a text file, which has no type
    cannot_open: str = "MissingArtifact"
    cannot_decode: str = "FormatError"
    manifest: str | None = None


INDEXED = ("ingest", "index")
PREDICTED = ("ingest", "index", "predict")
READS = {
    "config": Read((), lambda ns: ns.root / "config.yaml", lambda p: ["-c", p, "ingest"],
                   b"- seed\n", "ConfigError", "ConfigError"),
    "grid": Read((), lambda ns: ns.root / "grid.yaml", lambda p: ["ablate", "--grid", p],
                 b"[1]\n", "ConfigError", "ConfigError"),
    "schema": Read((), lambda ns: ns.root / "schema.json",
                   lambda p: ["-S", f"paths.schema={p}", "ingest"], b'"types"\n'),
    "corpus jsonl": Read((), lambda ns: ns.root / "dev.jsonl",
                         lambda p: ["-S", f"paths.corpus_dev={p}", "ingest"], b"[]\n"),
    "corpus bio": Read((), lambda ns: ns.root / "train.txt",
                       lambda p: ["-S", f"paths.corpus_train={p}", "ingest"], None),
    "input": Read(INDEXED, lambda ns: ns.root / "input.jsonl",
                  lambda p: ["predict", "--input", p], b"[]\n"),
    "input bio": Read(INDEXED, lambda ns: ns.root / "input.txt",
                      lambda p: ["retrieve", "--input", p], None),
    "gold": Read(PREDICTED, lambda ns: ns.root / "gold.jsonl",
                 lambda p: ["evaluate", "--gold", p], b"[]\n"),
    "predictions": Read(PREDICTED, lambda ns: ns.root / "p.jsonl",
                        lambda p: ["evaluate", "--predictions", p], b"[]\n"),
    "precomputed_path": Read(("ingest",), lambda ns: ns.root / "emb.jsonl",
                             lambda p: ["-S", f"embedder.precomputed_path={p}", "index"],
                             b"[]\n"),
    "stopwords_file": Read(("ingest",), lambda ns: ns.root / "stop.txt",
                           lambda p: ["-S", f"embedder.stopwords_file={p}", "index"], None),
    "template_file": Read(INDEXED, lambda ns: ns.root / "template.txt",
                          lambda p: ["-S", f"prompt.template_file={p}", "predict"], None,
                          "TemplateError", "TemplateError"),
    "ingest manifest": Read(("ingest",), lambda ns: ns.out / "manifests" / "ingest.json",
                            lambda p: ["index"], b"[]\n"),
    "index manifest": Read(INDEXED, lambda ns: ns.out / "manifests" / "index.json",
                           lambda p: ["predict"], b"[]\n"),
    "predict manifest": Read(PREDICTED, lambda ns: ns.out / "manifests" / "predict.json",
                             lambda p: ["evaluate"], b"[]\n"),
    "meta.json": Read(INDEXED, lambda ns: ns.out / "store" / "meta.json",
                      lambda p: ["predict"], b"[]\n", manifest="index"),
    "embeddings.texts.json": Read(INDEXED, lambda ns: ns.out / "store" / "embeddings.texts.json",
                                  lambda p: ["predict"], b"{}\n", manifest="index"),
}
READ_CASES = [pytest.param(role, kind, id=f"{role}-{kind}") for role, spec in READS.items()
              for kind in ("missing", "a directory", "not UTF-8", "wrong type")
              if kind != "wrong type" or spec.wrong_type is not None]


@pytest.mark.parametrize("role, kind", READ_CASES)
def test_a_bad_input_file_exits_2_with_one_json_line(tmp_path, role, kind):
    spec = READS[role]
    ns = make_project(tmp_path)
    for command in spec.before:
        run(["-c", ns.cfg, command])
    path = spec.place(ns)
    make_bad(path, kind, spec.wrong_type)
    if spec.manifest is not None and path.is_file():
        record_digest(ns, spec.manifest, path)
    args = spec.argv(path)
    result = run(args if role == "config" else ["-c", ns.cfg, *args], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    expected = spec.cannot_open if kind in ("missing", "a directory") else spec.cannot_decode
    assert doc["error"] == expected and path.name in doc["message"], doc


def _output(command, *extra):
    return lambda p: [command, *extra, "--output", p]


WRITES = {
    "retrieve --output": _output("retrieve", "--text", TEST[0].text),
    "augment --output": _output("augment"),
    "predict --output": _output("predict"),
    "evaluate --output": _output("evaluate"),
    "ablate --output": _output("ablate", "--grid", "grid.yaml"),
    "paths.out_dir": lambda p: ["-S", f"paths.out_dir={p}", "ingest"],
}
WRITE_CASES = [pytest.param(role, kind, id=f"{role}-{kind}") for role in WRITES
               for kind in ("a file" if role == "paths.out_dir" else "a directory",
                            "under a file")]


@pytest.mark.parametrize("role, kind", WRITE_CASES)
def test_an_output_path_that_cannot_be_written_exits_2_with_one_json_line(
        tmp_path, monkeypatch, role, kind):
    ns = make_project(tmp_path)
    for command in ("ingest", "index", "predict"):
        run(["-c", ns.cfg, command])
    write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1]}})
    monkeypatch.chdir(tmp_path)
    if kind == "a directory":
        path = tmp_path / "taken"
        path.mkdir()
        (path / "kept.txt").write_text("kept", encoding="utf-8")
    elif kind == "a file":
        path = tmp_path / "blocker"
        path.write_text("a file", encoding="utf-8")
    else:
        (tmp_path / "blocker").write_text("a file", encoding="utf-8")
        path = tmp_path / "blocker" / "out"
    result = run(["-c", ns.cfg, *WRITES[role](path)], expect=2)
    [line] = result.stderr.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError" and f"cannot write {path}" in doc["message"], doc
    if kind == "a directory":
        assert [p.name for p in path.iterdir()] == ["kept.txt"]


@pytest.mark.parametrize("role, taken", [
    ("retrieve --output", "output"), ("augment --output", "output"),
    ("predict --output", "output"), ("predict --output", "telemetry"),
    ("ablate --output", "output"), ("ablate --output", "telemetry"),
])
def test_an_unwritable_output_fails_before_any_work(tmp_path, monkeypatch, role, taken):
    from ragner import pipeline, retriever

    ns = make_project(tmp_path)
    for command in ("ingest", "index"):
        run(["-c", ns.cfg, command])
    write_grid(tmp_path / "grid.yaml", {"axes": {"retriever.k": [1]}})
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    blocked = out if taken == "output" else tmp_path / "out_telemetry.json"
    blocked.mkdir()
    called = []
    for module, name in ((pipeline, "generate_batch"), (pipeline, "run_cell"),
                         (retriever, "_retrieve_blocks")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: called.append(name))
    result = run(["-c", ns.cfg, *WRITES[role](out)], expect=2)
    doc = json.loads(result.stderr.strip())
    assert doc["error"] == "ConfigError" and doc["message"].startswith(f"cannot write {blocked}")
    assert called == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["config.yaml", "data", "grid.yaml", "out", blocked.name])
