"""The one module that opens files, so that one rule holds for every file
a command reads or writes; it loads no numpy, so every command can use it.

A reader takes its file's `Role`, which names the error classes as
`remote.post_json` takes its own: `error` for a file that is missing or
cannot be opened, `format_error`, naming `path` or `path:line`, for one
that cannot be decoded. A writer creates the parent directory and raises
ConfigError for a path it cannot write, which `--output` or
`paths.out_dir` chose.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple

from .errors import ConfigError, FormatError, MissingArtifact, RagnerError


class Role(NamedTuple):
    """What a file is to its reader: `what` names it in messages, `hint`
    ends them, and `not_found` replaces the message for a missing file."""

    what: str = ""
    error: type[RagnerError] = MissingArtifact
    format_error: type[RagnerError] = FormatError
    hint: str = ""
    not_found: str | None = None

    def cannot_read(self, path, exc: OSError) -> RagnerError:
        if self.not_found is not None and isinstance(exc, FileNotFoundError):
            return self.error(self.not_found)
        what = f"{self.what} " if self.what else ""
        return self.error(f"cannot read {what}{path}: {exc.strerror or exc}{self.hint}")

    def malformed(self, path, reason) -> RagnerError:
        """The error for a file whose content its role cannot use."""
        what = f"unreadable {self.what}: " if self.what else ""
        return self.format_error(f"{path}: {what}{reason}{self.hint}")


def store_role(path: Path, what: str) -> Role:
    """The role of a file that `index` writes into the store directory."""
    rerun = "; re-run `ragner index`"
    missing = f"no {what} in {path.parent} ({path.name} is missing){rerun}"
    return Role(what, hint=rerun, not_found=missing)


def read(path, decode: Callable, role: Role = Role()):
    """decode(path), which opens the file; an OSError raises the role's
    error, a ValueError, EOFError or RecursionError its format error."""
    try:
        return decode(path)
    except OSError as exc:
        raise role.cannot_read(path, exc) from exc
    except (ValueError, EOFError, RecursionError) as exc:
        raise role.malformed(path, exc) from exc


def _text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"not UTF-8: {exc}") from exc


def _json(path):
    with open(path, "rb") as fh:
        try:
            return json.loads(fh.read().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or an int past the limit
            raise ValueError(f"invalid JSON: {exc}") from exc


def _sha256(path) -> str:
    """hashlib.file_digest's loop (Python 3.11+): every read goes into one
    256 KB buffer, so hashing allocates nothing per read."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 18)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def read_text(path, role: Role = Role()) -> str:
    return read(path, _text, role)


def read_json(path, role: Role = Role()):
    return read(path, _json, role)


def sha256_file(path, role: Role = Role()) -> str:
    return read(path, _sha256, role)


def read_jsonl(path, loads: Callable = json.loads, digest=None) -> Iterator[tuple[str, object]]:
    """Each value of a JSON-lines file, decoded by `loads`, with the
    `path:line` it came from; blank lines are skipped. The file is streamed,
    and `digest` is updated with every byte of it. An OSError in opening or
    reading it raises the default role's error; a line that is not UTF-8
    or that `loads` cannot read raises FormatError naming path:line."""
    try:
        # a 1 MB buffer reads a line of an embedding file (about 135 KB at 768-d) in one call
        with open(path, "rb", buffering=1 << 20) as fh:
            for line_no, raw in enumerate(fh, start=1):
                if digest is not None:
                    digest.update(raw)
                where = f"{path}:{line_no}"
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise FormatError(f"{where}: not UTF-8: {exc}") from exc
                if not line:
                    continue
                try:
                    doc = loads(line)
                except (ValueError, RecursionError) as exc:  # an int past the limit, too deep
                    raise FormatError(f"{where}: invalid JSON: {exc}") from exc
                yield where, doc
    except OSError as exc:  # the caller's own errors between lines are raised in its frame
        raise Role().cannot_read(path, exc) from exc


def check_writable(*paths) -> None:
    """Raise the writers' ConfigError for a path that is a directory or
    whose parent cannot be created, before the work that ends in writing
    it. The parent is created; no file is."""
    for path in map(Path, paths):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: Is a directory")


def _write(path, mode: str, write: Callable, atomic: bool = False):
    """write(fh) into `path`; returns what write returned. An atomic write
    goes to a new file beside `path` that then replaces it, and that file
    is removed if anything fails, so `path` is left either as it was or
    whole; a reader that mapped the old file keeps it intact."""
    path = Path(path)
    into = path.with_name(path.name + ".tmp") if atomic else path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(into, mode, encoding=None if "b" in mode else "utf-8") as fh:
            result = write(fh)
        if atomic:
            into.replace(path)
        return result
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if atomic:  # still there only when something failed
            with contextlib.suppress(OSError):
                into.unlink(missing_ok=True)


def write_json(path, doc, **dumps) -> None:
    """`json.dumps(doc, **dumps)` and a newline."""
    _write(path, "w", lambda fh: fh.write(json.dumps(doc, **dumps) + "\n"))


def write_jsonl(path, docs) -> int:
    """One `json.dumps(doc, ensure_ascii=False)` line per doc, written
    atomically, so that an error raised while `docs` is consumed leaves the
    earlier file; returns the count."""
    def write(fh) -> int:
        count = 0
        for count, doc in enumerate(docs, start=1):
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")
        return count

    return _write(path, "w", write, atomic=True)


def replace(path: Path, write: Callable) -> None:
    """write(fh) into a binary file at `path`, atomically."""
    _write(path, "wb", write, atomic=True)


@contextlib.contextmanager
def created(paths: list[Path]) -> Iterator[list[BinaryIO]]:
    """New binary files at `paths`, open for reading and writing until the
    block ends; an OSError raised in the block is the writers' ConfigError."""
    try:
        with contextlib.ExitStack() as stack:
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
            yield [stack.enter_context(open(path, "w+b")) for path in paths]
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or paths[0].parent}: "
                          f"{exc.strerror or exc}") from exc


def move(path: Path, target: Path) -> None:
    """Rename `path` to `target`, replacing it: a reader that mapped the old
    file keeps it intact."""
    try:
        path.replace(target)
    except OSError as exc:
        raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def scratch_dir(parent: Path) -> Iterator[Path]:
    """A new empty directory `.ragner-*` in `parent`, removed with everything
    in it when the block ends."""
    import tempfile  # here: only index and ablate need it, and it costs every command's start

    try:
        scratch = tempfile.TemporaryDirectory(prefix=".ragner-", dir=parent)
    except OSError as exc:
        raise ConfigError(f"cannot write {parent}: {exc.strerror or exc}") from exc
    with scratch as name:
        yield Path(name)
