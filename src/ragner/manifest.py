"""Per-command manifests: the config fingerprint, seed and sha256 of every
input and output a command read or wrote, under out_dir/manifests/.

Downstream commands check their upstream's recorded outputs before they
read them. This module loads no numpy, so every command can use it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from . import files
from .config import RunConfig
from .errors import MissingArtifact


def manifest_path(cfg: RunConfig, command: str) -> Path:
    return cfg.paths.out_path("manifests", f"{command}.json")


class Digests(dict):
    """The sha256 of each file one command has hashed, by path. Called as
    `files.sha256_file` is, it hashes a file the first time only, so a
    command that hashes through one `Digests` reads each file once for it;
    the command drops the entry of a file it writes after hashing it."""

    def __call__(self, path, role: files.Role = files.Role()) -> str:
        key = str(path)
        if key not in self:
            self[key] = files.sha256_file(path, role)
        return self[key]


def write_manifest(cfg: RunConfig, command: str, inputs: list[Path], outputs: list[Path],
                   sha256: Callable) -> None:
    """Record the digest by `sha256` of every input and output."""
    doc = {
        "command": command,
        "config_fingerprint": cfg.fingerprint,
        "seed": cfg.seed,
        "inputs": {str(p): sha256(p) for p in sorted(inputs)},
        "outputs": {str(p): sha256(p) for p in sorted(outputs)},
    }
    files.write_json(manifest_path(cfg, command), doc, indent=2, sort_keys=True)


def _digest_map(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(path, str) and isinstance(digest, str) for path, digest in value.items())


def read_manifest(cfg: RunConfig, command: str) -> dict:
    """`command`'s manifest; MissingArtifact when it has none, FormatError
    when it is not a JSON object whose inputs and outputs map paths to
    digests."""
    path = manifest_path(cfg, command)
    role = files.Role("manifest", hint=f"; re-run `ragner {command}`",
                      not_found=f"no {command} manifest at {path}; run `ragner {command}` first")
    doc = files.read_json(path, role)
    if not (isinstance(doc, dict) and _digest_map(doc.get("inputs"))
            and _digest_map(doc.get("outputs"))):
        raise role.malformed(path, "expected an object whose inputs and outputs map paths "
                                   "to sha256 digests")
    return doc


def check_digests(recorded: dict[str, str | None], command: str, sha256: Callable) -> None:
    """Raise MissingArtifact unless every file named in `recorded` exists and
    hashes by `sha256` to its digest; a digest of None, which means that
    `command` recorded none, is never met."""
    rerun = f"; re-run `ragner {command}`"
    for artifact, expected in recorded.items():
        missing = files.Role(not_found=f"{command} artifact missing: {artifact}{rerun}")
        if expected is None or sha256(artifact, missing) != expected:
            raise MissingArtifact(f"{command} artifact changed since its manifest: {artifact}"
                                  f"{rerun}")


def verify_upstream(cfg: RunConfig, command: str, sha256: Digests,
                    only: list[Path] | None = None) -> None:
    """Check that `command`'s recorded outputs, or just the files at `only`,
    which it must have recorded, still exist and hash by `sha256` the same;
    `sha256` keeps their digests for the caller."""
    recorded = read_manifest(cfg, command)["outputs"]
    if only is not None:
        recorded = {str(p): recorded.get(str(p)) for p in only}
    check_digests(recorded, command, sha256)
