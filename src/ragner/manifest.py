"""Per-command manifests: the config fingerprint, seed and sha256 of every
input and output a command read or wrote, under out_dir/manifests/.

Downstream commands check their upstream's recorded outputs before they
read them. This module loads no numpy, so every command can use it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .config import RunConfig
from .errors import FormatError, MissingArtifact


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_path(cfg: RunConfig, command: str) -> Path:
    return cfg.paths.out_path("manifests", f"{command}.json")


def write_manifest(
    cfg: RunConfig,
    command: str,
    inputs: list[Path],
    outputs: list[Path],
    input_digests: dict[str, str] | None = None,
) -> None:
    """`input_digests` records inputs already hashed while they were read."""
    doc = {
        "command": command,
        "config_fingerprint": cfg.fingerprint,
        "seed": cfg.seed,
        "inputs": {**{str(p): sha256_file(p) for p in sorted(inputs)}, **(input_digests or {})},
        "outputs": {str(p): sha256_file(p) for p in sorted(outputs)},
    }
    path = manifest_path(cfg, command)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_manifest(cfg: RunConfig, command: str) -> dict:
    """`command`'s manifest; MissingArtifact when it has none, FormatError
    when it is not JSON."""
    path = manifest_path(cfg, command)
    if not path.exists():
        raise MissingArtifact(f"no {command} manifest at {path}; run `ragner {command}` first")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable manifest ({exc}); re-run `ragner {command}`") from exc


def check_digests(recorded: dict[str, str | None], command: str) -> None:
    """Raise MissingArtifact unless every file named in `recorded` exists and
    hashes to its digest; a digest of None means `command` recorded none."""
    for artifact, expected in recorded.items():
        artifact_path = Path(artifact)
        if not artifact_path.exists():
            raise MissingArtifact(f"{command} artifact missing: {artifact}")
        if sha256_file(artifact_path) != expected:
            raise MissingArtifact(
                f"{command} artifact changed since its manifest: {artifact}"
            )


def verify_upstream(cfg: RunConfig, command: str) -> None:
    """Check that `command`'s recorded outputs still exist and hash the same."""
    check_digests(read_manifest(cfg, command).get("outputs", {}), command)
