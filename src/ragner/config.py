"""Run configuration: one file (YAML or JSON), dotted overrides, and a
stable fingerprint that ties every artifact back to the exact settings
that produced it.

Each section's dataclass is the one declaration of its keys, defaults
and types; the dataclasses live here so that reading a config imports
only errors and files (and yaml, for text that is not JSON). Every value
is checked against its field's annotation before the dataclass is built,
and a `Literal[...]` annotation also names the values a key allows, so
`__post_init__` checks only ranges and cross-field rules. A seed left as
null in the retriever/store/augment sections inherits the global seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import re
import threading
import types
import typing
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Literal

from . import files
from .errors import ConfigError, SchemaTooSmall

# the RetrieverConfig fields ExampleStore.build reads; the rest are query-time
STORE_BUILD_FIELDS = ("store_words", "index_kind", "nlist", "kmeans_iters", "seed")
# The longest wait a timing key may ask for. time.sleep refuses a wait that
# ends past threading.TIMEOUT_MAX on the monotonic clock, which counts from
# boot; half of it holds for 146 years of uptime.
MAX_WAIT_S = threading.TIMEOUT_MAX / 2


@dataclass(frozen=True)
class RetrieverConfig:
    """Knobs for example selection.

    per_word_k defaults to k. The sum aggregator (sum of each query
    word's best match per sentence) is an experimental alternative to the
    default max.
    """

    k: int = 5
    mode: Literal["word-level", "sentence-level"] = "word-level"
    per_word_k: int | None = None
    store_words: Literal["entity-only", "all"] = "entity-only"
    index_kind: Literal["flat", "ivf"] = "flat"
    nlist: int | None = None
    nprobe: int | None = None
    kmeans_iters: int = 20
    seed: int = 0
    exclude_self: bool = True
    aggregator: Literal["max", "sum"] = "max"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.per_word_k is not None and self.per_word_k < 1:
            raise ValueError("per_word_k must be >= 1")
        if self.nprobe is not None and self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if self.nlist is not None and self.nlist < 1:
            raise ValueError(f"nlist must be >= 1, got {self.nlist}")
        if self.kmeans_iters < 0:
            raise ValueError(f"kmeans_iters must be >= 0, got {self.kmeans_iters}")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed must fit in a signed 64-bit integer, got {self.seed}")
        if self.index_kind == "ivf" and self.seed < 0:
            # k-means draws its initial centroids from np.random.default_rng(seed)
            raise ValueError(f"an ivf index needs a non-negative seed, got {self.seed}")

    @property
    def effective_per_word_k(self) -> int:
        return self.per_word_k if self.per_word_k is not None else self.k

    @property
    def search_depth(self) -> int:  # hits per query word, or per query in sentence-level mode
        return self.effective_per_word_k if self.mode == "word-level" else self.k


def _check_remote(timeout: float, max_retries: int) -> None:
    """The HTTP settings both remote clients take."""
    if timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    if timeout > MAX_WAIT_S:
        raise ValueError(f"timeout must be <= {MAX_WAIT_S}, got {timeout}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")


@dataclass(frozen=True)
class GeneratorSpec:
    backend: Literal["remote-completion", "mock-gold", "mock-echo-nearest"] = "mock-gold"
    endpoint: str | None = None
    model_name: str | None = None
    wire_format: Literal["prompt", "chat"] = "prompt"
    max_tokens: int = 256
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 2
    parallelism: int = 4
    mock_delay: float = 0.0
    mock_jitter: float = 0.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        _check_remote(self.timeout, self.max_retries)
        for name, value in (("mock_delay", self.mock_delay), ("mock_jitter", self.mock_jitter)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.mock_delay + self.mock_jitter > MAX_WAIT_S:
            raise ValueError(f"mock_delay + mock_jitter must be <= {MAX_WAIT_S}, "
                             f"got {self.mock_delay + self.mock_jitter}")
        if self.backend == "remote-completion" and not self.endpoint:
            raise ValueError("remote-completion backend requires an endpoint")


@dataclass(frozen=True)
class AugmentConfig:
    """Regularization knobs.

    max_removed defaults to |schema| - 1, resolved where the schema is
    known.
    """

    dropout_fraction: float = 0.3
    shuffle_fraction: float = 0.5
    min_removed: int = 1
    max_removed: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name, value in (
            ("dropout_fraction", self.dropout_fraction),
            ("shuffle_fraction", self.shuffle_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.min_removed < 1:
            raise ValueError("min_removed must be >= 1")
        if self.max_removed is not None and self.max_removed < self.min_removed:
            raise ValueError("max_removed must be >= min_removed")

    def removal_bounds(self, schema_size: int) -> tuple[int, int]:
        if schema_size < 2:
            raise SchemaTooSmall(
                f"entity-type dropout needs at least 2 types, schema has {schema_size}"
            )
        upper = self.max_removed if self.max_removed is not None else schema_size - 1
        upper = min(upper, schema_size - 1)
        if not 1 <= self.min_removed <= upper:
            raise SchemaTooSmall(
                f"removal bounds [{self.min_removed}, {upper}] invalid for "
                f"schema of {schema_size}"
            )
        return self.min_removed, upper


def _merge(base: dict, user: dict, trail: str = "") -> dict:
    out = dict(base)
    for key, value in user.items():
        dotted = f"{trail}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {dotted}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted} must be a mapping")
            out[key] = _merge(base[key], value, trail=f"{dotted}.")
        else:
            out[key] = value
    return out


# a JSON number that YAML 1.1 reads as a float: with a '.', and a sign on any exponent
_YAML_FLOAT = re.compile(r"-?[0-9]+\.[0-9]+(?:[eE][-+][0-9]+)?")


def parse_text(text: str, what: str):
    """`text` read as `yaml.safe_load` reads it (the README says where JSON
    differs); `json` reads JSON text, so that PyYAML loads only for other
    text. Every failure is a ConfigError saying it cannot parse `what`."""
    try:
        if not any(brk in text for brk in "\x85\u2028\u2029"):  # YAML folds these in a string
            with contextlib.suppress(json.JSONDecodeError):  # 1e5, NaN, Infinity: YAML strings
                return json.loads(text, parse_constant=str, parse_float=lambda number: (
                    float(number) if _YAML_FLOAT.fullmatch(number) else number))
        import yaml

        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValueError(exc) from exc
    except (ValueError, RecursionError) as exc:  # ValueError: an int past the digit limit
        raise ConfigError(f"cannot parse {what}: {exc}") from exc


def parse_override(assignment: str) -> tuple[str, object]:
    """Split one ``section.key=value`` override; the value parses as YAML."""
    if "=" not in assignment:
        raise ConfigError(f"override must look like key=value, got {assignment!r}")
    dotted, _, raw_value = assignment.partition("=")
    return dotted.strip(), parse_text(raw_value, f"override value {raw_value!r}")


def set_key(doc: dict, dotted: str, value) -> None:
    """Set an existing dotted key of a config document in place; a section
    takes only a mapping, merged into it as a config file's would be."""
    keys = dotted.split(".")
    target = doc
    for key in keys[:-1]:
        if not isinstance(target.get(key), dict):
            raise ConfigError(f"unknown config key: {dotted}")
        target = target[key]
    if keys[-1] not in target:
        raise ConfigError(f"unknown config key: {dotted}")
    if isinstance(target[keys[-1]], dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {dotted} must be a mapping")
        value = _merge(target[keys[-1]], value, trail=f"{dotted}.")
    target[keys[-1]] = value


@dataclass(frozen=True)
class PathsConfig:
    corpus_train: str | None = None
    corpus_dev: str | None = None
    corpus_test: str | None = None
    schema: str | None = None
    out_dir: str = "out"

    def out_path(self, *parts: str) -> Path:
        return Path(self.out_dir).joinpath(*parts)


@dataclass(frozen=True)
class EmbedderConfig:
    provider: Literal["remote-service", "precomputed-file"] = "precomputed-file"
    model_name: str = "bge-base-en"
    dimension: int = 768
    stopwords_file: str | None = None
    precomputed_path: str | None = None
    endpoint: str | None = None
    timeout: float = 10.0
    max_retries: int = 2

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        _check_remote(self.timeout, self.max_retries)


@dataclass(frozen=True)
class StoreConfig:
    source_splits: tuple[str, ...] = ("train", "dev")
    size: int | None = None
    seed: int = 0
    modes: tuple[Literal["word-level", "sentence-level"], ...] = (
        "word-level", "sentence-level")

    def __post_init__(self):
        if self.size is not None and self.size < 0:
            raise ValueError(f"size must be a non-negative integer or null, got {self.size!r}")
        if len(set(self.source_splits)) < len(self.source_splits):
            raise ValueError(f"source_splits must name no split twice, got {self.source_splits!r}")
        if not self.modes or len(set(self.modes)) < len(self.modes):
            raise ValueError(f"modes must list one or more modes, none twice, got {self.modes!r}")


@dataclass(frozen=True)
class PromptConfig:
    template_id: str = "default-v1"
    template_file: str | None = None
    task_description: str | None = None


@dataclass(frozen=True)
class EvalConfig:
    grounding: Literal["off", "strict"] = "strict"
    dedupe: bool = False
    match_mode: Literal["multiset", "positional"] = "multiset"


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    seed: int
    paths: PathsConfig
    embedder: EmbedderConfig
    store: StoreConfig
    retriever: RetrieverConfig
    generator: GeneratorSpec
    augment: AugmentConfig
    prompt: PromptConfig
    eval: EvalConfig

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.raw)

    @property
    def store_build_key(self) -> str:
        """Fingerprint of every setting a built store depends on: the
        embedder and store sections and the retriever's build fields.
        Query-time retriever fields (k, mode, nprobe, ...) are left out."""
        retriever = {key: self.raw["retriever"][key] for key in STORE_BUILD_FIELDS}
        return fingerprint(
            {"embedder": self.raw["embedder"], "store": self.raw["store"], "retriever": retriever}
        )


def fingerprint(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_SECTIONS = {"paths": PathsConfig, "embedder": EmbedderConfig, "store": StoreConfig,
             "retriever": RetrieverConfig, "generator": GeneratorSpec, "augment": AugmentConfig,
             "prompt": PromptConfig, "eval": EvalConfig}
_SEEDED = ("retriever", "store", "augment")
_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
          tuple: "a list of strings"}
_type_hints = functools.cache(typing.get_type_hints)  # once per class, not per cell


def _defaults() -> dict:
    doc = {"seed": 0}
    for name, cls in _SECTIONS.items():
        # YAML has no tuples: a tuple[str, ...] default is a list in the raw document
        doc[name] = {key: list(value) if isinstance(value, tuple) else value
                     for key, value in asdict(cls()).items()}
    for name in _SEEDED:
        doc[name]["seed"] = None
    return doc


def _fits(value, kind: type) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is tuple:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return isinstance(value, (int, float) if kind is float else kind)


def _checked(cls, values: dict, where: str) -> dict:
    """`values` checked against `cls`'s field annotations (`int`, `float`,
    `str`, `bool`, `X | None`, `tuple[str, ...]`, and a `Literal` of
    strings, alone or as a tuple's items), lists made tuples. A float must
    be finite, a string must not hold a NUL character and a `Literal` key
    takes only the values it names."""
    hints = _type_hints(cls)
    out = {}
    for key, value in values.items():
        hint = hints[key]
        nullable = isinstance(hint, types.UnionType)
        if nullable:
            hint = typing.get_args(hint)[0]
        kind = typing.get_origin(hint) or hint
        item = typing.get_args(hint)[0] if kind is tuple else hint
        allowed = typing.get_args(item) if typing.get_origin(item) is Literal else ()
        kind = str if kind is Literal else kind
        if not ((value is None and nullable) or _fits(value, kind)):
            null = " or null" if nullable else ""
            raise ConfigError(f"{where}: {key} must be {_KINDS[kind]}{null}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: {key} must be finite, got {value!r}")
        if isinstance(value, str) and "\0" in value:  # no file path can hold one
            raise ConfigError(f"{where}: {key} must not contain a NUL character")
        for one in value if kind is tuple else [value]:
            if allowed and one not in allowed:
                raise ConfigError(f"{where}: {key} must be one of {allowed}, got {one!r}")
        out[key] = tuple(value) if kind is tuple else value
    return out


def _build_section(cls, section: dict, name: str):
    fields = _checked(cls, section, f"bad [{name}] config")
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"bad [{name}] config: {exc}") from exc


def resolve(doc: dict) -> RunConfig:
    """Turn a merged plain-dict config into validated dataclasses."""
    seed = _checked(RunConfig, {"seed": doc["seed"]}, "bad config")["seed"]
    for name in _SEEDED:
        if doc[name]["seed"] is None:
            doc[name]["seed"] = seed
    sections = {name: _build_section(cls, doc[name], name) for name, cls in _SECTIONS.items()}
    return RunConfig(raw=doc, seed=seed, **sections)


def read_document(path: str | Path, what: str, not_found: str | None = None):
    """The YAML (or JSON) document in a config or grid file; every failure
    is a ConfigError naming the file."""
    text = files.read_text(path, files.Role(what, ConfigError, ConfigError, not_found=not_found))
    return parse_text(text, f"{what} {path}")


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults <- config file <- dotted overrides, then validate."""
    doc = _defaults()
    if path is not None:
        user = read_document(path, "config file", not_found=f"config file not found: {path}") or {}
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        doc = _merge(doc, user)
    for assignment in overrides or []:
        set_key(doc, *parse_override(assignment))
    return resolve(doc)
