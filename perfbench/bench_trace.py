"""Spans around calls into the program's public functions, from outside.

`Tracer.install` wraps each function named in TARGETS (and every public
search entry point of `ragner.vector_index`) wherever a `ragner` module
holds it, so calls made from inside the program are traced too. A target
that no longer exists is reported as missing and never fails the run.
Spans stay in memory; self time is a span's duration less the time its
children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from dataclasses import dataclass

TARGETS = (
    "embedder.load_precomputed",
    "embedder.Embedder.embed_words",
    "embedder.Embedder.embed_sentence",
    "vector_index.load_index",
    "vector_index.build_ivf",
    "vector_index.ivf_from_matrix",
    "retriever.retrieve",
    "retriever.ExampleStore.build",
    "promptkit.build_prompt",
    "promptkit.parse_output",
    "generation.generate",
    "augment.build_finetune_dataset",
    "evaluation.score",
    "pipeline.predict_sentences",
    "pipeline.run_cell",
    "corpus.read_sentences_jsonl",
    "corpus.parse_bio",
)
IVF_BUILDS = ("vector_index.build_ivf", "vector_index.ivf_from_matrix")
PER_LAYER = (
    "embedder.load_s", "embedder.loads", "embedder.embed_words_ms",
    "vector_index.flat_search_ms", "vector_index.searches", "vector_index.ivf_build_s",
    "vector_index.ivf_search_ms", "vector_index.ivf_recall_at_k", "vector_index.load_index_s",
    "retriever.build_store_s", "retriever.retrieve_p50_ms", "retriever.retrieve_p95_ms",
    "retriever.pool_ms", "promptkit.build_prompt_ms", "promptkit.parse_output_us",
    "generation.generate_ms", "augment.build_finetune_s", "evaluation.score_ms",
    "pipeline.predict_sentences_s", "pipeline.run_cell_s", "cli.overhead_s",
    "corpus.read_sentences_ms", "trace.overhead_s", "trace.overhead_ratio",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    root: int | None  # the CLI command span this call belongs to

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        root = None
        if parent is not None:
            root = self.spans[parent].root if self.spans[parent].root is not None else parent
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, root))
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # one span per resumption: the generator's own work, not its consumer's
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; remember the missing ones."""
        vector_index = sys.modules.get("ragner.vector_index")
        targets = list(TARGETS) + (search_entry_points(vector_index) if vector_index else [])
        for target in targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError):
                self.missing.append(target)

    def _install_one(self, target: str) -> None:
        module_name, *attrs = target.split(".")
        module = importlib.import_module(f"ragner.{module_name}")
        if len(attrs) == 1:
            original = getattr(module, attrs[0])
            wrapped = self._wrap(target, original)
            for mod in [m for n, m in sys.modules.items() if n.startswith("ragner")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)
            return
        cls = getattr(module, attrs[0])
        raw = inspect.getattr_static(cls, attrs[1])
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(target, raw.__func__))
        else:
            wrapped = self._wrap(target, raw)
        self._restore.append((cls, attrs[1], raw))
        setattr(cls, attrs[1], wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


def search_entry_points(vector_index) -> list[str]:
    """Public search functions and methods of the vector_index module."""
    found = []
    for name, obj in vars(vector_index).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != vector_index.__name__:
            continue
        if inspect.isfunction(obj) and "search" in name:
            found.append(f"vector_index.{name}")
        elif inspect.isclass(obj):
            found += [f"vector_index.{name}.{m}" for m, f in vars(obj).items()
                      if "search" in m and not m.startswith("_") and inspect.isfunction(f)]
    return found


# --- per-layer metrics ------------------------------------------------------

def _p(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered) + 0.5) - 1))]


def _children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)
    return kids


def _covered_by(spans, kids, idx: int, prefixes: tuple[str, ...]) -> float:
    """Time under span idx covered by its outermost descendants named with prefixes."""
    total = 0.0
    for c in kids.get(idx, []):
        if spans[c].name.startswith(prefixes):
            total += spans[c].duration
        else:
            total += _covered_by(spans, kids, c, prefixes)
    return total


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass of the chain (plus the probe)."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    kids = _children(spans)

    def durations(name: str) -> list[float]:
        return [spans[i].duration for i in by_name.get(name, [])]

    out: dict[str, tuple[float, str]] = {}

    def median(metric: str, name: str, scale: float, unit: str) -> None:
        values = durations(name)
        if values:
            out[metric] = (statistics.median(values) * scale, unit)

    median("embedder.load_s", "embedder.load_precomputed", 1, "s")
    chain_loads = [i for i in by_name.get("embedder.load_precomputed", [])
                   if spans[i].root is not None and spans[spans[i].root].name.startswith("cli.")]
    if chain_loads:
        out["embedder.loads"] = (float(len(chain_loads)), "count")
    median("embedder.embed_words_ms", "embedder.Embedder.embed_words", 1e3, "ms")
    median("vector_index.flat_search_ms", "vector_index.FlatIndex.search", 1e3, "ms")
    median("vector_index.ivf_search_ms", "vector_index.IvfIndex.search", 1e3, "ms")
    median("vector_index.load_index_s", "vector_index.load_index", 1, "s")
    median("retriever.build_store_s", "retriever.ExampleStore.build", 1, "s")
    median("promptkit.build_prompt_ms", "promptkit.build_prompt", 1e3, "ms")
    median("promptkit.parse_output_us", "promptkit.parse_output", 1e6, "us")
    median("generation.generate_ms", "generation.generate", 1e3, "ms")
    median("evaluation.score_ms", "evaluation.score", 1e3, "ms")
    median("pipeline.predict_sentences_s", "pipeline.predict_sentences", 1, "s")
    median("pipeline.run_cell_s", "pipeline.run_cell", 1, "s")
    median("corpus.read_sentences_ms", "corpus.read_sentences_jsonl", 1e3, "ms")

    builds = [spans[i].duration for name in IVF_BUILDS for i in by_name.get(name, [])
              if spans[i].parent is None or spans[spans[i].parent].name not in IVF_BUILDS]
    if builds:
        out["vector_index.ivf_build_s"] = (statistics.median(builds), "s")

    retrieves = by_name.get("retriever.retrieve", [])
    if retrieves:
        ms = [spans[i].duration * 1e3 for i in retrieves]
        out["retriever.retrieve_p50_ms"] = (statistics.median(ms), "ms")
        out["retriever.retrieve_p95_ms"] = (_p(ms, 0.95), "ms")
        pool = [(spans[i].duration - _covered_by(spans, kids, i, ("embedder.", "vector_index.")))
                * 1e3 for i in retrieves]
        out["retriever.pool_ms"] = (statistics.median(pool), "ms")
        searches = [i for i, s in enumerate(spans)
                    if s.name.startswith("vector_index.") and "search" in s.name
                    and (s.parent is None or "search" not in spans[s.parent].name)]
        in_retrieve = [i for i in searches if _has_ancestor(spans, i, "retriever.retrieve")]
        if in_retrieve:
            out["vector_index.searches"] = (len(in_retrieve) / len(retrieves), "count")

    per_call: dict[int | None, float] = {}
    for i in by_name.get("augment.build_finetune_dataset", []):
        per_call[spans[i].parent] = per_call.get(spans[i].parent, 0.0) + spans[i].duration
    if per_call:
        out["augment.build_finetune_s"] = (statistics.median(per_call.values()), "s")

    commands = [i for i, s in enumerate(spans) if s.name.startswith("cli.")]
    if commands:
        overhead = sum(spans[i].duration - sum(spans[c].duration for c in kids.get(i, []))
                       for i in commands)
        out["cli.overhead_s"] = (overhead, "s")
    return out


def _has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
