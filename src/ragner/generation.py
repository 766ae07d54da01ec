"""Generator backends: send a rendered prompt somewhere, get a completion.

Three backends:

- remote-completion: HTTP POST to a completion endpoint, with retries on
  transient failures. The plain wire format is {prompt, max_tokens,
  temperature} -> {text}; a thin adapter (wire_format="chat") maps to
  chat-style endpoints.
- mock-gold: renders the attached gold output. Downstream scoring of this
  backend is 100% by construction, which validates the whole pipeline.
- mock-echo-nearest: renders the output of the prompt's most similar
  in-prompt example, re-keyed to the query schema. A no-LLM probe whose
  score isolates retrieval quality from generator quality.

Both mocks are pure functions of (prompt, attached context). An optional
injected mock delay (plus a per-task deterministic jitter) exercises the
batch path's out-of-order completion without breaking determinism of the
returned texts.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import GeneratorSpec
from .corpus import NerOutput
from .errors import GenerationError, GenerationTimeout, HttpError, MissingGold
from .promptkit import Prompt, render_output
from .remote import post_json


@dataclass(frozen=True)
class GenerationTask:
    """One unit of generator work, keyed for order-independent batching."""

    query_id: int
    prompt: Prompt
    gold: NerOutput | None = None


@dataclass
class GenerationResult:
    query_id: int
    completion_text: str
    latency: float
    backend_tag: str
    attempt_count: int = 1
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def prompt_hash(prompt: Prompt | str) -> str:
    text = prompt if isinstance(prompt, str) else prompt.rendered
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mock_sleep(spec: GeneratorSpec, query_id: int) -> None:
    if spec.mock_delay <= 0 and spec.mock_jitter <= 0:
        return
    # jitter derived from the task key: varies across tasks, stable across runs
    digest = hashlib.sha256(str(query_id).encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64
    time.sleep(max(0.0, spec.mock_delay + spec.mock_jitter * unit))


def _mock_gold_completion(task: GenerationTask) -> str:
    if task.gold is None:
        raise MissingGold(f"mock-gold needs a gold output for query {task.query_id}")
    return render_output(task.gold.restricted_to(task.prompt.schema))


def _mock_echo_completion(task: GenerationTask) -> str:
    nearest = task.prompt.nearest_example
    if nearest is None:
        return render_output(NerOutput({}).restricted_to(task.prompt.schema))
    return render_output(nearest.output.restricted_to(task.prompt.schema))


def _extract_text(doc: object) -> str:
    if isinstance(doc, dict):
        if isinstance(doc.get("text"), str):
            return doc["text"]
        choices = doc.get("choices")
        first = choices[0] if isinstance(choices, list) and choices else None
        if isinstance(first, dict):
            message = first.get("message")
            if isinstance(message, dict) and isinstance(message.get("content"), str):
                return message["content"]
            if isinstance(first.get("text"), str):
                return first["text"]
    shape = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
    raise HttpError(f"completion response has no text field: {shape}")


def _remote_completion(spec: GeneratorSpec, prompt_text: str) -> tuple[str, int]:
    body = {"max_tokens": spec.max_tokens, "temperature": spec.temperature}
    if spec.wire_format == "chat":
        body["messages"] = [{"role": "user", "content": prompt_text}]
    else:
        body["prompt"] = prompt_text
    if spec.model_name:
        body["model"] = spec.model_name
    doc, attempts = post_json(
        spec.endpoint, body, spec.timeout, spec.max_retries,
        error=HttpError, timeout_error=GenerationTimeout,
    )
    return _extract_text(doc), attempts


def generate(task: GenerationTask, spec: GeneratorSpec) -> GenerationResult:
    """Run one prompt through the backend; errors become GenerationError."""
    started = time.perf_counter()
    attempts = 1
    if spec.backend == "mock-gold":
        _mock_sleep(spec, task.query_id)
        text = _mock_gold_completion(task)
    elif spec.backend == "mock-echo-nearest":
        _mock_sleep(spec, task.query_id)
        text = _mock_echo_completion(task)
    else:
        text, attempts = _remote_completion(spec, task.prompt.rendered)
    return GenerationResult(
        query_id=task.query_id,
        completion_text=text,
        latency=time.perf_counter() - started,
        backend_tag=spec.backend,
        attempt_count=attempts,
    )


def generate_batch(
    tasks: Sequence[GenerationTask], spec: GeneratorSpec
) -> list[GenerationResult]:
    """Run all tasks with at most spec.parallelism in flight.

    Results come back in task order regardless of completion order, and a
    failing task yields a result with `error` set instead of aborting the
    batch.
    """
    tasks = list(tasks)

    def run_one(task: GenerationTask) -> GenerationResult:
        started = time.perf_counter()
        try:
            return generate(task, spec)
        except GenerationError as exc:
            return GenerationResult(
                query_id=task.query_id,
                completion_text="",
                latency=time.perf_counter() - started,
                backend_tag=spec.backend,
                error=f"{type(exc).__name__}: {exc}",
            )

    if spec.parallelism == 1 or len(tasks) <= 1:
        return [run_one(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=spec.parallelism) as pool:
        return list(pool.map(run_one, tasks))


def latency_summary(results: Iterable[GenerationResult]) -> dict:
    """Median and friends over per-item latencies (seconds)."""
    latencies = sorted(r.latency for r in results)
    if not latencies:
        return {"count": 0, "median": None, "mean": None, "p95": None}
    p95_index = min(len(latencies) - 1, int(round(0.95 * (len(latencies) - 1))))
    return {
        "count": len(latencies),
        "median": statistics.median(latencies),
        "mean": statistics.fmean(latencies),
        "p95": latencies[p95_index],
    }
