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
import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import GeneratorSpec
from .corpus import NerOutput
from .errors import GenerationError, GenerationTimeout, HttpError
from .promptkit import Prompt, render_output
from .remote import post_json


@dataclass(frozen=True)
class GenerationTask:
    """One unit of generator work; `query_id` seeds a mock backend's jitter."""

    query_id: int
    prompt: Prompt
    gold: NerOutput | None = None


@dataclass
class GenerationResult:
    completion_text: str
    latency: float
    error: str | None = None


def prompt_hash(prompt: Prompt) -> str:
    return hashlib.sha256(prompt.rendered.encode("utf-8")).hexdigest()


def _mock_sleep(spec: GeneratorSpec, query_id: int) -> None:
    if spec.mock_delay <= 0 and spec.mock_jitter <= 0:
        return
    # jitter derived from the task key: varies across tasks, stable across runs
    digest = hashlib.sha256(str(query_id).encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64
    time.sleep(spec.mock_delay + spec.mock_jitter * unit)


def _mock_gold_completion(task: GenerationTask) -> str:
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


def _remote_completion(spec: GeneratorSpec, prompt_text: str) -> str:
    body = {"max_tokens": spec.max_tokens, "temperature": spec.temperature}
    if spec.wire_format == "chat":
        body["messages"] = [{"role": "user", "content": prompt_text}]
    else:
        body["prompt"] = prompt_text
    if spec.model_name:
        body["model"] = spec.model_name
    doc = post_json(
        spec.endpoint, body, spec.timeout, spec.max_retries,
        error=HttpError, timeout_error=GenerationTimeout,
    )
    return _extract_text(doc)


def generate(task: GenerationTask, spec: GeneratorSpec) -> GenerationResult:
    """Run one prompt through the backend; errors become GenerationError."""
    started = time.perf_counter()
    if spec.backend == "mock-gold":
        _mock_sleep(spec, task.query_id)
        text = _mock_gold_completion(task)
    elif spec.backend == "mock-echo-nearest":
        _mock_sleep(spec, task.query_id)
        text = _mock_echo_completion(task)
    else:
        text = _remote_completion(spec, task.prompt.rendered)
    return GenerationResult(
        completion_text=text,
        latency=time.perf_counter() - started,
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
                completion_text="",
                latency=time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}",
            )

    if spec.parallelism == 1 or len(tasks) <= 1:
        return [run_one(t) for t in tasks]
    from concurrent.futures import ThreadPoolExecutor  # here, so a serial batch never loads it
    with ThreadPoolExecutor(max_workers=spec.parallelism) as pool:
        return list(pool.map(run_one, tasks))


def latency_summary(results: Iterable[GenerationResult]) -> dict:
    """Median and friends over per-item latencies (seconds)."""
    latencies = sorted(r.latency for r in results)
    if not latencies:
        return {"count": 0, "median": None, "mean": None, "p95": None}
    n, mid = len(latencies), len(latencies) // 2
    return {  # the median and mean of `statistics`, which costs an import
        "count": n,
        "median": latencies[mid] if n % 2 else (latencies[mid - 1] + latencies[mid]) / 2,
        "mean": math.fsum(latencies) / n,
        "p95": latencies[min(n - 1, round(0.95 * (n - 1)))],
    }
